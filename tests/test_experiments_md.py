"""EXPERIMENTS.md shows measured numbers only inside blocks that
``benchmarks/render_experiments.py`` fills from committed result files;
a block that drifts from its file fails here."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "render_experiments", ROOT / "benchmarks" / "render_experiments.py"
)
render_experiments = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(render_experiments)

PAPER_ARTIFACTS = (
    "table1_storage", "table2_storage", "filewrap_s52", "binning_s532",
    "figure7_script_trace", "figure8_sql_trace", "figure9_query1_plan",
    "figure10_query3_plan", "consensus_s533", "ablation_ids",
    "ablation_chunks", "ablation_udt", "ablation_indb_align",
)


def test_every_block_equals_its_result_file():
    text = render_experiments.DOCUMENT.read_text()
    assert render_experiments.stale_blocks(text) == [], (
        "run `python3 benchmarks/render_experiments.py`"
    )


def test_every_paper_artifact_has_a_whole_file_block():
    text = render_experiments.DOCUMENT.read_text()
    shown = {
        match["path"]
        for match in render_experiments.BLOCK.finditer(text)
        if not match["grep"]
    }
    committed = {
        f"benchmarks/results/{name}.txt" for name in PAPER_ARTIFACTS
    }
    assert committed <= shown
    for path in shown:
        assert path.startswith(("benchmarks/results/", "benchmarks/perf/results/"))
        assert (ROOT / path).is_file()


def test_a_hand_edited_number_is_caught(tmp_path, monkeypatch):
    result = tmp_path / "r.txt"
    result.write_text("speedup 1.84x\nother 2\n")
    monkeypatch.setattr(render_experiments, "ROOT", tmp_path)
    block = "<!-- results: r.txt -->\n```text\nspeedup 1.68x\nother 2\n```\n<!-- /results -->"
    assert render_experiments.stale_blocks(block) == ["r.txt"]
    filled = render_experiments.render(block)
    assert "1.84x" in filled and "1.68x" not in filled
    assert render_experiments.stale_blocks(filled) == []
    # grep= quotes only the matching lines
    quoted = render_experiments.render(
        "<!-- results: r.txt grep=^speed -->\n<!-- /results -->"
    )
    assert "speedup 1.84x" in quoted and "other" not in quoted
