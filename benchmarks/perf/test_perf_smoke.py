"""Smoke test of the perf benchmark at ``--scale 0.05`` (about 40
seconds): the output and BENCHMARK.json name the same workloads and
metrics, nothing fails its oracle, counts repeat exactly under one seed,
and another seed changes the inputs but not the metric set.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_smoke.py``; it is
outside ``tests/``, so the tier-1 suite does not collect it.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

#: metrics that count work rather than time it: identical under one seed
COUNTS = re.compile(
    r"^(storage\.(pages|page_cache|segments|columns)_|plancache\.(hit_ratio|evictions)"
    r"|exchange\.bytes_|index\.node_visits|filestream\.(chunk_reads|prefetch_hit)"
    r"|stored_bytes_per_input_byte|executor\.rows_examined|optimizer\.q_error)"
)


def run(tmp_path, label: str, *extra: str) -> dict:
    out = tmp_path / f"{label}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.05",
         "--seconds", "0.2", "--out", str(out), *extra],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    return json.loads(out.read_text())


def metrics_by_workload(record: dict) -> dict:
    return {run_["workload"]: run_["metrics"] for run_ in record["runs"]}


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("perf")
    return {
        "e2e": run(tmp_path, "e2e"),
        "e2e_again": run(tmp_path, "e2e_again"),
        "e2e_seed2": run(tmp_path, "e2e_seed2", "--seed", "2"),
        "layers": run(tmp_path, "layers", "--trace", "1"),
        "layers_again": run(tmp_path, "layers_again", "--trace"),
    }


@pytest.mark.parametrize("label, section", [("e2e", "end_to_end"), ("layers", "per_layer")])
def test_output_and_spec_name_the_same_things(records, label, section):
    by_workload = metrics_by_workload(records[label])
    assert list(by_workload) == [w["name"] for w in SPEC["workloads"]]
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload, metrics in by_workload.items():
        assert set(metrics) == set(units), workload
        for name, metric in metrics.items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))
    for run_ in records[label]["runs"]:
        assert run_["failed"] == 0, run_["workload"]


def test_run_conditions_are_recorded(records):
    record = records["e2e"]
    for key in ("nproc", "load_1min_start", "load_1min_end", "python", "platform",
                "commit", "seed", "scale", "seconds", "PYTHONHASHSEED", "noisy"):
        assert key in record
    for run_ in record["runs"]:
        assert run_["repetitions"] >= 3 and run_["params"]
        for metric in run_["metrics"].values():
            assert metric["samples"] >= 1


@pytest.mark.parametrize("first, second", [("e2e", "e2e_again"), ("layers", "layers_again")])
def test_counts_repeat_exactly_under_one_seed(records, first, second):
    a, b = metrics_by_workload(records[first]), metrics_by_workload(records[second])
    for workload in a:
        for name in a[workload]:
            if COUNTS.match(name):
                assert a[workload][name]["value"] == b[workload][name]["value"], (
                    workload, name)
    for run_a, run_b in zip(records[first]["runs"], records[second]["runs"]):
        assert run_a["params"] == run_b["params"]


def test_another_seed_changes_inputs_not_metrics(records):
    for run_a, run_b in zip(records["e2e"]["runs"], records["e2e_seed2"]["runs"]):
        assert run_a["params"]["inputs_crc32"] != run_b["params"]["inputs_crc32"]
        assert set(run_a["metrics"]) == set(run_b["metrics"])


def test_compare_accepts_the_files(records, tmp_path):
    paths = []
    for label in ("e2e", "e2e_again"):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(records[label]))
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), *map(str, paths)],
        capture_output=True, text=True, timeout=60,
    )
    # timings at this scale are noise: only "worse" (exit 1) or clean (0)
    assert done.returncode in (0, 1), done.stderr
    rows = [line for line in done.stdout.splitlines() if line.split()[-1:] and
            line.split()[-1] in ("ok", "worse", "unresolved")]
    assert len(rows) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
