"""Experiment T1 — Table 1: storage efficiency, digital gene expression.

Regenerates the paper's Table 1 at simulator scale: one DGE lane's
level-1 reads, unique tags, alignments, and gene-expression results,
stored under every physical design (Files / FileStream / 1:1 /
normalized / +ROW / +PAGE / +DNA-UDT).

Report: ``benchmarks/results/table1_storage.txt``.

Expected shape (paper Section 5.1.1): FileStream == Files; the 1:1
import is larger than the files; the normalized schema with row
compression matches the files; page compression wins further on this
repetitive workload; alignments shrink drastically once sequences are
referenced by foreign key instead of repeated.
"""

import pytest

from repro.core.storage_report import (
    ScenarioData,
    format_engine_report,
    format_table,
    measure_storage,
)


@pytest.fixture(scope="module")
def scenario(dge_reads, ranked_tags, dge_alignments, genes):
    expression = [
        (f"GENE{g.gene_id:05d}", (i + 1) * 7, i + 1)
        for i, g in enumerate(genes[: len(genes) // 2])
    ]
    return ScenarioData(
        kind="dge",
        reads=dge_reads,
        alignments=dge_alignments,
        ranked_tags=ranked_tags,
        expression=expression,
        # DGE aligns *tags*, so the mapview sequences come from the tag
        # list rather than the raw reads
        alignment_sequences={
            f"tag_{rank}": (seq, "I" * len(seq))
            for rank, _count, seq in ranked_tags
        },
    )


def test_table1_report(scenario, tmp_path_factory, save_report):
    engine_detail = []
    storage_table = measure_storage(
        scenario,
        workdir=tmp_path_factory.mktemp("table1"),
        engine_detail=engine_detail,
    )
    text = format_table(
        storage_table,
        "Table 1 (reproduced, simulator scale): Storage Efficiency "
        "- Digital Gene Expression",
    )
    text += "\n" + format_engine_report(engine_detail)
    save_report("table1_storage.txt", text)

    reads = storage_table["short_reads"]
    # paper claims, as assertions:
    assert reads["filestream"] == reads["files"]
    assert reads["one_to_one"] >= reads["files"]
    assert reads["norm_row"] <= reads["files"] * 1.1
    assert reads["norm_page"] < reads["norm_row"]
    alignments = storage_table["alignments"]
    assert alignments["normalized"] < alignments["one_to_one"]
    # columnstore ablation: the all-integer Alignment table encodes
    # (bit-pack / RLE) well below the uncompressed heap
    assert alignments["norm_column"] < alignments["normalized"]
