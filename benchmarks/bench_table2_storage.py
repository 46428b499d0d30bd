"""Experiment T2 — Table 2: storage efficiency, 1000 Genomes re-sequencing.

Regenerates the paper's Table 2 at simulator scale: one re-sequencing
lane (mostly unique reads against a multi-chromosome reference), stored
under every physical design.

Report: ``benchmarks/results/table2_storage.txt``.

Expected shape (paper Section 5.1.2): FileStream == Files; the 1:1
import is larger than the original; normalizing the alignments saves
~40 %+ ("for the alignments, we can save 40% space this way"); page
compression is much less effective than on the DGE data because the
reads are unique ("the common-prefix- and dictionary-based compression
algorithms ... do not perform that well"); the bit-packed DNA UDT
recovers the sequence-payload savings the paper projects.
"""

import pytest

from repro.core.storage_report import (
    ScenarioData,
    format_engine_report,
    format_table,
    measure_storage,
)


@pytest.fixture(scope="module")
def scenario(reseq_reads, reseq_alignments):
    return ScenarioData(
        kind="resequencing",
        reads=reseq_reads,
        alignments=reseq_alignments,
    )


def test_table2_report(scenario, tmp_path_factory, save_report):
    engine_detail = []
    storage_table = measure_storage(
        scenario,
        workdir=tmp_path_factory.mktemp("table2"),
        engine_detail=engine_detail,
    )
    text = format_table(
        storage_table,
        "Table 2 (reproduced, simulator scale): Storage Efficiency "
        "- 1000 Genomes Re-sequencing",
    )
    text += "\n" + format_engine_report(engine_detail)
    save_report("table2_storage.txt", text)

    reads = storage_table["short_reads"]
    alignments = storage_table["alignments"]
    # paper claims, as assertions:
    assert reads["filestream"] == reads["files"]
    assert reads["one_to_one"] >= reads["files"] * 0.95
    # normalized alignments save a large fraction vs the text files
    assert alignments["normalized"] < alignments["files"] * 0.6
    # page compression weak on unique reads: < 10 % over ROW
    assert reads["norm_page"] >= reads["norm_row"] * 0.9
    # the DNA UDT shrinks the sequence payload
    assert reads["norm_udt"] < reads["normalized"]
