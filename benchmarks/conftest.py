"""Shared workloads and the report writer of the paper-artifact scripts.

Each ``bench_*.py`` here regenerates one table or figure of the paper's
Section 5: build the fixture, run the experiment once, write
``results/<artifact>.txt``, assert the paper's *shape* (orderings, byte
identity, plan structure). No script makes a speed statement; those
come from the repo benchmark (``benchmarks/perf/``).

Sizes are scaled for a laptop-class run (the paper's lanes were 490 MB+;
we default to tens of thousands of reads). ``REPRO_BENCH_SCALE`` scales
every workload, e.g. ``REPRO_BENCH_SCALE=4 pytest benchmarks/``. The
committed ``results/*.txt`` are scale-1 artifacts: at any other scale
the reports go to pytest's tmp directory and only the shape assertions
count.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bench_common import (  # noqa: E402
    CHROMOSOME_LENGTH,
    CHROMOSOMES,
    DGE_READS,
    RESEQ_READS,
    RESULTS_DIR,
    SCALE,
)

from repro.core import GenomicsWarehouse
from repro.genomics.simulate import (
    annotate_genes,
    generate_reference,
    simulate_dge_lane,
    simulate_resequencing_lane,
)


@pytest.fixture(scope="session")
def save_report(tmp_path_factory):
    """``save_report(name, text)``: persist one paper artifact and echo
    it. Only a scale-1 run may touch the committed goldens."""
    if SCALE == 1.0:
        directory = RESULTS_DIR
    else:
        directory = tmp_path_factory.mktemp("results")

    def save(name: str, text: str) -> None:
        path = directory / name
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return save


@pytest.fixture(scope="session")
def reference():
    return generate_reference(
        n_chromosomes=CHROMOSOMES,
        chromosome_length=CHROMOSOME_LENGTH,
        seed=1,
    )


@pytest.fixture(scope="session")
def genes(reference):
    return annotate_genes(
        reference, n_genes=120, gene_length=(400, 1500), seed=2
    )


@pytest.fixture(scope="session")
def dge_reads(reference, genes):
    return list(simulate_dge_lane(reference, genes, DGE_READS, seed=3))


@pytest.fixture(scope="session")
def reseq_reads(reference):
    return list(simulate_resequencing_lane(reference, RESEQ_READS, seed=4))


@pytest.fixture(scope="session")
def ranked_tags(dge_reads):
    counts = Counter(r.sequence for r in dge_reads if "N" not in r.sequence)
    return [
        (rank, count, seq)
        for rank, (seq, count) in enumerate(
            sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])), start=1
        )
    ]


@pytest.fixture(scope="session")
def dge_warehouse(reference, genes, dge_reads):
    """A loaded DGE warehouse: reads imported, tags binned and aligned."""
    wh = GenomicsWarehouse()
    wh.load_reference(reference)
    wh.load_genes(genes)
    wh.register_experiment(1, "dge bench", "dge")
    wh.register_sample_group(1, 1, "grp")
    wh.register_sample(1, 1, 1, "smp")
    wh.import_lane_relational(1, 1, 1, dge_reads)
    wh.bin_unique_tags(1, 1, 1)
    wh.align_tags(1, 1, 1)
    # warm the buffer pool, as the paper's measurements do
    list(wh.db.table("Read").scan())
    list(wh.db.table("Alignment").scan())
    yield wh
    wh.close()


@pytest.fixture(scope="session")
def reseq_read_ids(reseq_reads):
    """Read name -> r_id under import_lane_relational's id assignment."""
    return {
        record.name: r_id
        for r_id, record in enumerate(reseq_reads, start=1)
    }


@pytest.fixture(scope="session")
def reseq_warehouse(reference, reseq_reads, reseq_alignments, reseq_read_ids):
    """A loaded re-sequencing warehouse (position-clustered alignments).

    Alignments are computed once (``reseq_alignments``) and bulk-loaded,
    so the several warehouses in this suite share the aligner work.
    """
    wh = GenomicsWarehouse(alignment_clustering="position")
    wh.load_reference(reference)
    wh.register_experiment(1, "1000g bench", "resequencing")
    wh.register_sample_group(1, 1, "grp")
    wh.register_sample(1, 1, 1, "smp")
    wh.import_lane_relational(1, 1, 1, reseq_reads)
    wh.load_alignments(1, 1, 1, reseq_alignments, reseq_read_ids)
    list(wh.db.table("Read").scan())
    list(wh.db.table("Alignment").scan())
    yield wh
    wh.close()


@pytest.fixture(scope="session")
def reseq_alignments(reference, reseq_reads):
    """Raw alignments for storage measurements (shared, computed once)."""
    from repro.genomics.aligner import ShortReadAligner

    aligner = ShortReadAligner(reference)
    return [
        hit for _read, hit in aligner.align_all(reseq_reads) if hit is not None
    ]


@pytest.fixture(scope="session")
def dge_alignments(reference, ranked_tags):
    """Tag alignments for the DGE storage scenario."""
    from repro.genomics.aligner import ShortReadAligner
    from repro.genomics.fastq import FastqRecord

    aligner = ShortReadAligner(reference)
    tags = (
        FastqRecord(f"tag_{rank}", seq, "I" * len(seq))
        for rank, _count, seq in ranked_tags
    )
    return [hit for _tag, hit in aligner.align_all(tags) if hit is not None]
