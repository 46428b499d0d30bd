"""Ablation A2 — ReadChunk size (the design knob of Section 4.1).

The paper's wrapper reads the FileStream "in larger chunks of data";
this ablation sweeps the chunk size from 4 KiB to 4 MiB and measures the
TVF scan rate, showing why "larger chunks" matter and where the returns
flatten out.

Report: ``benchmarks/results/ablation_chunks.txt``.
"""

import gc
import statistics
import time

import pytest

from bench_common import SCALE
from repro.core.wrappers import ChunkedBlobReader, split_fastq
from repro.engine import Database
from repro.genomics.fastq import fastq_bytes

N_READS = int(40_000 * SCALE)

CHUNK_SIZES = (4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20)

#: scans per chunk size; the report gives each and their median
RUNS = 5


@pytest.fixture(scope="module")
def blob(tmp_path_factory, dge_reads):
    db = Database(data_dir=tmp_path_factory.mktemp("chunks"))
    payload = fastq_bytes(dge_reads[:N_READS])
    guid = db.filestream.create(payload)
    yield db, guid, len(payload)
    db.close()


def scan_with_chunk_size(db, guid, chunk_size):
    reader = ChunkedBlobReader(db.filestream, guid, chunk_size=chunk_size)
    count = sum(map(len, reader.batches(split_fastq)))
    return count, reader.chunks_read


def collections():
    """The collector's run count, per generation, so far."""
    return [generation["collections"] for generation in gc.get_stats()]


def test_ablation_chunks_report(blob, save_report):
    db, guid, payload_size = blob
    results = {}
    for chunk_size in CHUNK_SIZES:
        seconds = []
        before = collections()
        for _ in range(RUNS):
            start = time.perf_counter()
            count, chunks = scan_with_chunk_size(db, guid, chunk_size)
            seconds.append(time.perf_counter() - start)
            assert count == N_READS
        runs = [after - was for after, was in zip(collections(), before)]
        median = statistics.median(seconds)
        results[chunk_size] = (median, chunks, seconds, runs)

    lines = [
        f"Ablation A2: TVF ReadChunk size sweep "
        f"({N_READS:,} FASTQ records, {payload_size / 1e6:.1f} MB blob)",
        f"{RUNS} scans per chunk size with the collector on; 'gc' counts "
        "its runs",
        "in them by generation (0/1/2), 'runs' gives every scan's seconds",
        "=" * 72,
        f"{'chunk size':>10}{'median s':>10}{'MB/s':>8}{'chunks':>8}"
        f"{'gc':>10}  runs",
        "-" * 72,
    ]
    for chunk_size in CHUNK_SIZES:
        elapsed, chunks, seconds, runs = results[chunk_size]
        rate = payload_size / 1e6 / elapsed
        label = (
            f"{chunk_size >> 10}K" if chunk_size < (1 << 20)
            else f"{chunk_size >> 20}M"
        )
        gc_runs = "/".join(map(str, runs))
        lines.append(
            f"{label:>10}{elapsed:>10.3f}{rate:>8.1f}{chunks:>8}"
            f"{gc_runs:>10}  " + " ".join(f"{s:.3f}" for s in seconds)
        )
    lines.append("-" * 72)
    lines.append(
        "Tiny chunks pay per-ReadChunk overhead and constant re-paging of\n"
        "split entries; each buffer is decoded and split in bulk, so the\n"
        "scan flattens within a few tens of KiB. A buffer's rows are alive\n"
        "together, so the larger the buffer the more often the scan runs\n"
        "the collector, and a buffer that holds the whole blob holds all\n"
        "its rows at once — the paper's 'scan through the file in larger\n"
        "chunks' design point."
    )
    save_report("ablation_chunks.txt", "\n".join(lines))

    # the exact half of the shape: larger chunks, fewer ReadChunk calls
    chunk_counts = [results[size][1] for size in CHUNK_SIZES]
    assert chunk_counts == sorted(chunk_counts, reverse=True)
    assert chunk_counts[0] > chunk_counts[-1]
    # the timed half: the sweet spot is no slower than the tiniest chunk.
    # In-process the sweep is flat, and one 0.1-0.2 s scan moves by up to
    # 1.4x against its neighbour on a shared host, so the margin is the
    # noise, not 5 %
    smallest = results[CHUNK_SIZES[0]][0]
    sweet_spot = results[256 << 10][0]
    assert sweet_spot <= smallest * 1.5
