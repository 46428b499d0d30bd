"""Time the two sides of ``ReferenceIndex.resolve`` and one pipeline_dge op.

``benchmarks/results/align_record.txt`` quotes this script's output.

- ``split`` times one fresh-warehouse ``pipeline_dge`` op in process (the
  perf workload's seed-1 inputs), stage by stage, median of ``--ops``
  ops: the reference index (build or seed resolve), the tag alignment,
  the ``Read`` import, Query 1, and the collector's pauses and
  collections by generation.
  It uses only names both sides of a comparison have, so it can time an
  older tree: ``PYTHONPATH=<tree>/src python3 benchmarks/align_ablation.py
  split``.
- ``crossover`` times the seed scan against the full index on the DGE
  tag batch and on the ``consensus`` workload's 6x re-sequencing batch,
  then over a sweep of batch sizes, as a share of the reference's k-mer
  positions; ``SCAN_COST_PER_POSITION`` and ``SCAN_COST_PER_SEED`` in
  ``repro/genomics/aligner.py`` are the sweep's straight-line fit.

    PYTHONPATH=src python3 benchmarks/align_ablation.py split --ops 20
    PYTHONPATH=src python3 benchmarks/align_ablation.py crossover
"""

from __future__ import annotations

import argparse
import gc
import math
import random
import statistics
import time
from collections import defaultdict
from unittest import mock

from repro.core import GenomicsWarehouse
from repro.core.workflow import SequencingWorkflow
from repro.genomics import aligner as aligner_module
from repro.genomics.aligner import ReferenceIndex, ShortReadAligner
from repro.genomics.fastq import FastqRecord
from repro.genomics.sequences import kmers
from repro.genomics.simulate import (
    annotate_genes,
    generate_reference,
    simulate_dge_lane,
    simulate_resequencing_lane,
)

clock = time.perf_counter

#: scan costs that make ``resolve`` always scan, or always build
FORCED = {
    "scan": {"SCAN_COST_PER_POSITION": 0.0, "SCAN_COST_PER_SEED": 0.0},
    "full": {"SCAN_COST_PER_POSITION": math.inf},
}


def dge_inputs(seed: int):
    """pipeline_dge's inputs at scale 1 (``benchmarks/perf/workloads.py``)."""
    reference = generate_reference(
        n_chromosomes=3, chromosome_length=60_000, seed=seed
    )
    genes = annotate_genes(
        reference, n_genes=120, gene_length=(400, 1500), seed=seed + 1
    )
    reads = list(simulate_dge_lane(reference, genes, 10_000, seed=seed + 2))
    return reference, genes, reads


def resequencing_inputs(seed: int):
    """consensus's inputs at scale 1: 10 000 36-base reads over 3
    chromosomes of 20 000 bases, 6x coverage."""
    reference = generate_reference(
        n_chromosomes=3, chromosome_length=20_000, seed=seed
    )
    return reference, list(simulate_resequencing_lane(reference, 10_000, seed=seed + 2))


class Stopwatch:
    """Wraps methods with perf_counter pairs and sums their time."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.collections = defaultdict(int)
        self._patches = []

    def wrap(self, owner, name: str, label: str) -> None:
        original = getattr(owner, name, None)
        if original is None:
            return
        seconds = self.seconds

        def timed(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[label] += clock() - start

        patch = mock.patch.object(owner, name, timed)
        patch.start()
        self._patches.append(patch)

    def gc_callback(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = clock()
        else:
            generation = info["generation"]
            self.seconds[f"gc gen {generation}"] += clock() - self._gc_start
            self.collections[f"gc gen {generation} collections"] += 1

    def __enter__(self):
        gc.callbacks.append(self.gc_callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self.gc_callback)
        for patch in reversed(self._patches):
            patch.stop()


def one_op(reference, genes, reads) -> dict:
    wh = GenomicsWarehouse()
    wh.load_reference(reference)
    wh.load_genes(genes)
    wh.register_experiment(1, "perf", "dge")
    wh.register_sample_group(1, 1, "grp")
    wh.register_sample(1, 1, 1, "smp")
    try:
        with Stopwatch() as watch:
            watch.wrap(ReferenceIndex, "__init__", "index")
            watch.wrap(ReferenceIndex, "resolve", "index")
            watch.wrap(GenomicsWarehouse, "align_tags", "align_tags")
            watch.wrap(GenomicsWarehouse, "load_reads_from_filestream", "read import")
            watch.wrap(GenomicsWarehouse, "bin_unique_tags", "query 1")
            start = clock()
            SequencingWorkflow(wh).run_all(1, 1, 1, reads, kind="dge", hybrid=True)
            watch.seconds["whole op"] = clock() - start
        seconds = dict(watch.seconds)
        seconds["tag alignment"] = seconds.pop("align_tags") - seconds["index"]
        seconds["index entries"] = len(wh.aligner.index)
        seconds.update(watch.collections)
        return seconds
    finally:
        wh.close()


def split(ops: int) -> None:
    reference, genes, reads = dge_inputs(1)
    one_op(reference, genes, reads)  # warm-up
    runs = []
    for _ in range(ops):
        gc.collect()
        runs.append(one_op(reference, genes, reads))
    labels = ["whole op", "index", "tag alignment", "read import", "query 1"]
    gc_labels = {label for run in runs for label in run if label.startswith("gc")}
    labels += sorted(label for label in gc_labels if "collections" not in label)
    print(f"pipeline_dge seed 1, median of {ops} in-process ops (ms):")
    for label in labels:
        values = [run.get(label, 0.0) * 1e3 for run in runs]
        print(f"  {label:<16} {statistics.median(values):8.1f}")
    print(f"  index entries    {runs[-1]['index entries']:8d}")
    for label in sorted(label for label in gc_labels if "collections" in label):
        values = [run.get(label, 0) for run in runs]
        print(f"  {label:<26} {statistics.median(values):6.1f}")


def median_seconds(work, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        gc.collect()
        start = clock()
        work()
        times.append(clock() - start)
    return statistics.median(times)


def sides(reference, batch, repeat: int) -> dict:
    """Median seconds of resolve and of the whole ``align_many`` call,
    with the scan forced and with the full index forced."""
    out = {}
    for side, costs in FORCED.items():
        resolve_times = []

        def work():
            aligner = ShortReadAligner(reference)
            with Stopwatch() as watch, mock.patch.multiple(
                aligner_module, **costs
            ):
                watch.wrap(ReferenceIndex, "resolve", "resolve")
                aligner.align_many(batch)
            resolve_times.append(watch.seconds["resolve"])

        out[side] = median_seconds(work, repeat)
        out[side + " resolve"] = statistics.median(resolve_times)
    return out


def batch_seeds(reference, batch) -> tuple:
    """Distinct seeds the batch resolves, and the reference's positions."""
    aligner = ShortReadAligner(reference)
    with mock.patch.multiple(aligner_module, **FORCED["scan"]):
        aligner.align_many(batch)
    return len(aligner.index), aligner.index.positions


def crossover(repeat: int) -> None:
    print(f"both sides of resolve, median of {repeat} (ms)")
    print(f"{'batch':<28}{'seeds':>8}{'positions':>11}{'share':>7}"
          f"{'scan resolve':>14}{'full resolve':>14}{'scan op':>9}{'full op':>9}")
    for seed in (1, 2, 3):
        reference, _genes, reads = dge_inputs(seed)
        sequences = sorted({r.sequence for r in reads if "N" not in r.sequence})
        tags = [FastqRecord(f"t{i}", s, "I" * len(s)) for i, s in enumerate(sequences)]
        shapes = [(f"DGE tags, seed {seed}", reference, tags)]
        reference, reads = resequencing_inputs(seed)
        shapes.append((f"6x resequencing, seed {seed}", reference, reads))
        for name, reference, batch in shapes:
            seeds, positions = batch_seeds(reference, batch)
            t = sides(reference, batch, repeat)
            print(f"{name:<28}{seeds:>8}{positions:>11}{seeds / positions:>7.3f}"
                  f"{t['scan resolve'] * 1e3:>14.1f}{t['full resolve'] * 1e3:>14.1f}"
                  f"{t['scan'] * 1e3:>9.1f}{t['full'] * 1e3:>9.1f}")

    reference, _genes, _reads = dge_inputs(1)
    present = sorted({seed for r in reference for seed in kmers(r.sequence, 12)})
    positions = ReferenceIndex(reference).positions
    rng = random.Random(0)
    print()
    print(f"sweep: distinct present seeds resolved at once, {positions} positions")
    print(f"{'share':>7}{'seeds':>8}{'scan ms':>9}{'full ms':>9}{'scan/full':>11}")
    sweep = []
    for share in (0.005, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.6):
        seeds = rng.sample(present, int(share * positions))
        times = {}
        for side, costs in FORCED.items():
            def work():
                index = ReferenceIndex(reference)
                with mock.patch.multiple(aligner_module, **costs):
                    index.resolve(seeds)
            times[side] = median_seconds(work, repeat)
        sweep.append((len(seeds), times["scan"], times["full"]))
        print(f"{share:>7.3f}{len(seeds):>8}{times['scan'] * 1e3:>9.1f}"
              f"{times['full'] * 1e3:>9.1f}{times['scan'] / times['full']:>11.2f}")
    # scan = a + b * seeds (least squares), build = c: in units of one
    # build position, a / c per position and b * positions / c per seed
    seeds, scans, builds = zip(*sweep)
    slope, intercept = statistics.linear_regression(seeds, scans)
    build = statistics.median(builds)
    print(f"fit: scan = {intercept * 1e3:.1f} ms + {slope * 1e6:.2f} us/seed, "
          f"build = {build * 1e3:.1f} ms -> per position "
          f"{intercept / build:.3f}, per seed {slope * positions / build:.2f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("split", "crossover"))
    parser.add_argument("--ops", type=int, default=20)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    if args.what == "split":
        split(args.ops)
    else:
        crossover(args.repeat)


if __name__ == "__main__":
    main()
