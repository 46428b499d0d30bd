"""The repo's one benchmark: seven paper-grounded workloads, end-to-end
metrics (``--trace 0``) and per-layer metrics from a traced run
(``--trace 1``), every result checked against an oracle.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--scale F] [--runs N]
                                   [--out FILE]

Each workload runs in a fresh child process under ``PYTHONHASHSEED=0``
(the exchange partitions on ``hash(key) % dop``, so an unfixed hash seed
changes partition balance and bytes shipped from run to run). The last
line of standard output is one JSON object; with one workload it has
exactly the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
BENCHMARK.json at the root of the repo names the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from harness import (  # noqa: E402
    Recorder,
    calibrate,
    conditions,
    peak_rss_mib,
    percentile,
    perf_counter,
    quartiles,
    run_repetitions,
    speed_factor,
    stop_children,
)

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# the child: one workload, one mode
# ---------------------------------------------------------------------------


def run_untraced(cls, seed: int, scale: float, seconds: float) -> dict:
    """End-to-end metrics: set up ``SETUPS`` times, then whole repetitions
    of the user-visible call for ``seconds``."""
    setups, raw_setups = [], []
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            workload.close()
            workload = None
        gc.collect()
        workload = cls(seed, scale)
        before = statistics.median(calibrate() for _ in range(5))
        start = perf_counter()
        workload.setup()
        raw_setups.append(perf_counter() - start)
        after = statistics.median(calibrate() for _ in range(5))
        setups.append(raw_setups[-1] * speed_factor(before, after))
    measured = run_repetitions(workload, seconds, workload.execute)
    stored_ratio = workload.stored_bytes() / workload.input_bytes
    workload.close()

    rates = [workload.items_per_rep / wall for wall in measured.rep_walls]
    raw_rates = [workload.items_per_rep / sum(rep) for rep in measured.raw_reps]
    latencies = [t * 1e3 for t in measured.pooled]

    def metric(values, unit, raw=None):
        q1, median, q3 = quartiles(values)
        out = {"value": median, "unit": unit, "q1": q1, "q3": q3,
               "samples": len(values)}
        if raw is not None:
            out["raw"] = statistics.median(raw)
        return out

    return {
        "params": workload.params,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "repetitions": len(measured.reps),
        "metrics": {
            "setup_s": metric(setups, "s", raw_setups),
            "items_per_s": metric(rates, "items/s", raw_rates),
            "op_ms_p50": {
                "value": percentile(latencies, 50), "unit": "ms",
                "q1": percentile(latencies, 25), "q3": percentile(latencies, 75),
                "samples": len(latencies),
                "raw": statistics.median(measured.raw_pooled) * 1e3,
            },
            "peak_rss_mb": metric([peak_rss_mib()], "MiB"),
            "stored_bytes_per_input_byte": metric([stored_ratio], "ratio"),
        },
    }


def run_traced(cls, seed: int, scale: float, seconds: float, spec: dict) -> dict:
    """Per-layer metrics: a third of ``seconds`` each on the user-visible
    call, on the staged path with the recorder off, and on the staged
    path recording spans; then the workload's single-layer probes."""
    from repro.engine.metrics import Counters

    workload = cls(seed, scale)
    workload.setup()
    share = seconds / 3.0
    plain = run_repetitions(workload, share, workload.execute, min_reps=2)
    done = len(plain.reps)
    off = Recorder(enabled=False)
    staged_off = run_repetitions(
        workload, share, lambda op: workload.staged(op, off),
        min_reps=2, first_rep=done,
    )
    done += len(staged_off.reps)
    rec = Recorder()
    rec.op = 0

    def traced(op):
        rec.op += 1
        with rec.span("op"):
            return workload.staged(op, rec)

    before = workload.snapshot()
    staged_on = run_repetitions(workload, share, traced, min_reps=2, first_rep=done)
    delta = Counters.delta(workload.snapshot(), before)
    ops = staged_on.attempted

    metrics = {entry["name"]: 0.0 for entry in spec["per_layer"]}

    def ratio(part: str, *rest: str) -> float:
        whole = delta[part] + sum(delta[name] for name in rest)
        return delta[part] / whole if whole else 0.0

    def span_median(name: str, factor: float) -> float:
        durations = rec.durations(name)
        return statistics.median(durations) * factor if durations else 0.0

    metrics.update({
        "storage.pages_read": delta["pages_read"] / ops,
        "storage.page_cache_misses": delta["page_cache_misses"] / ops,
        "storage.segments_read": delta["segments_read"] / ops,
        "storage.segments_skipped": delta["segments_skipped"] / ops,
        "storage.columns_read": delta["columns_read"] / ops,
        "filestream.chunk_reads": delta["filestream_chunk_reads"] / ops,
        "filestream.prefetch_hit_ratio": ratio(
            "filestream_prefetch_hits", "filestream_prefetch_misses"
        ),
        "plancache.hit_ratio": ratio("plancache_hits", "plancache_misses"),
        "plancache.evictions": delta["plancache_evictions"] / ops,
        "index.node_visits_per_seek": (
            delta["index_node_visits"] / delta["index_seeks"]
            if delta["index_seeks"] else 0.0
        ),
        "plancache.fetch_text_us": span_median("plancache.fetch_text", 1e6),
        "plancache.miss_us": span_median("plancache.fetch", 1e6),
        "core.primary_s": span_median("core.primary", 1.0),
        "core.secondary_s": span_median("core.secondary", 1.0),
        "core.tertiary_s": span_median("core.tertiary", 1.0),
        "telemetry.residual_us": (
            statistics.median(plain.pooled) - statistics.median(staged_off.pooled)
        ) * 1e6,
        "trace.overhead_share": (
            statistics.median(staged_on.rep_walls)
            / statistics.median(staged_off.rep_walls) - 1.0
        ),
    })
    # the highest percentile with at least ten samples beyond it
    if len(plain.pooled) >= 1_000:
        metrics["op_ms_p99"] = percentile(plain.pooled, 99) * 1e3
    metrics.update(workload.probes())
    workload.close()
    unknown = sorted(set(metrics) - {entry["name"] for entry in spec["per_layer"]})
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")

    op_total = sum(rec.durations("op"))
    layers = sorted(
        (
            {
                "layer": "harness" if name == "op" else name,
                "self_us_per_op": seconds_ * 1e6 / ops,
                "share": seconds_ / op_total,
            }
            for name, seconds_ in rec.self_times().items()
        ),
        key=lambda row: -row["share"],
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace_{workload.name}.json", "w") as handle:
        json.dump(
            {"workload": workload.name, "seed": seed, "scale": scale,
             "counters_per_op": {k: v / ops for k, v in sorted(delta.items())},
             "layers": layers,
             "span_fields": ["name", "start", "end", "parent", "op"],
             "spans": rec.spans},
            handle,
        )
    units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    return {
        "params": workload.params,
        "attempted": plain.attempted + staged_off.attempted + staged_on.attempted,
        "failed": plain.failed + staged_off.failed + staged_on.failed,
        "repetitions": len(staged_on.reps),
        "layers": layers,
        "traced_op_us": op_total * 1e6 / ops,
        "untraced_op_p50_us": statistics.median(plain.raw_pooled) * 1e6,
        "telemetry_share": metrics["telemetry.residual_us"]
        / (statistics.median(plain.pooled) * 1e6),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def child_main(args) -> int:
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    try:
        if args.trace:
            result = run_traced(cls, args.seed, args.scale, args.seconds, load_spec())
        else:
            result = run_untraced(cls, args.seed, args.scale, args.seconds)
    finally:
        stop_children()
    result.update(workload=cls.name, item=cls.item, seed=args.seed,
                  load_1min_end=os.getloadavg()[0])
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# the parent: spawn children, print, record
# ---------------------------------------------------------------------------


def spawn(args, workload: str, seed: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--scale", str(args.scale),
        "--trace", str(args.trace),
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if done.returncode != 0:
        raise SystemExit(f"workload {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def show(result: dict) -> None:
    print(
        f"\n== {result['workload']}  seed {result['seed']}  "
        f"{result['repetitions']} repetitions, {result['attempted']} ops, "
        f"fail_share {result['failed'] / result['attempted']:.4f}"
    )
    for name, metric in result["metrics"].items():
        samples = f"  (n={metric['samples']})" if "samples" in metric else ""
        print(f"  {name:<44}{metric['value']:>16.6g} {metric['unit']}{samples}")
    if "layers" in result:
        print(
            f"  self time per op (traced op {result['traced_op_us']:.1f} us, "
            f"untraced p50 {result['untraced_op_p50_us']:.1f} us):"
        )
        for row in result["layers"]:
            print(
                f"    {row['layer']:<28}{row['self_us_per_op']:>14.1f} us"
                f"{row['share']:>8.1%}"
            )
        dominant = next(r for r in result["layers"] if r["layer"] != "harness")
        print(f"  dominant layer: {dominant['layer']} ({dominant['share']:.1%})")
        residual = result["metrics"]["telemetry.residual_us"]["value"]
        print(
            f"  Database.execute adds {residual:.1f} us around these layers "
            f"({result['telemetry_share']:.1%} of the untraced op, both at "
            f"reference speed)"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: traced run, per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, on seeds seed, seed+1, ...")
    parser.add_argument("--out", help="write every run's record to this file")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print("run.py: the program's source (src/repro) is not in this "
              "checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.child:
        return child_main(args)

    record = conditions(ROOT, args.seed, args.scale, args.seconds)
    if record["noisy"]:
        print(
            f"warning: load average {record['load_1min_start']:.2f} exceeds "
            f"nproc - 0.5; this run is marked noisy", file=sys.stderr,
        )
    record.update(trace=args.trace, runs=[])
    selected = [args.workload] if args.workload else names
    for run_no in range(args.runs):
        for workload in selected:
            result = spawn(args, workload, args.seed + run_no)
            show(result)
            record["runs"].append(result)
    record["load_1min_end"] = os.getloadavg()[0]
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)

    runs = record["runs"]
    lines = [
        {name: {"value": m["value"], "unit": m["unit"]}
         for name, m in result["metrics"].items()}
        for result in runs
    ]
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": lines[0] if len(runs) == 1 else [
            {"workload": r["workload"], "seed": r["seed"], "metrics": line}
            for r, line in zip(runs, lines)
        ],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
