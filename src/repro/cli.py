"""Command-line interface.

Seven subcommands cover the lab loop a downstream user runs:

- ``simulate`` — generate a synthetic reference genome, gene annotation,
  and a level-1 FASTQ lane (DGE or re-sequencing statistics);
- ``pipeline`` — run phases 1–3 against a FASTQ + reference: import,
  bin/align, and the tertiary analysis for the experiment kind, writing
  the result files;
- ``storage-report`` — measure a lane under every physical design and
  print the Table-1/2-style comparison;
- ``search`` — q-gram search for a pattern over a lane's reads;
- ``trace`` — run SQL with statement tracing on, print each statement's
  span tree (planner, operators, cross-process worker phases) and the
  wait-stats and Query Store views;
- ``lint`` — statically verify UDx modules (permission sets, contracts)
  and lint ``.sql`` scripts through the plan-time analyzer, exiting
  non-zero when any error-severity finding is reported;
- ``sanitize`` — run the plan sanitizer and fork-safety analyzer:
  ``--self`` proves the engine's own surface (fork-safety over the
  parallel engine's source + the golden plan corpus must produce zero
  diagnostics), paths mode checks user ``.sql`` scripts (planned with
  ``PLAN_VERIFY`` armed) and ``.py`` modules (fork-safety AST pass);
  ``--report`` writes the machine-readable findings JSON CI uploads.

Example::

    repro-genomics simulate --kind dge --out-dir ./demo --reads 20000
    repro-genomics pipeline --kind dge --out-dir ./demo \\
        --fastq ./demo/lane.fastq --reference ./demo/reference.fasta \\
        --genes ./demo/genes.tsv
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence

from .core import GenomicsWarehouse, SequencingWorkflow
from .core.storage_report import ScenarioData, format_table, measure_storage
from .genomics.aligner import ShortReadAligner
from .genomics.fasta import read_fasta, write_fasta
from .genomics.fastq import read_fastq, write_fastq
from .genomics.simulate import (
    GeneAnnotation,
    annotate_genes,
    generate_reference,
    simulate_dge_lane,
    simulate_resequencing_lane,
)


def _write_genes(genes: Sequence[GeneAnnotation], path: Path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write("gene_id\tname\tchromosome\tstart\tend\tstrand\n")
        for gene in genes:
            handle.write(
                f"{gene.gene_id}\t{gene.name}\t{gene.chromosome}\t"
                f"{gene.start}\t{gene.end}\t{gene.strand}\n"
            )


def _read_genes(path: Path) -> List[GeneAnnotation]:
    genes = []
    with open(path, "r", encoding="ascii") as handle:
        header = handle.readline()
        if not header.startswith("gene_id"):
            raise SystemExit(f"{path}: not a genes.tsv file")
        for line in handle:
            gene_id, name, chromosome, start, end, strand = (
                line.rstrip("\n").split("\t")
            )
            genes.append(
                GeneAnnotation(
                    int(gene_id), name, chromosome, int(start), int(end), strand
                )
            )
    return genes


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = generate_reference(
        n_chromosomes=args.chromosomes,
        chromosome_length=args.chromosome_length,
        seed=args.seed,
    )
    write_fasta(reference, out_dir / "reference.fasta")
    genes = annotate_genes(
        reference,
        n_genes=args.genes,
        gene_length=(300, max(1500, args.chromosome_length // 40)),
        seed=args.seed + 1,
    )
    _write_genes(genes, out_dir / "genes.tsv")
    if args.kind == "dge":
        reads = simulate_dge_lane(
            reference, genes, args.reads, seed=args.seed + 2
        )
    else:
        reads = simulate_resequencing_lane(
            reference, args.reads, seed=args.seed + 2
        )
    count = write_fastq(reads, out_dir / "lane.fastq")
    print(
        f"wrote {out_dir}/reference.fasta ({args.chromosomes} chromosomes), "
        f"genes.tsv ({len(genes)} genes), lane.fastq ({count} reads, "
        f"{args.kind})"
    )
    return 0


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def cmd_pipeline(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = list(read_fasta(args.reference))
    reads = list(read_fastq(args.fastq))
    started = time.perf_counter()
    with GenomicsWarehouse(data_dir=out_dir / "warehouse") as warehouse:
        warehouse.load_reference(reference)
        if args.genes:
            warehouse.load_genes(_read_genes(Path(args.genes)))
        elif args.kind == "dge":
            raise SystemExit("--genes is required for kind=dge")
        warehouse.register_experiment(1, args.name, args.kind)
        warehouse.register_sample_group(1, 1, "cli")
        warehouse.register_sample(1, 1, 1, "cli sample")
        workflow = SequencingWorkflow(warehouse)
        counts = workflow.run_all(
            1, 1, 1, reads, kind=args.kind, hybrid=not args.no_hybrid
        )
        print(
            f"phases done in {time.perf_counter() - started:.1f}s: "
            f"{counts['reads']} reads, {counts['alignments']} alignments, "
            f"{counts['tertiary']} tertiary rows"
        )
        if args.kind == "dge":
            tags_path = out_dir / "tags.txt"
            with open(tags_path, "w", encoding="ascii") as handle:
                for t_id, seq, freq in warehouse.db.query(
                    "SELECT t_id, t_seq, t_frequency FROM Tag ORDER BY t_id"
                ):
                    handle.write(f"{t_id}\t{freq}\t{seq}\n")
            expr_path = out_dir / "expression.txt"
            with open(expr_path, "w", encoding="ascii") as handle:
                for name, total, count in warehouse.db.query(
                    """
                    SELECT name, total_freq, tag_count FROM GeneExpression
                    JOIN Gene ON (ge_g_id = g_id)
                    ORDER BY total_freq DESC
                    """
                ):
                    handle.write(f"{name}\t{total}\t{count}\n")
            print(f"wrote {tags_path} and {expr_path}")
        else:
            from .genomics.fasta import FastaRecord

            id_to_name = {
                v: k for k, v in warehouse.reference_names.items()
            }
            consensus_path = out_dir / "consensus.fasta"
            records = [
                FastaRecord(
                    f"{id_to_name[rs_id]}_consensus",
                    seq,
                    f"start={start}",
                )
                for rs_id, start, seq in warehouse.db.query(
                    "SELECT c_rs_id, c_start, c_seq FROM Consensus"
                )
            ]
            write_fasta(records, consensus_path)
            print(f"wrote {consensus_path}")
        provenance = workflow.provenance(1, 1, 1)
        log_path = out_dir / "provenance.txt"
        with open(log_path, "w", encoding="ascii") as handle:
            for phase, tool, params, rows_out in provenance:
                handle.write(f"{phase}\t{tool}\t{rows_out}\t{params}\n")
        print(f"wrote {log_path}")
    return 0


# ---------------------------------------------------------------------------
# storage-report
# ---------------------------------------------------------------------------


def cmd_storage_report(args: argparse.Namespace) -> int:
    reference = list(read_fasta(args.reference))
    reads = list(read_fastq(args.fastq))
    aligner = ShortReadAligner(reference)
    alignments = [
        hit for _read, hit in aligner.align_all(reads) if hit is not None
    ]
    scenario = ScenarioData(
        kind=args.kind, reads=reads, alignments=alignments
    )
    table = measure_storage(scenario, include_udt=not args.no_udt)
    print(
        format_table(
            table,
            f"Storage efficiency — {args.fastq} "
            f"({len(reads)} reads, {len(alignments)} alignments)",
        )
    )
    return 0


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def cmd_search(args: argparse.Namespace) -> int:
    from .genomics.qgram import QGramIndex

    index = QGramIndex(q=min(8, max(4, len(args.pattern) // 2)))
    reads = {}
    for i, record in enumerate(read_fastq(args.fastq), start=1):
        reads[i] = record
        index.add(i, record.sequence)
    matches = list(
        index.search_approximate(args.pattern, args.mismatches)
    )
    print(
        f"{len(matches)} matches for {args.pattern!r} "
        f"(<= {args.mismatches} mismatches) in {len(reads)} reads"
    )
    for match in matches[: args.limit]:
        record = reads[match.sequence_id]
        print(
            f"  {record.name}  pos {match.position}  "
            f"mismatches {match.mismatches}  {record.sequence}"
        )
    if len(matches) > args.limit:
        print(f"  ... {len(matches) - args.limit} more")
    return 0


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

#: workload run by ``trace`` when no --sql is given: a dop-2 parallel
#: aggregate executed twice (so the query store accumulates runtime
#: rows) plus an EXPLAIN ANALYZE (so operator spans land in the trace)
_TRACE_DEMO = (
    "CREATE TABLE readings (r_id INT PRIMARY KEY, grp INT, amount INT)",
    "INSERT INTO readings VALUES "
    + ", ".join(f"({i}, {i % 8}, {i * 3 % 97})" for i in range(1, 513)),
    "SELECT grp, COUNT(*), SUM(amount), MAX(amount) FROM readings "
    "GROUP BY grp OPTION (MAXDOP 2)",
    "SELECT grp, COUNT(*), SUM(amount), MAX(amount) FROM readings "
    "GROUP BY grp OPTION (MAXDOP 2)",
    "EXPLAIN ANALYZE SELECT grp, COUNT(*), SUM(amount), MAX(amount) "
    "FROM readings GROUP BY grp OPTION (MAXDOP 2)",
)


def _print_view(db, view_name: str) -> None:
    columns = [c.name for c in db.catalog.table(view_name).schema.columns]
    rows = db.query(f"SELECT * FROM {view_name}")
    print(view_name)
    print("-" * len(view_name))
    print("  " + " | ".join(columns))
    for row in rows:
        print("  " + " | ".join(str(v) for v in row))
    print()


def cmd_trace(args: argparse.Namespace) -> int:
    from .engine import Database
    from .engine.errors import EngineError

    with Database() as db:
        for sql in args.sql or _TRACE_DEMO:
            print(f"> {sql}")
            try:
                result = db.execute(sql)
            except EngineError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            if isinstance(result, str):  # EXPLAIN plan text
                print(result)
            trace = db.last_trace()
            if trace is not None:
                print(trace.render())
                print()
        for view_name in (
            "sys_dm_os_wait_stats",
            "sys_dm_query_store_query",
            "sys_dm_query_store_runtime_stats",
        ):
            _print_view(db, view_name)
    return 0


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------


def _builtin_registrations() -> tuple:
    """The ``register(db)`` entry point of every shipped UDx library."""
    from .core.indb_align import register_alignment_extensions
    from .core.probabilistic import register_probabilistic_extensions
    from .core.wrappers import register_extensions
    from .engine.uda_library import register_statistics

    return (
        register_statistics,
        register_extensions,
        register_alignment_extensions,
        register_probabilistic_extensions,
    )


def _registration_findings(db, register) -> List:
    """Run one ``register(db)`` through the verifier and return the
    findings of every object it registered, re-registered or refused:
    each registration stores a fresh list in the library's per-object
    mapping, also when it then raises."""
    from .engine.verify.diagnostics import VerificationError

    registered = db.catalog.functions.findings
    before = dict(registered)
    try:
        register(db)
    except VerificationError:
        pass  # the refused object's findings are in the mapping
    return [
        replace(d, obj=f"{kind} {d.obj}")
        for (kind, name), diagnostics in registered.items()
        if before.get((kind, name)) is not diagnostics
        for d in diagnostics
    ]


def _load_register(path: Path, diagnostics: List):
    """Import one UDx module and return its ``register(db)`` entry
    point, or None after recording why there is none.

    Note: importing the module executes its top-level code — the same
    way ``CREATE ASSEMBLY`` loads the assembly it is about to verify.
    The registered bodies themselves are only parsed, never called."""
    import importlib.util

    from .engine.verify.diagnostics import finding

    spec = importlib.util.spec_from_file_location(
        f"_lint_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        diagnostics.append(
            finding("LINT-LOAD", str(path), f"module failed to load: {exc}")
        )
        return None
    register = getattr(module, "register", None)
    if register is None:
        diagnostics.append(
            finding(
                "LINT-LOAD",
                str(path),
                "UDx module defines no register(db) entry point",
            )
        )
    return register


def _lint_sql_file(db, path: Path, diagnostics: List) -> int:
    """Statically check a .sql script: every statement is parsed,
    bound, and (for queries) planned so the plan-time lint — and the
    plan sanitizer, which ``Database.check`` force-arms — fires, but
    queries and DML are never executed; only schema statements apply,
    against the scratch lint catalog, so later statements bind.
    Findings and bind errors become diagnostics; returns the number of
    statements checked. A ``-- lint: ignore RULE`` pragma above or at
    the end of a statement covers that statement alone (the planner
    reads it from the statement's text); one in a comment that belongs
    to no statement — after the last ``;`` — covers the whole script."""
    from .engine.errors import EngineError
    from .engine.sql.lexer import split_statements
    from .engine.verify.diagnostics import finding, parse_suppressions

    statements = 0
    file_rules: frozenset = frozenset()
    db.lint_sink = findings = []
    try:
        for piece in split_statements(path.read_text(encoding="utf-8")):
            try:
                checked = db.check(piece)
            except EngineError as exc:
                checked = 1
                message = f"{type(exc).__name__}: {exc}"
                diagnostics.append(finding("LINT-SQL", str(path), message))
            statements += checked
            if not checked:
                file_rules |= parse_suppressions(piece)
    finally:
        db.lint_sink = None
    for d in findings:
        if d.rule not in file_rules:
            diagnostics.append(replace(d, obj=f"{path}:{d.obj}"))
    return statements


def cmd_lint(args: argparse.Namespace) -> int:
    from .engine import Database

    diagnostics: List = []
    with Database() as db:
        if not args.no_builtins:
            for register in _builtin_registrations():
                diagnostics += _registration_findings(db, register)
        for raw in args.paths:
            path = Path(raw)
            if path.is_dir():
                targets = sorted(path.rglob("*.sql"))
                # a directory may mix UDx modules with ordinary scripts;
                # only modules exposing register(db) are verifiable
                targets += [
                    p
                    for p in sorted(path.rglob("*.py"))
                    if "def register(" in p.read_text(encoding="utf-8")
                ]
            else:
                targets = [path]
            for target in targets:
                if target.suffix == ".sql":
                    _lint_sql_file(db, target, diagnostics)
                elif target.suffix == ".py":
                    register = _load_register(target, diagnostics)
                    if register is not None:
                        diagnostics += _registration_findings(db, register)

    shown = [
        d
        for d in diagnostics
        if args.verbose or d.severity in ("warning", "error")
    ]
    for d in shown:
        print(d)
    errors = sum(1 for d in diagnostics if d.severity == "error")
    warnings = sum(1 for d in diagnostics if d.severity == "warning")
    print(
        f"lint: {errors} error(s), {warnings} warning(s), "
        f"{len(diagnostics) - errors - warnings} info"
    )
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# sanitize
# ---------------------------------------------------------------------------


def cmd_sanitize(args: argparse.Namespace) -> int:
    """Plan sanitizer + fork-safety analysis (PLAN-*/FORK-* rules).

    ``--self`` is the CI gate: the fork-safety AST pass over the
    parallel engine's own modules plus the golden plan corpus (Figure
    9/10 shapes and the differential-suite shapes across storage ×
    execution mode × DOP) must produce zero diagnostics. Paths mode
    checks user ``.sql`` scripts (statically planned with the
    sanitizer armed) and ``.py`` modules (fork-safety analysis).
    """
    import json

    from .engine import Database
    from .engine.verify.parallel_safety import analyze_path
    from .engine.verify.plan_corpus import corpus_plans
    from .engine.verify.plan_sanitizer import sanitize_plan

    findings: List = []  # (source, Diagnostic)
    plans_checked = 0
    modules_checked = 0

    if args.self_check:
        from .engine.verify.parallel_safety import (
            DEFAULT_MODULES,
            analyze_fork_safety,
        )

        modules_checked += len(DEFAULT_MODULES)
        for d in analyze_fork_safety():
            findings.append(("engine fork-safety", d))
        for description, plan, database in corpus_plans():
            plans_checked += 1
            for d in sanitize_plan(plan, database):
                findings.append((description, d))

    sql_paths: List[Path] = []
    py_paths: List[Path] = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            sql_paths.extend(sorted(path.rglob("*.sql")))
            py_paths.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            py_paths.append(path)
        else:
            sql_paths.append(path)
    for path in py_paths:
        modules_checked += 1
        for d in analyze_path(path):
            findings.append((str(path), d))
    if sql_paths:
        with Database() as db:
            for path in sql_paths:
                diagnostics: List = []
                plans_checked += _lint_sql_file(db, path, diagnostics)
                for d in diagnostics:
                    findings.append((str(path), d))

    for source, d in findings:
        print(f"{source}: {d}")
    errors = sum(1 for _s, d in findings if d.severity == "error")
    warnings = sum(1 for _s, d in findings if d.severity == "warning")
    print(
        f"sanitize: {plans_checked} plan(s), {modules_checked} module(s) "
        f"checked — {errors} error(s), {warnings} warning(s)"
    )
    if args.report:
        payload = {
            "summary": {
                "plans_checked": plans_checked,
                "modules_checked": modules_checked,
                "errors": errors,
                "warnings": warnings,
            },
            "findings": [
                {
                    "source": source,
                    "rule": d.rule,
                    "severity": d.severity,
                    "object": d.obj,
                    "message": d.message,
                }
                for source, d in findings
            ],
        }
        Path(args.report).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote report to {args.report}")
    return 1 if findings else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-genomics",
        description="High-throughput genomics data management "
        "(CIDR 2009 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--kind", choices=("dge", "resequencing"), default="dge")
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--reads", type=int, default=20_000)
    sim.add_argument("--chromosomes", type=int, default=2)
    sim.add_argument("--chromosome-length", type=int, default=50_000)
    sim.add_argument("--genes", type=int, default=60)
    sim.add_argument("--seed", type=int, default=7)
    sim.set_defaults(func=cmd_simulate)

    pipe = sub.add_parser("pipeline", help="run phases 1-3 on a lane")
    pipe.add_argument("--kind", choices=("dge", "resequencing"), required=True)
    pipe.add_argument("--fastq", required=True)
    pipe.add_argument("--reference", required=True)
    pipe.add_argument("--genes", help="genes.tsv (required for dge)")
    pipe.add_argument("--out-dir", required=True)
    pipe.add_argument("--name", default="cli experiment")
    pipe.add_argument(
        "--no-hybrid",
        action="store_true",
        help="import rows directly instead of via FILESTREAM + TVF",
    )
    pipe.set_defaults(func=cmd_pipeline)

    storage = sub.add_parser(
        "storage-report", help="Table-1/2-style storage comparison"
    )
    storage.add_argument("--fastq", required=True)
    storage.add_argument("--reference", required=True)
    storage.add_argument(
        "--kind", choices=("dge", "resequencing"), default="resequencing"
    )
    storage.add_argument("--no-udt", action="store_true")
    storage.set_defaults(func=cmd_storage_report)

    search = sub.add_parser("search", help="q-gram search over a lane")
    search.add_argument("--fastq", required=True)
    search.add_argument("--pattern", required=True)
    search.add_argument("--mismatches", type=int, default=0)
    search.add_argument("--limit", type=int, default=10)
    search.set_defaults(func=cmd_search)

    trace = sub.add_parser(
        "trace",
        help="run SQL with tracing and print the statement trace trees "
        "and the wait-stats / Query Store views",
    )
    trace.add_argument(
        "--sql",
        action="append",
        help="statement to run (repeatable; default: a dop-2 parallel "
        "aggregate demo workload)",
    )
    trace.set_defaults(func=cmd_trace)

    lint = sub.add_parser(
        "lint",
        help="statically verify UDx modules and lint .sql scripts "
        "(exit 1 on errors); queries are planned, never executed",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help=".sql scripts (planned and bound, not executed), UDx .py "
        "modules (imported so their register(db) entry point can run "
        "through the verifier), or directories of either",
    )
    lint.add_argument(
        "--no-builtins",
        action="store_true",
        help="skip verifying the shipped UDx registry",
    )
    lint.add_argument(
        "--verbose",
        action="store_true",
        help="also print info-level findings",
    )
    lint.set_defaults(func=cmd_lint)

    sanitize = sub.add_parser(
        "sanitize",
        help="run the plan sanitizer + fork-safety analyzer "
        "(PLAN-*/FORK-* rules; exit 1 on any finding)",
    )
    sanitize.add_argument(
        "paths",
        nargs="*",
        help=".sql scripts (statically planned with the sanitizer "
        "armed), .py modules (fork-safety AST analysis), or "
        "directories of either",
    )
    sanitize.add_argument(
        "--self",
        dest="self_check",
        action="store_true",
        help="verify the engine itself: fork-safety over the parallel "
        "engine's source plus zero diagnostics over the golden plan "
        "corpus (the CI gate)",
    )
    sanitize.add_argument(
        "--report",
        help="write findings + summary as JSON (CI uploads this as "
        "the diagnostic report artifact)",
    )
    sanitize.set_defaults(func=cmd_sanitize)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
