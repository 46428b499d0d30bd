"""Names that earlier changes retired must not drift back.

``RETIRED`` is the table: what retired the names, a regular expression
matching them, and the paths (files, directories or globs relative to
the repository root) that must not mention them. The checks after it
hold what a name search cannot: one vote ranking, loaders that insert
in batches, per-statement bookkeeping that walks nothing twice, and one
owner each for the literal pattern and the rule catalog. Every check
reads a tree passed as ``root``, so a test can plant a name in a
scratch tree and watch the check catch it.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELF = Path(__file__).resolve()

#: the loaders the per-row write path lived in
LOADERS = (
    "src/repro/core/warehouse.py",
    "src/repro/engine/database.py",
    "src/repro/engine/table.py",
)

RETIRED = (
    (
        "the DOP simulator",
        r"simulated_wall|lpt_makespan|MODE_SIMULATED"
        r"|trace_from_parallel_stats",
        ("src", "benchmarks/bench_*.py", "tests"),
    ),
    (
        "the second stat store and span model",
        r"MetricsRegistry|QueryStats\b|SpanTimeline|normalize_query_text"
        r"|timeline_chrome_events",
        ("src", "benchmarks/bench_*.py", "tests"),
    ),
    (
        "the per-row clustered seek bridge",
        r"batches_from_rows\(self\.table\.seek"
        r"|batches_from_rows\(self\.table\.ordered_scan",
        ("src",),
    ),
    (
        "the second perf lab and the operators no ablation kept",
        r"save_bench_json|BENCH_[a-z*<]|benchmark\.pedantic|--benchmark-"
        r"|ParallelMergeUda|FusedFilterProject|_count_star_fast_path"
        r"|uda_group|PLAN-FUSION|NestedLoopJoin",
        (
            "src", "benchmarks/bench_*.py", "benchmarks/bench_common.py",
            "benchmarks/conftest.py", "tests", "README.md", "EXPERIMENTS.md",
            "DESIGN.md",
        ),
    ),
    (
        "the per-row write path",
        r"_pk_index\.contains\(|validate_row\(",
        LOADERS,
    ),
    (
        "the page-shipping exchange",
        r'partition_payloads|_SLICE_CACHE|MODE_ROWS|"rows": partition'
        r"|REPRO_WORKER_TIMEOUT",
        ("src",),
    ),
    (
        "the second execution mode",
        r"execute_batch|execution_mode|batch_capable"
        r"|_select_execution_modes|PLAN-MODE|batch_cost_factor"
        r"|make_row_projector|\brow_mode\b",
        (
            "src", "tests", "benchmarks/bench_*.py", "README.md", "DESIGN.md",
            "EXPERIMENTS.md",
        ),
    ),
    (
        "the second, third and fourth SQL scanners",
        r"class Lexer\b|_split_sql_script|statement_shape|literal_values"
        r"|_key_text",
        ("src", "tests", "benchmarks/bench_*.py", "README.md", "DESIGN.md"),
    ),
    (
        "per-analyser rule catalogs and findings plumbing",
        r"_Findings|verification_rows|LINT_RULES|PLAN_RULES|FORK_RULES"
        r"|_record_lint|drain_registrations|REPRO_PLAN_VERIFY"
        r"|udx_verifier import .*Diagnostic",
        ("src", "tests", "README.md", "DESIGN.md"),
    ),
    (
        "the plan cache's sniffing guards, plan-unstable mode and "
        "automatic statistics refresh",
        r"GuardProbe|_tripped_guard|_note_flipflop|unstable_after"
        r"|statistics_stale|_maybe_auto_update_statistics"
        r"|modification_counter|Auto UPDATE STATISTICS",
        ("src", "tests", "README.md", "DESIGN.md"),
    ),
    (
        "the unhinted parallel decision and its knobs",
        r"default_dop|parallel_agg_wins|encoded_agg_wins|exchange_pays_factor"
        r"|\bmax_dop\b|MAX_DOP|--dop\b",
        (
            "src", "tests", "examples", "benchmarks/bench_*.py", "README.md",
            "DESIGN.md",
        ),
    ),
    (
        "the surface no caller reached",
        r"\bTransaction\b|TransactionError|SLOW_QUERY|slow_quer"
        r"|set_foreign_key_enforcement|SetStatisticsStmt"
        r"|(table|_table|\))\.heap\.",
        (
            "src", "tests", "examples", "benchmarks/bench_*.py", "README.md",
            "DESIGN.md",
        ),
    ),
    (
        "the columnstore paths no workload ran",
        r"add_runs|add_slices|slice_capable|harvest_segment_statistics"
        r"|worth_pushing|columnstore_push_threshold|PLAN-PUSHDOWN-ENC"
        r"|_KNOWN_ENCODINGS",
        ("src", "tests", "DESIGN.md", "README.md"),
    ),
    (
        "the per-group aggregate states",
        r"\bAggregateState\b|_UdaState|\bnew_state\("
        r"|\b_(CountStar|CountValue|CountDistinct|Sum|Min|Max|Avg)\b",
        ("src", "tests", "DESIGN.md", "README.md"),
    ),
    (
        "the joins' own residual check",
        r"\bresidual=|self\.residual\b",
        ("src", "tests"),
    ),
    (
        "the join prices kept beside the join operators' own",
        r"prefer_merge_join|prefer_key_lookup",
        ("src", "tests", "DESIGN.md", "README.md"),
    ),
    (
        "the selectivity feedback loop",
        r"SelectivityMemory|SelectivityObservation|selectivity_memory"
        r"|_harvest_selectivities|selectivity_site|loop_rows|_stats_informed"
        r"|_statistical_selectivity",
        ("src", "tests", "DESIGN.md", "README.md"),
    ),
    (
        "the second stored value per key",
        r"\.round_trips\b|_fixed_bytes",
        ("src", "tests", "DESIGN.md", "README.md"),
    ),
    (
        "the per-position vote window and the per-row UDA argument lists",
        r"_flush_before|self\._window\b|\[fn\(row\) for fn in fns\] for row",
        ("src/repro/genomics/consensus.py", "src/repro/engine/executor"),
    ),
    (
        "the per-entry FASTQ parser",
        r"parse_fastq_entry",
        (
            "src", "tests", "benchmarks/bench_*.py", "DESIGN.md", "README.md",
            "EXPERIMENTS.md",
        ),
    ),
    (
        "the per-entry FASTA parser",
        r"parse_fasta_entry",
        (
            "src", "tests", "benchmarks/bench_*.py", "DESIGN.md", "README.md",
            "EXPERIMENTS.md",
        ),
    ),
    (
        "the planner's second pricing path and column walk",
        r"_owner|_stored_column|_column_ndv|_bound_columns|_priced"
        r"|_group_ordered|scan_filter_cost",
        ("src",),
    ),
    (
        "the estimates set beside the operators' own and the logical "
        "join reorder",
        r"\b_est_rows\b|_unit_rows|reorder_joins",
        ("src", "tests", "DESIGN.md", "README.md"),
    ),
    (
        "the planner's est_rows writes: CostModel.annotate is the one",
        r"\.est_rows = ",
        ("src/repro/engine/planner.py", "src/repro/engine/executor"),
    ),
    (
        "the per-record page fit test and the nested B+tree key form",
        r"\.fits\(|\bdef fits\b|_NONE_SENTINEL|_VALUE_WRAP",
        ("src", "tests", "DESIGN.md", "README.md"),
    ),
    (
        "the conjunct decoders beside sarg and LINT-TYPE's own type buckets",
        r"\b(_column_comparison|_conjunct_ends|equality_column_names"
        r"|_pushable_predicate|_literal_kind|_column_kind|_NUMERIC_KINDS"
        r"|_TEXT_KINDS)\b",
        ("src", "tests", "DESIGN.md", "README.md"),
    ),
    (
        "the second renderings of the DMVs and trace rows: Prometheus text, "
        "Chrome trace-event JSON and the metrics and cache subcommands",
        r"prometheus_text|metrics_prometheus|trace_chrome_events"
        r"|chrome_trace_payload|write_chrome_trace|chrome_complete_event"
        r"|to_chrome_payload|\bwrite_trace\b|--format prometheus"
        r"|(repro-genomics|repro\.cli) (metrics|cache)\b|--last-only",
        (
            "src", "tests", "examples", "benchmarks/bench_*.py", "README.md",
            "DESIGN.md", "EXPERIMENTS.md",
        ),
    ),
    (
        "the logical plan tree: a bound SELECT lowers straight to physical "
        "operators, each conjunct placed by one function",
        r"\bLogicalNode\b|\bLogical(Get|Filter|Join|Apply|Aggregate|Window"
        r"|Sort|Project|Distinct|Top|Plan)\b|_LowerContext|_push_into",
        ("src", "tests", "DESIGN.md", "README.md"),
    ),
    (
        "plan-time UDF folding: per-call-site memoisation evaluates a "
        "deterministic call over constants once per plan",
        r"fold_constant_udfs|\b_foldable\b|constant-folded",
        ("src", "tests", "DESIGN.md", "README.md"),
    ),
    (
        "the PLAN-* re-proofs: each plan invariant is enforced where its "
        "operator is built (benchmarks/results/mutation_record.txt)",
        r"PLAN-ARITY|PLAN-SCHEMA|PLAN-KEY-RANGE|PLAN-EXCHANGE-MERGE"
        r"|PLAN-EXCHANGE-DOP|PLAN-EXCHANGE-FLOAT-SUM|PLAN-EXCHANGE-SILENT"
        r"|PLAN-PUSHDOWN-OP|PLAN-PUSHDOWN-RANGE|PLAN-PUSHDOWN-SHAPE"
        r"|_check_projection_ops|_check_passthrough|_check_joins"
        r"|_check_aggregates|_check_exchange|_check_scans|_check_pushdown"
        r"|_scan_schema_type|_PUSHDOWN_OPS|\bwalk_plan\b",
        ("src", "tests", "DESIGN.md", "README.md"),
    ),
    (
        "the Tracer and QueryStore on/off knobs",
        r"tracer\.enabled|query_store\.enabled|store\.enabled",
        ("src", "tests", "benchmarks/bench_*.py", "DESIGN.md", "README.md"),
    ),
    (
        "the repro.genomics helpers only tests called",
        r"\bgc_content\b|\bcount_ambiguous\b|error_probability_to_phred"
        r"|mean_error_probability|\bexpected_mismatches\b|\bindex_fasta\b"
        r"|compare_consensi|consensus_by_chromosome",
        (
            "src", "tests", "examples", "benchmarks/bench_*.py", "README.md",
            "DESIGN.md",
        ),
    ),
    (
        "the score-list consensus window: the window's summed scores are "
        "lanes of one int, and the window decodes Phred text itself",
        r"self\._scores\b|\b_phred_table\b|_phred_scores_wide|\b_emit_gap\b",
        ("src", "tests", "DESIGN.md", "README.md"),
    ),
)


def _files(paths, root):
    """The files ``grep -r`` reads under ``paths``, minus build output."""
    for path in paths:
        for match in sorted(root.glob(path)):
            found = sorted(match.rglob("*")) if match.is_dir() else [match]
            for file in found:
                parts = file.relative_to(root).parts
                if file.is_file() and not any(
                    part == "__pycache__" or part.endswith(".egg-info")
                    for part in parts
                ):
                    yield file


def matching_lines(pattern, paths, root=ROOT):
    """``(path, line number, line)`` of every line under ``paths`` that
    matches ``pattern``; this file, which spells the names, excepted."""
    regex = re.compile(pattern)
    hits = []
    for file in _files(paths, root):
        if file.resolve() == SELF:
            continue
        try:
            text = file.read_text(encoding="utf-8")
        except (UnicodeDecodeError, OSError):
            continue  # binary: no source to drift into
        for number, line in enumerate(text.splitlines(), 1):
            if regex.search(line):
                hits.append((file.relative_to(root).as_posix(), number, line))
    return hits


def line_range(text, start, end):
    """Each run of lines from one matching ``start`` through the next one
    matching ``end`` (``sed -n '/start/,/end/p'``)."""
    lines, inside = [], False
    for line in text.splitlines():
        if inside:
            lines.append(line)
            inside = not re.search(end, line)
        elif re.search(start, line):
            lines.append(line)
            inside = True
    return lines


def per_row_inserts(text):
    """Lines calling ``table.insert(`` or ``self.insert(`` inside the
    body of a ``for`` loop: a loader inserting one row at a time."""
    flagged, indent = [], None
    for number, line in enumerate(text.splitlines(), 1):
        depth = len(line) - len(line.lstrip(" \t"))
        if re.match(r"[ \t]*for .*:[ \t]*$", line):
            indent = depth
            continue
        if indent is not None and line.strip() and depth <= indent:
            indent = None
        if indent is not None and re.search(r"(table|self)\.insert\(", line):
            flagged.append(number)
    return flagged


def bookkeeping_bodies(root=ROOT):
    """The per-statement bookkeeping code, as line lists."""
    engine = root / "src" / "repro" / "engine"
    database = (engine / "database.py").read_text()
    return [
        line_range(database, r"def _execute_tracked", r"def _io_totals"),
        line_range(
            (engine / "metrics.py").read_text(), r"^class IoLedger", r"^# ---"
        ),
    ]


_IDS = [row[0] for row in RETIRED]


@pytest.mark.parametrize("retired_by, pattern, paths", RETIRED, ids=_IDS)
def test_retired_names_stay_gone(retired_by, pattern, paths):
    assert matching_lines(pattern, paths) == [], retired_by


@pytest.mark.parametrize("retired_by, pattern, paths", RETIRED, ids=_IDS)
def test_a_planted_name_is_caught(tmp_path, retired_by, pattern, paths):
    # the first name the row retires, as literal text
    name = re.sub(r"\\(.)", r"\1", pattern.split("|")[0].replace(r"\b", ""))
    assert re.search(pattern, name)
    planted = set()
    for path in paths:
        target = tmp_path / path.replace("*", "planted")
        if not target.suffix:
            target = target / "planted.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(f"x = 1\n{name}\n")
        planted.add(target.relative_to(tmp_path).as_posix())
    hits = matching_lines(pattern, paths, root=tmp_path)
    assert {path for path, _n, _l in hits} == planted


def test_one_vote_ranking():
    assert len(matching_lines(r"sorted\(.*votes", ("src",))) == 1


def test_no_per_character_phred_loop_in_the_consensus_uda():
    text = (ROOT / "src/repro/core/wrappers.py").read_text()
    body = line_range(text, r"^class AssembleConsensusUda", r"def merge")
    assert body
    assert [line for line in body if "ord(" in line] == []


@pytest.mark.parametrize("path", LOADERS)
def test_loaders_insert_in_batches(path):
    assert per_row_inserts((ROOT / path).read_text()) == []


def test_a_planted_per_row_insert_is_caught():
    loop = "for row in rows:\n    x = row\n    table.insert(row)\n"
    assert per_row_inserts(loop) == [3]
    after = "for row in rows:\n    x = row\ntable.insert(rows)\n"
    assert per_row_inserts(after) == []


def test_per_statement_bookkeeping_walks_nothing_twice():
    bodies = bookkeeping_bodies()
    assert all(bodies)
    walks = re.compile(r"\.walk\(\)|catalog\.tables\(\)|io_report\(")
    assert [line for body in bodies for line in body if walks.search(line)] == []
    store = line_range(
        (ROOT / "src/repro/engine/querystore.py").read_text(),
        r"^class QueryStore",
        r"def maybe_checkpoint",
    )
    assert store
    assert [line for line in store if "plan_signature(" in line] == []


def test_one_literal_pattern():
    paths = ("src", "tests", "benchmarks/bench_*.py", "README.md", "DESIGN.md")
    files = {path for path, _n, _l in matching_lines("_LITERAL_IN_LABEL", paths)}
    assert files == {"src/repro/engine/sql/lexer.py"}


def test_one_rule_catalog():
    files = {path for path, _n, _l in matching_lines(r"^RULES\b", ("src",))}
    assert files == {"src/repro/engine/verify/diagnostics.py"}
