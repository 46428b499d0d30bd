"""Which functions under ``src/`` does a shipped run call?

    python3 benchmarks/reach_scan.py

runs the *run set* below in child processes and writes
``benchmarks/results/reach_record.txt``: per file and per function, the
lines no run calls and the decision that keeps them. It exits 1 when an
unreached function has no row in ``REASONS``, or a run exits with a code
it should not.

Each child starts with a ``sitecustomize`` on ``PYTHONPATH`` that sets a
``sys.setprofile`` hook (and ``threading.setprofile`` for new threads)
and appends the ``(co_filename, co_firstlineno)`` of every code object it
sees called to ``reach-<pid>.txt`` the first time, one ``os.write`` per
line, so a worker that leaves by ``os._exit`` loses nothing. An
``os.register_at_fork`` hook re-arms the file in each forked child
(exchange workers), and the harness's own children (``run.py`` spawns one
per workload) inherit the environment, so they are traced too.

A function is keyed by its file and its first line, the decorator line
when it has decorators, which is what ``co_firstlineno`` reads. Only the
outermost unreached function of a nest is listed, so no line counts
twice. Stdlib only.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "benchmarks" / "results" / "reach_record.txt"

PY = sys.executable

#: label, argv (relative to the root), extra environment, the exit codes
#: the run may end with
RUN_SET = (
    ("run.py, seed 1, scale 1", [PY, "benchmarks/perf/run.py"], {}, (0,)),
    ("run.py --trace 1, seed 1, scale 1",
     [PY, "benchmarks/perf/run.py", "--trace", "1"], {}, (0,)),
    ("pytest benchmarks/ at REPRO_BENCH_SCALE=0.25",
     [PY, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider"],
     {"REPRO_BENCH_SCALE": "0.25"}, (0,)),
    ("examples/future_work.py", [PY, "examples/future_work.py"], {}, (0,)),
    ("examples/gene_expression_study.py",
     [PY, "examples/gene_expression_study.py"], {}, (0,)),
    ("examples/hybrid_filestream.py",
     [PY, "examples/hybrid_filestream.py"], {}, (0,)),
    ("examples/quickstart.py", [PY, "examples/quickstart.py"], {}, (0,)),
    ("examples/thousand_genomes.py",
     [PY, "examples/thousand_genomes.py"], {}, (0,)),
    ("repro-genomics lint examples",
     [PY, "-m", "repro.cli", "lint", "examples"], {}, (0,)),
    ("repro-genomics sanitize --self --report",
     [PY, "-m", "repro.cli", "sanitize", "--self", "--report", "{out}/r.json"],
     {}, (0,)),
    ("repro-genomics lint --no-builtins tests/fixtures/broken_udx",
     [PY, "-m", "repro.cli", "lint", "--no-builtins",
      "tests/fixtures/broken_udx"], {}, (1,)),
)

#: the child-side hook; ``REACH_SCAN_DIR`` names where it writes
HOOK = '''\
import os, sys, threading

_DIR = os.environ.get("REACH_SCAN_DIR")
if _DIR:
    _seen = set()
    _fd = []

    def _arm():
        _seen.clear()
        _fd[:] = [os.open(
            os.path.join(_DIR, "reach-%d.txt" % os.getpid()),
            os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
        )]

    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            key = (code.co_filename, code.co_firstlineno)
            if key not in _seen:
                _seen.add(key)
                os.write(_fd[0], ("%s\\t%d\\n" % key).encode())

    _arm()
    os.register_at_fork(after_in_child=_arm)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''


def trace_runs(root, runs=RUN_SET):
    """Run each ``(label, argv, env, codes)`` under the hook, from
    ``root``; return the set of ``(relative path, first line)`` called
    under ``root/src`` and the failures (a label and its exit code)."""
    src = (Path(root) / "src").resolve()
    failures = []
    with tempfile.TemporaryDirectory(prefix="reach-") as out:
        Path(out, "sitecustomize.py").write_text(HOOK)
        path = os.pathsep.join([out, str(src)])
        for label, argv, extra, codes in runs:
            env = {
                **os.environ, **extra, "REACH_SCAN_DIR": out,
                "PYTHONPATH": path,
            }
            argv = [arg.replace("{out}", out) for arg in argv]
            done = subprocess.run(
                argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            if done.returncode not in codes:
                failures.append((label, done.returncode))
        reached = set()
        for name in os.listdir(out):
            if not name.startswith("reach-"):
                continue
            for line in Path(out, name).read_text().splitlines():
                filename, _tab, first = line.rpartition("\t")
                real = Path(os.path.realpath(filename))
                if real.is_relative_to(src):
                    reached.add((
                        real.relative_to(src.parent).as_posix(), int(first),
                    ))
    return reached, failures


def functions(root):
    """``(path, qualified name, first line, last line, enclosing index)``
    of every ``def`` under ``root/src``; the first line is the decorator
    line when there is one, as ``co_firstlineno`` reads it."""
    found = []

    def visit(node, path, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno]
                    + [deco.lineno for deco in child.decorator_list]
                )
                found.append(
                    (path, prefix + child.name, first, child.end_lineno, parent)
                )
                visit(child, path, f"{prefix}{child.name}.<locals>.",
                      len(found) - 1)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", parent)
            else:
                visit(child, path, prefix, parent)

    root = Path(root)
    for file in sorted((root / "src").rglob("*.py")):
        if "__pycache__" in file.parts:
            continue
        rel = file.relative_to(root).as_posix()
        visit(ast.parse(file.read_text(encoding="utf-8")), rel, "", None)
    return found


def unreached(root, reached):
    """``(path, qualified name, first line, last line)`` of every
    function no run called whose enclosing functions were all called."""
    defs = functions(root)
    dead = [(path, first) not in reached for path, _n, first, _l, _p in defs]
    out = []
    for index, (path, name, first, last, parent) in enumerate(defs):
        if not dead[index]:
            continue
        outer = parent
        while outer is not None and not dead[outer]:
            outer = defs[outer][4]
        if outer is None:
            out.append((path, name, first, last))
    return out


#: why a function no run calls stays, then the functions it keeps as
#: ``"file: name name ..."`` (the file under ``src/repro/``): a surface
#: README documents that a test drives through it; safety code (error
#: handling, persistence reload, a reference implementation a test
#: compares against); an abstract method of a contract; or, as
#: ``tests/test_reachability.py``'s ``ALLOWED`` rule has it, what a test
#: needs to read or drive another behaviour. (Spelled this way, no
#: string here reads as a use of a name to that test.)
KEPT = (
    (
        "CLI (README): `repro-genomics "
        "simulate/pipeline/storage-report/search/trace`; tests/test_cli.py "
        "drives each",
        "cli.py: _write_genes _read_genes cmd_simulate cmd_pipeline "
        "cmd_storage_report cmd_search _print_view cmd_trace",
    ),
    (
        "CLI `repro-genomics trace` prints the span tree; tests/test_cli.py",
        "engine/tracing.py: StatementTrace.children_of StatementTrace.render",
    ),
    (
        "CLI `repro-genomics trace` reads the statement's trace; "
        "tests/test_cli.py, tests/engine/test_tracing.py",
        "engine/database.py: Database.last_trace",
    ),
    (
        "SQL UPDATE/DELETE (README's T-SQL subset); "
        "tests/engine/test_update.py, test_metrics.py, test_columnstore.py",
        "engine/database.py: Database._bind_update Database._bind_delete "
        "Database._row_compiler Database._bind_where Database._execute_update "
        "Database._execute_delete",
    ),
    (
        "SQL UPDATE/DELETE; tests/engine/test_update.py, test_columnstore.py",
        "engine/table.py: Table.update_where Table._delete_rid",
    ),
    (
        "SQL DELETE; tests/engine/test_parser.py",
        "engine/sql/parser.py: Parser._parse_delete",
    ),
    (
        "SQL DELETE removes the row's index entry; tests/engine/test_btree.py, "
        "test_columnstore.py",
        "engine/index/btree.py: BPlusTree.delete",
    ),
    (
        "SQL DELETE on a heap table; tests/engine/test_page_heap.py",
        "engine/storage/heap.py: HeapFile.delete",
    ),
    (
        "SQL DELETE on a heap table; tests/engine/test_page_heap.py",
        "engine/storage/page.py: Page.delete",
    ),
    (
        "SQL DELETE/fetch on a COLUMN table; tests/engine/test_columnstore.py",
        "engine/storage/columnstore.py: ColumnStore.delete ColumnStore.fetch",
    ),
    (
        "SQL DELETE of a row drops its FILESTREAM blob; "
        "tests/engine/test_filestream.py",
        "engine/filestream.py: FileStreamStore.delete",
    ),
    (
        "SQL DELETE keeps the row count the estimates read; "
        "tests/engine/test_optimizer.py",
        "engine/schema.py: TableStatistics.on_delete",
    ),
    (
        "SQL SET STATISTICS / PLAN_CACHE / PLAN_VERIFY; "
        "tests/engine/test_metrics.py, test_plancache.py",
        "engine/sql/parser.py: Parser._parse_set",
    ),
    (
        "SET STATISTICS IO messages, one per table; "
        "tests/engine/test_metrics.py",
        "engine/catalog.py: Catalog.table_names",
    ),
    (
        "SQL built-ins and predicates (DATALENGTH, ISNULL, COALESCE, LEN, "
        "LIKE, IN, BETWEEN, unary -, NOT, row-wise AND/OR, /); "
        "tests/engine/test_expressions.py, test_sql_differential.py",
        "engine/expressions.py: _datalength _isnull _coalesce _len _like_regex "
        "like_match ExpressionCompiler._compile_binaryop.<locals>.and_eval "
        "ExpressionCompiler._compile_binaryop.<locals>.or_eval "
        "ExpressionCompiler._compile_binaryop.<locals>.div_eval "
        "ExpressionCompiler._compile_unaryop "
        "ExpressionCompiler._compile_isnull "
        "ExpressionCompiler._compile_between "
        "ExpressionCompiler._compile_inlist "
        "ExpressionCompiler._compile_like.<locals>.like_eval "
        "ExpressionCompiler._batch_inlist.<locals>.dynamic",
    ),
    (
        "error handling: a misplaced aggregate or window call is a BindError; "
        "tests/engine/test_expressions.py",
        "engine/expressions.py: ExpressionCompiler._compile_aggregatecall "
        "ExpressionCompiler._compile_windowcall",
    ),
    (
        "SQL COUNT(DISTINCT), MIN, MAX, AVG and the partial-aggregate merge of "
        "OPTION (MAXDOP n); tests/engine/test_sql_differential.py, "
        "test_parallel.py",
        "engine/executor/aggregates.py: _BatchCountValue.merge "
        "_BatchCountDistinct.__init__ _BatchCountDistinct.add_vector "
        "_BatchCountDistinct.merge _BatchCountDistinct.result _BatchSum.merge "
        "_BatchExtreme.__init__ _BatchExtreme.add_vector _BatchExtreme.merge "
        "_BatchExtreme.result _BatchAvg.__init__ _BatchAvg.add_vector "
        "_BatchAvg.merge _BatchAvg.result _BatchUda.merge",
    ),
    (
        "SQL DISTINCT; tests/engine/test_sql_differential.py",
        "engine/executor/operators.py: Distinct.execute",
    ),
    (
        "SQL NULL join keys never match; tests/engine/test_sql_differential.py",
        "engine/executor/joins.py: _drop_null_keys",
    ),
    (
        "SQL SELECT of rows from a STORAGE = 'COLUMN' table (its open tail "
        "too); tests/engine/test_columnstore.py",
        "engine/executor/operators.py: _TailView.__init__ _TailView.gather "
        "ColumnStoreScan._view_rows ColumnStoreScan.execute",
    ),
    (
        "SQL types SMALLINT, TINYINT, BINARY(n); tests/engine/test_types.py, "
        "test_sql_differential.py",
        "engine/types.py: smallint_type tinyint_type binary_type",
    ),
    (
        "reads back ROW/PAGE-compressed and NULL-bearing records "
        "(DATA_COMPRESSION); tests/engine/test_row_codec.py, "
        "test_serializer.py",
        "engine/storage/serializer.py: unpack_int_minimal "
        "RowSerializer.serialize RowSerializer._deserialize_plain_nulls "
        "RowSerializer._deserialize_compressed RowSerializer.join_compressed",
    ),
    (
        "reads back PAGE-compressed records (DATA_COMPRESSION = PAGE); "
        "tests/engine/test_compression.py",
        "engine/storage/compression.py: PageCompressor.decode_record",
    ),
    (
        "EXPLAIN ANALYZE; tests/engine/test_metrics.py, test_tracing.py, "
        "test_parallel.py",
        "engine/database.py: Database._explain_analyze",
    ),
    (
        "EXPLAIN ANALYZE",
        "engine/executor/base.py: PhysicalOperator.enable_timing "
        "PhysicalOperator.explain_node MaterializedResult.explain_node",
    ),
    (
        "EXPLAIN of a SELECT DISTINCT, which no run-set statement plans; "
        "tests/engine/test_planner.py",
        "engine/executor/operators.py: Distinct.explain_node",
    ),
    (
        "EXPLAIN ANALYZE",
        "engine/executor/operators.py: ColumnStoreScan.analyze_detail",
    ),
    (
        "EXPLAIN ANALYZE",
        "engine/executor/parallel.py: ParallelHashAggregate.analyze_detail",
    ),
    (
        "EXPLAIN ANALYZE grafts operator spans; tests/engine/test_tracing.py",
        "engine/tracing.py: record_operator_spans",
    ),
    (
        "EXPLAIN's plan-cache note, SET PLAN_CACHE OFF, invalidation after "
        "UPDATE STATISTICS; tests/engine/test_plancache.py",
        "engine/plancache.py: PlanCache.peek PlanCache.clear "
        "PlanCache._epoch_reason",
    ),
    (
        "DMVs (README): sys_dm_exec_cached_plans, "
        "sys_dm_exec_plan_cache_stats; tests/engine/test_plancache.py",
        "engine/plancache.py: PlanCache.entry_rows PlanCache.stats_rows",
    ),
    (
        "DMVs (README): sys_dm_query_store_*, sys_dm_exec_query_stats; "
        "tests/engine/test_querystore.py, test_metrics.py",
        "engine/querystore.py: _iso QueryStore.query_rows "
        "QueryStore.query_stats_rows QueryStore.plan_rows "
        "QueryStore.runtime_rows",
    ),
    (
        "DMVs (README): a system view is a read-only table the binder "
        "resolves; tests/engine/test_metrics.py",
        "engine/metrics.py: VirtualTable.row_count VirtualTable.scan "
        "VirtualTable.scan_batches VirtualTable.secondary_indexes "
        "make_system_views.<locals>.index_stats_rows "
        "make_system_views.<locals>.segment_stats_rows "
        "make_system_views.<locals>.verify_rows",
    ),
    (
        "error handling: DML against a system view is rejected; "
        "tests/engine/test_metrics.py",
        "engine/metrics.py: VirtualTable._read_only",
    ),
    (
        "DMVs (README): sys_dm_os_workers, sys_dm_io_stats, "
        "sys_dm_verify_results; tests/engine/test_workers.py, test_metrics.py, "
        "test_verify.py",
        "engine/database.py: Database.worker_pool_rows Database._io_totals "
        "Database.record_lint Database.lint_rows",
    ),
    (
        "DMV sys_dm_os_workers; tests/engine/test_workers.py",
        "engine/workers.py: WorkerPool.stats_rows",
    ),
    (
        "DMVs sys_dm_os_wait_stats, sys_dm_exec_trace_spans; "
        "tests/engine/test_tracing.py",
        "engine/tracing.py: WaitStats.rows Tracer.span_rows",
    ),
    (
        "DMV sys_dm_db_index_stats (B+tree depth); "
        "tests/engine/test_metrics.py",
        "engine/index/btree.py: BPlusTree.depth",
    ),
    (
        "DMV sys_dm_db_segment_stats; tests/engine/test_columnstore.py",
        "engine/storage/columnstore.py: RowSegment.live_rows "
        "ColumnStore.segment_report",
    ),
    (
        "SQL UDAs STDEV/VAR/MEDIAN/STRING_AGG/GEOMEAN (README); "
        "tests/engine/test_uda_library.py",
        "engine/uda_library.py: _WelfordState.__init__ _WelfordState.add "
        "_WelfordState.merge _WelfordState.variance VarUda.init "
        "VarUda.accumulate VarUda.merge VarUda.terminate StdevUda.terminate "
        "MedianUda.init MedianUda.accumulate MedianUda.merge "
        "MedianUda.terminate StringAggUda.init StringAggUda.accumulate "
        "StringAggUda.merge StringAggUda.terminate GeoMeanUda.init "
        "GeoMeanUda.accumulate GeoMeanUda.merge GeoMeanUda.terminate",
    ),
    (
        "SQL UDFs ProbMatch / ExpectedMismatches / BaseErrorProbability "
        "(README, probabilistic sequences); tests/core/test_probabilistic.py",
        "core/probabilistic.py: ProbabilisticSequence.error_probabilities "
        "ProbabilisticSequence.match_probability _base_error_probability "
        "_expected_mismatches _prob_match",
    ),
    (
        "SQL ListShortReads over an SRF blob (README, Section 5.3.1); "
        "tests/core/test_wrappers.py",
        "core/wrappers.py: ListShortReadsTvf.create",
    ),
    (
        "SQL CallBase / AssembleSequence merge under OPTION (MAXDOP n); "
        "tests/core/test_wrappers.py, tests/engine/test_parallel.py",
        "core/wrappers.py: CallBaseUda.merge AssembleSequenceUda.merge",
    ),
    (
        "error handling: AssembleConsensus refuses a partial merge; "
        "tests/core/test_wrappers.py",
        "core/wrappers.py: AssembleConsensusUda.merge",
    ),
    (
        "keeps ConsensusPiece hashable beside its __eq__, so GROUP BY and "
        "DISTINCT can key on the UDT value",
        "core/wrappers.py: ConsensusPiece.__hash__",
    ),
    (
        "Query 3's pivot form (Figure 10 (b)), call_consensus(method='pivot'); "
        "tests/core/test_queries.py",
        "core/queries.py: execute_query3_pivot",
    ),
    (
        "CLI `repro-genomics search` and SQL SearchShortReads; "
        "tests/genomics/test_qgram.py, tests/core/test_indb_align.py",
        "genomics/qgram.py: QGramIndex.search_exact QGramIndex._scan_all",
    ),
    (
        "error handling",
        "engine/errors.py: SqlSyntaxError.__init__",
    ),
    (
        "error handling",
        "engine/sql/parser.py: Parser._error",
    ),
    (
        "error handling: INSERT VALUES must be constant",
        "engine/database.py: _constants_only",
    ),
    (
        "error handling: TVF arguments in FROM must be constants",
        "engine/planner.py: Planner._eval_constant_args.<locals>.no_columns",
    ),
    (
        "lint finding LINT-SERIAL-AGG (CLI lint, PLAN_VERIFY); "
        "tests/engine/test_verify.py",
        "engine/planner.py: Planner._warn_serial_forced",
    ),
    (
        "error handling: a seek range across order families",
        "engine/optimizer/cost.py: range_mismatch.<locals>.conversion_error",
    ),
    (
        "the join-level half of predicate pushdown and of the greedy join "
        "order (DESIGN.md's rewrites): a WHERE conjunct over two join "
        "inputs, a chain of three or more units reordered — no run-set "
        "statement has either; tests/engine/test_optimizer.py, "
        "tests/engine/test_sql_differential.py",
        "engine/optimizer/rules.py: place_conjuncts",
    ),
    (
        "error handling: the serial fallback when the pool cannot run; "
        "tests/engine/test_workers.py",
        "engine/executor/parallel.py: ParallelHashAggregate._compute_serial",
    ),
    (
        "error handling: a dead or silent worker; tests/engine/test_workers.py",
        "engine/workers.py: _WorkerLost.__init__ WorkerPool._drain",
    ),
    (
        "error handling: names a type in conversion errors",
        "engine/types.py: SqlType.__str__",
    ),
    (
        "persistence reload of querystore.json; "
        "tests/engine/test_querystore.py",
        "engine/querystore.py: QueryStore.from_dict QueryStore.load",
    ),
    (
        "reference the parser's normalised text is compared against; "
        "tests/engine/test_parser.py",
        "engine/querystore.py: normalize_statement",
    ),
    (
        "reference implementation the sliding-window consensus is compared "
        "against; tests/genomics/test_consensus.py",
        "genomics/consensus.py: call_base Pileup.__init__ Pileup.add_alignment "
        "Pileup.observation_count Pileup.call",
    ),
    (
        "CLI `repro-genomics lint` / `sanitize` on user code (README); "
        "tests/engine/test_verify.py, test_plan_sanitizer.py",
        "engine/verify/parallel_safety.py: _string_elements "
        "_ModuleAnalysis.add",
    ),
    (
        "CLI `repro-genomics lint` on user code; tests/engine/test_verify.py",
        "engine/verify/udx_verifier.py: _BodyWalker._state_write "
        "_BodyWalker.visit_Global _BodyWalker.visit_Nonlocal",
    ),
    (
        "abstract method of the storage contract",
        "engine/storage/base.py: AccessMethod.insert_many AccessMethod.insert "
        "AccessMethod.delete AccessMethod.seal_all AccessMethod.fetch "
        "AccessMethod.fetch_many AccessMethod.scan AccessMethod.scan_batches "
        "AccessMethod.row_count AccessMethod.stored_bytes "
        "AccessMethod.uncompressed_bytes AccessMethod.segment_report",
    ),
    (
        "abstract method of the UDx contracts",
        "engine/udf.py: TableValuedFunction.create UserDefinedAggregate.init "
        "UserDefinedAggregate.accumulate UserDefinedAggregate.merge "
        "UserDefinedAggregate.terminate",
    ),
    (
        "the row-written TVF contract (create + fill_row) `batches` adapts; "
        "tests/engine/test_executor.py",
        "engine/udf.py: SimpleTvf.create SimpleTvf.fill_row",
    ),
    (
        "the per-row UDA contract `accumulate_batch` adapts: what every UDA "
        "without its own batch method runs through (STDEV/VAR/MEDIAN/"
        "STRING_AGG/GEOMEAN, user UDAs); tests/engine/test_uda_library.py",
        "engine/udf.py: UserDefinedAggregate.accumulate_batch",
    ),
    (
        "the per-row form of a UDA the lifecycle check requires "
        "(UDX-UDA-LIFECYCLE); the aggregates drive accumulate_batch; "
        "tests/core/test_wrappers.py",
        "core/wrappers.py: CallBaseUda.accumulate "
        "AssembleSequenceUda.accumulate AssembleConsensusUda.accumulate",
    ),
    (
        "input checks: qualities the lanes cannot take as code points "
        "(below the offset, past '~', NULL, short or long), int scores, and "
        "lanes widened past a deep pile; tests/genomics/test_consensus.py",
        "genomics/consensus.py: SlidingWindowConsensus.add_alignment "
        "SlidingWindowConsensus._vote_scores _pack _unpack _phred_scores",
    ),
    (
        "abstract method of the aggregate contract",
        "engine/executor/aggregates.py: BatchAccumulator.add_vector "
        "BatchAccumulator.merge BatchAccumulator.result",
    ),
    (
        "abstract method of the operator contract",
        "engine/executor/base.py: PhysicalOperator.execute",
    ),
    (
        "a test reads the blob store through it (ALLOWED in "
        "tests/test_reachability.py); tests/engine/test_filestream.py",
        "engine/filestream.py: FileStreamStore.read_all "
        "FileStreamStore.__len__",
    ),
    (
        "a test reads the Query Store through it (ALLOWED in "
        "tests/test_reachability.py); tests/engine/test_querystore.py",
        "engine/querystore.py: QueryStore.queries QueryStore.find_query "
        "QueryStore.plans_for QueryStore.runtime_for",
    ),
    (
        "a test reads a statement's AST through it (ALLOWED in "
        "tests/test_reachability.py); tests/engine/test_parser.py",
        "engine/sql/parser.py: Parser.parse_single parse_statement",
    ),
    (
        "a test drives and reads the B+tree through it; "
        "tests/engine/test_btree.py",
        "engine/index/btree.py: BPlusTree.__len__ BPlusTree.insert "
        "BPlusTree.items BPlusTree.range",
    ),
    (
        "a test drives one value through checker/encoder/decoder; "
        "tests/engine/test_types.py, test_row_codec.py",
        "engine/types.py: SqlType.validate SqlType.encode SqlType.decode",
    ),
    (
        "a test drives one value through the column's checker; "
        "tests/engine/test_row_codec.py",
        "engine/schema.py: Column.validate",
    ),
    (
        "a test reads a slot's record bytes back; "
        "tests/engine/test_page_heap.py",
        "engine/storage/page.py: Page.get",
    ),
    (
        "a test feeds the wait-stats DMV's rows directly; "
        "tests/engine/test_tracing.py",
        "engine/tracing.py: WaitStats.record WaitStats.clear",
    ),
    (
        "a test reads the pool size after a worker is killed; "
        "tests/engine/test_workers.py",
        "engine/workers.py: WorkerPool.size",
    ),
    (
        "a test reads how many seeds a batch resolved; "
        "tests/genomics/test_aligner.py",
        "genomics/aligner.py: ReferenceIndex.__len__",
    ),
    (
        "a test reads how many sequences are indexed; "
        "tests/genomics/test_qgram.py",
        "genomics/qgram.py: QGramIndex.__len__",
    ),
    (
        "the DnaSequence UDT value's length and text (README: bit-packed DNA "
        "encodings); tests/genomics/test_sequences.py, "
        "tests/core/test_wrappers.py",
        "genomics/sequences.py: PackedDna.__len__ PackedDna.__str__",
    ),
    (
        "benchmarks/align_ablation.py's crossover sweep samples its seeds "
        "from it; tests/genomics/test_sequences.py",
        "genomics/sequences.py: kmers",
    ),
    (
        "a test counts the FASTQ records the CLI's simulate wrote; "
        "tests/test_cli.py, tests/genomics/test_formats.py",
        "genomics/fastq.py: count_records",
    ),
    (
        "the SQL surface: ListShortReads over an SRF blob "
        "(core/wrappers.py); "
        "tests/genomics/test_formats.py, tests/core/test_wrappers.py",
        "genomics/srf.py: SrfRecord.to_fastq SrfRecord.from_fastq _write_str "
        "_read_str write_srf read_srf",
    ),
)

REASONS = {
    f"src/repro/{path}::{name}": why
    for why, spec in KEPT
    for path, _colon, names in [spec.partition(": ")]
    for name in names.split()
}


def render(root, reached, failures):
    """The record's text and the unreached functions with no reason."""
    defs = functions(root)
    dead = unreached(root, reached)
    lines_of = {}
    for path, name, first, last in dead:
        lines_of.setdefault(path, []).append((first, last, name))
    total = sum(last - first + 1 for _p, _n, first, last in dead)
    missing = []
    out = [
        "# Reach record: functions under src/ that no shipped run calls",
        "# (benchmarks/reach_scan.py; rerun it after a change to src/).",
        "#",
        "# run set:",
    ]
    out += [f"#   {label}" for label, *_rest in RUN_SET]
    out += [f"#   FAILED: {label} exited {code}" for label, code in failures]
    out += [
        "#",
        f"# functions under src/: {len(defs)}; called: "
        f"{sum((p, f) in reached for p, _n, f, _l, _i in defs)}; "
        f"outermost unreached: {len(dead)}, {total} lines",
        "# a row: first-last line, lines, function, then why it stays",
        "",
    ]
    for path in sorted(lines_of):
        rows = sorted(lines_of[path])
        count = sum(last - first + 1 for first, last, _n in rows)
        out.append(f"== {path}: {len(rows)} functions, {count} lines")
        for first, last, name in rows:
            reason = REASONS.get(f"{path}::{name}")
            if reason is None:
                missing.append(f"{path}::{name}")
                reason = "NO REASON"
            out.append(
                f"  {first:>5}-{last:<5} {last - first + 1:>4}  {name}: {reason}"
            )
        out.append("")
    return "\n".join(out), missing


def main() -> int:
    reached, failures = trace_runs(ROOT)
    text, missing = render(ROOT, reached, failures)
    RECORD.write_text(text)
    for key in missing:
        print(f"no reason: {key}", file=sys.stderr)
    for label, code in failures:
        print(f"run failed: {label} exited {code}", file=sys.stderr)
    print(text.split("\n\n")[0])
    return 1 if missing or failures else 0


if __name__ == "__main__":
    sys.exit(main())
