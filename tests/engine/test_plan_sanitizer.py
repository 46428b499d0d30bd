"""Plan sanitizer + fork-safety analyzer tests.

Three layers, mirroring the verifier's contract:

1. **Golden corpus** — every shipped plan shape (Figure 9/10 + the
   differential-suite queries, heap/column × row/batch × dop 1/2/4)
   must produce zero diagnostics.
2. **Hand-broken fixtures** — a real plan is corrupted in exactly one
   way and must trip exactly its intended ``PLAN-*`` rule; inline
   sources must trip exactly their ``FORK-*`` rule.
3. **Surfacing** — ``SET PLAN_VERIFY ON``, EXPLAIN ``note:`` lines,
   the ``sys_dm_verify_results`` source column, and ``-- lint:
   ignore`` suppression pragmas.
"""

import re
from pathlib import Path

import pytest

from repro.engine.database import Database
from repro.engine.executor.aggregates import AggregateSpec
from repro.engine.storage.columnstore import PushedPredicate
from repro.engine.verify.diagnostics import (
    RULES,
    Diagnostic,
    parse_suppressions,
)
from repro.engine.verify.parallel_safety import (
    analyze_fork_safety,
    analyze_source,
)
from repro.engine.verify.plan_corpus import _build_sales_db, corpus_plans
from repro.engine.verify.plan_sanitizer import sanitize_plan, walk_plan

from .test_vectorized import (
    DIFFERENTIAL_QUERIES,
    PARALLEL_DIFFERENTIAL_QUERIES,
)


@pytest.fixture(scope="module")
def heap_db():
    with Database() as db:
        _build_sales_db(db, "heap")
        yield db


@pytest.fixture(scope="module")
def column_db():
    with Database() as db:
        _build_sales_db(db, "column")
        yield db


def _find(plan, type_name):
    for _path, node in walk_plan(plan):
        if type(node).__name__ == type_name:
            return node
    raise AssertionError(
        f"no {type_name} in plan: "
        f"{[type(n).__name__ for _p, n in walk_plan(plan)]}"
    )


def _rules(findings):
    return {d.rule for d in findings}


# ---------------------------------------------------------------------------
# the golden corpus: shipped plans prove every invariant
# ---------------------------------------------------------------------------

class TestGoldenCorpus:
    def test_corpus_zero_diagnostics(self):
        failures = [
            (description, finding)
            for description, plan, database in corpus_plans()
            for finding in sanitize_plan(plan, database)
        ]
        assert failures == [], "\n".join(
            f"{desc}: {finding}" for desc, finding in failures
        )

    @pytest.mark.parametrize("storage", ["heap", "column"])
    @pytest.mark.parametrize("granularity", ["auto", "row"])
    def test_differential_suite_plans_clean(
        self, storage, granularity, monkeypatch
    ):
        """Every differential-suite query (serial and parallel, both
        storage engines) sanitizes clean, and the clean plan gives the
        statement's rows in batches of the default size (``auto``) and
        of one row (``row``: the granularity the retired row
        interpreter had)."""
        from repro.engine.executor import vector

        statements = list(DIFFERENTIAL_QUERIES) + [
            f"{sql} OPTION (MAXDOP {dop})"
            for sql in PARALLEL_DIFFERENTIAL_QUERIES
            for dop in (1, 2, 4)
        ]
        with Database() as db:
            _build_sales_db(db, storage)
            reference = {sql: repr(db.query(sql)) for sql in statements}
            if granularity == "row":
                monkeypatch.setattr(vector, "DEFAULT_BATCH_SIZE", 1)
            failures = []
            for sql in statements:
                plan = db.plan(sql)
                failures += [(sql, d) for d in sanitize_plan(plan, db)]
                assert repr(vector.collect_rows(plan)) == reference[sql], sql
            assert failures == []

    def test_engine_fork_safety_clean(self):
        assert analyze_fork_safety() == []

    def test_operator_paths_are_single_line(self, heap_db):
        plan = heap_db.plan(
            "SELECT region, COUNT(*) FROM sales GROUP BY region "
            "OPTION (MAXDOP 2)"
        )
        for path, _node in walk_plan(plan):
            assert "\n" not in path
            assert path  # never empty


# ---------------------------------------------------------------------------
# hand-broken plans: each fixture trips exactly its intended rule
# ---------------------------------------------------------------------------

class TestBrokenPlans:
    def test_arity_projection_descriptor_mismatch(self, heap_db):
        plan = heap_db.plan("SELECT id, amount * 2 FROM sales")
        project = _find(plan, "Project")
        project.fns = project.fns[:-1]
        assert _rules(sanitize_plan(plan, heap_db)) == {"PLAN-ARITY"}

    def test_schema_passthrough_reshapes_row(self, heap_db):
        plan = heap_db.plan("SELECT DISTINCT region FROM sales")
        distinct = _find(plan, "Distinct")
        distinct.columns = list(distinct.columns) + ["phantom"]
        assert _rules(sanitize_plan(plan, heap_db)) == {"PLAN-SCHEMA"}

    def test_key_range_hash_join(self, heap_db):
        plan = heap_db.plan(
            "SELECT s.id, r.zone FROM sales AS s JOIN regions AS r "
            "ON s.region = r.name WHERE s.amount > 45"
        )
        join = _find(plan, "HashJoin")
        join.left_key_indexes = (99,)
        assert _rules(sanitize_plan(plan, heap_db)) == {"PLAN-KEY-RANGE"}

    @pytest.mark.parametrize("keys", [(99,), (1, 1)])
    def test_key_range_key_lookup_join(self, heap_db, keys):
        """An outer key index out of range, or two outer keys for the
        one-column clustered key of ``regions``."""
        plan = heap_db.plan(
            "SELECT s.id, r.zone FROM sales AS s JOIN regions AS r "
            "ON s.region = r.name WHERE s.id = 45"
        )
        join = _find(plan, "KeyLookupJoin")
        assert _rules(sanitize_plan(plan, heap_db)) == set()
        join.left_key_indexes = keys
        assert _rules(sanitize_plan(plan, heap_db)) == {"PLAN-KEY-RANGE"}

    def test_key_range_group_index(self, heap_db):
        plan = heap_db.plan(
            "SELECT region, COUNT(*) FROM sales GROUP BY region "
            "OPTION (MAXDOP 2)"
        )
        agg = _find(plan, "ParallelHashAggregate")
        agg.group_indexes = (99,)
        assert _rules(sanitize_plan(plan, heap_db)) == {"PLAN-KEY-RANGE"}

    def test_exchange_merge_unsafe_uda(self, heap_db):
        class _UnverifiedMergeUda:
            name = "busted"
            parallel_safe = True
            _merge_verified = False  # verifier found no merge()

        plan = heap_db.plan(
            "SELECT region, SUM(amount) FROM sales GROUP BY region "
            "OPTION (MAXDOP 2)"
        )
        agg = _find(plan, "ParallelHashAggregate")
        agg.aggregates[0] = AggregateSpec(
            "busted",
            [lambda row: row[1]],
            uda_class=_UnverifiedMergeUda,
            arg_index=1,
        )
        # the fallback itself is noted, so only the merge rule fires
        plan.plan_notes = ["exchange will run serially — fixture"]
        assert _rules(sanitize_plan(plan, heap_db)) == {
            "PLAN-EXCHANGE-MERGE"
        }

    def test_exchange_invalid_dop(self, heap_db):
        plan = heap_db.plan(
            "SELECT region, COUNT(*) FROM sales GROUP BY region "
            "OPTION (MAXDOP 2)"
        )
        _find(plan, "ParallelHashAggregate").dop = 0
        assert _rules(sanitize_plan(plan, heap_db)) == {
            "PLAN-EXCHANGE-DOP"
        }

    def test_exchange_float_sum_gate_defeated(self, heap_db, monkeypatch):
        """If the runtime offload gate wrongly admits a float SUM to the
        range-partitioned scan tier, the sanitizer's independent by-name
        type resolution catches it."""
        import repro.engine.executor.exchange as exchange

        monkeypatch.setattr(
            exchange, "scan_offload_blocker", lambda *args: None
        )
        plan = heap_db.plan(
            "SELECT region, SUM(price) FROM sales GROUP BY region "
            "OPTION (MAXDOP 2)"
        )
        findings = sanitize_plan(plan, heap_db)
        assert _rules(findings) == {"PLAN-EXCHANGE-FLOAT-SUM"}
        assert "price" in findings[0].message

    def test_exchange_silent_fallback(self, heap_db):
        plan = heap_db.plan(
            "SELECT region, SUM(amount) FROM sales GROUP BY region "
            "OPTION (MAXDOP 2)"
        )
        agg = _find(plan, "ParallelHashAggregate")
        agg.aggregates[0].arg_index = None  # descriptor cannot ship
        plan.plan_notes = []  # ...and nobody said so
        findings = sanitize_plan(plan, heap_db)
        assert _rules(findings) == {"PLAN-EXCHANGE-SILENT"}
        assert findings[0].severity == "warning"

    def test_exchange_noted_fallback_stays_silent_rule_free(self, heap_db):
        """The same broken offload with the planner's note present is
        not a finding — the rule polices silence, not fallback."""
        plan = heap_db.plan(
            "SELECT region, SUM(amount) FROM sales GROUP BY region "
            "OPTION (MAXDOP 2)"
        )
        agg = _find(plan, "ParallelHashAggregate")
        agg.aggregates[0].arg_index = None
        plan.plan_notes = ["exchange will run serially — fixture"]
        assert sanitize_plan(plan, heap_db) == []

    def test_pushdown_unsupported_op(self, column_db):
        plan = column_db.plan("SELECT id FROM sales WHERE amount > 10")
        scan = _find(plan, "ColumnStoreScan")
        assert scan.predicates, "pushdown did not engage"
        scan.predicates[0].op = "regex"
        assert _rules(sanitize_plan(plan, column_db)) == {
            "PLAN-PUSHDOWN-OP"
        }

    def test_pushdown_position_out_of_range(self, column_db):
        plan = column_db.plan("SELECT id FROM sales WHERE amount > 10")
        scan = _find(plan, "ColumnStoreScan")
        scan.predicates[0].col_index = 99
        assert _rules(sanitize_plan(plan, column_db)) == {
            "PLAN-PUSHDOWN-RANGE"
        }

    def test_pushdown_between_without_pair(self, column_db):
        plan = column_db.plan(
            "SELECT id FROM sales WHERE amount BETWEEN 5 AND 15"
        )
        scan = _find(plan, "ColumnStoreScan")
        i = next(
            k for k, p in enumerate(scan.predicates) if p.op == "between"
        )
        col_index = scan.predicates[i].col_index
        scan.predicates[i] = PushedPredicate(col_index, "between", (7,))
        assert _rules(sanitize_plan(plan, column_db)) == {
            "PLAN-PUSHDOWN-SHAPE"
        }

    def test_sanitizer_never_raises_on_garbage(self):
        """A verifier that crashes on the input it exists to reject is
        useless: a node of no known class is walked, not tripped over."""

        class _Garbage:
            columns = None

            def children(self):
                return ()

        assert sanitize_plan(_Garbage()) == []


# ---------------------------------------------------------------------------
# fork-safety fixtures: inline sources tripping each FORK-* rule
# ---------------------------------------------------------------------------

class TestForkSafety:
    def test_handler_not_toplevel(self):
        findings = analyze_source(
            "def _ok(payload):\n"
            "    return payload\n"
            "_TASK_KINDS = {'ok': _ok, 'bad': _missing,"
            " 'worse': lambda p: p}\n",
            "fixture.py",
        )
        assert _rules(findings) == {"FORK-HANDLER-TOPLEVEL"}
        assert len(findings) == 2  # the dangling name AND the lambda

    def test_closure_in_payload_builder(self):
        findings = analyze_source(
            "def build_scan_tasks(rows):\n"
            "    def slicer(row):\n"
            "        return row\n"
            "    return [('k', {'fn': lambda x: slicer(x)})]\n",
            "fixture.py",
        )
        assert _rules(findings) == {"FORK-PICKLE-CLOSURE"}
        assert len(findings) == 2  # nested def AND lambda

    def test_closure_outside_builder_is_fine(self):
        findings = analyze_source(
            "def render(rows):\n"
            "    return sorted(rows, key=lambda r: r[0])\n",
            "fixture.py",
        )
        assert findings == []

    def test_undeclared_shared_state(self):
        source = (
            "_CACHE = {}\n"
            "def remember(key, value):\n"
            "    _CACHE[key] = value\n"
        )
        findings = analyze_source(source, "fixture.py")
        assert _rules(findings) == {"FORK-SHARED-STATE"}

    def test_declared_worker_local_state_is_exempt(self):
        source = (
            "WORKER_LOCAL_STATE = frozenset({'_CACHE'})\n"
            "_CACHE = {}\n"
            "def remember(key, value):\n"
            "    _CACHE[key] = value\n"
        )
        assert analyze_source(source, "fixture.py") == []

    def test_local_shadowing_is_not_shared_state(self):
        source = (
            "_CACHE = {}\n"
            "def remember(key, value):\n"
            "    _CACHE = {}\n"
            "    _CACHE[key] = value\n"
            "    return _CACHE\n"
        )
        assert analyze_source(source, "fixture.py") == []

    def test_wall_clock_in_timing(self):
        findings = analyze_source(
            "import time\n"
            "def span():\n"
            "    return time.time()\n",
            "fixture.py",
        )
        assert _rules(findings) == {"FORK-CLOCK"}

    def test_perf_counter_is_fine(self):
        assert (
            analyze_source(
                "import time\n"
                "def span():\n"
                "    return time.perf_counter()\n",
                "fixture.py",
            )
            == []
        )

    def test_unparsable_source(self):
        findings = analyze_source("def broken(:\n", "fixture.py")
        assert _rules(findings) == {"FORK-PARSE"}

    def test_rule_catalogs_cover_every_emitted_rule(self):
        """One catalog for all four rule families, checked both ways:
        every rule ID named in ``src/`` has an entry, and every entry is
        named in ``src/`` outside the catalog (the operator
        reachability rule, applied to rules)."""
        src = Path(__file__).resolve().parents[2] / "src"
        catalog = src / "repro" / "engine" / "verify" / "diagnostics.py"
        rule_id = re.compile(r'"((?:UDX|LINT|PLAN|FORK)-[A-Z0-9-]+)"')
        named = {
            path: set(rule_id.findall(path.read_text(encoding="utf-8")))
            for path in src.rglob("*.py")
        }
        assert set().union(*named.values()) - set(RULES) == set()
        outside = set().union(
            *(rules for path, rules in named.items() if path != catalog)
        )
        assert set(RULES) - outside == set()
        assert {severity for severity, _summary in RULES.values()} <= {
            "error",
            "warning",
            "info",
        }


# ---------------------------------------------------------------------------
# surfacing: the knob, EXPLAIN notes, the DMV source column, pragmas
# ---------------------------------------------------------------------------

def _fixed_finding(*_args, **_kwargs):
    return [
        Diagnostic(
            "PLAN-ARITY", "error", "Fixture/Node", "injected fixture finding"
        )
    ]


class TestSurfacing:
    def test_set_plan_verify_toggles_knob(self):
        with Database() as db:
            assert db.plan_verify is False
            db.execute("SET PLAN_VERIFY ON")
            assert db.plan_verify is True
            db.execute("SET PLAN_VERIFY OFF")
            assert db.plan_verify is False

    def test_findings_reach_explain_and_dmv_with_source(self, monkeypatch):
        import repro.engine.verify.plan_sanitizer as sanitizer

        monkeypatch.setattr(sanitizer, "sanitize_plan", _fixed_finding)
        with Database() as db:
            db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            db.execute("SET PLAN_VERIFY ON")
            text = db.execute("EXPLAIN SELECT id FROM t")
            assert (
                "note: error: Fixture/Node: [PLAN-ARITY] injected fixture "
                "finding" in text
            )
            rows = db.query(
                "SELECT object_type, object_name, rule, severity, "
                "message, source FROM sys_dm_verify_results "
                "WHERE rule = 'PLAN-ARITY'"
            )
            assert rows
            assert rows[0][0] == "plan"
            # the source column carries the originating statement
            assert "SELECT id FROM t" in rows[0][5]

    def test_knob_off_skips_sanitizer(self, monkeypatch):
        import repro.engine.verify.plan_sanitizer as sanitizer

        monkeypatch.setattr(sanitizer, "sanitize_plan", _fixed_finding)
        with Database() as db:
            db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            text = db.execute("EXPLAIN SELECT id FROM t")
            assert "PLAN-ARITY" not in text

    def test_check_force_arms_sanitizer(self, monkeypatch):
        import repro.engine.verify.plan_sanitizer as sanitizer

        monkeypatch.setattr(sanitizer, "sanitize_plan", _fixed_finding)
        with Database() as db:
            db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            assert db.plan_verify is False
            db.check("SELECT id FROM t")
            assert db.plan_verify is False  # restored afterwards
            assert any(
                rule == "PLAN-ARITY"
                for (_o, _n, rule, _s, _m, _src) in db.lint_rows()
            )

    def test_suppression_pragma_silences_rule(self, monkeypatch):
        import repro.engine.verify.plan_sanitizer as sanitizer

        monkeypatch.setattr(sanitizer, "sanitize_plan", _fixed_finding)
        with Database() as db:
            db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            db.execute("SET PLAN_VERIFY ON")
            text = db.execute(
                "EXPLAIN SELECT id FROM t -- lint: ignore PLAN-ARITY"
            )
            assert "PLAN-ARITY" not in text
            assert db.lint_rows() == []

    def test_udx_and_plan_rows_distinguishable_by_source(self):
        class BrokenSum:
            name = "brokensum"
            parallel_safe = True  # but no merge(): verifier warns

            def init(self):
                self.total = 0

            def accumulate(self, value):
                self.total += value

            def terminate(self):
                return self.total

        with Database() as db:
            db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            db.register_uda(BrokenSum)
            db.check("SELECT id FROM t WHERE id = 'x'")  # LINT-TYPE row
            rows = db.query(
                "SELECT object_type, rule, source FROM sys_dm_verify_results"
            )
            udx = [r for r in rows if r[0] == "UDA"]
            plan = [r for r in rows if r[0] == "plan"]
            assert udx and all(src.startswith("UDA:") for _t, _r, src in udx)
            assert plan and all(
                src.startswith("SELECT") for _t, _r, src in plan
            )


class TestSuppressionParsing:
    def test_single_rule(self):
        assert parse_suppressions("-- lint: ignore LINT-SARG") == {
            "LINT-SARG"
        }

    def test_comma_list_and_case(self):
        got = parse_suppressions(
            "SELECT 1 -- LINT: Ignore plan-arity, FORK-CLOCK"
        )
        assert got == {"PLAN-ARITY", "FORK-CLOCK"}

    def test_no_pragma(self):
        assert parse_suppressions("SELECT 1 -- just a comment") == frozenset()
        assert parse_suppressions("") == frozenset()
