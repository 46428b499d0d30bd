"""Plan sanitizer + fork-safety analyzer tests.

Three layers, mirroring the verifier's contract:

1. **Golden corpus** — every shipped plan shape (Figure 9/10 + the
   differential-suite queries, heap/column × row/batch × dop 1/2/4)
   must produce zero diagnostics.
2. **The mutation record** — every ``PLAN-*`` rule left in the catalog
   names the mutant only it catches; inline sources must trip exactly
   their ``FORK-*`` rule.
3. **Surfacing** — ``SET PLAN_VERIFY ON``, EXPLAIN ``note:`` lines,
   the ``sys_dm_verify_results`` source column, and ``-- lint:
   ignore`` suppression pragmas.
"""

import re
from pathlib import Path

import pytest

from repro.engine.database import Database
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
from repro.engine.verify.plan_sanitizer import sanitize_plan

from .test_vectorized import (
    DIFFERENTIAL_QUERIES,
    PARALLEL_DIFFERENTIAL_QUERIES,
)


@pytest.fixture(scope="module")
def heap_db():
    with Database() as db:
        _build_sales_db(db, "heap")
        yield db


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
        for node in plan.nodes():
            assert "\n" not in node.node_label
            assert node.node_label  # never empty


# ---------------------------------------------------------------------------
# the sanitizer's contract, and the record that decides its rules
# ---------------------------------------------------------------------------

class TestBrokenPlans:
    def test_sanitizer_never_raises_on_garbage(self):
        """A verifier that crashes on the input it exists to reject is
        useless: a node of no known class is no error."""

        class _Garbage:
            columns = None

            def children(self):
                return ()

        assert sanitize_plan(_Garbage()) == []


class TestMutationRecord:
    """``benchmarks/results/mutation_record.txt`` decides which PLAN-*
    rules the catalog holds: a rule stays only with a mutant that tier-1
    misses and it alone catches."""

    RECORD = (
        Path(__file__).resolve().parents[2]
        / "benchmarks" / "results" / "mutation_record.txt"
    )

    def verdicts(self):
        """``{rule: (verdict, [mutant id, ...])}`` of the record's table."""
        found = {}
        for line in self.RECORD.read_text(encoding="utf-8").splitlines():
            match = re.match(
                r"(PLAN-[A-Z-]+) +\d+ mutants, .*? fail tier-1 +"
                r"(keep|delete|test first)(.*)$",
                line,
            )
            if match:
                found[match.group(1)] = (
                    match.group(2), match.group(3).split()
                )
        return found

    def test_every_plan_rule_left_names_the_mutant_only_it_catches(self):
        verdicts = self.verdicts()
        assert verdicts
        left = {rule for rule in RULES if rule.startswith("PLAN-")}
        kept = {
            rule for rule, (verdict, mutants) in verdicts.items()
            if verdict == "keep" and mutants
        }
        assert left == kept

    def test_no_mutant_gets_past_every_check(self):
        assert [
            (rule, mutants)
            for rule, (verdict, mutants) in self.verdicts().items()
            if verdict == "test first"
        ] == []


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
            "PLAN-FIXTURE", "error", "Fixture/Node", "injected fixture finding"
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
                "note: error: Fixture/Node: [PLAN-FIXTURE] injected fixture "
                "finding" in text
            )
            rows = db.query(
                "SELECT object_type, object_name, rule, severity, "
                "message, source FROM sys_dm_verify_results "
                "WHERE rule = 'PLAN-FIXTURE'"
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
            assert "PLAN-FIXTURE" not in text

    def test_check_force_arms_sanitizer(self, monkeypatch):
        import repro.engine.verify.plan_sanitizer as sanitizer

        monkeypatch.setattr(sanitizer, "sanitize_plan", _fixed_finding)
        with Database() as db:
            db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            assert db.plan_verify is False
            db.check("SELECT id FROM t")
            assert db.plan_verify is False  # restored afterwards
            assert any(
                rule == "PLAN-FIXTURE"
                for (_o, _n, rule, _s, _m, _src) in db.lint_rows()
            )

    def test_suppression_pragma_silences_rule(self, monkeypatch):
        import repro.engine.verify.plan_sanitizer as sanitizer

        monkeypatch.setattr(sanitizer, "sanitize_plan", _fixed_finding)
        with Database() as db:
            db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            db.execute("SET PLAN_VERIFY ON")
            text = db.execute(
                "EXPLAIN SELECT id FROM t -- lint: ignore PLAN-FIXTURE"
            )
            assert "PLAN-FIXTURE" not in text
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
            "SELECT 1 -- LINT: Ignore plan-fixture, FORK-CLOCK"
        )
        assert got == {"PLAN-FIXTURE", "FORK-CLOCK"}

    def test_no_pragma(self):
        assert parse_suppressions("SELECT 1 -- just a comment") == frozenset()
        assert parse_suppressions("") == frozenset()
