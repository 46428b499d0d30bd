"""Static verification of UDx bodies, extension contracts, and SQL lint.

Covers the CLR-host-style verifier (permission sets, determinism and
data-access inference), the structural contracts checked at
registration time, the plan-time lint surfaced through ``db.messages``
and ``sys_dm_verify_results``, and what the verified properties change
in plans and execution: per-call-site memoisation of deterministic
UDFs, the pushdown barrier of non-deterministic ones, and the
forced-serial aggregate for a merge-less UDA.

All UDx bodies live at module level so ``inspect.getsource`` can see
them — functions defined interactively verify as UDX-NO-SOURCE.
"""

import re
from pathlib import Path

import pytest

from repro.engine import Database
from repro.engine.errors import TypeMismatchError, UdfError
from repro.engine.expressions import expression_to_sql
from repro.engine.planner import Planner
from repro.engine.schema import Column
from repro.engine.sql.parser import parse_sql
from repro.engine.types import UdtCodec, int_type, varchar_type
from repro.engine.udf import TableValuedFunction, UserDefinedAggregate
from repro.engine.verify import VerificationError, analyze_callable

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "broken_udx"
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def findings_for(db, name):
    """Every finding the verifier recorded for the object ``name``."""
    return [
        d
        for (_kind, key), found in db.catalog.functions.findings.items()
        if key == name.lower()
        for d in found
    ]


# ---------------------------------------------------------------------------
# UDx bodies under test (module level: source must be retrievable)
# ---------------------------------------------------------------------------

_DOUBLED = []


def _double_it(x):
    _DOUBLED.append(x)
    return x * 2


def _seven():
    return 7


def _twice(x):
    return None if x is None else x * 2


def _hundredth_of(x):
    return 100 // x


def _jitter(x):
    import random

    return x + random.random()


def _basename(path):
    import os

    return os.path.basename(path)


_COUNTER = 0


def _bump(x):
    global _COUNTER
    _COUNTER += 1
    return x


def _open_file(path):
    with open(path) as handle:
        return handle.read()


def _make_probe(store):
    def probe(rid):
        return store.exists(rid)

    return probe


def _nondeterministic_helper():
    import random

    return random.random()


def _calls_helper(x):
    return x + _nondeterministic_helper()


from repro.genomics.quality import decode_phred


def _calls_cross_module(quals):
    # decode_phred resolves through module globals to a function from
    # repro.genomics.quality — another module the verifier does not
    # recurse into, so determinism stays unknown
    return decode_phred(quals)


def _calls_unresolvable(x):
    return _undefined_helper(x)  # noqa: F821 — intentionally unbound


# a same-module helper whose source inspect.getsource cannot retrieve
exec("def _no_source_helper(x):\n    return x + 1", globals())


def _calls_no_source(x):
    return _no_source_helper(x)  # noqa: F821 — defined by exec above


def _uses_math(x):
    import math

    return math.sqrt(abs(x))


_TRACKED_CALLS = []


def _tracked_triple(x):
    _TRACKED_CALLS.append(x)
    return x * 3


class BrokenSum(UserDefinedAggregate):
    """Claims parallel_safe but provides no merge()."""

    name = "BrokenSum"
    arity = 1
    parallel_safe = True

    def init(self):
        self.total = 0

    def accumulate(self, value):
        if value is not None:
            self.total += value

    def terminate(self):
        return self.total


class GoodSum(UserDefinedAggregate):
    name = "GoodSum"
    arity = 1
    parallel_safe = True

    def init(self):
        self.total = 0

    def accumulate(self, value):
        if value is not None:
            self.total += value

    def merge(self, other):
        self.total += other.total

    def terminate(self):
        return self.total


class ArityLiar(UserDefinedAggregate):
    name = "ArityLiar"
    arity = 2

    def init(self):
        self.seen = 0

    def accumulate(self, value):  # one argument, declares two
        self.seen += 1

    def merge(self, other):
        self.seen += other.seen

    def terminate(self):
        return self.seen


class HalfImplemented(UserDefinedAggregate):
    name = "HalfImplemented"
    arity = 1

    def accumulate(self, value):
        pass

    # init() and terminate() are not overridden


class MaterializedTvf(TableValuedFunction):
    name = "Materialized"
    columns = (Column("pos", int_type()),)

    def create(self, seq):
        return [(i,) for i in range(len(seq))]

    def fill_row(self, obj):
        return (obj[0],)


class WideFillRowTvf(TableValuedFunction):
    name = "WideFillRow"
    columns = (
        Column("pos", int_type()),
        Column("base", varchar_type(1)),
    )

    def create(self, seq):
        for i, base in enumerate(seq):
            yield (i, base)

    def fill_row(self, obj):
        return (obj[0],)  # one value for two declared columns


class FileBatchesTvf(TableValuedFunction):
    """A SAFE TVF whose batch method reads a file."""

    name = "FileBatches"
    columns = (Column("line", varchar_type(100)),)

    def batches(self, path):
        with open(path) as handle:
            yield [(line,) for line in handle]


class NarrowBatchesTvf(TableValuedFunction):
    name = "NarrowBatches"
    columns = (
        Column("pos", int_type()),
        Column("base", varchar_type(1)),
    )

    def batches(self, seq):
        yield [(i,) for i in range(len(seq))]  # one value for two columns


def _codec_encode(value):
    return value.encode("ascii")


def _codec_decode(raw):
    return raw.decode("ascii")


def _codec_decode_lossy(raw):
    return raw.decode("ascii").lower()


# ---------------------------------------------------------------------------
# permission sets
# ---------------------------------------------------------------------------

class TestPermissionSets:
    def test_safe_rejects_io_import(self):
        with Database() as db:
            with pytest.raises(VerificationError) as excinfo:
                db.register_scalar("Basename", _basename)
            rules = {d.rule for d in excinfo.value.diagnostics}
            assert "UDX-SAFE-IMPORT" in rules
            # rejected objects never reach the registry ...
            assert db.catalog.functions.scalar("Basename") is None
            # ... but their findings land in sys_dm_verify_results
            rows = db.query(
                "SELECT object_name, rule, severity "
                "FROM sys_dm_verify_results WHERE rule = 'UDX-SAFE-IMPORT'"
            )
            assert ("Basename", "UDX-SAFE-IMPORT", "error") in rows

    def test_external_access_allows_io_import(self):
        with Database() as db:
            db.register_scalar(
                "Basename", _basename, permission_set="EXTERNAL_ACCESS"
            )
            assert db.catalog.functions.scalar("Basename") is not None
            assert db.scalar("SELECT Basename('/tmp/reads.fastq')") == (
                "reads.fastq"
            )

    def test_safe_rejects_open_call(self):
        with Database() as db:
            with pytest.raises(VerificationError) as excinfo:
                db.register_scalar("ReadFile", _open_file)
            assert any(
                d.rule == "UDX-SAFE-CALL" for d in excinfo.value.diagnostics
            )

    def test_safe_rejects_global_mutation(self):
        with Database() as db:
            with pytest.raises(VerificationError) as excinfo:
                db.register_scalar("Bump", _bump)
            assert any(
                d.rule == "UDX-SAFE-GLOBAL-WRITE"
                for d in excinfo.value.diagnostics
            )

    def test_safe_rejects_data_access(self):
        with Database() as db:
            probe = _make_probe(db.filestream)
            with pytest.raises(VerificationError) as excinfo:
                db.register_scalar("Probe", probe)
            assert any(
                d.rule == "UDX-SAFE-DATA-ACCESS"
                for d in excinfo.value.diagnostics
            )

    def test_external_access_infers_data_access_read(self):
        with Database() as db:
            probe = _make_probe(db.filestream)
            db.register_scalar(
                "Probe", probe, permission_set="EXTERNAL_ACCESS"
            )
            udf = db.catalog.functions.scalar("Probe")
            assert udf.data_access == "READ"

    def test_declared_no_data_access_contradicted_by_body(self):
        with Database() as db:
            probe = _make_probe(db.filestream)
            with pytest.raises(VerificationError) as excinfo:
                db.register_scalar(
                    "Probe",
                    probe,
                    permission_set="EXTERNAL_ACCESS",
                    data_access="NONE",
                )
            assert any(
                d.rule == "UDX-DATA-ACCESS-MISMATCH"
                for d in excinfo.value.diagnostics
            )

    def test_unsafe_skips_verification_with_warning(self):
        with Database() as db:
            db.register_scalar("Bump", _bump, permission_set="UNSAFE")
            diags = findings_for(db, "Bump")
            assert any(d.rule == "UDX-UNSAFE" for d in diags)
            # nothing was verified, so nothing is inferred
            assert db.catalog.functions.scalar("Bump").is_deterministic is None

    def test_builtin_callable_tolerated_as_no_source(self):
        with Database() as db:
            db.register_scalar("Absolute", abs)
            diags = findings_for(db, "Absolute")
            assert any(d.rule == "UDX-NO-SOURCE" for d in diags)
            assert all(not d.is_error for d in diags)
            assert db.scalar("SELECT Absolute(-7)") == 7


# ---------------------------------------------------------------------------
# determinism inference
# ---------------------------------------------------------------------------

class TestDeterminismInference:
    def test_pure_body_inferred_deterministic(self):
        with Database() as db:
            db.register_scalar("DoubleIt", _double_it)
            assert db.catalog.functions.scalar("DoubleIt").is_deterministic \
                is True

    def test_random_inferred_nondeterministic(self):
        with Database() as db:
            db.register_scalar("Jitter", _jitter)
            udf = db.catalog.functions.scalar("Jitter")
            assert udf.is_deterministic is False
            diags = findings_for(db, "Jitter")
            assert any(d.rule == "UDX-NONDETERMINISTIC" for d in diags)

    def test_declared_deterministic_overridden_by_inference(self):
        with Database() as db:
            db.register_scalar("Jitter", _jitter, deterministic=True)
            # the declaration loses: the body visibly uses random
            assert db.catalog.functions.scalar("Jitter").is_deterministic \
                is False
            diags = findings_for(db, "Jitter")
            assert any(
                d.rule == "UDX-DETERMINISM-MISMATCH" for d in diags
            )

    def test_inference_recurses_into_module_helpers(self):
        report = analyze_callable(_calls_helper, "CallsHelper")
        assert report.is_deterministic is False

    def test_cross_module_callee_leaves_determinism_unverified(self):
        # the soundness contract: True only when every call target was
        # analysed — a helper from another module is not, so the UDF
        # must not be memoised
        report = analyze_callable(_calls_cross_module, "CrossMod")
        assert report.is_deterministic is None
        assert any(
            d.rule == "UDX-UNVERIFIED-CALL" for d in report.diagnostics
        )

    def test_unresolvable_callee_leaves_determinism_unverified(self):
        report = analyze_callable(_calls_unresolvable, "Unresolvable")
        assert report.is_deterministic is None

    def test_sourceless_same_module_callee_taints_verdict(self):
        # an exec-defined helper has no retrievable source: the callee
        # report is unanalysed and must taint the parent down to None
        report = analyze_callable(_calls_no_source, "CallsNoSource")
        assert report.is_deterministic is None

    def test_audited_stdlib_calls_keep_determinism(self):
        report = analyze_callable(_uses_math, "UsesMath")
        assert report.is_deterministic is True

    def test_merge_unverifiable_report_taints_true_parent(self):
        from repro.engine.verify.udx_verifier import AnalysisReport

        parent = AnalysisReport(is_deterministic=True, analyzed=True)
        parent.merge(AnalysisReport())  # source unavailable: None
        assert parent.is_deterministic is None
        # False still dominates an unknown
        parent.merge(AnalysisReport(is_deterministic=False, analyzed=True))
        assert parent.is_deterministic is False

    def test_unverified_udf_not_constant_folded(self):
        with _seeded_db() as db:
            db.register_scalar("CrossMod", _calls_cross_module)
            assert (
                db.catalog.functions.scalar("CrossMod").is_deterministic
                is None
            )
            op = db.plan("SELECT v FROM t WHERE id = CrossMod('I')")
            # the call stays in the plan, evaluated at run time
            assert "CrossMod('I')" in op.explain()


# ---------------------------------------------------------------------------
# structural contracts
# ---------------------------------------------------------------------------

class TestContracts:
    def test_uda_arity_mismatch_rejected(self):
        with Database() as db:
            with pytest.raises(VerificationError) as excinfo:
                db.register_uda(ArityLiar)
            assert any(
                d.rule == "UDX-UDA-ARITY" for d in excinfo.value.diagnostics
            )

    def test_uda_missing_lifecycle_rejected(self):
        with Database() as db:
            with pytest.raises(VerificationError) as excinfo:
                db.register_uda(HalfImplemented)
            lifecycle = [
                d
                for d in excinfo.value.diagnostics
                if d.rule == "UDX-UDA-LIFECYCLE"
            ]
            missing = " ".join(d.message for d in lifecycle)
            assert "init" in missing and "terminate" in missing

    def test_mergeless_parallel_uda_registers_with_warning(self):
        with Database() as db:
            db.register_uda(BrokenSum)
            diags = findings_for(db, "BrokenSum")
            assert any(d.rule == "UDX-UDA-NO-MERGE" for d in diags)
            assert BrokenSum._merge_verified is False
            assert db.catalog.functions.uda("BrokenSum") is BrokenSum

    def test_materialized_tvf_rejected(self):
        with Database() as db:
            with pytest.raises(VerificationError) as excinfo:
                db.register_tvf(MaterializedTvf())
            assert any(
                d.rule == "UDX-TVF-MATERIALIZED"
                for d in excinfo.value.diagnostics
            )

    def test_fill_row_arity_mismatch_rejected(self):
        with Database() as db:
            with pytest.raises(VerificationError) as excinfo:
                db.register_tvf(WideFillRowTvf())
            assert any(
                d.rule == "UDX-TVF-FILLROW-ARITY"
                for d in excinfo.value.diagnostics
            )

    def test_safe_tvf_cannot_hide_io_in_batches(self):
        with Database() as db:
            with pytest.raises(VerificationError) as excinfo:
                db.register_tvf(FileBatchesTvf())
            assert any(
                d.rule == "UDX-SAFE-CALL" and d.obj == "FileBatches.batches"
                for d in excinfo.value.diagnostics
            )

    def test_batches_arity_mismatch_rejected(self):
        with Database() as db:
            with pytest.raises(VerificationError) as excinfo:
                db.register_tvf(NarrowBatchesTvf())
            assert [
                d.message
                for d in excinfo.value.diagnostics
                if d.rule == "UDX-TVF-FILLROW-ARITY"
            ] == [
                "batches() yields 1-tuples but the TVF declares 2 output "
                "column(s)"
            ]

    def test_udt_roundtrip_failure_rejected(self):
        codec = UdtCodec(
            name="LossySeq",
            serialize=_codec_encode,
            deserialize=_codec_decode_lossy,
            probe="AcGt",
        )
        with Database() as db:
            with pytest.raises(VerificationError) as excinfo:
                db.register_udt(codec)
            assert any(
                d.rule == "UDX-UDT-ROUNDTRIP"
                for d in excinfo.value.diagnostics
            )

    def test_udt_with_probe_verified(self):
        codec = UdtCodec(
            name="AsciiSeq",
            serialize=_codec_encode,
            deserialize=_codec_decode,
            probe="ACGT",
        )
        with Database() as db:
            db.register_udt(codec)
            diags = findings_for(db, "AsciiSeq")
            assert any(d.rule == "UDX-UDT-VERIFIED" for d in diags)

    def test_udt_without_probe_warns(self):
        codec = UdtCodec(
            name="Unprobed",
            serialize=_codec_encode,
            deserialize=_codec_decode,
        )
        with Database() as db:
            db.register_udt(codec)
            diags = findings_for(db, "Unprobed")
            assert any(d.rule == "UDX-UDT-NO-PROBE" for d in diags)


# ---------------------------------------------------------------------------
# verified properties feed the optimizer
# ---------------------------------------------------------------------------

def _seeded_db():
    db = Database()
    db.register_scalar("DoubleIt", _double_it)
    db.register_scalar("Jitter", _jitter)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp VARCHAR(5), v INT)")
    db.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, 'g{i % 3}', {i % 2})" for i in range(60))
    )
    return db


def _operators(plan_text):
    """The operator names of an EXPLAIN text, top-down."""
    return re.findall(r"^ *-> ([A-Za-z ]+?)(?: \(| \[)", plan_text, re.M)


#: deterministic calls over constants inside aggregates, GROUP BY, ORDER
#: BY and HAVING: each plans and runs alike with the plan cache on and off
CONSTANT_CALLS = [
    "SELECT SUM(v * Seven()) FROM t",
    "SELECT v + Seven() FROM t GROUP BY v + Seven() ORDER BY v + Seven()",
    "SELECT SUM(ISNULL(Twice(NULL), v)) FROM t",
    "SELECT v + DoubleIt(1) FROM t GROUP BY v + DoubleIt(1) "
    "ORDER BY v + DoubleIt(1)",
    "SELECT grp, SUM(v * DoubleIt(1)) FROM t GROUP BY grp "
    "HAVING SUM(v * DoubleIt(1)) > DoubleIt(3)",
    "SELECT grp FROM t GROUP BY grp HAVING SUM(v * DoubleIt(3)) > 0",
]


class TestOptimizerIntegration:
    def test_deterministic_udf_constant_folded_into_seek(self):
        """EXPLAIN shows the plan ``db.query`` runs (the plan cache turns
        the literal into a parameter, so no call is evaluated at plan
        time), and the call site's memo evaluates ``DoubleIt(21)`` once
        over two executions, not once per row."""
        sql = "SELECT v FROM t WHERE id = DoubleIt(21)"
        with _seeded_db() as db:
            explained = _operators(db.explain(sql))
            _DOUBLED.clear()
            assert db.query(sql) == [(0,)]
            assert db.query(sql) == [(0,)]
            assert _DOUBLED == [21]
            ((recorded,),) = db.query(
                "SELECT plan_text FROM sys_dm_query_store_plan"
            )
            assert explained == _operators(recorded)
            assert "Filter" in explained

    @pytest.mark.parametrize("sql", CONSTANT_CALLS)
    def test_calls_over_constants_plan_alike_with_the_cache_on_and_off(self, sql):
        rows = {}
        for mode in ("ON", "OFF"):
            with _seeded_db() as db:
                db.register_scalar("Seven", _seven)
                db.register_scalar("Twice", _twice)
                (stmt,) = parse_sql(sql)
                items = [item.expr for item in stmt.items]
                texts = [expression_to_sql(expr) for expr in items]
                Planner(db).plan_select(stmt)
                assert [item.expr for item in stmt.items] == items
                assert [expression_to_sql(e) for e in items] == texts
                assert db.explain(sql)
                db.execute(f"SET PLAN_CACHE {mode}")
                rows[mode] = sorted(db.query(sql))
        assert rows["ON"] == rows["OFF"]
        assert rows["ON"]

    def test_failing_udf_left_unfolded_for_runtime(self):
        with _seeded_db() as db:
            db.register_scalar("HundredthOf", _hundredth_of)
            assert db.catalog.functions.scalar("HundredthOf") \
                .is_deterministic is True
            sql = "SELECT v FROM t WHERE id = HundredthOf(0)"
            op = db.plan(sql)  # planning evaluates no call
            assert "HundredthOf(0)" in op.explain()
            with pytest.raises(UdfError, match="HundredthOf"):
                db.query(sql)

    def test_nondeterministic_udf_not_folded_and_not_pushed(self):
        with _seeded_db() as db:
            op = db.plan("SELECT v FROM t WHERE Jitter(id) >= 0")
            assert any(
                "not pushed down" in note and "Jitter" in note
                for note in op.plan_notes
            )

    def test_deterministic_udf_memoised_per_distinct_args(self):
        with Database() as db:
            db.register_scalar("Tracked", _tracked_triple)
            db.execute("CREATE TABLE s (id INT PRIMARY KEY, v INT)")
            db.execute(
                "INSERT INTO s VALUES "
                + ", ".join(f"({i}, {i % 2})" for i in range(10))
            )
            _TRACKED_CALLS.clear()
            rows = db.query("SELECT Tracked(v) FROM s")
            assert sorted(r[0] for r in rows) == sorted(
                (i % 2) * 3 for i in range(10)
            )
            # 10 rows but only two distinct arguments: the call site's
            # memo absorbs the other eight evaluations
            assert len(_TRACKED_CALLS) == 2


class TestSerialAggregateRegression:
    """A merge-less UDA under a parallel hint must fall back to a serial
    plan — and still produce the serial reference answer."""

    def test_parallel_hint_forced_serial_with_warning(self):
        with _seeded_db() as db:
            db.register_uda(BrokenSum)
            sql = (
                "SELECT grp, BrokenSum(v) FROM t GROUP BY grp "
                "OPTION (MAXDOP 4)"
            )
            text = db.explain(sql)
            assert "Gather Streams" not in text  # no parallel exchange
            assert (
                "note: warning: BrokenSum: [LINT-SERIAL-AGG] serial "
                "aggregate forced — uda 'BrokenSum' has no verified merge"
                in text
            )
            parallel_hinted = db.query(sql)
            assert any(
                "[LINT-SERIAL-AGG]" in message for message in db.messages
            )
            serial_reference = db.query(
                "SELECT grp, BrokenSum(v) FROM t GROUP BY grp "
                "OPTION (MAXDOP 1)"
            )
            assert sorted(parallel_hinted) == sorted(serial_reference)
            expected = {"g0": 10, "g1": 10, "g2": 10}
            assert dict(parallel_hinted) == expected

    def test_suppressed_serial_aggregate_leaves_no_trace(self):
        # the note used to be appended before the pragma filter ran, so
        # it survived a suppression that removed the message and the row
        with _seeded_db() as db:
            db.register_uda(BrokenSum)
            text = db.execute(
                "EXPLAIN SELECT grp, BrokenSum(v) FROM t GROUP BY grp "
                "OPTION (MAXDOP 4) -- lint: ignore LINT-SERIAL-AGG"
            )
            assert "Gather Streams" not in text
            assert "serial aggregate forced" not in text
            assert not any("LINT-SERIAL-AGG" in m for m in db.messages)
            assert db.query(
                "SELECT rule FROM sys_dm_verify_results "
                "WHERE rule = 'LINT-SERIAL-AGG'"
            ) == []

    def test_verified_merge_keeps_parallel_plan(self):
        with _seeded_db() as db:
            db.register_uda(GoodSum)
            text = db.explain(
                "SELECT grp, GoodSum(v) FROM t GROUP BY grp "
                "OPTION (MAXDOP 4)"
            )
            assert "Gather Streams" in text
            assert "serial aggregate forced" not in text


# ---------------------------------------------------------------------------
# SQL lint: db.messages and sys_dm_verify_results
# ---------------------------------------------------------------------------

class TestSqlLint:
    def test_sarg_warning_reaches_messages_and_view(self):
        with _seeded_db() as db:
            db.query("SELECT v FROM t WHERE Jitter(id) > 100")
            assert any(
                "[LINT-SARG]" in message and "clustered key" in message
                for message in db.messages
            )
            rows = db.query(
                "SELECT object_type, object_name, rule, severity "
                "FROM sys_dm_verify_results WHERE rule = 'LINT-SARG'"
            )
            assert rows and rows[0][0] == "plan"
            assert rows[0][3] == "warning"

    def test_explain_note_names_the_rule(self):
        # a lint note used to show the message alone, with no rule ID to
        # suppress it by
        with _seeded_db() as db:
            text = db.execute("EXPLAIN SELECT v FROM t WHERE Jitter(id) > 1")
            notes = [
                line for line in text.splitlines() if "not SARGable" in line
            ]
            assert notes and notes[0].startswith(
                "note: warning: Jitter: [LINT-SARG] predicate on id"
            )

    def test_type_mismatch_comparison_warns(self):
        with _seeded_db() as db:
            db.query("SELECT id FROM t WHERE grp = 7")
            assert any(
                "[LINT-TYPE]" in message for message in db.messages
            )

    def test_a_datetime_column_against_text_warns(self):
        # LINT-TYPE reads SqlType.order_family, the rule the seeks and
        # the conversion check apply: a DATETIME holds POSIX seconds
        with Database() as db:
            db.execute("CREATE TABLE e (id INT PRIMARY KEY, ts DATETIME)")
            db.query("SELECT id FROM e WHERE '2009-01-01' < ts")
            assert any(
                "[LINT-TYPE]" in message
                and "mixes number column ts (DATETIME) with a text literal"
                in message
                for message in db.messages
            )

    @pytest.mark.parametrize(
        "where, literal",
        [
            ("k BETWEEN 'a' AND 'z'", "text"),
            ("k BETWEEN 1 AND 'z'", "text"),
            ("k IN ('a', 'b')", "text"),
            ("k IN (1, 2, 'b')", "text"),
        ],
    )
    def test_every_bound_of_between_and_in_is_checked(self, where, literal):
        # BETWEEN raises a conversion error at run time, and IN finds
        # nothing: the plan warns beforehand
        with Database() as db:
            db.execute("CREATE TABLE n (id INT PRIMARY KEY, k INT)")
            db.execute("INSERT INTO n VALUES (1, 1)")
            try:
                db.query(f"SELECT id FROM n WHERE {where}")
            except TypeMismatchError:
                pass
            assert any(
                "[LINT-TYPE]" in message
                and f"mixes number column k (INT) with a {literal} literal"
                in message
                for message in db.messages
            ), db.messages

    def test_cartesian_join_warns_before_lowering_fails(self):
        from repro.engine.errors import EngineError

        with _seeded_db() as db:
            db.execute("CREATE TABLE u (uid INT PRIMARY KEY, w INT)")
            with pytest.raises(EngineError):
                db.query(
                    "SELECT t.id FROM t JOIN u ON t.id < u.uid"
                )
            assert any(
                "[LINT-CARTESIAN]" in message for message in db.messages
            )

    def test_lint_rows_survive_subsequent_statements(self):
        with _seeded_db() as db:
            db.query("SELECT v FROM t WHERE Jitter(id) > 100")
            # a later statement resets db.messages but not the view
            db.query("SELECT COUNT(*) FROM t")
            rows = db.query(
                "SELECT rule FROM sys_dm_verify_results "
                "WHERE object_type = 'plan'"
            )
            assert ("LINT-SARG",) in rows

    def test_registration_findings_in_view(self):
        with Database() as db:
            db.register_uda(BrokenSum)
            rows = db.query(
                "SELECT object_type, object_name, severity "
                "FROM sys_dm_verify_results "
                "WHERE rule = 'UDX-UDA-NO-MERGE'"
            )
            assert ("UDA", "BrokenSum", "warning") in rows


# ---------------------------------------------------------------------------
# the lint CLI
# ---------------------------------------------------------------------------

class TestStaticCheck:
    """``db.check`` (the lint CLI's SQL path) plans and binds without
    executing: lint findings fire, but no row is read or written."""

    def test_check_runs_lint_without_executing_dml(self):
        with _seeded_db() as db:
            before = db.scalar("SELECT COUNT(*) FROM t")
            db.check("INSERT INTO t VALUES (999, 'g9', 1)")
            db.check("UPDATE t SET v = 0 WHERE id = 1")
            db.check("DELETE FROM t")
            assert db.scalar("SELECT COUNT(*) FROM t") == before
            assert db.scalar("SELECT v FROM t WHERE id = 1") == 1

    def test_check_fires_plan_lint_for_selects(self):
        with _seeded_db() as db:
            db.check("SELECT v FROM t WHERE Jitter(id) > 100")
            assert any(
                rule == "LINT-SARG"
                for (_o, _n, rule, _s, _m, _src) in db.lint_rows()
            )

    def test_check_applies_ddl_so_later_statements_bind(self):
        from repro.engine.errors import EngineError

        with Database() as db:
            db.check(
                "CREATE TABLE c (id INT PRIMARY KEY, v INT)"
            )
            db.check("SELECT v FROM c WHERE id = 1")  # binds
            with pytest.raises(EngineError):
                db.check("SELECT nope FROM c")

    def test_check_rejects_unknown_insert_column(self):
        from repro.engine.errors import EngineError

        with _seeded_db() as db:
            with pytest.raises(EngineError):
                db.check("INSERT INTO t (id, nope) VALUES (999, 1)")

    def test_split_statements_handles_block_comments(self):
        from repro.engine.sql.lexer import split_statements
        from repro.engine.sql.parser import parse_sql

        script = (
            "SELECT 1; /* a ';' and an 'unclosed quote inside */ "
            "SELECT/* inline */2;"
        )
        statements = split_statements(script)
        # still two statements; the comments now stay with the second
        assert statements == [
            "SELECT 1",
            "/* a ';' and an 'unclosed quote inside */ SELECT/* inline */2",
        ]
        assert [
            stmt.normalized_sql
            for text in statements
            for stmt in parse_sql(text)
        ] == ["SELECT ?", "SELECT ?"]


class TestLintCli:
    def test_broken_fixtures_fail_naming_function_and_rule(self, capsys):
        from repro.cli import main

        rc = main(["lint", "--no-builtins", str(FIXTURES)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "UDX-UDA-ARITY" in out and "WeightedMean" in out
        assert "UDX-TVF-MATERIALIZED" in out and "Kmers" in out
        assert "UDX-UDT-ROUNDTRIP" in out and "LossySeq" in out
        assert "UDX-SAFE-IMPORT" in out and "MaskByHostname" in out
        assert "UDX-UDA-NO-MERGE" in out and "Consensus" in out

    def test_shipped_registry_and_examples_are_clean(self, capsys):
        from repro.cli import main

        rc = main(["lint", str(EXAMPLES)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s), 0 warning(s)" in out

    def test_every_finding_is_reported(self, tmp_path, capsys):
        # the CLI used to re-read findings by index into the 500-row
        # sys_dm_verify_results log, so a large lint run lost some
        from repro.cli import main

        for name in ("a", "b", "c"):
            (tmp_path / f"{name}.sql").write_text(
                f"CREATE TABLE {name} (id INT PRIMARY KEY, v INT);\n"
                + "".join(
                    f"SELECT v FROM {name} WHERE ABS(id) = {i};\n"
                    for i in range(300)
                )
            )
        assert main(["lint", "--no-builtins", str(tmp_path)]) == 0
        assert "0 error(s), 900 warning(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "body, rc, summary, rule",
        [
            (
                "import os\n\n\ndef body(seq):\n    return os.getcwd()\n",
                1,
                "1 error(s), 0 warning(s)",
                "[UDX-SAFE-IMPORT]",
            ),
            (
                "import random\n\n\ndef body(seq):\n"
                "    return seq if random.random() < 2 else None\n",
                0,
                "0 error(s), 1 warning(s)",
                "[UDX-DETERMINISM-MISMATCH]",
            ),
        ],
        ids=["safe-import", "determinism-mismatch"],
    )
    def test_re_registered_builtin_is_verified(
        self, body, rc, summary, rule, tmp_path, capsys
    ):
        # the CLI used to read the findings of a module's registrations
        # by index into rows flattened from the per-object mapping, where
        # a re-registered name keeps its old slot: the slice missed the
        # new findings and picked up (so repeated) another object's
        from repro.cli import main

        path = tmp_path / "override.py"
        path.write_text(
            body
            + "\n\ndef register(db):\n"
            + "    db.register_scalar(\n"
            + "        'ReverseComplement', body, deterministic=True\n"
            + "    )\n"
        )
        assert main(["lint", "--verbose", str(path)]) == rc
        out = capsys.readouterr().out
        assert summary in out and rule in out
        assert "ReverseComplement" in out.split(rule)[0].splitlines()[-1]
        lines = out.splitlines()
        assert len(lines) == len(set(lines))


_PRAGMA = "-- lint: ignore LINT-SARG\n"


def _sarg_script(pragma_above):
    """Three LINT-SARG statements on t (distinct shapes, so each one is
    planned); a pragma above one of them."""
    return "".join(
        (_PRAGMA if index == pragma_above else "")
        + f"SELECT {column} FROM t WHERE ABS(id) = 1;\n"
        for index, column in enumerate(("id", "v", "id, v"))
    )


class TestPragmaAboveTheStatement:
    """``-- lint: ignore RULE`` on its own line before a statement
    suppresses that statement and no other, in ``execute`` and in the
    CLI (only a pragma at the statement's end used to be seen)."""

    @pytest.mark.parametrize("pragma_above", [0, 1, 2])
    def test_database_execute(self, pragma_above):
        with _seeded_db() as db:
            db.execute(_sarg_script(pragma_above))
            sources = [
                source
                for (_o, _n, rule, _s, _m, source) in db.lint_rows()
                if rule == "LINT-SARG"
            ]
            expected = [
                f"SELECT {column} FROM t WHERE ABS(id) = 1"
                for column in ("id", "v", "id, v")
            ]
            del expected[pragma_above]
            assert sources == expected

    @pytest.mark.parametrize("pragma_above", [0, 1, 2])
    def test_lint_cli(self, pragma_above, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "script.sql"
        path.write_text(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT);\n"
            + _sarg_script(pragma_above)
        )
        assert main(["lint", "--no-builtins", str(path)]) == 0
        assert "0 error(s), 2 warning(s)" in capsys.readouterr().out

    def test_issue_example(self):
        with _seeded_db() as db:
            db.execute(_PRAGMA + "SELECT id FROM t WHERE ABS(id) = 1")
            assert not any("[LINT-SARG]" in m for m in db.messages)
            db.execute("SELECT id FROM t WHERE ABS(id) = 1")
            assert any("[LINT-SARG]" in m for m in db.messages)

    @pytest.mark.parametrize("pragma_first", [True, False])
    def test_the_pragma_keys_the_plan_cache(self, pragma_first):
        """Comments are not in the normalised text, so the renditions
        with and without the pragma must not share a cached plan: the
        second would report (or hide) what the first one's lint found."""
        sql = "SELECT id FROM t WHERE ABS(id) = 1"
        renditions = [(True, _PRAGMA + sql), (False, sql)]
        if not pragma_first:
            renditions.reverse()
        with Database() as db:
            db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            db.execute(
                "INSERT INTO t VALUES "
                + ", ".join(f"({i}, {i % 2})" for i in range(10))
            )
            for suppressed, text in renditions:
                db.execute(text)
                reported = any("[LINT-SARG]" in m for m in db.messages)
                noted = any(
                    "[LINT-SARG]" in note
                    for note in db._last_select_plan.plan_notes
                )
                assert (reported, noted) == (not suppressed, not suppressed)

    def test_pragma_of_no_statement_covers_the_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "script.sql"
        path.write_text(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT);\n"
            + _sarg_script(None)
            + "-- this script probes ABS() on purpose\n"
            + _PRAGMA
        )
        assert main(["lint", "--no-builtins", str(path)]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out
