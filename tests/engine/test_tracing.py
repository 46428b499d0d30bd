"""Cross-process structured tracing: statement traces, worker span
grafting, wait-stats rollup, and Chrome trace-event export."""

import json

import pytest

from repro.engine import Database
from repro.engine.tracing import (
    StatementTrace,
    Tracer,
    WaitStats,
    chrome_trace_payload,
    current_trace,
    graft_worker_spans,
    span,
    trace_chrome_events,
)


@pytest.fixture
def db(tmp_path):
    with Database(data_dir=tmp_path / "db") as database:
        yield database


@pytest.fixture
def grouped(db):
    db.execute("CREATE TABLE grouped (k INT PRIMARY KEY, g INT, v INT)")
    values = ", ".join(
        f"({i}, {i % 5}, {i * 7 % 83})" for i in range(1, 301)
    )
    db.execute(f"INSERT INTO grouped VALUES {values}")
    return db


class TestStatementTrace:
    def test_root_span_wraps_statement(self):
        trace = StatementTrace(1, "SELECT 1", "SELECT")
        trace.finish()
        root = trace.spans[0]
        assert root.parent_id is None
        assert root.category == "statement"
        assert "SELECT 1" in root.name
        assert root.end >= root.start

    def test_nested_spans_record_parents(self):
        trace = StatementTrace(1, "q", "SELECT")
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        trace.finish()
        outer = trace.find("outer")[0]
        inner = trace.find("inner")[0]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == trace.spans[0].span_id
        assert trace.spans[0] in trace.ancestors(inner)

    def test_module_span_is_noop_without_active_trace(self):
        assert current_trace() is None
        with span("orphan"):  # must not raise, must not record
            pass
        assert current_trace() is None

    def test_wait_rollup_groups_by_type(self):
        trace = StatementTrace(1, "q", "SELECT")
        trace.add_raw("a", 0.0, 1.0, wait_type="IO")
        trace.add_raw("b", 1.0, 1.5, wait_type="IO")
        trace.add_raw("c", 1.5, 1.6, wait_type="DECODE")
        trace.finish()
        rollup = trace.wait_rollup()
        count, total, worst = rollup["IO"]
        assert count == 2
        assert total == pytest.approx(1.5)
        assert worst == pytest.approx(1.0)
        assert "DECODE" in rollup

    def test_graft_worker_spans_builds_subtree(self):
        trace = StatementTrace(1, "q", "SELECT")
        raw = [
            ("queue wait", "WORKER_QUEUE", 10.0, 10.2),
            ("work", None, 10.2, 10.9),
        ]
        graft_worker_spans(trace, "task 0 (worker 1)", 1, 4242, raw)
        trace.finish()
        container = trace.find("task 0")[0]
        assert container.pid == 4242
        assert container.start == pytest.approx(10.0)
        assert container.end == pytest.approx(10.9)
        children = trace.children_of(container.span_id)
        assert [c.name for c in children] == ["queue wait", "work"]
        assert children[0].wait_type == "WORKER_QUEUE"


class TestWaitStats:
    def test_record_and_rows(self):
        waits = WaitStats()
        waits.record("IO", 0.010)
        waits.record("IO", 0.030)
        waits.record("DECODE", 0.002)
        rows = waits.rows()
        by_type = {r[0]: r for r in rows}
        assert by_type["IO"][1] == 2
        assert by_type["IO"][2] == pytest.approx(40.0, rel=1e-6)
        assert by_type["IO"][3] == pytest.approx(30.0, rel=1e-6)

    def test_absorb_from_trace(self):
        trace = StatementTrace(1, "q", "SELECT")
        trace.add_raw("a", 0.0, 0.5, wait_type="TRANSPORT")
        trace.finish()
        waits = WaitStats()
        waits.absorb(trace)
        assert waits.rows()[0][0] == "TRANSPORT"

    def test_clear(self):
        waits = WaitStats()
        waits.record("IO", 1.0)
        waits.clear()
        assert waits.rows() == []


class TestTracer:
    def test_statement_context_restores_stack(self):
        tracer = Tracer()
        with tracer.statement("SELECT 1", "SELECT") as trace:
            assert current_trace() is trace
        assert current_trace() is None
        assert tracer.last is trace

    def test_disabled_tracer_yields_none(self):
        tracer = Tracer()
        tracer.enabled = False
        with tracer.statement("SELECT 1", "SELECT") as trace:
            assert trace is None
            assert current_trace() is None
        assert tracer.traces == []

    def test_retention_bound(self):
        tracer = Tracer(retain=3)
        for i in range(5):
            with tracer.statement(f"q{i}", "SELECT"):
                pass
        assert len(tracer.traces) == 3
        assert "q4" in tracer.traces[-1].text


class TestDatabaseTracing:
    DOP_QUERY = (
        "SELECT g, COUNT(*), SUM(v) FROM grouped "
        "GROUP BY g OPTION (MAXDOP 2)"
    )

    def test_dop2_worker_spans_nest_under_statement(self, grouped):
        grouped.query(self.DOP_QUERY)
        trace = grouped.last_trace()
        root = trace.spans[0]
        assert root.category == "statement"
        exchange = trace.find("parallel execute")
        assert exchange, "exchange span missing from dop-2 trace"
        workers = [s for s in trace.spans if s.name.startswith("task ")]
        assert workers, "no per-worker container spans grafted"
        for container in workers:
            assert root in trace.ancestors(container)
            assert exchange[0] in trace.ancestors(container)
            phases = trace.children_of(container.span_id)
            names = {p.name for p in phases}
            assert "queue wait" in names
            assert "unpickle task" in names
            # every worker phase fits inside the statement wall
            for phase in phases:
                assert phase.start >= root.start - 1e-6
                assert phase.end <= root.end + 1e-6

    def test_wait_totals_bounded_by_statement_wall(self, grouped):
        grouped.tracer.wait_stats.clear()
        grouped.query(self.DOP_QUERY)
        trace = grouped.last_trace()
        wall = trace.spans[0].duration
        for wait_type, (count, total, worst) in trace.wait_rollup().items():
            assert worst <= total + 1e-9
            # waits of one type run on at most dop workers concurrently
            assert total <= wall * 2 + 1e-6, wait_type
        dmv = {
            r[0]: r
            for r in grouped.query("SELECT * FROM sys_dm_os_wait_stats")
        }
        assert "WORKER_QUEUE" in dmv
        assert dmv["WORKER_QUEUE"][1] >= 1

    def test_explain_analyze_grafts_operator_spans(self, grouped):
        plan = grouped.execute("EXPLAIN ANALYZE " + self.DOP_QUERY)
        assert isinstance(plan, str)
        trace = grouped.last_trace()
        labels = [s.name for s in trace.spans]
        assert any("Hash Match" in label or "Gather" in label
                   for label in labels), labels
        assert any(s.category == "operator" for s in trace.spans)

    def test_serial_statement_traces_without_workers(self, grouped):
        grouped.query("SELECT COUNT(*) FROM grouped OPTION (MAXDOP 1)")
        trace = grouped.last_trace()
        assert trace.spans[0].category == "statement"
        assert not [s for s in trace.spans if s.name.startswith("task ")]

    def test_disabled_tracer_keeps_engine_working(self, grouped):
        grouped.tracer.enabled = False
        rows = grouped.query(self.DOP_QUERY)
        assert len(rows) == 5
        grouped.tracer.enabled = True

    def test_results_identical_with_instrumentation_on_and_off(self, grouped):
        # observability is read-only: a serial aggregate, a filtered
        # scan and a dop-2 exchange return the same bytes either way
        workload = (
            "SELECT g, COUNT(*), SUM(v) FROM grouped GROUP BY g "
            "OPTION (MAXDOP 1)",
            "SELECT COUNT(*) FROM grouped WHERE v < 25",
            self.DOP_QUERY,
        )
        results = {}
        for enabled in (True, False):
            grouped.tracer.enabled = enabled
            grouped.query_store.enabled = enabled
            results[enabled] = [repr(grouped.query(sql)) for sql in workload]
        grouped.tracer.enabled = grouped.query_store.enabled = True
        assert results[True] == results[False]
        assert all(rows != "[]" for rows in results[True])

    def test_span_rows_dmv(self, grouped):
        grouped.query("SELECT COUNT(*) FROM grouped")
        rows = grouped.query(
            "SELECT * FROM sys_dm_exec_trace_spans"
        )
        assert rows
        # (trace_id, span_id, parent_span_id, name, category,
        #  wait_type, start_ms, duration_ms, pid, worker)
        assert all(len(r) == 10 for r in rows)


class TestChromeExport:
    def test_payload_shape(self, grouped):
        grouped.query(self.dop_query())
        payload = grouped.trace_payload(last_only=True)
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        kinds = {e["ph"] for e in events}
        assert "X" in kinds and "M" in kinds
        for event in events:
            if event["ph"] != "X":
                continue
            assert event["dur"] >= 0
            assert isinstance(event["ts"], (int, float))

    def test_worker_pid_gets_own_process(self, grouped):
        grouped.query(self.dop_query())
        payload = grouped.trace_payload(last_only=True)
        pids = {e["pid"] for e in payload["traceEvents"]}
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == pids

    def test_write_trace_round_trips(self, grouped, tmp_path):
        grouped.query("SELECT COUNT(*) FROM grouped")
        out = tmp_path / "trace.json"
        grouped.write_trace(out, last_only=True)
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]

    def test_trace_chrome_events_standalone(self):
        trace = StatementTrace(1, "q", "SELECT")
        with trace.span("step"):
            pass
        trace.finish()
        events = trace_chrome_events(trace)
        assert all(e["ts"] >= 0 for e in events if e["ph"] == "X")
        payload = chrome_trace_payload([trace])
        json.dumps(payload)  # must be serialisable

    @staticmethod
    def dop_query():
        return (
            "SELECT g, COUNT(*), SUM(v) FROM grouped "
            "GROUP BY g OPTION (MAXDOP 2)"
        )
