"""Cross-process structured tracing: statement traces, worker span
grafting, the wait-stats rollup and the trace-span DMV."""

import os

import pytest

from repro.engine import Database
from repro.engine.tracing import (
    StatementTrace,
    Tracer,
    WaitStats,
    current_trace,
    graft_worker_spans,
    span,
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


def ancestors(trace, node):
    """The spans above ``node`` in ``trace``, nearest first."""
    by_id = {s.span_id: s for s in trace.spans}
    chain = []
    while node.parent_id is not None:
        node = by_id[node.parent_id]
        chain.append(node)
    return chain


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
        outer = next(s for s in trace.spans if s.name == "outer")
        inner = next(s for s in trace.spans if s.name == "inner")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == trace.spans[0].span_id
        assert ancestors(trace, inner) == [outer, trace.spans[0]]

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
        container = next(s for s in trace.spans if s.name.startswith("task 0"))
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
        trace = tracer.begin("SELECT 1", "SELECT")
        assert current_trace() is trace
        tracer.end(trace)
        assert current_trace() is None
        assert tracer.last is trace

    def test_retention_bound(self):
        tracer = Tracer()
        last = Tracer.RETAIN + 1
        for i in range(last + 1):
            tracer.end(tracer.begin(f"q{i}", "SELECT"))
        assert len(tracer.traces) == Tracer.RETAIN
        assert tracer.traces[-1].text == f"q{last}"


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
        exchange = [s for s in trace.spans if "parallel execute" in s.name]
        assert exchange, "exchange span missing from dop-2 trace"
        workers = [s for s in trace.spans if s.name.startswith("task ")]
        assert workers, "no per-worker container spans grafted"
        for container in workers:
            assert root in ancestors(trace, container)
            assert exchange[0] in ancestors(trace, container)
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

    def test_results_identical_across_traced_runs(self, grouped):
        # observability is read-only: a serial aggregate, a filtered
        # scan and a dop-2 exchange return the same bytes when run again
        # over the traces and Query Store rows the first run left
        workload = (
            "SELECT g, COUNT(*), SUM(v) FROM grouped GROUP BY g "
            "OPTION (MAXDOP 1)",
            "SELECT COUNT(*) FROM grouped WHERE v < 25",
            self.DOP_QUERY,
        )
        first, again = (
            [repr(grouped.query(sql)) for sql in workload] for _run in range(2)
        )
        assert first == again
        assert all(rows != "[]" for rows in first)

    def test_span_rows_dmv(self, grouped):
        grouped.query("SELECT COUNT(*) FROM grouped")
        rows = grouped.query(
            "SELECT * FROM sys_dm_exec_trace_spans"
        )
        assert rows
        # (trace_id, span_id, parent_span_id, name, category,
        #  wait_type, start_ms, duration_ms, pid, worker)
        assert all(len(r) == 10 for r in rows)

    def test_span_rows_have_valid_times(self, grouped):
        grouped.query(self.DOP_QUERY)
        trace_id = grouped.last_trace().trace_id
        rows = [
            r for r in grouped.query("SELECT * FROM sys_dm_exec_trace_spans")
            if r[0] == trace_id
        ]
        assert rows
        assert all(isinstance(r[6], (int, float)) for r in rows)
        assert all(r[7] >= 0 for r in rows)

    def test_worker_spans_carry_their_own_pid(self, grouped):
        grouped.query(self.DOP_QUERY)
        trace_id = grouped.last_trace().trace_id
        rows = [
            r for r in grouped.query("SELECT * FROM sys_dm_exec_trace_spans")
            if r[0] == trace_id
        ]
        tasks = [r for r in rows if r[3].startswith("task ")]
        assert tasks
        assert all(r[8] not in (0, os.getpid()) and r[9] >= 0 for r in tasks)
        assert all(r[9] == -1 for r in rows if r[8] == 0)
