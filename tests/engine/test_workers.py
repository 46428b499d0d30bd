"""The worker-pool runtime: forked processes, LPT scheduling, failure."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.engine import Database
from repro.engine.executor import ParallelHashAggregate, collect_rows
from repro.engine.executor.exchange import (
    build_fragment,
    fragment_chain,
    rebuild_shippable_specs,
    run_fragment,
)
from repro.engine.udf import UserDefinedAggregate
from repro.engine.workers import (
    DISABLE_ENV,
    WorkerPool,
    WorkerPoolError,
    lpt_assign,
)

ROWS = 4000
QUERY = "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g"


def load(db, storage="heap", rows=ROWS):
    suffix = (
        " WITH (STORAGE = COLUMN, SEGMENT_ROWS = 512)"
        if storage == "column"
        else ""
    )
    db.execute(f"CREATE TABLE t (g VARCHAR(5), v INT){suffix}")
    if rows:
        db.table("t").insert_many(
            [(f"g{i % 5}", i) for i in range(rows)]
        )
        db.table("t").finish_bulk_load(force=False)


@pytest.fixture
def db():
    with Database() as database:
        load(database)
        yield database


@pytest.fixture
def pool(db):
    return db.worker_pool


def exchange_node(plan):
    node = plan
    while not isinstance(node, ParallelHashAggregate):
        (node,) = node.children()
    return node


def fragment_of(db, sql=QUERY):
    """The descriptor the exchange of ``sql`` ships, without a slice."""
    node = exchange_node(db.plan(f"{sql} OPTION (MAXDOP 2)"))
    return build_fragment(
        fragment_chain(node.child),
        rebuild_shippable_specs(node.aggregates),
        node.group_indexes,
        node.group_exprs,
    )


def task(db, part=None, sql=QUERY):
    return ("partial_agg", fragment_of(db, sql)._replace(part=part))


def finished(value):
    """``{group key: aggregate results}`` of one task's return value."""
    return {
        key: tuple(acc.result(key) for acc in value["accumulators"])
        for key in value["keys"]
    }


class TestLptAssign:
    def test_every_task_assigned_once(self):
        assignment = lpt_assign([5.0, 4.0, 3.0, 3.0, 3.0], 2)
        flat = sorted(i for worker in assignment for i in worker)
        assert flat == [0, 1, 2, 3, 4]

    def test_longest_first_balances_load(self):
        weights = [5.0, 4.0, 3.0, 3.0, 3.0]
        assignment = lpt_assign(weights, 2)
        loads = [sum(weights[i] for i in worker) for worker in assignment]
        # LPT: 5 -> w0, 4 -> w1, 3 -> w1 (7), 3 -> w0 (8), 3 -> w1 (10);
        # the makespan is 10 and neither worker exceeds it
        assert max(loads) == pytest.approx(10.0)

    def test_more_workers_than_tasks(self):
        assignment = lpt_assign([1.0], 4)
        assert sum(len(worker) for worker in assignment) == 1

    def test_zero_workers_rejected(self):
        with pytest.raises(WorkerPoolError):
            lpt_assign([1.0], 0)


class TestWorkerPool:
    def test_runs_partial_aggregates_on_processes(self, db, pool):
        results = pool.run([task(db)])
        assert len(results) == 1
        assert finished(results[0].value) == {
            key: (count, total) for key, count, total in db.query(QUERY)
        }
        assert results[0].rows == ROWS
        # the task is a description, the result is what crosses back
        assert 0 < results[0].bytes_sent < 2048
        assert results[0].bytes_received > 0
        # workers are real processes, not the coordinator
        assert all(row[1] != os.getpid() for row in pool.stats_rows())

    def test_results_return_in_task_order(self, db, pool):
        tasks = [task(db, (i, 4)) for i in range(4)]
        results = pool.run(tasks, weights=[5, 4, 3, 2])
        pages = db.table("t").store.pages
        assert len(pages) >= 4
        for i, result in enumerate(results):
            mine = pages[len(pages) * i // 4 : len(pages) * (i + 1) // 4]
            assert result.rows == sum(page.live_count for page in mine)
        assert sum(result.rows for result in results) == ROWS

    def test_pool_reused_across_runs(self, db, pool):
        pool.run([task(db)])
        first_pids = {row[1] for row in pool.stats_rows()}
        pool.run([task(db)])
        assert {row[1] for row in pool.stats_rows()} == first_pids
        assert pool.runs == 2

    def test_env_kill_switch_disables_pool(self, db, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "1")
        p = WorkerPool()
        assert not p.available()
        assert DISABLE_ENV in (p.disabled_reason or "")
        with pytest.raises(WorkerPoolError):
            p.run([task(db)])

    def test_no_fork_means_no_worker_tier(self, db, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert not db.worker_pool.available()
        plan = db.plan(f"{QUERY} OPTION (MAXDOP 2)")
        assert collect_rows(plan) == db.query(QUERY)
        stats = exchange_node(plan).stats
        assert stats.mode == "serial"
        assert "fork" in stats.fallback_reason
        assert f"note: exchange will run serially — {stats.fallback_reason}" in (
            plan.explain()
        )

    def test_unpicklable_payload_fails_cleanly(self, pool):
        with pytest.raises(WorkerPoolError, match="not picklable"):
            pool.run([("partial_agg", lambda: 1)])
        # a pickling error is the plan's fault: the pool stays usable
        assert pool.available()

    def test_task_error_reports_and_pool_survives(self, db, pool):
        bad = ("partial_agg", fragment_of(db)._replace(table="no_such_table"))
        with pytest.raises(WorkerPoolError, match="task failed.*no_such_table"):
            pool.run([bad, task(db)])
        assert pool.available()
        pids = {row[1] for row in pool.stats_rows()}
        assert len(pids) == 2
        results = pool.run([task(db)])
        assert results[0].value["rows"] == ROWS
        assert {row[1] for row in pool.stats_rows()} == pids

    def test_unknown_task_kind_is_task_error(self, pool):
        with pytest.raises(WorkerPoolError, match="task failed"):
            pool.run([("no_such_kind", {})])

    def test_pool_without_a_database_cannot_read_tables(self, db):
        p = WorkerPool(max_workers=1)
        try:
            with pytest.raises(WorkerPoolError, match="hold no database"):
                p.run([task(db)])
        finally:
            p.close()

    def test_stats_rows_shape(self, db, pool):
        pool.run([task(db)])
        rows = pool.stats_rows()
        assert rows
        for worker_id, pid, state, tasks, nrows, busy, last in rows:
            assert state in ("running", "dead")
            assert pid > 0
        assert sum(row[3] for row in rows) == 1  # tasks_completed
        assert sum(row[4] for row in rows) == ROWS  # rows_processed

    def test_close_is_idempotent(self, db):
        p = WorkerPool(max_workers=1, database=db)
        p.run([task(db)])
        p.close()
        p.close()
        assert p.size == 0


class Flag:
    """An event over lock-free shared memory, inherited through the
    fork: a ``multiprocessing.Event`` deadlocks its setter once a
    process waiting on it has been SIGKILLed."""

    def __init__(self):
        self._cell = multiprocessing.RawValue("i", 0)

    def set(self, value=1):
        self._cell.value = value

    def wait(self, seconds):
        deadline = time.perf_counter() + seconds
        while not self._cell.value and time.perf_counter() < deadline:
            time.sleep(0.002)
        return bool(self._cell.value)


#: a worker is inside WaitForRelease.accumulate / may leave it
ENTERED = Flag()
RELEASE = Flag()


class WaitForRelease(UserDefinedAggregate):
    """Counts rows; every accumulate call first waits for RELEASE."""

    name = "WaitForRelease"
    parallel_safe = True

    def init(self):
        self.count = 0

    def accumulate(self, value):
        ENTERED.set()
        RELEASE.wait(30)
        self.count += 1

    def merge(self, other):
        self.count += other.count

    def terminate(self):
        return self.count


class TestWorkerDeath:
    """ROADMAP robustness (a): a worker that dies mid-task."""

    SQL = "SELECT g, WaitForRelease(v) FROM t GROUP BY g"

    def test_killed_worker_is_noticed_at_once(self, db):
        db.register_uda(WaitForRelease)
        ENTERED.set(0)
        RELEASE.set(0)
        killed = []

        def kill_one_worker_mid_task():
            assert ENTERED.wait(10)
            killed.append(db.worker_pool.stats_rows()[0][1])
            os.kill(killed[0], signal.SIGKILL)
            RELEASE.set()

        killer = threading.Thread(target=kill_one_worker_mid_task)
        killer.start()
        try:
            plan = db.plan(f"{self.SQL} OPTION (MAXDOP 2)")
            start = time.perf_counter()
            rows = collect_rows(plan)
            elapsed = time.perf_counter() - start
        finally:
            RELEASE.set()
            killer.join()
        # the serial answer, well under a second (not a 120 s timeout)
        assert rows == [(f"g{i}", ROWS // 5) for i in range(5)]
        assert elapsed < 1.0
        stats = exchange_node(plan).stats
        assert stats.mode == "serial"
        assert f"pid {killed[0]}" in stats.fallback_reason
        assert "died" in stats.fallback_reason

        # the next parallel statement forks the replacement and runs on
        # workers again
        again = db.plan(f"{self.SQL} OPTION (MAXDOP 2)")
        assert collect_rows(again) == rows
        stats = exchange_node(again).stats
        assert (stats.mode, stats.fallback_reason) == ("parallel scan", "")
        workers = db.query("SELECT pid, state FROM sys_dm_os_workers")
        assert len(workers) == 2
        assert all(state == "running" for _pid, state in workers)
        assert killed[0] not in [pid for pid, _state in workers]

    def test_silent_worker_is_bounded_by_a_constant(self, db, monkeypatch):
        from repro.engine import workers

        db.register_uda(WaitForRelease)
        ENTERED.set(0)
        RELEASE.set(0)
        monkeypatch.setattr(workers, "TASK_TIMEOUT_S", 0.3)
        try:
            with pytest.raises(WorkerPoolError, match="silent"):
                db.worker_pool.run([task(db, sql=self.SQL)])
        finally:
            RELEASE.set()
        assert db.worker_pool.size == 0  # the stuck worker was killed


class TestPartitionPayloads:
    """The slices a fragment's ``part`` names, on both stores."""

    def _sliced_rows(self, db, parts):
        out = []
        for i in range(parts):
            value = run_fragment(db, fragment_of(db)._replace(part=(i, parts)))
            out.append(value)
        return out

    def test_heap_partitions_are_disjoint_and_complete(self, db):
        store = db.table("t").store
        batches = [
            [row for batch in store.scan_batches((i, 4)) for row in batch]
            for i in range(4)
        ]
        assert all(batches)
        assert [row for part in batches for row in part] == [
            row for _rid, row in store.scan()
        ]
        assert store.io["scans"] == 2  # four parts are one scan

    def test_heap_empty_table_returns_no_slices(self):
        with Database() as empty:
            load(empty, rows=0)
            store = empty.table("t").store
            assert [list(store.scan_batches((i, 4))) for i in range(4)] == [
                [], [], [], []
            ]
            plan = empty.plan(f"{QUERY} OPTION (MAXDOP 4)")
            assert collect_rows(plan) == []
            assert exchange_node(plan).stats.fallback_reason == ""

    def test_column_partitions_cover_segments_and_tail(self):
        with Database() as column:
            load(column, storage="column", rows=ROWS + 100)
            store = column.table("t").store
            assert len(store.segments) == 8 and len(store.tail) == 4
            parts = [store.part((i, 3)) for i in range(3)]
            assert [len(segments) for segments, _tail in parts] == [2, 3, 3]
            # the open tail delta rides the last slice only
            assert [len(tail) for _segments, tail in parts] == [0, 0, 4]
            assert [
                row
                for i in range(3)
                for batch in store.scan_batches((i, 3))
                for row in batch
            ] == [row for _rid, row in store.scan()]

    def test_seek_parts_split_the_leaf_runs(self):
        with Database() as keyed:
            keyed.execute("CREATE TABLE k (a INT, b INT, PRIMARY KEY (a, b))")
            keyed.table("k").insert_many(
                [(i % 2, i) for i in range(1000)]
            )
            table = keyed.table("k")
            whole = [row for run in table.seek_batches((1,), (1,)) for row in run]
            assert len(whole) == 500
            for parts in (2, 3, 16):  # 16 > the 8 leaf runs of the range
                assert [
                    row
                    for i in range(parts)
                    for run in table.seek_batches((1,), (1,), (i, parts))
                    for row in run
                ] == whole
            # a point lookup belongs to the first part alone
            assert [
                list(table.seek_batches((1, 7), (1, 7), (i, 2)))
                for i in range(2)
            ] == [[[(1, 7)]], []]

    def test_data_cookie_bumps_on_mutation_only(self, db):
        store = db.catalog.table("t").store
        cookie = store.data_cookie()
        assert store.data_cookie() == cookie  # reads don't move it
        db.execute("INSERT INTO t VALUES ('g9', 900)")
        after_insert = store.data_cookie()
        assert after_insert != cookie
        assert after_insert[0] == cookie[0]  # same store identity
        db.execute("DELETE FROM t WHERE v = 900")
        assert store.data_cookie() != after_insert

    def test_payloads_decode_to_scan_rows(self, db):
        """The task payloads of one exchange, run in this process: their
        slices hold every row of the scan once, and a payload is a few
        hundred bytes whatever the table holds."""
        import pickle

        values = self._sliced_rows(db, 3)
        assert [value["rows"] for value in values] == [
            sum(len(batch) for batch in db.table("t").store.scan_batches((i, 3)))
            for i in range(3)
        ]
        assert sum(value["rows"] for value in values) == ROWS
        merged = {}
        for value in values:
            for key, (count, total) in finished(value).items():
                have = merged.get(key, (0, 0))
                merged[key] = (have[0] + count, have[1] + total)
        assert merged == {
            key: (count, total) for key, count, total in db.query(QUERY)
        }
        assert len(pickle.dumps(fragment_of(db))) < 1024

    def test_stale_cookie_is_refused_by_the_worker(self, db):
        stale = fragment_of(db)
        db.execute("INSERT INTO t VALUES ('g9', 900)")
        with pytest.raises(WorkerPoolError, match="stale"):
            run_fragment(db, stale)
