"""The worker-pool runtime: real processes, LPT scheduling, fallback."""

import os

import pytest

from repro.engine.workers import (
    DISABLE_ENV,
    WorkerPool,
    WorkerPoolError,
    lpt_assign,
)


@pytest.fixture
def pool():
    p = WorkerPool(max_workers=2)
    yield p
    p.close()


def partial_agg_task(rows, arg_index=1):
    from operator import itemgetter

    from repro.engine.executor import AggregateSpec

    return (
        "partial_agg",
        {
            "source": ("rows", {"rows": rows}),
            "specs": [
                AggregateSpec("count", [], star=True),
                AggregateSpec(
                    "sum", [itemgetter(arg_index)], arg_index=arg_index
                ),
            ],
            "group_indexes": (0,),
        },
    )


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
    def test_runs_partial_aggregates_on_processes(self, pool):
        rows = [("a", 1), ("b", 2), ("a", 3)]
        results = pool.run([partial_agg_task(rows)])
        assert len(results) == 1
        groups = results[0].value["groups"]
        assert set(groups) == {"a", "b"}
        count_a, sum_a = (state.result() for state in groups["a"])
        assert (count_a, sum_a) == (2, 4)
        assert results[0].rows == 3
        assert results[0].bytes_sent > 0
        assert results[0].bytes_received > 0
        # workers are real processes, not the coordinator
        assert all(
            row[1] != os.getpid() for row in pool.stats_rows()
        )

    def test_results_return_in_task_order(self, pool):
        tasks = [
            partial_agg_task([(f"g{i}", i)] * (5 - i)) for i in range(4)
        ]
        results = pool.run(tasks, weights=[5, 4, 3, 2])
        for i, result in enumerate(results):
            assert set(result.value["groups"]) == {f"g{i}"}

    def test_pool_reused_across_runs(self, pool):
        pool.run([partial_agg_task([("a", 1)])])
        first_pids = {row[1] for row in pool.stats_rows()}
        pool.run([partial_agg_task([("b", 2)])])
        assert {row[1] for row in pool.stats_rows()} == first_pids
        assert pool.runs == 2

    def test_env_kill_switch_disables_pool(self, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "1")
        p = WorkerPool()
        assert not p.available()
        assert DISABLE_ENV in (p.disabled_reason or "")
        with pytest.raises(WorkerPoolError):
            p.run([partial_agg_task([("a", 1)])])

    def test_unpicklable_payload_fails_cleanly(self, pool):
        task = ("partial_agg", {"source": ("rows", {"rows": [lambda: 1]})})
        with pytest.raises(WorkerPoolError, match="not picklable"):
            pool.run([task])
        # a pickling error is the plan's fault: the pool stays usable
        assert pool.available()

    def test_task_error_reports_and_pool_survives(self, pool):
        bad = ("partial_agg", {"source": ("rows", {"rows": [("a",)]})})
        # missing specs/group_indexes keys -> KeyError inside the worker
        with pytest.raises(WorkerPoolError, match="task failed"):
            pool.run([bad])
        assert pool.available()
        results = pool.run([partial_agg_task([("a", 1)])])
        assert results[0].value["rows"] == 1

    def test_unknown_task_kind_is_task_error(self, pool):
        with pytest.raises(WorkerPoolError, match="task failed"):
            pool.run([("no_such_kind", {})])

    def test_stats_rows_shape(self, pool):
        pool.run([partial_agg_task([("a", 1), ("a", 2)])])
        rows = pool.stats_rows()
        assert rows
        for worker_id, pid, state, tasks, nrows, busy, last in rows:
            assert state in ("running", "dead")
            assert pid > 0
        assert sum(row[3] for row in rows) == 1  # tasks_completed
        assert sum(row[4] for row in rows) == 2  # rows_processed

    def test_close_is_idempotent(self):
        p = WorkerPool(max_workers=1)
        p.run([partial_agg_task([("a", 1)])])
        p.close()
        p.close()
        assert p.size == 0


class TestPartitionPayloads:
    def _heap_db(self, storage="heap"):
        from repro.engine import Database

        db = Database()
        suffix = (
            " WITH (STORAGE = COLUMN)" if storage == "column" else ""
        )
        db.execute(f"CREATE TABLE t (g VARCHAR(5), v INT){suffix}")
        db.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"('g{i % 5}', {i})" for i in range(400))
        )
        return db

    def test_heap_partitions_are_disjoint_and_complete(self):
        with self._heap_db() as db:
            store = db.catalog.table("t").store
            payloads = store.partition_payloads(4)
            assert payloads
            assert sum(p["rows"] for p in payloads) == 400
            total_pages = sum(len(p["pages"]) for p in payloads)
            assert total_pages == len(store.pages)

    def test_heap_empty_table_returns_no_slices(self):
        from repro.engine import Database

        with Database() as db:
            db.execute("CREATE TABLE empty (x INT)")
            store = db.catalog.table("empty").store
            assert store.partition_payloads(4) == []

    def test_column_partitions_cover_segments_and_tail(self):
        with self._heap_db(storage="column") as db:
            store = db.catalog.table("t").store
            payloads = store.partition_payloads(4)
            assert payloads
            assert sum(p["rows"] for p in payloads) == 400
            # the open tail delta rides the last slice only
            assert all("tail" not in p for p in payloads[:-1])

    def test_data_cookie_bumps_on_mutation_only(self):
        with self._heap_db() as db:
            store = db.catalog.table("t").store
            cookie = store.data_cookie()
            assert store.data_cookie() == cookie  # reads don't move it
            db.execute("INSERT INTO t VALUES ('g9', 900)")
            after_insert = store.data_cookie()
            assert after_insert != cookie
            assert after_insert[0] == cookie[0]  # same store identity
            db.execute("DELETE FROM t WHERE v = 900")
            assert store.data_cookie() != after_insert

    def test_slice_cache_reuses_decoded_rows(self):
        from repro.engine.workers import _SLICE_CACHE, _source_rows

        with self._heap_db() as db:
            store = db.catalog.table("t").store

            def source():
                payload = dict(store.partition_payloads(2)[0])
                payload["out_positions"] = None
                return ("heap", payload)

            _SLICE_CACHE.clear()
            cold, _ = _source_rows(source())
            warm, _ = _source_rows(source())
            assert warm is cold  # decoded once, served from cache
            db.execute("INSERT INTO t VALUES ('g9', 900)")
            fresh, _ = _source_rows(source())
            assert fresh is not cold  # version bump invalidates
            _SLICE_CACHE.clear()

    def test_slice_cache_skips_predicated_column_slices(self):
        from repro.engine.workers import _slice_cache_key

        payload = {"cache_key": (1, 0, 2, 0), "out_positions": (0,)}
        assert _slice_cache_key("column", payload) is not None
        payload["predicates"] = ["pred"]
        assert _slice_cache_key("column", payload) is None
        assert _slice_cache_key("heap", {"out_positions": None}) is None

    def test_payloads_decode_to_scan_rows(self):
        from repro.engine.workers import _decode_heap_source

        with self._heap_db() as db:
            table = db.catalog.table("t")
            payloads = table.store.partition_payloads(3)
            decoded = []
            for payload in payloads:
                source = dict(payload)
                source["out_positions"] = None
                decoded.extend(_decode_heap_source(source))
            expected = [row for _rid, row in table.store.scan()]
            assert decoded == expected
