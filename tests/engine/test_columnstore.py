"""Columnstore access-method tests: encodings, zone maps, pruning,
tombstones, the delta-store tail, encoded aggregation, and the SQL
surface (`WITH (STORAGE = 'COLUMN')`).

The byte-identity of full query results across heap and column engines
is covered twice: the parametrized differential suite in
``test_vectorized.py`` (row vs batch per engine) and the cross-engine
differential here (heap vs column, same query, same bytes).
"""

from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.engine.errors import StorageError
from repro.engine.schema import Column, TableSchema
from repro.engine.storage.columnstore import (
    ENC_BITPACK,
    ENC_DICT,
    ENC_PLAIN,
    ENC_RLE,
    ColumnSegment,
    ColumnStore,
    PushedPredicate,
)
from repro.engine.types import float_type, int_type, varchar_type


def _schema(*cols):
    return TableSchema("t", [Column(n, t) for n, t in cols])


def _store(schema, segment_rows=4):
    return ColumnStore(schema, segment_rows=segment_rows)


# ---------------------------------------------------------------------------
# encoding round-trips
# ---------------------------------------------------------------------------


class TestEncodings:
    def roundtrip(self, values, sql_type=None):
        segment = ColumnSegment(values, sql_type)
        assert segment.decode() == list(values)
        return segment

    def test_rle_on_runs(self):
        seg = self.roundtrip(["a"] * 50 + ["b"] * 50, varchar_type(10))
        assert seg.encoding == ENC_RLE

    def test_dict_on_low_cardinality_interleaved(self):
        values = ["chr1", "chr2", "chrX"] * 40
        seg = self.roundtrip(values, varchar_type(10))
        assert seg.encoding == ENC_DICT

    def test_bitpack_on_small_ints(self):
        seg = self.roundtrip(list(range(100)), int_type())
        assert seg.encoding == ENC_BITPACK

    def test_plain_on_high_cardinality_strings(self):
        values = [f"read_{i:06d}" for i in range(100)]
        seg = self.roundtrip(values, varchar_type(20))
        assert seg.encoding == ENC_PLAIN

    def test_all_null_segment(self):
        seg = self.roundtrip([None] * 64, int_type())
        assert seg.null_count == 64
        assert not seg.has_zone
        assert seg.ndv == 0

    def test_single_value_segment(self):
        seg = self.roundtrip([7] * 64, int_type())
        assert seg.encoding == ENC_RLE
        assert (seg.min_value, seg.max_value) == (7, 7)
        assert seg.ndv == 1

    def test_nulls_interleaved_roundtrip(self):
        values = [i if i % 3 else None for i in range(90)]
        seg = self.roundtrip(values, int_type())
        assert seg.null_count == 30

    def test_negative_zero_preserved(self):
        # -0.0 == 0.0 but repr differs; encodings must not conflate them
        values = [0.0, -0.0] * 32
        seg = self.roundtrip(values, float_type())
        assert repr(seg.decode()) == repr(values)

    def test_high_cardinality_ndv(self):
        seg = self.roundtrip(list(range(1000)), int_type())
        assert seg.ndv == 1000

    def test_empty_segment(self):
        seg = self.roundtrip([], int_type())
        assert seg.rows == 0 and seg.ndv == 0


# ---------------------------------------------------------------------------
# zone maps and segment-level selection
# ---------------------------------------------------------------------------


class TestZoneMaps:
    def seal_range(self, n=100, segment_rows=10):
        store = _store(_schema(("id", int_type())), segment_rows)
        for i in range(n):
            store.insert((i,))
        return store

    def test_point_predicate_prunes_all_but_one(self):
        store = self.seal_range()
        read, skipped = store.prune_estimate(
            [PushedPredicate(0, "=", 42)]
        )
        assert (read, skipped) == (1, 9)

    def test_range_straddling_segment_boundary(self):
        # 8..12 spans segments [0..9] and [10..19]: both admit, rest skip
        store = self.seal_range()
        read, skipped = store.prune_estimate(
            [PushedPredicate(0, "between", (8, 12))]
        )
        assert (read, skipped) == (2, 8)

    def test_out_of_range_prunes_everything(self):
        store = self.seal_range()
        read, skipped = store.prune_estimate(
            [PushedPredicate(0, ">", 1000)]
        )
        assert (read, skipped) == (0, 10)

    def test_isnull_pruned_by_null_counts(self):
        # the per-segment NULL count is zone metadata too: segments
        # without NULLs can never satisfy IS NULL
        store = self.seal_range()
        read, skipped = store.prune_estimate(
            [PushedPredicate(0, "isnull", None)]
        )
        assert (read, skipped) == (0, 10)
        with_nulls = ColumnSegment([1, None, 3, None], int_type())
        assert with_nulls.zone_admits(PushedPredicate(0, "isnull", None))
        assert with_nulls.zone_admits(PushedPredicate(0, "notnull", None))

    def test_mixed_type_zone_is_conservative(self):
        seg = ColumnSegment([1, 2, 3, 4], int_type())
        assert seg.zone_admits(PushedPredicate(0, ">", "zzz"))

    def test_tail_always_read(self):
        # rows 90..94 live in the open tail, which has no zone map: every
        # sealed segment skips but the tail still counts as one read
        store = self.seal_range(n=95, segment_rows=10)
        read, skipped = store.prune_estimate(
            [PushedPredicate(0, "=", 93)]
        )
        assert (read, skipped) == (1, 9)

    def test_selection_on_encoded_vector(self):
        store = self.seal_range()
        segment = store.segments[4]  # rows 40..49
        sel = segment.selection([PushedPredicate(0, ">=", 48)])
        assert sel == [8, 9]

    def test_selection_chains_conjuncts(self):
        store = self.seal_range()
        segment = store.segments[0]
        sel = segment.selection(
            [PushedPredicate(0, ">", 2), PushedPredicate(0, "<", 6)]
        )
        assert sel == [3, 4, 5]


# ---------------------------------------------------------------------------
# store mechanics: rids, tombstones, the delta-store tail
# ---------------------------------------------------------------------------


class TestStoreMechanics:
    def test_fetch_by_rid_across_segments_and_tail(self):
        store = _store(_schema(("id", int_type())), segment_rows=4)
        rids = [store.insert((i,)) for i in range(10)]
        assert rids[0] == (0, 0)
        assert rids[5] == (1, 1)
        assert rids[9] == (2, 1)  # open tail addressed past the segments
        for rid, i in zip(rids, range(10)):
            assert store.fetch(rid) == (i,)

    def test_delete_tombstones_and_scan_skips(self):
        store = _store(_schema(("id", int_type())), segment_rows=4)
        rids = [store.insert((i,)) for i in range(8)]
        store.delete(rids[2])
        store.delete(rids[5])
        assert [row for _rid, row in store.scan()] == [
            (i,) for i in range(8) if i not in (2, 5)
        ]
        with pytest.raises(StorageError):
            store.fetch(rids[2])
        # the access-method default resolves a rid list one fetch at a
        # time: same rows, same error
        live = [rid for i, rid in enumerate(rids) if i not in (2, 5)]
        assert store.fetch_many(live) == [store.fetch(rid) for rid in live]
        with pytest.raises(StorageError):
            store.fetch_many(rids)

    def test_seal_all_not_forced_keeps_small_tail(self):
        store = _store(_schema(("id", int_type())), segment_rows=100)
        for i in range(7):
            store.insert((i,))
            store.seal_all(force=False)  # per-statement boundary
        assert store.segments == [] and len(store.tail) == 7

    def test_seal_all_forced_seals_tail(self):
        store = _store(_schema(("id", int_type())), segment_rows=100)
        for i in range(7):
            store.insert((i,))
        store.seal_all()
        assert len(store.segments) == 1 and store.tail == []

    def test_row_at_a_time_sql_inserts_fill_segments(self):
        db = Database()
        db.execute(
            "CREATE TABLE t (id INT) "
            "WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 8)"
        )
        for i in range(20):
            db.execute(f"INSERT INTO t VALUES ({i})")
        store = db.table("t").store
        # delta-store semantics: full 8-row segments, 4-row open tail —
        # not twenty one-row segments
        assert [s.rows for s in store.segments] == [8, 8]
        assert len(store.tail) == 4

    def test_compression_counters_namespaced_per_engine(self):
        store = _store(_schema(("id", int_type())), segment_rows=4)
        for i in range(8):
            store.insert((i % 2,))
        assert store.io["segment_bytes_in"] > 0
        assert store.io["segment_bytes_out"] > 0
        # the heap's PAGE-compression counters must stay untouched so
        # sys_dm_io_stats sums stay per-engine (regression: both engines
        # once shared compression_bytes_in/out)
        assert store.io["compression_bytes_in"] == 0
        assert store.io["compression_bytes_out"] == 0


# ---------------------------------------------------------------------------
# SQL surface and cross-engine differential
# ---------------------------------------------------------------------------


QUERIES = [
    "SELECT id, g, v FROM {t} WHERE id BETWEEN 20 AND 40 ORDER BY id",
    "SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v) "
    "FROM {t} GROUP BY g",
    "SELECT g, COUNT(*) FROM {t} WHERE id < 50 GROUP BY g",
    "SELECT g, SUM(v) FROM {t} WHERE g IN ('a', 'c') GROUP BY g",
    "SELECT COUNT(*) FROM {t} WHERE v IS NULL",
    "SELECT id FROM {t} WHERE v IS NOT NULL AND v > 12 ORDER BY id",
    "SELECT g, f, COUNT(*) FROM {t} GROUP BY g, f",
    "SELECT COUNT(*) FROM {t} WHERE g <> 'a'",
]


class TestSqlSurface:
    @pytest.fixture(scope="class")
    def db(self):
        database = Database()
        for name, options in (
            ("h", ""),
            ("c", " WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 16)"),
        ):
            database.execute(
                f"CREATE TABLE {name} (id INT, g VARCHAR(4), "
                f"v INT, f FLOAT){options}"
            )
            for i in range(120):
                g = "abcd"[i % 4]
                v = "NULL" if i % 9 == 0 else str((i * 5) % 23)
                f = "NULL" if i % 13 == 0 else repr((i % 7) * 1.5)
                database.execute(
                    f"INSERT INTO {name} VALUES ({i}, '{g}', {v}, {f})"
                )
        yield database
        database.close()

    def test_heap_is_default_engine(self, db):
        assert db.table("h").store.engine_name == "heap"

    def test_column_engine_selected_by_with_clause(self, db):
        assert db.table("c").store.engine_name == "column"

    @pytest.mark.parametrize("query", QUERIES)
    def test_cross_engine_byte_identical(self, db, query):
        heap_rows = db.query(query.format(t="h"))
        column_rows = db.query(query.format(t="c"))
        assert repr(column_rows) == repr(heap_rows)
        assert heap_rows  # non-vacuous

    def test_update_and_delete_differential(self, db):
        for t in ("h", "c"):
            db.execute(f"UPDATE {t} SET v = 99 WHERE id BETWEEN 10 AND 15")
            db.execute(f"DELETE FROM {t} WHERE id BETWEEN 30 AND 35")
        query = "SELECT id, v FROM {t} ORDER BY id"
        assert repr(db.query(query.format(t="c"))) == repr(
            db.query(query.format(t="h"))
        )

    def test_explain_labels_columnstore_scan(self, db):
        plan = db.explain("SELECT g, COUNT(*) FROM c WHERE id < 40 GROUP BY g")
        assert "Columnstore Index Scan [c]" in plan
        assert "storage=column" in plan
        assert "pushed: (id < 40)" in plan
        assert "Columnstore Aggregate" in plan

    def test_explain_analyze_reports_segment_pruning(self, db):
        plan = db.execute(
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM c WHERE id BETWEEN 100 AND 110"
        )
        assert "segments=" in plan and "skipped=" in plan
        # zone maps must actually skip segments on this narrow range
        skipped = int(plan.split("skipped=")[1].split(",")[0].split()[0])
        assert skipped > 0

    def test_explain_analyze_times_the_scan_under_an_encoded_aggregate(
        self, db
    ):
        """The Columnstore Aggregate pulls segment views, not batches:
        that path keeps the scan's clock and trace span too."""
        plan = db.execute(
            "EXPLAIN ANALYZE SELECT g, COUNT(*), SUM(v) FROM c GROUP BY g"
        )
        aggregate, scan = [
            line for line in plan.splitlines() if "Columnstore" in line
        ]
        assert "Columnstore Aggregate" in aggregate
        assert "batches=" in scan and "actual rows=0" not in scan
        assert float(scan.split("time=")[1].split("ms")[0]) > 0.0
        spans = [
            s for s in db.last_trace().spans if s.category == "operator"
        ]
        assert any("Columnstore Index Scan" in s.name for s in spans)

    def test_selective_query_scans_fewer_bytes_than_heap(self, db):
        # a key range costs the heap every page; the columnstore decodes
        # only the referenced columns of the segments its zone maps admit
        sql = (
            "SELECT g, COUNT(*), SUM(v) FROM {t} "
            "WHERE id BETWEEN 100 AND 110 GROUP BY g"
        )
        store = db.table("c").store
        before = store.io.snapshot()
        assert repr(db.query(sql.format(t="c"))) == repr(
            db.query(sql.format(t="h"))
        )
        segments_read = store.io.get("segments_read") - before.get(
            "segments_read", 0
        )
        predicate = PushedPredicate(0, "between", (100, 110))
        admitted = [
            segment for segment in store.segments
            if segment.columns[0].zone_admits(predicate)
        ]
        assert 0 < len(admitted) < len(store.segments)
        assert len(admitted) <= segments_read < len(store.segments)
        column_bytes = sum(
            segment.columns[i].encoded_bytes
            for segment in admitted
            for i in (0, 1, 2)  # id, g, v
        )
        assert column_bytes < db.table("h").stored_bytes()

    def test_null_inequality_not_pushed(self, db):
        # col <> NULL matches nothing under three-valued logic; a pushed
        # two-valued matcher would wrongly return every non-null row
        assert db.query("SELECT id FROM c WHERE v <> NULL") == []

    def test_segment_stats_dmv(self, db):
        rows = db.query(
            "SELECT column_name, encoding, row_count "
            "FROM sys_dm_db_segment_stats WHERE table_name = 'c'"
        )
        assert rows
        assert {r[0] for r in rows} == {"id", "g", "v", "f"}

    def test_encoded_aggregate_on_rle_runs(self):
        # a sorted low-cardinality group column RLE-encodes; the column
        # aggregate reads it value at a time and must answer exactly
        # like a heap twin, NULLs and float addition order included
        db = Database()
        for name, options in (
            ("runs_h", ""),
            ("runs_c", " WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 32)"),
        ):
            db.execute(f"CREATE TABLE {name} (g VARCHAR(2), v INT, f FLOAT)"
                       f"{options}")
            table = db.table(name)
            for i in range(128):
                table.insert((
                    "ab"[i // 64],
                    None if i % 7 == 0 else i % 10,
                    None if i % 5 == 0 else (i % 9) * 0.1,
                ))
            table.finish_bulk_load()
        segments = db.table("runs_c").store.segments
        assert {s.columns[0].encoding for s in segments} == {ENC_RLE}
        sql = (
            "SELECT g, COUNT(*), COUNT(v), SUM(v), SUM(f), MIN(v), MAX(v), "
            "MIN(f), MAX(f) FROM {t} GROUP BY g"
        )
        assert "Columnstore Aggregate" in db.explain(sql.format(t="runs_c"))
        column_rows = db.query(sql.format(t="runs_c"))
        assert repr(column_rows) == repr(db.query(sql.format(t="runs_h")))
        assert [row[:3] for row in column_rows] == [
            ("a", 64, 54), ("b", 64, 55)
        ]
        db.close()

    @pytest.mark.parametrize("where", ["x = 5.0", "x > 4.5"])
    def test_nan_segment_is_not_pruned(self, where):
        # NaN orders against nothing: a zone map over it would read
        # (nan, nan) and skip the segment's matching rows
        db = Database()
        for name, options in (
            ("nan_h", ""),
            ("nan_c", " WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 4)"),
        ):
            db.execute(f"CREATE TABLE {name} (id INT, x FLOAT){options}")
            table = db.table(name)
            for row in ((0, float("nan")), (1, 1.0), (2, 5.0), (3, 2.0)):
                table.insert(row)
            table.finish_bulk_load()
            db.execute(f"UPDATE STATISTICS {name}")
        assert db.table("nan_c").store.segments
        sql = f"SELECT id FROM {{t}} WHERE {where}"
        assert db.query(sql.format(t="nan_c")) == [(2,)]
        assert db.query(sql.format(t="nan_h")) == [(2,)]
        db.close()
