"""Table: inserts, constraints, indexes, ordered access, FILESTREAM."""

import uuid

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.catalog import Catalog
from repro.engine.errors import (
    BindError,
    ConstraintViolation,
    DuplicateKeyError,
    EngineError,
    TypeMismatchError,
)
from repro.engine.filestream import FileStreamStore
from repro.engine.schema import Column, TableSchema
from repro.engine.table import Table
from repro.engine.types import (
    MAX,
    bigint_type,
    binary_type,
    bit_type,
    char_type,
    float_type,
    guid_type,
    int_type,
    tinyint_type,
    varbinary_type,
    varchar_type,
)


def plain_schema(**kwargs):
    return TableSchema(
        "t",
        [
            Column("id", int_type(), nullable=False),
            Column("name", varchar_type(50)),
        ],
        primary_key=["id"],
        **kwargs,
    )


class TestInsert:
    def test_round_trip(self):
        table = Table(plain_schema())
        table.insert((1, "one"))
        assert list(table.scan()) == [(1, "one")]

    def test_pk_uniqueness(self):
        table = Table(plain_schema())
        table.insert((1, "a"))
        with pytest.raises(DuplicateKeyError):
            table.insert((1, "b"))

    def test_not_null_enforced(self):
        table = Table(plain_schema())
        with pytest.raises(ConstraintViolation):
            table.insert((None, "x"))

    def test_type_checked(self):
        table = Table(plain_schema())
        with pytest.raises(TypeMismatchError):
            table.insert(("not-int", "x"))

    def test_wrong_arity(self):
        table = Table(plain_schema())
        with pytest.raises(TypeMismatchError):
            table.insert((1,))

    def test_identity_assignment(self):
        schema = TableSchema(
            "s",
            [
                Column("id", bigint_type(), nullable=False, identity=True),
                Column("v", varchar_type(10)),
            ],
            primary_key=["id"],
        )
        table = Table(schema)
        table.insert((None, "a"))
        table.insert((None, "b"))
        table.insert((10, "explicit"))
        table.insert((None, "after"))
        ids = [row[0] for row in table.seek()]
        assert ids == [1, 2, 10, 11]


class TestOrderedAccess:
    def make_table(self):
        schema = TableSchema(
            "t",
            [
                Column("a", int_type(), nullable=False),
                Column("b", int_type(), nullable=False),
                Column("v", varchar_type(20)),
            ],
            primary_key=["a", "b"],
        )
        table = Table(schema)
        for a in (3, 1, 2):
            for b in (2, 0, 1):
                table.insert((a, b, f"{a}-{b}"))
        return table

    def test_ordered_scan_in_key_order(self):
        table = self.make_table()
        keys = [(row[0], row[1]) for row in table.seek()]
        assert keys == sorted(keys)
        assert len(keys) == 9

    def test_seek_prefix(self):
        table = self.make_table()
        rows = list(table.seek((2,), (2,)))
        assert [(r[0], r[1]) for r in rows] == [(2, 0), (2, 1), (2, 2)]

    def test_seek_full_key(self):
        table = self.make_table()
        rows = list(table.seek((2, 1), (2, 1)))
        assert rows == [(2, 1, "2-1")]

    def test_get_point_lookup(self):
        table = self.make_table()
        assert table.get((1, 0)) == (1, 0, "1-0")
        assert table.get((9, 9)) is None

    def test_heap_table_has_no_ordered_scan(self):
        schema = TableSchema(
            "h", [Column("x", int_type())], primary_key=[]
        )
        table = Table(schema)
        with pytest.raises(BindError):
            list(table.seek())


def _null_first(key):
    return tuple((value is not None, value) for value in key)


def reference_seek(table, lo, hi):
    """A seek by definition: the rows of ``scan()`` whose key prefix
    lies within the bounds, sorted by key (NULL first)."""
    key_indexes = table.schema.key_indexes

    def key_of(row):
        return tuple(row[i] for i in key_indexes)

    kept = []
    for row in table.scan():
        key = _null_first(key_of(row))
        if lo is not None and key[: len(lo)] < _null_first(lo):
            continue
        if hi is not None and key[: len(hi)] > _null_first(hi):
            continue
        kept.append(row)
    return sorted(kept, key=lambda row: _null_first(key_of(row)))


class TestLeafRunSeek:
    """``seek_batches`` (leaf runs) == ``seek`` (rows) == the sorted
    filter of ``scan()``, on both storage engines."""

    N_A, N_B = 6, 70

    def make_table(self, storage, order="shuffled"):
        schema = TableSchema(
            "t",
            [
                Column("a", int_type()),
                Column("b", int_type()),
                Column("v", varchar_type(40)),
            ],
            primary_key=["a", "b"],
            storage=storage,
            segment_rows=64 if storage == "column" else None,
        )
        table = Table(schema)
        keys = [(a, b) for a in range(self.N_A) for b in range(self.N_B)]
        keys += [(None, 1), (None, None), (2, None)]
        if order == "shuffled":
            # rids are then not monotone in key order
            import random

            random.Random(11).shuffle(keys)
        else:
            keys.sort(key=_null_first)
        for a, b in keys:
            table.insert((a, b, f"{a}-{b}-" + "x" * 20))
        table.finish_bulk_load()
        return table

    BOUNDS = [
        (None, None),                 # open: the ordered scan
        ((2,), (2,)),                 # prefix equality
        ((1,), (3,)),                 # prefix range
        ((2,), None),
        (None, (2,)),
        ((2, 10), (2, 40)),           # full-key range inside one prefix
        ((1, 60), (4, 5)),            # full-key range across prefixes
        ((3, 7), (3, 7)),             # full-key equality: the point probe
        ((3, 700), (3, 700)),         # ... of an absent key
        ((9,), (12,)),                # empty: beyond every key
        ((4,), (2,)),                 # empty: lo above hi
        ((None,), (None,)),           # NULL key components
        ((None, None), (None, None)),
        ((2, None), (2, 3)),
    ]

    @pytest.mark.parametrize("storage", ["heap", "column"])
    @pytest.mark.parametrize("lo,hi", BOUNDS)
    def test_runs_rows_and_definition_agree(self, storage, lo, hi):
        table = self.make_table(storage)
        expected = reference_seek(table, lo, hi)
        runs = list(table.seek_batches(lo, hi))
        assert all(runs)
        assert [row for run in runs for row in run] == expected
        assert list(table.seek(lo, hi)) == expected
        if lo is None and hi is None:
            assert list(table.seek()) == expected
            assert len(expected) == table.row_count

    def test_hi_inside_a_leaf_and_on_a_leaf_boundary(self):
        table = self.make_table("heap", order="sorted")
        leaf = table._pk_index._first_leaf.next_leaf
        for entry in (leaf.values[-1], leaf.next_leaf.values[0], leaf.values[1]):
            hi = entry[0]
            assert list(table.seek(None, hi)) == reference_seek(table, None, hi)

    @pytest.mark.parametrize("storage", ["heap", "column"])
    def test_deleted_row_is_not_returned(self, storage):
        table = self.make_table(storage)
        assert table.delete_where(lambda row: row[:2] == (2, 33)) == 1
        rows = list(table.seek((2,), (2,)))
        assert rows == reference_seek(table, (2,), (2,))
        assert len(rows) == self.N_B  # 70 minus (2, 33), plus (2, NULL)
        assert list(table.seek((2, 33), (2, 33))) == []

    def test_full_key_equality_is_one_descent(self):
        table = self.make_table("heap")
        before = table.io_report()
        assert list(table.seek((3, 7), (3, 7))) == [(3, 7, "3-7-" + "x" * 20)]
        delta = table.io_report().delta(table.io_report(), before)
        assert delta["index_seeks"] == 1
        assert delta["pages_read"] == 1

    def test_prefix_seek_reads_pages_not_rows(self):
        """``pages_read`` counts page visits: at most one per heap page
        plus one per leaf run that resumes on the previous run's page
        (it was one per row)."""
        table = self.make_table("heap", order="sorted")
        tree = table._pk_index
        leaves, leaf = 0, tree._first_leaf
        while leaf is not None:
            leaves += 1
            leaf = leaf.next_leaf
        pages = len(table.store.pages)
        before = table.store.io_report()
        rows = list(table.seek((3,), (3,)))
        visits = table.store.io_report()["pages_read"] - before["pages_read"]
        assert len(rows) == self.N_B
        assert 0 < visits <= pages + leaves
        assert visits < len(rows) / 4
        # the whole table in key order: every page, once per leaf run
        before = table.store.io_report()
        rows = list(table.seek())
        visits = table.store.io_report()["pages_read"] - before["pages_read"]
        assert pages <= visits <= pages + leaves < len(rows)

    def test_filestream_pointers_are_surfaced(self, tmp_path):
        store = FileStreamStore(tmp_path / "fs")
        schema = TableSchema(
            "files",
            [
                Column("guid", guid_type(), nullable=False, rowguidcol=True),
                Column("lane", int_type()),
                Column("reads", varbinary_type(MAX, filestream=True)),
            ],
            primary_key=["guid"],
        )
        table = Table(schema, filestream_store=store)
        guids = sorted(uuid.uuid4() for _ in range(5))
        for lane, guid in enumerate(guids):
            table.insert((guid, lane, b"payload-%d" % lane))
        runs = list(table.seek_batches(guids[1:2], guids[3:4]))
        rows = [row for run in runs for row in run]
        assert [row[0] for row in rows] == guids[1:4]
        assert rows == list(table.seek(guids[1:2], guids[3:4]))
        for row in rows:
            assert isinstance(row[2], uuid.UUID)
            assert store.read_all(row[2]) == b"payload-%d" % row[1]
        # the point probe surfaces too
        (row,) = table.seek(guids[:1], guids[:1])
        assert isinstance(row[2], uuid.UUID)

    def test_secondary_index_seek_walks_the_same_path(self):
        table = self.make_table("heap")
        table.create_index("ix_b", ["b"])
        rows = list(table.index_seek("ix_b", (5,), (6,)))
        assert sorted(rows, key=lambda r: _null_first(r[:2])) == sorted(
            (r for r in table.scan() if r[1] in (5, 6)),
            key=lambda r: _null_first(r[:2]),
        )
        assert [r[1] for r in rows] == sorted(r[1] for r in rows)


class TestFailedBatchStoresNothing:
    """``insert_many`` decides a batch before the first page append: a
    batch that fails leaves every piece of table state as it was."""

    GOOD = ["ada", "bob", "cy", "dee", "eve"]

    def make_table(self, tmp_path):
        store = FileStreamStore(tmp_path / "fs")
        schema = TableSchema(
            "t",
            [
                Column("guid", guid_type(), nullable=False, rowguidcol=True),
                Column("n", bigint_type(), identity=True),
                Column("name", varchar_type(4), nullable=False),
                Column("reads", varbinary_type(MAX, filestream=True)),
            ],
            primary_key=["guid"],
        )
        table = Table(schema, filestream_store=store)
        table.create_index("ix_name", ["name"])
        stored = uuid.UUID(int=1000)
        table.insert((stored, None, "old", b"old blob"))
        return table, store, stored

    @staticmethod
    def state(table, store):
        _cols, by_name = table._secondary["ix_name"]
        io = table.io_report()  # the write counters; looking up a key reads
        return (
            list(table.scan()),
            list(table._pk_index.items()),
            list(by_name.items()),
            table._next_identity,
            [
                io[name]
                for name in (
                    "rows_inserted", "bytes_written", "bytes_uncompressed",
                    "pages_written", "index_inserts",
                )
            ],
            table.store.data_cookie(),
            len(store),
        )

    @pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize(
        "fault", ["duplicate in batch", "duplicate of stored", "type error", "not null"]
    )
    def test_failed_batch(self, tmp_path, fault, position):
        table, store, stored = self.make_table(tmp_path)
        batch = [
            [uuid.UUID(int=i), None, name, name.encode()]
            for i, name in enumerate(self.GOOD, start=1)
        ]
        bad = batch[position]
        if fault == "duplicate in batch":
            bad[0] = batch[(position + 2) % 5][0]
            error = DuplicateKeyError
        elif fault == "duplicate of stored":
            bad[0] = stored
            error = DuplicateKeyError
        elif fault == "type error":
            bad[2] = "too long"
            error = TypeMismatchError
        else:
            bad[2] = None
            error = ConstraintViolation
        before = self.state(table, store)
        with pytest.raises(error):
            table.insert_many(batch)
        assert self.state(table, store) == before
        # the same batch, repaired, goes in whole and numbers on from 2
        batch[position] = [uuid.UUID(int=99), None, "fix", b"fixed"]
        assert table.insert_many(batch) == 5
        assert [row[1] for row in table.scan()] == [1, 2, 3, 4, 5, 6]
        assert len(store) == 6

    def test_a_generator_streams_in_atomic_batches(self, monkeypatch):
        monkeypatch.setattr("repro.engine.table.BATCH_ROWS", 4)
        table = Table(plain_schema())
        rows = ((i, "x" * (60 if i == 9 else 1)) for i in range(12))
        with pytest.raises(TypeMismatchError):
            table.insert_many(rows)
        # rows 0-7 went in as two batches; the batch holding row 9 did not
        assert [row[0] for row in table.scan()] == list(range(8))
        assert table.insert_many(iter([])) == 0
        assert table.insert_many([]) == 0


#: (column, plain values, values a check changes, invalid values) of
#: the batch-validation table
_MIXED_COLUMNS = (
    (
        Column("t", tinyint_type(), nullable=False),
        st.integers(0, 255),
        st.one_of(st.booleans(), st.sampled_from([3.0, 0.0])),
        st.sampled_from([256, -1, 2.5, None, "x"]),
    ),
    (
        Column("b", bit_type()),
        st.one_of(st.integers(0, 1), st.none()),
        st.booleans(),
        st.sampled_from([2, -1, 1.5]),
    ),
    (
        Column("f", float_type()),
        st.one_of(st.floats(allow_nan=False), st.none()),
        st.integers(-9, 9),
        st.sampled_from([True, "1.0", b"x"]),
    ),
    (
        Column("c", char_type(4)),
        st.one_of(st.text(alphabet="ab ", min_size=4, max_size=4), st.none()),
        st.text(alphabet="ab ", max_size=3),
        st.sampled_from(["toolong", "\u00e9", 5]),
    ),
    (
        Column("v", varchar_type(5), nullable=False),
        st.text(alphabet="xyz", max_size=5),
        st.nothing(),
        st.sampled_from(["sixsix", None, 1.0]),
    ),
    (
        Column("bn", binary_type(3)),
        st.one_of(st.binary(min_size=3, max_size=3), st.none()),
        st.one_of(st.binary(max_size=2), st.binary(max_size=3).map(bytearray)),
        st.sampled_from([b"four", "abc"]),
    ),
    (
        Column("vb", varbinary_type(4)),
        st.one_of(st.binary(max_size=4), st.none()),
        st.binary(max_size=4).map(bytearray),
        st.sampled_from([b"fives", 7]),
    ),
    (
        Column("big", bigint_type()),
        st.one_of(st.integers(-(2**63), 2**63 - 1), st.none()),
        st.nothing(),
        st.sampled_from([2**63, -(2**63) - 1]),
    ),
)


#: one valid row of plain values for the batch-validation table
_PLAIN_ROW = (0, 1, 0, 1.0, "abab", "xyz", b"abc", b"ab", 5)


@st.composite
def _mixed_rows(draw):
    """Two to twelve rows for the batch-validation table (one row takes
    the row path), as tuples or lists: plain values only, or values a
    check changes mixed in, and in half of the batches a fault or two:
    an invalid value, or a row of the wrong width."""
    changed = draw(st.booleans())
    rows = []
    for key in range(draw(st.integers(2, 12))):
        rows.append(
            [key]
            + [
                draw(st.one_of(plain, changes) if changed else plain)
                for _column, plain, changes, _invalid in _MIXED_COLUMNS
            ]
        )
    if rows and draw(st.booleans()):
        for _fault in range(draw(st.sampled_from([1, 1, 1, 2]))):
            row = draw(st.sampled_from(rows))
            column = draw(st.integers(1, len(_MIXED_COLUMNS) + 1))
            if column > len(_MIXED_COLUMNS):
                row.pop()
            else:
                row[column] = draw(_MIXED_COLUMNS[column - 1][3])
    return [draw(st.sampled_from([tuple, list]))(row) for row in rows]


class TestBatchValidation:
    """``insert_many(rows)`` validates a batch column by column, a loop of
    ``insert(row)`` one row at a time: they store the same rows, build
    the same indexes and counters, and raise the same first error."""

    @staticmethod
    def make_table(storage):
        schema = TableSchema(
            "t",
            [Column("id", int_type(), nullable=False)]
            + [column for column, *_values in _MIXED_COLUMNS],
            primary_key=["id"],
            storage=storage,
        )
        table = Table(schema)
        table.create_index("ix_v", ["v"])
        return table

    @staticmethod
    def state(table):
        _cols, by_v = table._secondary["ix_v"]
        return (
            repr(list(table.scan())),  # True == 1 == 1.0, but not as text
            list(table._pk_index.items()),
            list(by_v.items()),
            dict(table.io_report()),
        )

    @staticmethod
    def first_error(call):
        try:
            call()
        except EngineError as exc:
            return type(exc), str(exc)
        return None

    @pytest.mark.parametrize("storage", ["heap", "column"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rows=_mixed_rows())
    # a length limit is the only fault: the VARCHAR(5), the VARBINARY(4)
    @example(rows=[_PLAIN_ROW, (1,) + _PLAIN_ROW[1:5] + ("sixsix",) + _PLAIN_ROW[6:]])
    @example(rows=[_PLAIN_ROW, (1,) + _PLAIN_ROW[1:7] + (b"fives",) + _PLAIN_ROW[8:]])
    def test_batch_equals_row_loop(self, storage, rows):
        batch, loop = self.make_table(storage), self.make_table(storage)
        batch_error = self.first_error(lambda: batch.insert_many(rows))

        def one_at_a_time():
            for row in rows:
                loop.insert(row)

        assert batch_error == self.first_error(one_at_a_time)
        if batch_error is None:
            assert self.state(batch) == self.state(loop)
        else:  # the batch stored nothing
            assert self.state(batch) == self.state(self.make_table(storage))


class TestSecondaryIndex:
    def test_index_seek(self):
        table = Table(plain_schema())
        for i in range(20):
            table.insert((i, f"group{i % 3}"))
        table.create_index("ix_name", ["name"])
        rows = list(table.index_seek("ix_name", ("group1",), ("group1",)))
        assert {row[0] % 3 for row in rows} == {1}
        assert len(rows) == 7

    def test_duplicate_index_name_rejected(self):
        table = Table(plain_schema())
        table.create_index("ix", ["name"])
        with pytest.raises(BindError):
            table.create_index("ix", ["name"])

    def test_index_maintained_on_insert(self):
        table = Table(plain_schema())
        table.create_index("ix", ["name"])
        table.insert((1, "late"))
        assert list(table.index_seek("ix", ("late",), ("late",))) == [(1, "late")]


class TestDelete:
    def test_delete_where(self):
        table = Table(plain_schema())
        for i in range(10):
            table.insert((i, "even" if i % 2 == 0 else "odd"))
        deleted = table.delete_where(lambda row: row[1] == "odd")
        assert deleted == 5
        assert all(row[1] == "even" for row in table.scan())
        # pk index updated: re-insert works
        table.insert((1, "back"))


class TestFileStreamColumns:
    def make_table(self, tmp_path):
        store = FileStreamStore(tmp_path / "fs")
        schema = TableSchema(
            "ShortReadFiles",
            [
                Column("guid", guid_type(), nullable=False, rowguidcol=True),
                Column("lane", int_type()),
                Column("reads", varbinary_type(MAX, filestream=True)),
            ],
            primary_key=["guid"],
        )
        return Table(schema, filestream_store=store), store

    def test_bytes_payload_stored_as_blob(self, tmp_path):
        table, store = self.make_table(tmp_path)
        table.insert((uuid.uuid4(), 1, b"@r1\nACGT\n+\nIIII\n"))
        row = next(table.scan())
        assert isinstance(row[2], uuid.UUID)
        assert store.read_all(row[2]) == b"@r1\nACGT\n+\nIIII\n"
        assert table.filestream_bytes() == 16

    def test_existing_guid_pointer_accepted(self, tmp_path):
        table, store = self.make_table(tmp_path)
        guid = store.create(b"payload")
        table.insert((uuid.uuid4(), 1, guid))
        assert next(table.scan())[2] == guid

    def test_null_blob_allowed(self, tmp_path):
        table, _store = self.make_table(tmp_path)
        table.insert((uuid.uuid4(), 1, None))
        assert next(table.scan())[2] is None

    def test_delete_removes_blob(self, tmp_path):
        table, store = self.make_table(tmp_path)
        table.insert((uuid.uuid4(), 1, b"data"))
        guid = next(table.scan())[2]
        table.delete_where(lambda row: True)
        assert not store.exists(guid)

    def test_failed_insert_rolls_back_blob(self, tmp_path):
        table, store = self.make_table(tmp_path)
        key = uuid.uuid4()
        table.insert((key, 1, b"first"))
        blobs_before = len(store)
        with pytest.raises(DuplicateKeyError):
            table.insert((key, 2, b"second"))
        assert len(store) == blobs_before

    def test_rejects_bad_payload_type(self, tmp_path):
        table, _store = self.make_table(tmp_path)
        with pytest.raises(ConstraintViolation):
            table.insert((uuid.uuid4(), 1, 12345))

    def test_filestream_without_store_rejected(self):
        schema = TableSchema(
            "x",
            [
                Column("guid", guid_type(), rowguidcol=True, nullable=False),
                Column("b", varbinary_type(MAX, filestream=True)),
            ],
            primary_key=["guid"],
        )
        with pytest.raises(BindError):
            Table(schema, filestream_store=None)


class TestCatalog:
    def test_create_and_lookup_case_insensitive(self):
        catalog = Catalog()
        catalog.create_table(plain_schema())
        assert catalog.table("T") is catalog.table("t")
        assert catalog.has_table("T")

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.create_table(plain_schema())
        with pytest.raises(BindError):
            catalog.create_table(plain_schema())

    def test_drop(self):
        catalog = Catalog()
        catalog.create_table(plain_schema())
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        with pytest.raises(BindError):
            catalog.drop_table("t")
