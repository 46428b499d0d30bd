"""The compiled row codec against the per-value API it is built from.

``SqlType.validate`` / ``encode`` / ``decode`` and ``Column`` NULL-ability
are the rules; the per-column loops below assemble a row's verdict and
its record from them one value at a time, the way the engine did before
the codec was compiled per table. The codec (``TableSchema.row_validator``
and ``RowSerializer``) must agree with them on every generated schema,
and a table written through it must read back what a list of tuples says
it holds, with every warm page equal to its own cold decode.
"""

import pickle
import struct
import uuid

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Database
from repro.engine.errors import (
    ConstraintViolation,
    DuplicateKeyError,
    EngineError,
    TypeMismatchError,
)
from repro.engine.executor import ParallelHashAggregate, collect_rows
from repro.engine.schema import (
    COMPRESSION_NONE,
    COMPRESSION_PAGE,
    COMPRESSION_ROW,
    Column,
    TableSchema,
)
from repro.engine.storage.serializer import (
    RowSerializer,
    encode_varint,
    pack_int_minimal,
)
from repro.engine.table import Table
from repro.engine.types import (
    MAX,
    UdtCodec,
    bigint_type,
    binary_type,
    bit_type,
    char_type,
    datetime_type,
    float_type,
    guid_type,
    int_type,
    smallint_type,
    tinyint_type,
    udt_type,
    varbinary_type,
    varchar_type,
)

# a UDT whose stored form is not its Python form: the codec owns the
# round trip ((x, y) is stored as two shorts and read back as a list)
POINT = UdtCodec(
    "Point",
    serialize=lambda p: struct.pack("<hh", *p),
    deserialize=lambda raw: list(struct.unpack("<hh", raw)),
)


def codec_lookup(name):
    assert name == "Point"
    return POINT


ASCII = st.characters(min_codepoint=32, max_codepoint=126)
SHORTS = st.integers(-(2**15), 2**15 - 1)

# kind -> (type, strategy of mostly valid values)
KINDS = {
    "int": (int_type(), st.integers(-(2**31), 2**31 - 1)),
    "bigint": (bigint_type(), st.integers(-(2**63), 2**63 - 1)),
    "smallint": (smallint_type(), SHORTS),
    "tinyint": (tinyint_type(), st.integers(0, 255)),
    "bit": (bit_type(), st.sampled_from([0, 1, True, False])),
    "float": (float_type(), st.floats(allow_nan=False)),
    "datetime": (datetime_type(), st.floats(0, 2e9)),
    "char": (char_type(6), st.text(ASCII, max_size=6)),
    "char_max": (char_type(MAX), st.text(ASCII, max_size=8)),
    "varchar": (varchar_type(8), st.text(max_size=8)),
    "varchar_max": (varchar_type(MAX), st.text(max_size=40)),
    "binary": (binary_type(4), st.binary(max_size=4)),
    "varbinary": (varbinary_type(8), st.binary(max_size=8)),
    "varbinary_max": (varbinary_type(MAX), st.binary(max_size=40)),
    "guid": (guid_type(), st.uuids()),
    "udt": (udt_type("Point"), st.tuples(SHORTS, SHORTS)),
}

# values some kind coerces and every other kind must reject: bool and
# integral float to INT, bytearray/memoryview to BINARY, str/bytes to
# UNIQUEIDENTIFIER, plus plain wrong types, overflows and over-lengths
STRAYS = st.one_of(
    st.booleans(),
    st.sampled_from([7.0, 7.5, 2**40, -1, 256, 2**63]),
    st.sampled_from(["é", "ü" * 6, "x" * 9, str(uuid.UUID(int=5)), "nope"]),
    st.sampled_from([b"abcde", bytearray(b"ab"), memoryview(b"abc")]),
    st.just(uuid.UUID(int=9).bytes),
    st.just((1, 2, 3)),
)


@st.composite
def schemas_and_rows(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=9))
    columns, strategies = [], []
    for i, kind in enumerate(kinds):
        sql_type, values = KINDS[kind]
        nullable = draw(st.booleans())
        columns.append(Column(f"c{i}_{kind}", sql_type, nullable=nullable))
        # a UDT column takes any object: its codec, not the engine, rejects
        strays = st.none() if kind == "udt" else STRAYS
        strategies.append(st.one_of(values, values, values, st.none(), strays))
    compression = draw(
        st.sampled_from([COMPRESSION_NONE, COMPRESSION_ROW, COMPRESSION_PAGE])
    )
    schema = TableSchema("t", columns, compression=compression)
    rows = draw(st.lists(st.tuples(*strategies), min_size=1, max_size=6))
    return schema, rows


# -- the per-value reference --------------------------------------------------


def reference_validate(schema, row):
    out = []
    for column, value in zip(schema.columns, row):
        if value is None:
            if not column.nullable:
                raise ConstraintViolation(
                    f"column {column.name!r} does not allow NULL"
                )
            out.append(None)
            continue
        try:
            out.append(column.sql_type.validate(value))
        except TypeMismatchError as exc:
            raise TypeMismatchError(f"column {column.name!r}: {exc}") from exc
    return tuple(out)


def reference_record(schema, row, row_compression):
    bitmap = bytearray((len(row) + 7) // 8)
    body = b""
    for i, (column, value) in enumerate(zip(schema.columns, row)):
        sql_type = column.sql_type
        if value is None:
            bitmap[i >> 3] |= 1 << (i & 7)
            continue
        codec = POINT if sql_type.kind == "UDT" else None
        if row_compression:
            if sql_type.is_integer:
                raw = pack_int_minimal(int(value))
            elif sql_type.kind == "CHAR" and sql_type.fixed_width:
                raw = value.rstrip(" ").encode("utf-8")
            else:
                raw = sql_type.encode(value, codec)
            body += encode_varint(len(raw)) + raw
            continue
        raw = sql_type.encode(value, codec)
        width = sql_type.fixed_width
        if width is not None:
            # CHAR(n) and BINARY(n) are validated to their width
            assert len(raw) == width
            body += raw
        else:
            body += struct.pack("<I", len(raw)) + raw
    return bytes(bitmap) + body


def outcome(fn, *args):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return "ok", fn(*args)
    except EngineError as exc:
        return type(exc), str(exc)


class TestCodecMatchesPerValueApi:
    @given(schemas_and_rows())
    @settings(max_examples=150, deadline=None)
    def test_accepts_and_rejects_the_same_rows(self, case):
        schema, rows = case
        validate = schema.row_validator()
        for row in rows:
            # same tuple, or the same error type naming the same column
            assert outcome(validate, row) == outcome(
                reference_validate, schema, row
            )

    def test_width_mismatch_is_rejected(self):
        schema = TableSchema("t", [Column("a", int_type())])
        with pytest.raises(TypeMismatchError, match="expects 1 values, got 2"):
            schema.row_validator()((1, 2))

    @given(schemas_and_rows())
    @settings(max_examples=150, deadline=None)
    def test_record_bytes_and_round_trip(self, case):
        schema, rows = case
        row_compression = schema.compression != COMPRESSION_NONE
        serializer = RowSerializer(
            schema, row_compression=row_compression,
            udt_codec_lookup=codec_lookup,
        )
        validate = schema.row_validator()
        for row in rows:
            verdict, validated = outcome(validate, row)
            if verdict != "ok":
                continue
            record = serializer.serialize(validated)
            assert record == reference_record(
                schema, validated, row_compression
            )
            assert serializer.serialize_many([validated]) == [record]
            decoded = serializer.deserialize(record)
            for column, stored, value in zip(
                schema.columns, decoded, validated
            ):
                if column.sql_type.kind == "UDT" and value is not None:
                    assert stored == list(value)  # the codec's round trip
                else:  # the validated value *is* the decoded one
                    assert stored == value and type(stored) is type(value)

    def test_short_binary_is_padded_with_zeros(self):
        assert binary_type(4).validate(b"ab") == b"ab\x00\x00"
        assert binary_type(4).validate(bytearray(b"abcd")) == b"abcd"
        assert varbinary_type(4).validate(b"ab") == b"ab"

    @pytest.mark.parametrize(
        "options",
        [
            "",
            " WITH (DATA_COMPRESSION = ROW)",
            " WITH (DATA_COMPRESSION = PAGE)",
            " WITH (STORAGE = 'COLUMN')",
        ],
    )
    def test_short_binary_reads_back_padded_in_every_format(self, options):
        with Database() as db:
            db.execute(
                f"CREATE TABLE b (id INT PRIMARY KEY, v BINARY(4)){options}"
            )
            db.table("b").insert((1, b"ab"))
            assert db.query("SELECT v FROM b") == [(b"ab\x00\x00",)]
            store = db.table("b").store
            for page in getattr(store, "pages", ()):
                assert cold_decode(page, store.serializer) == [
                    (1, b"ab\x00\x00")
                ]

    def test_multibyte_char_is_a_width_error(self):
        # CHAR(n) is n bytes on the page: a value that does not fit them
        # is refused instead of being cut in the middle of a character
        with pytest.raises(TypeMismatchError, match="exceeds CHAR"):
            char_type(3).validate("éé")
        assert char_type(3).validate("ab") == "ab "


# -- tables written through the codec -------------------------------------------


def cold_decode(page, serializer):
    rows = [None] * len(page.records)
    for slot, record in page.iter_records(serializer):
        rows[slot] = serializer.deserialize(record)
    return rows


def assert_table_matches(table, oracle):
    """``oracle``: key -> stored row, in insertion order."""
    serializer = table.store.serializer
    for page in table.store.pages:
        if page.decoded is not None:
            assert page.decoded == cold_decode(page, serializer)
    assert list(table.scan()) == list(oracle.values())
    in_key_order = [oracle[key] for key in sorted(oracle)]
    assert list(table.seek()) == in_key_order
    for key, row in oracle.items():
        assert table.get((key,)) == row
    assert table.get((10_000,)) is None
    assert table.row_count == len(oracle)


PAYLOADS = st.one_of(st.none(), st.text(ASCII, max_size=300))
GOOD_ROWS = st.tuples(st.integers(0, 60), PAYLOADS, st.tuples(SHORTS, SHORTS))
BAD_ROWS = st.sampled_from(
    [(None, "x", (0, 0)), ("k", "x", (0, 0)), (1, 5, (0, 0)), (1, "x" * 301, (0, 0))]
)
OPERATIONS = st.one_of(
    st.tuples(st.just("insert"), st.one_of(GOOD_ROWS, GOOD_ROWS, BAD_ROWS)),
    st.tuples(
        st.just("insert_many"),
        st.lists(st.one_of(GOOD_ROWS, GOOD_ROWS, GOOD_ROWS, BAD_ROWS), max_size=40),
    ),
    st.tuples(st.just("delete"), st.integers(2, 5)),
    st.tuples(st.just("finish"), st.none()),
)


class TestWriteThrough:
    @pytest.mark.parametrize("with_udt", [False, True])
    @pytest.mark.parametrize(
        "compression", [COMPRESSION_NONE, COMPRESSION_ROW, COMPRESSION_PAGE]
    )
    @given(operations=st.lists(OPERATIONS, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_any_interleaving_reads_back_the_oracle(
        self, compression, with_udt, operations
    ):
        columns = [
            Column("id", int_type(), nullable=False),
            Column("payload", varchar_type(300)),
        ]
        if with_udt:
            columns.append(Column("point", udt_type("Point")))
        table = Table(
            TableSchema("t", columns, primary_key=["id"], compression=compression),
            udt_codec_lookup=codec_lookup,
        )
        width = len(columns)

        def stored(row):
            row = row[:width]
            return row[:2] + (list(row[2]),) if with_udt else row

        oracle = {}
        for action, argument in operations:
            if action == "finish":
                table.finish_bulk_load()
            elif action == "delete":
                doomed = [key for key in oracle if key % argument == 0]
                assert table.delete_where(
                    lambda row: row[0] % argument == 0
                ) == len(doomed)
                for key in doomed:
                    del oracle[key]
            else:
                batch = [argument] if action == "insert" else argument
                batch = [row[:width] for row in batch]
                keys = [row[0] for row in batch]
                valid = all(
                    isinstance(row[0], int)
                    and (row[1] is None or isinstance(row[1], str))
                    and len(row[1] or "") <= 300
                    for row in batch
                ) and len(set(keys)) == len(keys) and not set(keys) & set(oracle)
                try:
                    if action == "insert":
                        table.insert(batch[0])
                    else:
                        assert table.insert_many(batch) == len(batch)
                except (
                    TypeMismatchError, ConstraintViolation, DuplicateKeyError
                ):
                    assert not valid
                else:
                    assert valid
                    oracle.update((row[0], stored(row)) for row in batch)
            assert_table_matches(table, oracle)

    def test_a_written_page_is_warm_and_a_udt_page_is_cold(self):
        for with_udt in (False, True):
            columns = [Column("id", int_type(), nullable=False)]
            if with_udt:
                columns.append(Column("point", udt_type("Point")))
            table = Table(
                TableSchema("t", columns, primary_key=["id"]),
                udt_codec_lookup=codec_lookup,
            )
            table.insert_many([(i, (i, i))[: len(columns)] for i in range(50)])
            list(table.scan())
            io = table.io_report()
            assert io["pages_read"] == len(table.store.pages)
            # written through: never decoded; the UDT page paid its decode
            assert io["page_cache_misses"] == (io["pages_read"] if with_udt else 0)
            assert sum(p.decodes for p in table.store.pages) == (
                50 if with_udt else 0
            )


class TestCompiledTableStillShips:
    """The codec lives on the table and its store, never on the schema
    or in what an exchange ships: its workers hold the compiled table
    through their fork, and a task payload only names it."""

    def test_schema_and_partition_payloads_pickle(self):
        from repro.engine.executor.exchange import (
            build_fragment,
            fragment_chain,
            rebuild_shippable_specs,
        )

        with Database() as db:
            db.execute("CREATE TABLE s (g VARCHAR(5), v INT, f FLOAT)")
            db.execute(
                "INSERT INTO s VALUES "
                + ", ".join(f"('g{i % 7}', {i}, {i}.25)" for i in range(2000))
            )
            table = db.table("s")
            schema = pickle.loads(pickle.dumps(table.schema))
            assert schema.key_indexes == table.schema.key_indexes

            plan = db.plan(
                "SELECT g, SUM(v), COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 2)"
            )
            node = plan
            while not isinstance(node, ParallelHashAggregate):
                (node,) = node.children()
            fragment = build_fragment(
                fragment_chain(node.child),
                rebuild_shippable_specs(node.aggregates),
                node.group_indexes,
                node.group_exprs,
            )
            for part in ((0, 2), (1, 2)):
                payload = pickle.dumps(fragment._replace(part=part))
                assert len(payload) < 1024
                assert pickle.loads(payload).table == "s"

            rows = collect_rows(plan)
            assert not node.stats.fallback_reason
            assert node.stats.mode == "parallel scan"
            serial = db.query(
                "SELECT g, SUM(v), COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 1)"
            )
            assert sorted(rows) == sorted(serial)
