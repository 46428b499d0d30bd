"""Row (de)serialisation.

Two on-page record formats are implemented, mirroring SQL Server 2008:

**Uncompressed** — a null bitmap followed by the fixed-width encoding of
every non-NULL column. Fixed-width kinds (INT, FLOAT, GUID, CHAR(n), ...)
occupy their declared width; variable kinds (VARCHAR, VARBINARY, UDT)
are stored with a 4-byte length prefix.

**ROW-compressed** — a null bitmap followed by a varint-length-prefixed
*minimal* encoding of every non-NULL column: integers are stored in the
fewest bytes that hold their value, CHAR(n) loses trailing pad spaces
(padded back on decode; an undeclared-width CHAR keeps them, as VARCHAR
does), and variable kinds lose the fixed 4-byte prefix in favour of a
varint. This is the "variable-length storage format for numeric types
and fixed-length character strings" the paper cites from [11].

PAGE compression builds on the ROW format and lives in
:mod:`repro.engine.storage.compression`.
"""

from __future__ import annotations

import struct
from itertools import starmap
from operator import itemgetter
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from ..errors import StorageError
from ..schema import TableSchema, tuple_getter
from ..types import SqlType, UdtCodec

# ---------------------------------------------------------------------------
# varint helpers (unsigned LEB128)
# ---------------------------------------------------------------------------


def write_varint(value: int, out: bytearray) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise StorageError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(buf: bytes, pos: int) -> Tuple[int, int]:
    """Read an unsigned LEB128 varint; returns ``(value, new_pos)``."""
    result = 0
    shift = 0
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def encode_varint(value: int) -> bytes:
    out = bytearray()
    write_varint(value, out)
    return bytes(out)


# ---------------------------------------------------------------------------
# minimal integer encoding (ROW compression of exact numerics)
# ---------------------------------------------------------------------------


def pack_int_minimal(value: int) -> bytes:
    """Encode a signed integer in the fewest little-endian bytes."""
    if value == 0:
        return b""
    length = (value.bit_length() + 8) // 8  # +1 sign bit, rounded up
    return value.to_bytes(length, "little", signed=True)


def unpack_int_minimal(raw: bytes) -> int:
    if not raw:
        return 0
    return int.from_bytes(raw, "little", signed=True)


# ---------------------------------------------------------------------------
# RowSerializer
# ---------------------------------------------------------------------------

_LENGTH_PREFIX = struct.Struct("<I")


def _strip_pad(value: str) -> bytes:
    return value.rstrip(" ").encode("utf-8")


def _restore_pad(length: int) -> Callable[[bytes], str]:
    return lambda raw: raw.decode("utf-8").ljust(length)


class RowSerializer:
    """The row codec of one table: compiled once, it serialises rows of
    the schema into record bytes and back.

    Every column's kind is resolved at construction into its encode and
    decode function (:meth:`SqlType.encoder` / :meth:`SqlType.decoder`,
    the same functions the per-value ``SqlType.encode``/``decode`` call),
    so no type property is read per value. In the uncompressed format a
    row without NULLs additionally takes the *fused* layout: the null
    bitmap and each run of fixed-width columns, plus the length prefix of
    the variable-length column that follows, are one ``struct.Struct``.
    :meth:`serialize_many` encodes a NULL-free batch of more than one
    row column by column (:meth:`_serialize_plain_many`), any other
    batch row by row. Which path runs is read off the rows, never chosen
    by a caller; all produce the same bytes.

    Parameters
    ----------
    schema:
        The table schema (column order defines field order).
    row_compression:
        Use the ROW-compressed record format.
    udt_codec_lookup:
        Callable resolving a UDT name to its :class:`UdtCodec`; required
        only when the schema contains UDT columns.
    """

    def __init__(
        self,
        schema: TableSchema,
        row_compression: bool = False,
        udt_codec_lookup: Optional[Callable[[str], UdtCodec]] = None,
    ):
        self.schema = schema
        self.row_compression = row_compression
        types = [c.sql_type for c in schema.columns]
        self._ncols = len(types)
        self._bitmap_len = (self._ncols + 7) // 8
        self._no_nulls = bytes(self._bitmap_len)
        self._widths: List[Optional[int]] = [t.fixed_width for t in types]
        self._encoders: List[Callable[[Any], bytes]] = []
        self._decoders: List[Callable[[bytes], Any]] = []
        # ROW format: minimal integers, CHAR(n) without its pad
        self._row_encoders: List[Callable[[Any], bytes]] = []
        self._row_decoders: List[Callable[[bytes], Any]] = []
        for sql_type, width in zip(types, self._widths):
            codec = None
            if sql_type.kind == "UDT":
                if udt_codec_lookup is None:
                    raise StorageError(
                        f"schema {schema.name!r} has UDT column but no codec lookup"
                    )
                codec = udt_codec_lookup(sql_type.udt_name)
            encode = sql_type.encoder(codec)
            decode = sql_type.decoder(codec)
            # a validated CHAR(n)/BINARY(n) value already has its width
            self._encoders.append(encode)
            self._decoders.append(decode)
            if sql_type.is_integer:
                encode, decode = pack_int_minimal, unpack_int_minimal
            elif sql_type.kind == "CHAR" and width is not None:
                encode, decode = _strip_pad, _restore_pad(width)
            self._row_encoders.append(encode)
            self._row_decoders.append(decode)
        self._compile_fused(types)

    def _compile_fused(self, types: Sequence[SqlType]) -> None:
        """Lay out the NULL-free uncompressed record as blocks: each is
        one ``Struct`` over a run of fixed-width columns (the first also
        skips the all-zero null bitmap) that ends with the ``<I`` length
        of the variable-length column after it, if any. Byte-valued
        columns are encoded before packing and decoded after unpacking
        (``_fused_encode``, ``_fused_decode``); numbers go through
        ``struct`` as they are. A block is ``(pack, unpack_from, size, pick, run, var)``:
        ``run`` holds the positions of its fixed-width columns (``pick``
        takes them from one row), ``var`` the variable-length column or
        None."""
        byte_valued = [
            (i, t)
            for i, t in enumerate(types)
            if t.struct_code is None or t.struct_code.endswith("s")
        ]
        self._fused_encode = [(i, self._encoders[i]) for i, _t in byte_valued]
        # a binary column's value is the record slice itself
        self._fused_decode = [
            (i, self._decoders[i]) for i, t in byte_valued if not t.is_binary
        ]
        blocks = []
        fmt, run = f"<{self._bitmap_len}x", []
        for i, sql_type in enumerate(types):
            code = sql_type.struct_code
            if code is not None:
                fmt += code
                run.append(i)
                continue
            layout = struct.Struct(fmt + "I")
            blocks.append(
                (layout.pack, layout.unpack_from, layout.size,
                 tuple_getter(run), run, i)
            )
            fmt, run = "<", []
        if run or not blocks:
            layout = struct.Struct(fmt)
            blocks.append(
                (layout.pack, layout.unpack_from, layout.size,
                 tuple_getter(run), run, None)
            )
        self._blocks = blocks
        self._getters = [itemgetter(i) for i in range(len(types))]

    def serialize(self, row: Sequence[Any]) -> bytes:
        """The record bytes of one validated row."""
        if self.row_compression:
            return self._serialize_compressed(row)
        return self._serialize_plain(row)

    def serialize_many(self, rows: Sequence[Sequence[Any]]) -> List[bytes]:
        """:meth:`serialize` over a batch, the format chosen once."""
        if self.row_compression:
            return list(map(self._serialize_compressed, rows))
        return self._serialize_plain_many(rows)

    def deserialize(self, record: bytes) -> Tuple[Any, ...]:
        if self.row_compression:
            return self._deserialize_compressed(record)
        return self._deserialize_plain(record)

    # -- uncompressed format ------------------------------------------------------

    def _serialize_plain(self, row: Sequence[Any]) -> bytes:
        if None in row:
            return self._serialize_plain_nulls(row)
        values = list(row)
        for i, encode in self._fused_encode:
            values[i] = encode(values[i])
        parts = []
        for pack, _unpack, _size, pick, _run, var in self._blocks:
            if var is None:
                parts.append(pack(*pick(values)))
            else:
                raw = values[var]
                parts.append(pack(*pick(values), len(raw)))
                parts.append(raw)
        return b"".join(parts)

    def _serialize_plain_many(
        self, rows: Sequence[Sequence[Any]]
    ) -> List[bytes]:
        """The uncompressed records of a batch. A NULL-free batch of more
        than one row is encoded column by column: each column is taken
        once (``itemgetter``, not a per-row transpose), each byte-valued
        column encoded with one ``map``, each fused block packed with one
        ``starmap`` and the records joined with one ``map``. Any other
        batch goes row by row; both give the same bytes."""
        if len(rows) < 2:
            return list(map(self._serialize_plain, rows))
        columns = [list(map(getter, rows)) for getter in self._getters]
        if any(None in values for values in columns):
            return list(map(self._serialize_plain, rows))
        for i, encode in self._fused_encode:
            columns[i] = list(map(encode, columns[i]))
        parts: List[Iterable[bytes]] = []
        for pack, _unpack, _size, _pick, run, var in self._blocks:
            fields = [columns[i] for i in run]
            if var is None:
                parts.append(starmap(pack, zip(*fields)))
            else:
                raw = columns[var]
                parts.append(starmap(pack, zip(*fields, map(len, raw))))
                parts.append(raw)
        return list(map(b"".join, zip(*parts)))

    def _serialize_plain_nulls(self, row: Sequence[Any]) -> bytes:
        bitmap = bytearray(self._bitmap_len)
        parts: List[bytes] = [b""]
        widths = self._widths
        encoders = self._encoders
        for i, value in enumerate(row):
            if value is None:
                bitmap[i >> 3] |= 1 << (i & 7)
                continue
            raw = encoders[i](value)
            if widths[i] is None:
                parts.append(_LENGTH_PREFIX.pack(len(raw)))
            parts.append(raw)
        parts[0] = bytes(bitmap)
        return b"".join(parts)

    def _deserialize_plain(self, record: bytes) -> Tuple[Any, ...]:
        if not record.startswith(self._no_nulls):
            return self._deserialize_plain_nulls(record)
        values: List[Any] = []
        pos = 0
        for _pack, unpack_from, size, _pick, _run, var in self._blocks:
            fields = unpack_from(record, pos)
            pos += size
            if var is None:
                values += fields
            else:
                values += fields[:-1]
                end = pos + fields[-1]
                values.append(record[pos:end])
                pos = end
        for i, decode in self._fused_decode:
            values[i] = decode(values[i])
        return tuple(values)

    def _deserialize_plain_nulls(self, record: bytes) -> Tuple[Any, ...]:
        pos = self._bitmap_len
        values: List[Any] = []
        widths = self._widths
        decoders = self._decoders
        for i in range(self._ncols):
            if record[i >> 3] & (1 << (i & 7)):
                values.append(None)
                continue
            width = widths[i]
            if width is None:
                (width,) = _LENGTH_PREFIX.unpack_from(record, pos)
                pos += 4
            values.append(decoders[i](record[pos : pos + width]))
            pos += width
        return tuple(values)

    # -- ROW-compressed format ------------------------------------------------------

    def _serialize_compressed(self, row: Sequence[Any]) -> bytes:
        out = bytearray(self._bitmap_len)
        encoders = self._row_encoders
        for i, value in enumerate(row):
            if value is None:
                out[i >> 3] |= 1 << (i & 7)
                continue
            raw = encoders[i](value)
            write_varint(len(raw), out)
            out += raw
        return bytes(out)

    def _deserialize_compressed(self, record: bytes) -> Tuple[Any, ...]:
        nulls, fields = self.split_compressed(record)
        return tuple(
            [
                None if is_null else decode(field)
                for decode, is_null, field in zip(
                    self._row_decoders, nulls, fields
                )
            ]
        )

    # -- field split (used by page compression) --------------------------------

    def _nulls(self, record: bytes) -> List[bool]:
        return [
            bool(record[i >> 3] & (1 << (i & 7))) for i in range(self._ncols)
        ]

    def split_compressed(self, record: bytes) -> Tuple[List[bool], List[bytes]]:
        """Split a ROW-compressed record into its null flags and the raw
        per-column field bytes (empty bytes for NULL columns)."""
        nulls = self._nulls(record)
        pos = self._bitmap_len
        fields: List[bytes] = []
        for i in range(self._ncols):
            if nulls[i]:
                fields.append(b"")
                continue
            length, pos = read_varint(record, pos)
            fields.append(record[pos : pos + length])
            pos += length
        return nulls, fields

    def join_compressed(self, nulls: Sequence[bool], fields: Sequence[bytes]) -> bytes:
        """Inverse of :meth:`split_compressed`."""
        out = bytearray(self._bitmap_len)
        for i, is_null in enumerate(nulls):
            if is_null:
                out[i >> 3] |= 1 << (i & 7)
        for i, field in enumerate(fields):
            if nulls[i]:
                continue
            write_varint(len(field), out)
            out += field
        return bytes(out)

    def uncompressed_size(self, rows: Sequence[Sequence[Any]]) -> int:
        """Bytes the rows would occupy in the uncompressed format."""
        return sum(map(len, self._serialize_plain_many(rows)))
