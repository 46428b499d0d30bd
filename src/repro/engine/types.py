"""SQL type system.

The engine supports a pragmatic subset of the SQL Server 2008 scalar types
the paper relies on, plus a hook for user-defined types (UDTs):

- exact numerics: ``INT``, ``BIGINT``, ``SMALLINT``, ``TINYINT``, ``BIT``
- approximate numerics: ``FLOAT``
- strings: ``CHAR(n)``, ``VARCHAR(n)``, ``VARCHAR(MAX)``
- binary: ``BINARY(n)``, ``VARBINARY(n)``, ``VARBINARY(MAX)``
- ``UNIQUEIDENTIFIER`` (GUID)
- ``DATETIME`` (stored as POSIX float for simplicity)
- UDTs registered through :class:`repro.engine.udf.UdtRegistry`

A column of type ``VARBINARY(MAX)`` may additionally carry the
``FILESTREAM`` storage attribute (see :mod:`repro.engine.filestream`), in
which case the stored value is a GUID pointer into the FileStream store.

SQL ``NULL`` is represented by Python ``None`` everywhere.
"""

from __future__ import annotations

import struct
import uuid
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, Optional

from .errors import TypeMismatchError

#: sentinel length for VARCHAR(MAX) / VARBINARY(MAX)
MAX = -1

# ---------------------------------------------------------------------------
# type kinds
# ---------------------------------------------------------------------------

INT = "INT"
BIGINT = "BIGINT"
SMALLINT = "SMALLINT"
TINYINT = "TINYINT"
BIT = "BIT"
FLOAT = "FLOAT"
CHAR = "CHAR"
VARCHAR = "VARCHAR"
BINARY = "BINARY"
VARBINARY = "VARBINARY"
UNIQUEIDENTIFIER = "UNIQUEIDENTIFIER"
DATETIME = "DATETIME"
UDT = "UDT"

_INTEGER_KINDS = {INT, BIGINT, SMALLINT, TINYINT, BIT}

_INT_RANGES = {
    TINYINT: (0, 255),
    SMALLINT: (-(2**15), 2**15 - 1),
    INT: (-(2**31), 2**31 - 1),
    BIGINT: (-(2**63), 2**63 - 1),
    BIT: (0, 1),
}

_FIXED_WIDTHS = {
    TINYINT: 1,
    SMALLINT: 2,
    INT: 4,
    BIGINT: 8,
    BIT: 1,
    FLOAT: 8,
    UNIQUEIDENTIFIER: 16,
    DATETIME: 8,
}

#: little-endian ``struct`` code of every numeric kind
_STRUCT_CODES = {
    TINYINT: "B",
    SMALLINT: "h",
    INT: "i",
    BIGINT: "q",
    BIT: "B",
    FLOAT: "d",
    DATETIME: "d",
}

_GUID_BYTES = attrgetter("bytes")


@dataclass(frozen=True)
class SqlType:
    """A resolved SQL type: a kind plus an optional length / UDT name.

    ``length`` is the declared maximum for CHAR/VARCHAR/BINARY/VARBINARY
    (``MAX`` meaning unbounded) and is ignored for other kinds.
    """

    kind: str
    length: int = 0
    udt_name: Optional[str] = None
    #: set on VARBINARY(MAX) columns declared with the FILESTREAM attribute
    filestream: bool = False

    # -- classification ----------------------------------------------------

    @property
    def is_integer(self) -> bool:
        return self.kind in _INTEGER_KINDS

    @property
    def is_binary(self) -> bool:
        return self.kind in (BINARY, VARBINARY)

    @property
    def fixed_width(self) -> Optional[int]:
        """Byte width of the uncompressed fixed-size representation,
        or ``None`` for variable-length kinds."""
        if self.kind in _FIXED_WIDTHS:
            return _FIXED_WIDTHS[self.kind]
        if self.kind in (CHAR, BINARY) and self.length != MAX:
            return self.length
        return None

    @property
    def struct_code(self) -> Optional[str]:
        """``struct`` format of the fixed-size representation (numbers
        in their native code, GUID/CHAR(n)/BINARY(n) as an ``ns`` byte
        field), or ``None`` for variable-length kinds. The row codec
        fuses runs of these into one ``struct.Struct``."""
        code = _STRUCT_CODES.get(self.kind)
        if code is None and self.fixed_width is not None:
            code = f"{self.fixed_width}s"
        return code

    @property
    def round_trips(self) -> bool:
        """True when ``decode(encode(v)) == v`` for every value ``v``
        that :meth:`validate` returns, so the validated value may stand
        in for a decoded one (the heap's row-cache write-through). A UDT
        codec owns its round trip, a short BINARY(n) value is padded on
        the page, and an undeclared-width CHAR is not padded back after
        ROW compression strips its trailing spaces."""
        if self.kind in (UDT, BINARY):
            return False
        return not (self.kind == CHAR and self.length in (0, MAX))

    # -- per-value API: one function per kind, resolved once ----------------

    def checker(self) -> Callable[[Any], Any]:
        """The function validating (and lightly coercing) one non-NULL
        value of this type: it returns the canonical Python
        representation or raises :class:`TypeMismatchError`."""
        return _checker(self)

    def validate(self, value: Any) -> Any:
        """Validate one value; ``None`` always passes (NULL)."""
        return None if value is None else _checker(self)(value)

    def encoder(
        self, udt_codec: Optional["UdtCodec"] = None
    ) -> Callable[[Any], bytes]:
        """The function encoding one non-NULL validated value into its
        uncompressed storage bytes (the row serialiser pads CHAR(n) and
        BINARY(n) to their width and length-prefixes variable kinds)."""
        kind = self.kind
        if kind in _STRUCT_CODES:
            return struct.Struct("<" + _STRUCT_CODES[kind]).pack
        if kind == UNIQUEIDENTIFIER:
            return _GUID_BYTES
        if kind in (CHAR, VARCHAR):
            return str.encode
        if kind in (BINARY, VARBINARY):
            return bytes
        if kind == UDT:
            if udt_codec is None:
                raise TypeMismatchError(f"no codec for UDT {self.udt_name!r}")
            return udt_codec.serialize
        raise TypeMismatchError(f"cannot encode kind {kind!r}")

    def encode(self, value: Any, udt_codec: Optional["UdtCodec"] = None) -> bytes:
        """Encode a non-NULL value into its uncompressed storage bytes."""
        return self.encoder(udt_codec)(value)

    def decoder(
        self, udt_codec: Optional["UdtCodec"] = None
    ) -> Callable[[bytes], Any]:
        """Inverse of :meth:`encoder`."""
        kind = self.kind
        if kind in _STRUCT_CODES:
            unpack = struct.Struct("<" + _STRUCT_CODES[kind]).unpack
            return lambda raw: unpack(raw)[0]
        if kind == UNIQUEIDENTIFIER:
            return lambda raw: uuid.UUID(bytes=raw)
        if kind in (CHAR, VARCHAR):
            return bytes.decode
        if kind in (BINARY, VARBINARY):
            return bytes
        if kind == UDT:
            if udt_codec is None:
                raise TypeMismatchError(f"no codec for UDT {self.udt_name!r}")
            return udt_codec.deserialize
        raise TypeMismatchError(f"cannot decode kind {kind!r}")

    def decode(self, raw: bytes, udt_codec: Optional["UdtCodec"] = None) -> Any:
        """Inverse of :meth:`encode`."""
        return self.decoder(udt_codec)(raw)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind == UDT:
            return self.udt_name or "UDT"
        if self.kind in (CHAR, VARCHAR, BINARY, VARBINARY) and self.length:
            n = "MAX" if self.length == MAX else str(self.length)
            suffix = " FILESTREAM" if self.filestream else ""
            return f"{self.kind}({n}){suffix}"
        return self.kind


@lru_cache(maxsize=None)
def _checker(sql_type: SqlType) -> Callable[[Any], Any]:
    """Build :meth:`SqlType.checker`'s function: the kind, range and
    length of ``sql_type`` are read here, once, not per value."""
    kind = sql_type.kind
    if kind in _INT_RANGES:
        lo, hi = _INT_RANGES[kind]

        def check_integer(value):
            if type(value) is not int:
                if isinstance(value, bool):
                    value = int(value)
                elif isinstance(value, float) and value.is_integer():
                    value = int(value)
                elif not isinstance(value, int):
                    raise TypeMismatchError(
                        f"expected {kind}, got {type(value).__name__}"
                    )
            if lo <= value <= hi:
                return value
            raise TypeMismatchError(f"value {value} out of range for {kind}")

        return check_integer
    if kind == FLOAT:

        def check_float(value):
            if type(value) is float:
                return value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeMismatchError(
                    f"expected FLOAT, got {type(value).__name__}"
                )
            return float(value)

        return check_float
    if kind == DATETIME:

        def check_datetime(value):
            if not isinstance(value, (int, float)):
                raise TypeMismatchError(
                    "expected DATETIME (posix seconds), got "
                    f"{type(value).__name__}"
                )
            return float(value)

        return check_datetime
    limit = sql_type.length if sql_type.length not in (0, MAX) else None
    if kind in (CHAR, VARCHAR):
        padded = kind == CHAR and limit is not None

        def check_string(value):
            if not isinstance(value, str):
                raise TypeMismatchError(
                    f"expected {sql_type}, got {type(value).__name__}"
                )
            if limit is not None and len(value) > limit:
                raise TypeMismatchError(
                    f"string of length {len(value)} exceeds {sql_type}"
                )
            if padded:
                value = value.ljust(limit)
                if not value.isascii():
                    # CHAR(n) is n bytes on the page: a padded value with
                    # a multi-byte character would be cut mid-string
                    raise TypeMismatchError(
                        f"string of {len(value.encode('utf-8'))} bytes "
                        f"exceeds {sql_type}"
                    )
            return value

        return check_string
    if kind in (BINARY, VARBINARY):

        def check_binary(value):
            if isinstance(value, (bytearray, memoryview)):
                value = bytes(value)
            if not isinstance(value, bytes):
                raise TypeMismatchError(
                    f"expected {sql_type}, got {type(value).__name__}"
                )
            if limit is not None and len(value) > limit:
                raise TypeMismatchError(
                    f"binary of length {len(value)} exceeds {sql_type}"
                )
            return value

        return check_binary
    if kind == UNIQUEIDENTIFIER:

        def check_guid(value):
            if isinstance(value, uuid.UUID):
                return value
            if isinstance(value, str):
                try:
                    return uuid.UUID(value)
                except ValueError as exc:
                    raise TypeMismatchError(
                        f"bad UNIQUEIDENTIFIER string {value!r}"
                    ) from exc
            if isinstance(value, bytes) and len(value) == 16:
                return uuid.UUID(bytes=value)
            raise TypeMismatchError(
                f"expected UNIQUEIDENTIFIER, got {type(value).__name__}"
            )

        return check_guid
    if kind == UDT:
        # UDT payloads travel as the UDT's python object or raw bytes;
        # serialisation is delegated to the UDT contract at storage time.
        return lambda value: value
    raise TypeMismatchError(f"unknown type kind {kind!r}")


@dataclass(frozen=True)
class UdtCodec:
    """Serialisation contract for a user-defined type.

    Mirrors the SQL Server CLR UDT contract: a named type with binary
    (de)serialisation and an optional textual form. ``max_bytes`` mirrors
    the 2 GB CLR UDT state limit (unenforced here beyond documentation).
    """

    name: str
    serialize: Callable[[Any], bytes]
    deserialize: Callable[[bytes], Any]
    to_string: Callable[[Any], str] = field(default=str)
    #: representative value the verifier round-trips at registration
    #: time (serialize → deserialize → serialize must be byte-stable);
    #: None registers the codec with an "unverified" warning.
    probe: Any = None


# -- convenient constructors -------------------------------------------------


def int_type() -> SqlType:
    return SqlType(INT)


def bigint_type() -> SqlType:
    return SqlType(BIGINT)


def smallint_type() -> SqlType:
    return SqlType(SMALLINT)


def tinyint_type() -> SqlType:
    return SqlType(TINYINT)


def bit_type() -> SqlType:
    return SqlType(BIT)


def float_type() -> SqlType:
    return SqlType(FLOAT)


def char_type(n: int) -> SqlType:
    return SqlType(CHAR, length=n)


def varchar_type(n: int = MAX) -> SqlType:
    return SqlType(VARCHAR, length=n)


def binary_type(n: int) -> SqlType:
    return SqlType(BINARY, length=n)


def varbinary_type(n: int = MAX, filestream: bool = False) -> SqlType:
    return SqlType(VARBINARY, length=n, filestream=filestream)


def guid_type() -> SqlType:
    return SqlType(UNIQUEIDENTIFIER)


def datetime_type() -> SqlType:
    return SqlType(DATETIME)


def udt_type(name: str) -> SqlType:
    return SqlType(UDT, udt_name=name)
