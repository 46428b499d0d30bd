"""The five file-scanning variants of the Section 5.2 experiment.

The paper measures ``SELECT COUNT(*)`` over a 5M-line FASTA short-read
file through five access paths::

    Command line program (C#)                        ~  5 secs
    T-SQL Stored Procedure                      several minutes
    CLR-based Stored Procedure with StreamReader      21 secs
    CLR-based Stored Procedure with Chunking           7 secs
    CLR-based TVF with Chunking                       14 secs

This module implements each variant against the same FILESTREAM blob:

1. :func:`count_records_command_line` — a plain program reading the file
   directly (no database involved);
2. :func:`build_interpreted_count_procedure` — the T-SQL-style procedure
   executed by the tree-walking interpreter (statement-at-a-time, AST
   re-evaluated per line: the architectural reason it is slowest);
3. :func:`count_records_streamreader` — a compiled procedure reading the
   blob line by line (per-line call overhead, no chunk buffer);
4. :func:`count_records_chunked` — a compiled procedure scanning the
   blob in large chunks and counting record starts inside each buffer;
5. the registered ``ListShortReads`` TVF driven through the query
   engine — every record parsed and converted into a SQL row (a buffer
   of entries at a time) and counted by the executor, the TVF overhead
   the paper quantifies.
"""

from __future__ import annotations

import uuid

from ..engine.database import Database
from ..engine.expressions import BinaryOp, ColumnRef, FuncCall, Literal
from ..engine.procedural import (
    Assign,
    Declare,
    FetchLine,
    If,
    InterpretedProcedure,
    OpenLineCursor,
    Return,
    While,
)
from .wrappers import DEFAULT_CHUNK_SIZE

#: the record-start marker per format
_MARKERS = {"fasta": b">", "fastq": b"@"}


def _marker(fmt: str) -> bytes:
    try:
        return _MARKERS[fmt.lower()]
    except KeyError:
        raise ValueError(f"unsupported format {fmt!r}") from None


# -- variant 1: command-line program ------------------------------------------------


def count_records_command_line(
    path, fmt: str = "fasta", chunk_size: int = DEFAULT_CHUNK_SIZE
) -> int:
    """Count records by scanning the file directly (no DBMS)."""
    marker = _marker(fmt)
    count = 0
    prev_last = b"\n"
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                return count
            if prev_last == b"\n" and chunk.startswith(marker):
                count += 1
            count += chunk.count(b"\n" + marker)
            prev_last = chunk[-1:]


# -- variant 2: interpreted T-SQL-style procedure -----------------------------------


def build_interpreted_count_procedure(fmt: str = "fasta") -> InterpretedProcedure:
    """A cursor loop counting record headers, line by line, with every
    expression re-evaluated through the interpreter.

    T-SQL equivalent::

        DECLARE @count INT = 0
        OPEN CURSOR ... ; FETCH ...
        WHILE @status = 1
        BEGIN
            IF SUBSTRING(@line, 1, 1) = '>' SET @count = @count + 1
            FETCH NEXT ...
        END
        RETURN @count
    """
    marker = _marker(fmt).decode("ascii")
    var = ColumnRef  # variables resolve through the interpreter env
    return InterpretedProcedure(
        name=f"usp_count_{fmt.lower()}_records",
        params=("@guid",),
        body=[
            Declare("@count", 0),
            OpenLineCursor("c", "@guid"),
            FetchLine("c"),
            While(
                condition=BinaryOp("=", var("c_status"), Literal(1)),
                body=[
                    If(
                        condition=BinaryOp(
                            "=",
                            FuncCall(
                                "SUBSTRING",
                                (var("c_line"), Literal(1), Literal(1)),
                            ),
                            Literal(marker),
                        ),
                        then_body=[
                            Assign(
                                "@count",
                                BinaryOp("+", var("@count"), Literal(1)),
                            )
                        ],
                    ),
                    FetchLine("c"),
                ],
            ),
            Return(var("@count")),
        ],
    )


def count_records_interpreted(db: Database, guid: uuid.UUID, fmt: str = "fasta") -> int:
    """Run the interpreted procedure against a blob."""
    procedure = build_interpreted_count_procedure(fmt)
    db.procedures.register_interpreted(procedure)
    return db.call_procedure(procedure.name, guid)


# -- variant 3: compiled procedure, StreamReader-style --------------------------------


def count_records_streamreader(
    db: Database, guid: uuid.UUID, fmt: str = "fasta"
) -> int:
    """Compiled procedure reading the blob line by line (the CLR
    ``StreamReader`` pattern: correct, but one call per line)."""
    marker = _marker(fmt)
    count = 0
    with db.filestream.open_stream(guid) as handle:
        while True:
            line = handle.readline()
            if not line:
                return count
            if line.startswith(marker):
                count += 1


# -- variant 4: compiled procedure with chunking ---------------------------------------


def count_records_chunked(
    db: Database,
    guid: uuid.UUID,
    fmt: str = "fasta",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> int:
    """Compiled procedure using the paper's ReadChunk pattern over the
    FILESTREAM ``get_bytes`` API: scan large buffers, count markers."""
    marker = _marker(fmt)
    store = db.filestream
    buffer = bytearray(chunk_size)
    offset = 0
    count = 0
    prev_last = b"\n"
    while True:
        read = store.get_bytes(
            guid, offset, buffer, 0, chunk_size,
            sequential=True, prefetch=max(chunk_size, 1 << 20),
        )
        if read == 0:
            return count
        view = bytes(buffer[:read])
        if prev_last == b"\n" and view.startswith(marker):
            count += 1
        count += view.count(b"\n" + marker)
        prev_last = view[-1:]
        offset += read


# -- variant 5: TVF with chunking -------------------------------------------------------


def count_records_tvf(
    db: Database, sample: int, lane: int, fmt: str = "FastA"
) -> int:
    """Drive the registered ``ListShortReads`` TVF through the query
    engine: full entry parse, conversion into SQL rows, the batch
    contract and the aggregate — everything a real TVF pays."""
    return db.scalar(
        f"SELECT COUNT(*) FROM ListShortReads({sample}, {lane}, '{fmt}')"
    )
