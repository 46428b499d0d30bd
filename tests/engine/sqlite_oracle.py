"""Stdlib ``sqlite3`` as the engine's independent SQL oracle.

SQLite shares nothing with the engine: not the lexer, the parser, the
planner, the expression compiler or the aggregate states. What the two
have in common is the SQL they both accept, so a statement inside that
overlap is run on both and the answers compared to the ``repr`` (value,
type and float bit pattern).

The engine's T-SQL built-ins are registered on the SQLite connection
from ``expressions._BUILTINS`` (they also replace SQLite's own
``SUBSTRING`` / ``UPPER`` / ...), so SQL semantics are under test and
function bodies are not. :func:`to_sqlite` is the whole textual
translation.
"""

from __future__ import annotations

import re
import sqlite3
from collections import Counter
from typing import List, Tuple

from repro.engine.expressions import _BUILTINS


def connect() -> sqlite3.Connection:
    """An in-memory SQLite database that knows the engine's scalar
    built-ins and compares LIKE patterns case-sensitively, as the
    engine does."""
    conn = sqlite3.connect(":memory:")
    conn.execute("PRAGMA case_sensitive_like = ON")
    for name, fn in _BUILTINS.items():
        if name != "newid":  # the one non-deterministic built-in
            conn.create_function(name, -1, fn, deterministic=True)
    return conn


_TOP = re.compile(r"^\s*SELECT\s+(DISTINCT\s+)?TOP\s+(\d+)\s", re.IGNORECASE)
_HINT = re.compile(r"\s+OPTION\s*\([^)]*\)\s*$", re.IGNORECASE)
#: scalar functions whose names SQLite reserves as keywords; a quoted
#: identifier calls the registered function
_RESERVED_CALL = re.compile(r"\b(ISNULL|LEFT|RIGHT)\s*\(", re.IGNORECASE)


def to_sqlite(sql: str) -> str:
    """``TOP n`` becomes ``LIMIT n``, an ``OPTION (...)`` hint (which
    never changes an answer) is dropped, and the three built-ins whose
    names are SQLite keywords are called through quoted identifiers."""
    sql = _HINT.sub("", sql)
    sql = _RESERVED_CALL.sub(lambda m: f'"{m.group(1)}"(', sql)
    top = _TOP.match(sql)
    if top:
        distinct = top.group(1) or ""
        sql = f"SELECT {distinct}{sql[top.end():]} LIMIT {top.group(2)}"
    return sql


def _canonical(rows, ordered: bool) -> List[Tuple]:
    rows = [tuple(row) for row in rows]
    return rows if ordered else sorted(rows, key=repr)


def assert_matches(db, conn, sql: str, ordered: bool = False) -> List[Tuple]:
    """Run ``sql`` on the engine and on SQLite; the answers must be the
    same list when ``ordered`` (the statement has a total ORDER BY) and
    the same multiset otherwise. Returns the engine's rows.

    ``TOP n`` without a total order may keep any ``n`` rows: then the
    engine's rows must be ``n`` (or all) of the oracle's un-limited
    answer."""
    got = db.query(sql)
    top = _TOP.match(sql)
    if top and not ordered:
        everything = conn.execute(
            to_sqlite(_TOP.sub(lambda m: f"SELECT {m.group(1) or ''}", sql))
        ).fetchall()
        pool = Counter(repr(tuple(row)) for row in everything)
        assert len(got) == min(int(top.group(2)), len(everything)), sql
        assert not Counter(map(repr, got)) - pool, sql
        return got
    expected = conn.execute(to_sqlite(sql)).fetchall()
    assert repr(_canonical(got, ordered)) == repr(
        _canonical(expected, ordered)
    ), sql
    return got
