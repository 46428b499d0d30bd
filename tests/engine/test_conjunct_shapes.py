"""Each column-against-constants shape, read the same way by every
consumer of the decoded conjunct.

One table over a clustered row-store table ``t`` and its column-store
twin ``tc`` pins, for each WHERE shape (beside a ``v > 1`` that no seek
takes), the access path and the conjuncts it consumes (a seek's bounds,
the column scan's ``pushed:`` label, what is left to a Filter) and every
``est. rows`` — the estimator, the seek eligibility and the column-store
pushdown at once.
"""

import re

import pytest

from repro.engine import Database

SEEK = "Clustered Index Seek [t] "
HEAP = "Table Scan [t] (storage=heap; cols: k, v)"
COLUMN = "Columnstore Index Scan [tc] (storage=column; cols: k, v; pushed: "

#: shape → (row-store plan, column-store plan), each top-down below the
#: Compute Scalar as ``(operator, est. rows)``
SHAPES = {
    "k = 5": (
        [("Filter ((v > 1))", 1), (SEEK + "((5,) .. (5,))", 1)],
        [(COLUMN + "(k = 5) AND (v > 1))", 1)],
    ),
    "5 = k": (
        [("Filter ((v > 1))", 1), (SEEK + "((5,) .. (5,))", 1)],
        [(COLUMN + "(5 = k) AND (v > 1))", 1)],
    ),
    "k != 5": (
        [("Filter (((k <> 5) AND (v > 1)))", 8), (HEAP, 10)],
        [(COLUMN + "(k <> 5) AND (v > 1))", 8)],
    ),
    "k < 5": (
        [("Filter ((v > 1))", 4), (SEEK + "(None .. before (5,))", 5)],
        [(COLUMN + "(k < 5) AND (v > 1))", 5)],
    ),
    "5 > k": (
        [("Filter ((v > 1))", 4), (SEEK + "(None .. before (5,))", 5)],
        [(COLUMN + "(5 > k) AND (v > 1))", 5)],
    ),
    "k BETWEEN 2 AND 6": (
        [("Filter ((v > 1))", 4), (SEEK + "((2,) .. (6,))", 5)],
        [(COLUMN + "(k BETWEEN 2 AND 6) AND (v > 1))", 3)],
    ),
    "k IN (1, 3)": (
        [("Filter (((k IN (1, 3)) AND (v > 1)))", 2), (HEAP, 10)],
        [(COLUMN + "(k IN (1, 3)) AND (v > 1))", 2)],
    ),
    "k IS NULL": (
        [("Filter (((k IS NULL) AND (v > 1)))", 1), (HEAP, 10)],
        [(COLUMN + "(k IS NULL) AND (v > 1))", 1)],
    ),
    "k IS NOT NULL": (
        [("Filter (((k IS NOT NULL) AND (v > 1)))", 8), (HEAP, 10)],
        [(COLUMN + "(k IS NOT NULL) AND (v > 1))", 8)],
    ),
    "k = NULL": (
        [("Filter (((k = NULL) AND (v > 1)))", 1), (HEAP, 10)],
        [("Filter ((k = NULL))", 1), (COLUMN + "(v > 1))", 8)],
    ),
    "k <> NULL": (
        [("Filter (((k <> NULL) AND (v > 1)))", 8), (HEAP, 10)],
        [("Filter ((k <> NULL))", 8), (COLUMN + "(v > 1))", 8)],
    ),
    "k = j": (
        [("Filter (((k = j) AND (v > 1)))", 4), ("Table Scan [t] (storage=heap)", 10)],
        [
            ("Filter ((k = j))", 4),
            ("Columnstore Index Scan [tc] (storage=column; pushed: (v > 1))", 8),
        ],
    ),
}

_NODE = re.compile(r"-> (.*)  \(est\. rows=(\d+), cost=")


@pytest.fixture(scope="module")
def db():
    with Database() as database:
        database.execute("CREATE TABLE t (k INT PRIMARY KEY, j INT, v INT)")
        database.execute(
            "CREATE TABLE tc (k INT, j INT, v INT) "
            "WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 4)"
        )
        for name in ("t", "tc"):
            for i in range(10):
                database.execute(
                    f"INSERT INTO {name} VALUES ({i}, {i % 3}, {i * 2})"
                )
            database.execute(f"UPDATE STATISTICS {name}")
        yield database


@pytest.mark.parametrize("shape", SHAPES)
def test_each_shape_plans_as_pinned(db, shape):
    for table, expected in zip(("t", "tc"), SHAPES[shape]):
        text = db.explain(f"EXPLAIN SELECT v FROM {table} WHERE {shape} AND v > 1")
        nodes = [_NODE.search(line).groups() for line in text.splitlines()]
        assert nodes[0][0] == "Compute Scalar (v)", text
        assert [(label, int(rows)) for label, rows in nodes[1:]] == expected
