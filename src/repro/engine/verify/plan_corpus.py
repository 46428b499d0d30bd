"""The golden plan corpus: shipped plan shapes the sanitizer must pass.

One canonical set of schemas and queries — the paper's Figure 9/10 plan
shapes plus the differential suite's scan/filter/join/aggregate shapes —
planned under every storage engine (heap / columnstore) and DOP in
{1, 2, 4}, then pushed through :func:`~.plan_sanitizer.sanitize_plan`.
Zero diagnostics over this corpus is the sanitizer's own regression bar:
it gates CI via ``repro-genomics sanitize --self`` and is asserted by
``tests/engine/test_plan_sanitizer.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .diagnostics import Diagnostic

#: Figure 9/10 schema (the engine-level reduction used by the golden
#: plan-shape tests) — always heap, it exercises index seeks and joins
FIGURE_DDL = (
    """
    CREATE TABLE [Read] (
        r_e_id INT, r_sg_id INT, r_s_id INT, r_id INT,
        short_read_seq VARCHAR(20),
        PRIMARY KEY (r_e_id, r_sg_id, r_s_id, r_id)
    )
    """,
    """
    CREATE TABLE Alignment (
        a_e_id INT, a_sg_id INT, a_s_id INT, a_id INT,
        a_pos INT,
        PRIMARY KEY (a_e_id, a_sg_id, a_s_id, a_id)
    )
    """,
)

FIGURE_QUERIES = (
    # Figure 9: parallel tag-frequency aggregation
    """
    SELECT short_read_seq, COUNT(*) AS frequency FROM [Read]
    WHERE r_e_id = 1 AND r_sg_id = 1 AND r_s_id = 1
    GROUP BY short_read_seq
    """,
    # Figure 10: co-clustered merge join
    """
    SELECT a_id, short_read_seq FROM Alignment
    JOIN [Read] ON (a_e_id = r_e_id AND a_sg_id = r_sg_id
                    AND a_s_id = r_s_id AND a_id = r_id)
    WHERE a_e_id = 1 AND a_sg_id = 1 AND a_s_id = 1
    """,
)

#: the differential-suite shapes: scan/filter/project, aggregation,
#: joins, sort/top/distinct — planned per storage engine below
SALES_QUERIES = (
    "SELECT region, COUNT(*), SUM(amount) FROM sales "
    "WHERE amount > 10 GROUP BY region",
    "SELECT id, amount FROM sales WHERE amount > 25 AND region = 'north'",
    "SELECT id FROM sales WHERE amount > 10 OR price > 20.0",
    "SELECT id FROM sales WHERE amount IS NULL",
    "SELECT COUNT(*), COUNT(amount), SUM(amount), AVG(price), "
    "MIN(amount), MAX(amount) FROM sales",
    "SELECT region, AVG(price), SUM(price) FROM sales GROUP BY region",
    "SELECT region, COUNT(DISTINCT product) FROM sales GROUP BY region",
    "SELECT id FROM sales WHERE amount BETWEEN 5 AND 15",
    "SELECT id FROM sales WHERE region IN ('north', 'east') AND amount > 30",
    "SELECT id FROM sales WHERE product LIKE 'wid%' AND amount > 40",
    "SELECT s.id, r.zone FROM sales AS s JOIN regions AS r "
    "ON s.region = r.name WHERE s.amount > 45",
    "SELECT region, SUM(amount) FROM sales GROUP BY region "
    "HAVING SUM(amount) > 100",
    "SELECT DISTINCT region FROM sales WHERE amount > 10",
    "SELECT id, amount FROM sales WHERE amount > 10 ORDER BY amount DESC, id",
    "SELECT TOP 7 id FROM sales WHERE amount > 20",
    "SELECT id, amount * 2 + 1, -amount FROM sales WHERE id < 50",
    "SELECT region, product, COUNT(*), MIN(amount), MAX(amount) "
    "FROM sales GROUP BY region, product",
)

DOPS = (1, 2, 4)


def _build_figure_db(database) -> None:
    for ddl in FIGURE_DDL:
        database.execute(ddl)
    for i in range(12):
        database.execute(
            f"INSERT INTO [Read] VALUES (1, 1, 1, {i}, 'ACGT{i % 3}')"
        )
        database.execute(
            f"INSERT INTO Alignment VALUES (1, 1, 1, {i}, {i * 7})"
        )


def _build_sales_db(database, storage: str) -> None:
    with_clause = (
        " WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 128)"
        if storage == "column"
        else ""
    )
    database.execute(
        "CREATE TABLE sales (id INT PRIMARY KEY, region VARCHAR(10), "
        f"product VARCHAR(10), amount INT, price FLOAT){with_clause}"
    )
    regions = ["north", "south", "east", "west"]
    products = ["widget", "gadget", "gizmo"]
    values = []
    for i in range(600):
        region = regions[i % 4]
        product = products[i % 3]
        amount = (i * 7) % 50 if i % 11 else "NULL"
        price = f"{(i % 13) * 2.5}" if i % 17 else "NULL"
        values.append(f"({i}, '{region}', '{product}', {amount}, {price})")
    database.execute("INSERT INTO sales VALUES " + ",".join(values))
    database.execute(
        "CREATE TABLE regions (name VARCHAR(10) PRIMARY KEY, zone INT)"
    )
    database.execute(
        "INSERT INTO regions VALUES ('north', 1), ('south', 1), "
        "('east', 2), ('west', 2)"
    )
    database.execute("UPDATE STATISTICS sales")
    database.execute("UPDATE STATISTICS regions")


def corpus_plans():
    """Yield ``(description, plan, database)`` for every corpus entry.

    Spans every (schema, storage engine, DOP) combination; each yielded
    plan is live against its database, which is closed once iteration
    advances past its group.
    """
    from ..database import Database

    with Database() as database:
        _build_figure_db(database)
        for sql in FIGURE_QUERIES:
            for dop in DOPS:
                hinted = f"{sql} OPTION (MAXDOP {dop})"
                yield (
                    f"figure/dop={dop}: {' '.join(sql.split())}",
                    database.plan(hinted),
                    database,
                )
    for storage in ("heap", "column"):
        with Database() as database:
            _build_sales_db(database, storage)
            for sql in SALES_QUERIES:
                for dop in DOPS:
                    hinted = f"{sql} OPTION (MAXDOP {dop})"
                    yield (
                        f"sales/{storage}/dop={dop}: {sql}",
                        database.plan(hinted),
                        database,
                    )


def sanitize_corpus() -> List[Tuple[str, Diagnostic]]:
    """Sanitize every corpus plan; returns (description, finding) pairs.

    An empty list is the pass verdict — every shipped plan shape proves
    every executor invariant.
    """
    from .plan_sanitizer import sanitize_plan

    failures: List[Tuple[str, Diagnostic]] = []
    for description, plan, database in corpus_plans():
        for finding in sanitize_plan(plan, database):
            failures.append((description, finding))
    return failures
