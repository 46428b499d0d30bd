"""The repo benchmark's ``lookup_hot`` database at test size: four small
annotation tables and the five parameterized lookup shapes, for the
tests that hold what a hot statement's bookkeeping may cost and must
keep reporting."""

from __future__ import annotations

from repro.engine import Database

ORGANISMS = ("human", "mouse", "rat")
SHAPES = 5


def build_lookup_db(rows: int = 500) -> Database:
    db = Database()
    db.execute("CREATE TABLE org (o_id INT PRIMARY KEY, oname VARCHAR(16))")
    db.execute(
        "INSERT INTO org VALUES "
        + ", ".join(f"({i}, '{name}')" for i, name in enumerate(ORGANISMS))
    )
    db.execute(
        "CREATE TABLE fam (f_id INT PRIMARY KEY, fname VARCHAR(16), o_id INT)"
    )
    db.execute(
        "INSERT INTO fam VALUES "
        + ", ".join(f"({i}, 'f{i}', {i % 3})" for i in range(5))
    )
    db.execute(
        "CREATE TABLE gene (g_id INT PRIMARY KEY, name VARCHAR(16), f_id INT)"
    )
    db.execute(
        "INSERT INTO gene VALUES "
        + ", ".join(f"({i}, 'g{i}', {i % 5})" for i in range(23))
    )
    db.execute(
        "CREATE TABLE probe (p_id INT PRIMARY KEY, g_id INT, "
        "tag VARCHAR(16), hits INT)"
    )
    db.execute(
        "INSERT INTO probe VALUES "
        + ", ".join(
            f"({i}, {i % 23}, 'tag{i % 199}', {i * 7 % 101})"
            for i in range(rows)
        )
    )
    db.execute("CREATE INDEX ix_tag ON probe (tag)")
    for table in ("org", "fam", "gene", "probe"):
        db.execute(f"UPDATE STATISTICS {table}")
    return db


def lookup_sql(shape: int, p: int) -> str:
    """Statement ``shape`` (0-4) for probe ``p``."""
    if shape == 0:
        return f"SELECT g_id, hits FROM probe WHERE p_id = {p}"
    if shape == 1:
        return f"SELECT p_id FROM probe WHERE tag = 'tag{p % 199}'"
    if shape == 2:
        return (
            "SELECT p.p_id, g.name, f.fname FROM probe p "
            "JOIN gene g ON p.g_id = g.g_id "
            "JOIN fam f ON g.f_id = f.f_id "
            f"WHERE p.p_id = {p}"
        )
    if shape == 3:
        return (
            "SELECT p.p_id, g.name, f.fname, o.oname FROM probe p "
            "JOIN gene g ON p.g_id = g.g_id "
            "JOIN fam f ON g.f_id = f.f_id "
            "JOIN org o ON f.o_id = o.o_id "
            f"WHERE p.p_id = {p}"
        )
    return (
        "SELECT COUNT(*), SUM(p.hits) FROM probe p "
        "JOIN gene g ON p.g_id = g.g_id "
        f"WHERE p.p_id = {p} AND g.f_id >= 0"
    )
