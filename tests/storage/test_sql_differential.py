"""Differential test: the SQL engine against the standard library's sqlite3.

Seeded random WHERE predicates over NULL-bearing int and text rows run on
both engines; the row multisets must agree, and so must the row order
wherever the statement has an ORDER BY (every ORDER BY ends in a unique
key, so the order is total).  The generated SQL stays inside the subset
where the two dialects agree: no int/text comparisons, no NULL inside IN
lists, and non-NULL BETWEEN bounds.
"""

from __future__ import annotations

import random
import sqlite3

import pytest

from repro.storage import ColumnType, Database, quick_table
from repro.storage.schema import Column

SEEDS = range(6)
PREDICATES_PER_SEED = 60
N_ROWS = 80

INT_COLUMNS = ("id", "a", "b")
WORDS = ("Oakland", "oakland", "Austin", "Boston", "boston", "Denver", "", "a_b")
PATTERNS = ("o%", "%land", "%O%", "_ustin", "b_st_n", "%", "", "a\\_b", "%a_b%")
COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


def _rows(rng: random.Random) -> list[dict]:
    def maybe(value):
        return None if rng.random() < 0.2 else value

    return [
        {
            "id": i,
            "a": maybe(rng.randint(-2, 8)),
            "b": maybe(rng.randint(0, 5)),
            "s": maybe(rng.choice(WORDS)),
        }
        for i in range(N_ROWS)
    ]


def _engines(rows: list[dict]) -> tuple[Database, sqlite3.Connection]:
    database = Database("diff")
    table = quick_table(
        database,
        "t",
        [
            Column("id", ColumnType.INT, primary_key=True),
            Column("a", ColumnType.INT),
            Column("b", ColumnType.INT),
            Column("s", ColumnType.TEXT),
        ],
        rows,
    )
    table.create_index("b", kind="sorted")
    table.create_index("s", kind="hash")
    connection = sqlite3.connect(":memory:")
    connection.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, s TEXT)"
    )
    connection.executemany(
        "INSERT INTO t (id, a, b, s) VALUES (:id, :a, :b, :s)", rows
    )
    return database, connection


def _text(rng: random.Random) -> str:
    return "'" + rng.choice(WORDS) + "'"


def _int_expr(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.7:
        return rng.choice(INT_COLUMNS)
    if roll < 0.85:
        return "LENGTH(s)"
    return ":n"


def _text_expr(rng: random.Random) -> str:
    return rng.choice(("s", "s", "LOWER(s)", "UPPER(s)", "LOWER(:p)"))


def _atom(rng: random.Random) -> str:
    kind = rng.randrange(9)
    if kind == 0:
        return f"{_int_expr(rng)} {rng.choice(COMPARISONS)} {rng.randint(-2, 8)}"
    if kind == 1:
        return f"{_int_expr(rng)} {rng.choice(COMPARISONS)} {_int_expr(rng)}"
    if kind == 2:
        return f"{_text_expr(rng)} {rng.choice(COMPARISONS)} {_text(rng)}"
    if kind == 3:
        return f"{_text_expr(rng)} = {_text_expr(rng)}"
    if kind == 4:
        negated = "NOT " if rng.random() < 0.3 else ""
        pattern = rng.choice(PATTERNS + (":p",))
        if pattern != ":p":
            pattern = f"'{pattern}'"
        return f"{_text_expr(rng)} {negated}LIKE {pattern}"
    if kind == 5:
        negated = "NOT " if rng.random() < 0.3 else ""
        items = ", ".join(str(rng.randint(-2, 8)) for _ in range(rng.randint(1, 4)))
        return f"{_int_expr(rng)} {negated}IN ({items})"
    if kind == 6:
        negated = "NOT " if rng.random() < 0.3 else ""
        items = ", ".join(_text(rng) for _ in range(rng.randint(1, 3)))
        return f"{_text_expr(rng)} {negated}IN ({items})"
    if kind == 7:
        negated = "NOT " if rng.random() < 0.3 else ""
        low = rng.randint(-2, 6)
        return f"{_int_expr(rng)} {negated}BETWEEN {low} AND {low + rng.randint(-1, 4)}"
    negated = "NOT " if rng.random() < 0.5 else ""
    return f"{rng.choice(INT_COLUMNS[1:] + ('s',))} IS {negated}NULL"


def _predicate(rng: random.Random, depth: int = 0) -> str:
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        return _atom(rng)
    if roll < 0.5:
        return f"NOT ({_predicate(rng, depth + 1)})"
    op = "AND" if roll < 0.75 else "OR"
    return f"({_predicate(rng, depth + 1)}) {op} ({_predicate(rng, depth + 1)})"


def _statements(where: str, rng: random.Random) -> list[tuple[str, bool]]:
    """(sql, ordered) pairs sharing one WHERE clause."""
    limit = rng.randint(1, 12)
    return [
        (f"SELECT id, a, b, s FROM t WHERE {where}", False),
        (
            "SELECT a, COUNT(*) AS n, COUNT(b) AS nb, AVG(b) AS m "
            f"FROM t WHERE {where} GROUP BY a",
            False,
        ),
        (f"SELECT COUNT(*) AS n, AVG(a) AS m FROM t WHERE {where}", False),
        (
            f"SELECT id, a, s FROM t WHERE {where} "
            f"ORDER BY a DESC, s, id LIMIT {limit}",
            True,
        ),
        (
            f"SELECT s, COUNT(*) AS n, AVG(a) AS m FROM t WHERE {where} "
            f"GROUP BY s ORDER BY n DESC, s LIMIT {limit}",
            True,
        ),
    ]


def _ours(database: Database, sql: str, parameters: dict) -> list[tuple]:
    result = database.execute(sql, parameters)
    return [tuple(row[column] for column in result.columns) for row in result.rows]


def _multiset(rows: list[tuple]) -> list[tuple]:
    return sorted(rows, key=repr)


@pytest.mark.parametrize("seed", SEEDS)
def test_where_group_order_agree_with_sqlite(seed):
    rng = random.Random(seed)
    database, connection = _engines(_rows(rng))
    for _ in range(PREDICATES_PER_SEED):
        where = _predicate(rng)
        parameters = {"n": rng.randint(-1, 6), "p": rng.choice(WORDS + ("%LAND",))}
        for sql, ordered in _statements(where, rng):
            expected = connection.execute(sql, parameters).fetchall()
            got = _ours(database, sql, parameters)
            if not ordered:
                expected, got = _multiset(expected), _multiset(got)
            assert got == expected, (sql, parameters)


def test_generator_reaches_every_construct():
    """The generated predicates cover each operator the test claims to."""
    rng = random.Random(0)
    text = " ".join(
        _predicate(rng) for _ in range(PREDICATES_PER_SEED * len(SEEDS))
    )
    for construct in (
        "= ", "<> ", "< ", "<= ", "> ", ">= ", " AND ", " OR ", "NOT (",
        " LIKE ", "NOT LIKE", " IN (", "NOT IN", " BETWEEN ", "NOT BETWEEN",
        "IS NULL", "IS NOT NULL", "LOWER(", "UPPER(", "LENGTH(", ":n", ":p",
    ):
        assert construct in text, construct
