"""Compiled SQL expressions: work done once per statement, errors kept lazy,
and UPDATE evaluating each row exactly once."""

from __future__ import annotations

import pytest

from repro.clock import SimClock
from repro.errors import SchemaError, SQLError
from repro.storage import ColumnType, Database, quick_table
from repro.storage.cluster import ShardedDatabase
from repro.storage.relational.sql import functions
from repro.storage.schema import Column, TableSchema

JOB_COLUMNS = [
    Column("id", ColumnType.INT, primary_key=True),
    Column("city", ColumnType.TEXT),
    Column("salary", ColumnType.INT),
]
JOBS = [
    {"id": 1, "city": "Oakland", "salary": 100},
    {"id": 2, "city": "oakland", "salary": None},
    {"id": 3, "city": "Austin", "salary": 300},
    {"id": 4, "city": "Reno", "salary": 0},
    {"id": 5, "city": "OAKLAND", "salary": 500},
]


@pytest.fixture
def db():
    database = Database("compiled")
    quick_table(database, "jobs", JOB_COLUMNS, JOBS)
    quick_table(database, "empty", JOB_COLUMNS)
    return database


class TestOncePerStatement:
    def test_constant_subtree_is_folded_once(self, db, monkeypatch):
        calls = []
        lower = functions.SCALAR_FUNCTIONS["LOWER"]

        def counting(args):
            calls.append(args)
            return lower(args)

        monkeypatch.setitem(functions.SCALAR_FUNCTIONS, "LOWER", counting)
        result = db.execute(
            "SELECT COUNT(*) AS n FROM jobs WHERE LOWER(city) = LOWER(:loc)",
            {"loc": "OakLand"},
        )
        assert result.scalar() == 3
        # One call per row for LOWER(city), one in all for LOWER(:loc).
        assert len(calls) == len(JOBS) + 1

    def test_uncorrelated_subquery_runs_once(self, db):
        result = db.execute(
            "SELECT id FROM jobs WHERE salary > (SELECT AVG(salary) FROM jobs)"
        )
        assert sorted(row["id"] for row in result.rows) == [3, 5]
        # The outer scan plus a single scan for the subquery.
        assert result.stats.rows_scanned == 2 * len(JOBS)

    def test_in_and_exists_subqueries_agree_with_literals(self, db):
        via_subquery = db.query(
            "SELECT id FROM jobs WHERE id IN (SELECT id FROM jobs WHERE salary >= 300) "
            "AND EXISTS (SELECT id FROM jobs WHERE city = 'Reno')"
        )
        assert sorted(row["id"] for row in via_subquery) == [3, 5]
        assert db.query(
            "SELECT id FROM jobs WHERE NOT EXISTS (SELECT id FROM empty)"
        ) == [{"id": i} for i in range(1, 6)]


class TestLazyErrors:
    @pytest.mark.parametrize(
        "where, parameters, message",
        [
            ("LOWER(city) = LOWER(:missing)", {}, "missing parameter"),
            ("NOSUCH(city) = 1", {}, "unknown function"),
            ("salary / 0 > 1", {}, "division by zero"),
            ("salary % 0 > 1", {}, "modulo by zero"),
            ("COUNT(*) > 1", {}, "outside a grouped context"),
            ("nowhere = 1", {}, "unknown column"),
        ],
    )
    def test_raise_only_when_a_row_reaches_them(self, db, where, parameters, message):
        assert db.query(f"SELECT id FROM empty WHERE {where}", parameters) == []
        with pytest.raises(SQLError, match=message):
            db.query(f"SELECT id FROM jobs WHERE {where}", parameters)

    def test_short_circuit_skips_the_failing_side(self, db):
        assert db.query("SELECT id FROM jobs WHERE 1 = 0 AND 1 / 0 = 1") == []
        assert len(db.query("SELECT id FROM jobs WHERE 1 = 1 OR NOSUCH(1) = 1")) == 5
        with pytest.raises(SQLError, match="division by zero"):
            db.query("SELECT id FROM jobs WHERE 1 / 0 = 1 AND 1 = 0")

    def test_null_operand_never_reaches_the_division(self, db):
        rows = db.query("SELECT id FROM jobs WHERE id = 2 AND salary / 0 IS NULL")
        assert rows == [{"id": 2}]

    def test_unknown_column_in_an_empty_grouped_projection(self, db):
        with pytest.raises(SQLError, match="unknown column"):
            db.query("SELECT city, COUNT(*) AS n FROM empty")


def _counter_rows(table_rows):
    return sorted(row["x"] for row in table_rows)


class TestUpdateEvaluatesEachRowOnce:
    def test_table_without_primary_key(self):
        database = Database("nopk")
        quick_table(database, "t", [("x", ColumnType.INT)], [{"x": 1}, {"x": 2}])
        result = database.execute("UPDATE t SET x = x + 1")
        assert result.rowcount == 2
        assert _counter_rows(database.query("SELECT x FROM t")) == [2, 3]

    def test_primary_key_shift(self):
        database = Database("pk")
        quick_table(
            database,
            "t",
            [Column("id", ColumnType.INT, primary_key=True), Column("x", ColumnType.INT)],
            [{"id": 1, "x": 0}, {"id": 2, "x": 0}],
        )
        database.execute("UPDATE t SET id = id + 1")
        assert sorted(row["id"] for row in database.query("SELECT id FROM t")) == [2, 3]

    def test_assignments_read_pre_statement_values(self):
        database = Database("swap")
        quick_table(
            database,
            "t",
            [("a", ColumnType.INT), ("b", ColumnType.INT)],
            [{"a": 1, "b": 2}, {"a": 1, "b": 2}],
        )
        database.execute("UPDATE t SET a = b, b = a WHERE a = 1")
        assert database.query("SELECT a, b FROM t") == [{"a": 2, "b": 1}] * 2

    def test_failing_update_changes_nothing(self):
        database = Database("atomic")
        quick_table(database, "t", [("x", ColumnType.INT)], [{"x": 1}, {"x": 2}])
        with pytest.raises(SchemaError):
            database.execute("UPDATE t SET x = CASE WHEN x = 1 THEN 5 ELSE 'bad' END")
        assert _counter_rows(database.query("SELECT x FROM t")) == [1, 2]

    def test_sharded_table_without_primary_key(self):
        database = ShardedDatabase("nopk", n_shards=4, n_replicas=3,
                                   clock=SimClock(), seed=2)
        database.create_table(
            TableSchema("t", [Column("grp", ColumnType.TEXT), Column("x", ColumnType.INT)]),
            partition_column="grp",
        )
        database.table("t").insert_many(
            {"grp": grp, "x": x} for grp in ("a", "b", "c") for x in (1, 2, 3)
        )
        result = database.execute("UPDATE t SET x = x + 1")
        assert result.rowcount == 9
        assert _counter_rows(database.query("SELECT x FROM t")) == [2, 2, 2, 3, 3, 3, 4, 4, 4]
        database.cluster.settle()
        for shard in database.cluster.shards:
            tables = [replica.state.table("t").rows() for replica in shard.replicas]
            assert all(rows == tables[0] for rows in tables)
