"""Sharded SELECTs with subqueries agree with a single-node database.

A subquery can name any table, and a shard holds only its slice of each
one, so a statement holding a subquery never runs per shard: it gathers,
and every table a subquery names is copied from all of its shards.
"""

from __future__ import annotations

import pytest

from repro.clock import SimClock
from repro.storage.cluster import ShardedDatabase
from repro.storage.relational.database import Database
from repro.storage.schema import Column, ColumnType, TableSchema

CITIES = ["Oakland", "Austin", "Denver", "Boston", "Seattle"]


def _schemas():
    people = TableSchema(
        "people",
        [
            Column("id", ColumnType.INT, primary_key=True),
            Column("city", ColumnType.TEXT),
            Column("age", ColumnType.INT),
        ],
    )
    picks = TableSchema(
        "t",
        [
            Column("k", ColumnType.INT, primary_key=True),
            Column("note", ColumnType.TEXT),
        ],
    )
    return people, picks


def _people_rows():
    return [
        {"id": i, "city": CITIES[i % len(CITIES)], "age": 20 + i}
        for i in range(40)
    ]


def _pick_rows():
    return [{"k": k, "note": f"n{k}"} for k in (1, 4, 9, 16, 25, 36, 99)]


@pytest.fixture
def pair():
    """The same rows in a 4-shard cluster and in one single-node database.

    Both tables partition by their primary key, so the oldest people
    live on different shards and each shard's ``MAX(age)`` differs.
    """
    people, picks = _schemas()
    sharded = ShardedDatabase("hr", n_shards=4, n_replicas=3,
                              clock=SimClock(), seed=5)
    sharded.create_table(people).insert_many(_people_rows())
    sharded.create_table(picks).insert_many(_pick_rows())
    single = Database("hr")
    single.create_table(people).insert_many(_people_rows())
    single.create_table(picks).insert_many(_pick_rows())
    return sharded, single


def _rows(result):
    return sorted(tuple(sorted(row.items())) for row in result.rows)


def _agree(pair, sql, parameters=None):
    sharded, single = pair
    got = sharded.execute(sql, parameters)
    assert _rows(got) == _rows(single.execute(sql, parameters))
    return sharded.last_execute_stats


class TestShardedSubqueries:
    def test_scalar_subquery_sees_the_whole_table(self, pair):
        stats = _agree(
            pair,
            "SELECT id FROM people WHERE age > (SELECT MAX(age) FROM people) - 5",
        )
        assert stats["path"] == "gather"
        assert stats["shards_scanned"] == 4

    def test_subquery_over_another_table_is_copied(self, pair):
        _agree(pair, "SELECT COUNT(*) AS n FROM people WHERE id IN (SELECT k FROM t)")
        _agree(pair, "SELECT id FROM people WHERE id NOT IN (SELECT k FROM t)")

    def test_pruned_single_shard_statement_with_subquery(self, pair):
        sharded, _ = pair
        # A person on another shard than the subquery's only matching row.
        far = sharded.table("t").shard_for_value(99)
        person = next(
            i for i in range(40) if sharded.table("people").shard_for_value(i) != far
        )
        stats = _agree(
            pair,
            "SELECT id, age FROM people WHERE id = :id "
            "AND EXISTS (SELECT k FROM t WHERE k = 99)",
            {"id": person},
        )
        assert stats["shards_scanned"] == 1
        assert stats["path"] == "gather"
        _agree(
            pair,
            "SELECT COUNT(*) AS n FROM people WHERE id = :id "
            "AND age > (SELECT AVG(age) FROM people)",
            {"id": 39},
        )

    def test_nested_and_exists_subqueries(self, pair):
        _agree(
            pair,
            "SELECT id FROM people WHERE city = 'Denver' AND id IN "
            "(SELECT k FROM t WHERE k IN (SELECT id FROM people WHERE age > 40))",
        )
        _agree(
            pair,
            "SELECT id FROM people WHERE city = 'Boston' "
            "AND NOT EXISTS (SELECT k FROM t WHERE k > 50)",
        )

    def test_self_join_sees_every_shard_of_the_joined_binding(self, pair):
        # The FROM binding prunes to one shard; the joined binding of the
        # same table is not pruned, so it must see the whole table.
        _agree(
            pair,
            "SELECT a.id AS a_id, b.id AS b_id FROM people a "
            "JOIN people b ON b.age > a.age WHERE a.id = 35",
        )

    def test_statements_without_subqueries_keep_their_path(self, pair):
        stats = _agree(pair, "SELECT id FROM people WHERE city = 'Reno' OR age > 50")
        assert stats["path"] == "pushdown"
        assert stats["shards_scanned"] == 4
        stats = _agree(
            pair,
            "SELECT city, COUNT(*) AS n FROM people WHERE id = 7 GROUP BY city",
        )
        assert stats["path"] == "pushdown"
        assert stats["shards_scanned"] == 1
