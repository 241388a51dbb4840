"""Storage reads stop at their answer.

* An unsorted ``find`` with a limit stops each shard's scan at its
  limit-th match; ``last_find_stats["docs_examined"]`` counts the
  documents the filter ran on, ``docs_scanned`` the documents in the
  visited shards.
* A join-free SELECT pruned to one shard runs whole on that shard and
  returns exactly what the gather path (copy the slice, run once) does.
"""

from __future__ import annotations

import random

import pytest

from repro.clock import SimClock
from repro.storage.cluster import ClusteredDocumentStore, ShardedDatabase
from repro.storage.document.query import matches
from repro.storage.relational.sql.parser import parse
from repro.storage.schema import Column, ColumnType, TableSchema

CITIES = ["Oakland", "Austin", "Denver", "Boston", "Seattle", "Reno", "Fresno", "Tulsa"]
TITLES = ["analyst", "engineer", "scientist", "manager", "designer"]


@pytest.fixture
def people():
    rng = random.Random(7)
    store = ClusteredDocumentStore("docs", n_shards=4, n_replicas=3,
                                   clock=SimClock(), seed=3)
    collection = store.create_collection("people", partition_field="city")
    collection.insert_many(
        {
            "city": rng.choice(CITIES),
            "title": rng.choice(TITLES),
            "rank": rng.randint(0, 99),
        }
        for _ in range(400)
    )
    collection.create_index("title")
    return collection


def _expected_examined(collection, spec, limit):
    """Documents each visited shard must examine: up to its limit-th match."""
    total = 0
    for state in collection._cluster.primary_states(
        collection.shards_for_filter(spec)[0]
    ):
        shard = state.collection(collection.name)
        # The shard's candidate order: its "title" index when the filter
        # pins a title, else every document in insertion order.
        candidates = shard.find({"title": spec["title"]} if "title" in spec else None)
        hits = 0
        for document in candidates:
            if hits == limit:
                break
            total += 1
            if matches(document, spec):
                hits += 1
    return total


class TestLimitedFind:
    @pytest.mark.parametrize("limit", [0, 1, 3, 20, 500])
    @pytest.mark.parametrize(
        "spec",
        [
            {"rank": {"$gte": 60}},
            {"rank": {"$lt": 5}},
            {"city": "Austin", "rank": {"$gte": 30}},
            {"title": "engineer", "rank": {"$gte": 50}},
            {"city": {"$in": ["Reno", "Tulsa"]}},
        ],
    )
    def test_examines_exactly_up_to_the_limit_th_match(self, people, spec, limit):
        limited = people.find(spec, limit=limit)
        stats = dict(people.last_find_stats)
        unlimited = people.find(spec)
        assert limited == unlimited[:limit]
        assert stats["docs_examined"] == _expected_examined(people, spec, limit)
        # docs_scanned keeps its meaning: documents in the visited shards.
        assert stats["docs_scanned"] == people.last_find_stats["docs_scanned"]

    def test_small_limit_examines_far_fewer_than_it_scans(self, people):
        people.find({"rank": {"$gte": 0}}, limit=2)
        stats = people.last_find_stats
        assert stats["docs_examined"] == 2 * stats["shards_scanned"]
        assert stats["docs_scanned"] == 400

    def test_sorted_find_examines_every_candidate(self, people):
        people.find({"rank": {"$gte": 60}}, sort="rank", limit=3)
        assert people.last_find_stats["docs_examined"] == 400
        people.find({"title": "engineer"}, sort="rank", limit=3)
        engineers = len(people.find({"title": "engineer"}))
        assert people.last_find_stats["docs_examined"] == engineers

    def test_projection_applies_after_the_early_stop(self, people):
        rows = people.find({"rank": {"$gte": 10}}, fields=["rank"], limit=4)
        assert len(rows) == 4 and all(set(row) == {"rank"} for row in rows)


@pytest.fixture
def db():
    rng = random.Random(11)
    database = ShardedDatabase("hr", n_shards=4, n_replicas=3,
                               clock=SimClock(), seed=5)
    table = database.create_table(
        TableSchema(
            "people",
            [
                Column("id", ColumnType.INT, primary_key=True),
                Column("city", ColumnType.TEXT),
                Column("title", ColumnType.TEXT),
                Column("age", ColumnType.INT),
            ],
        ),
        partition_column="city",
    )
    table.create_index("title")
    table.insert_many(
        {
            "id": i,
            "city": rng.choice(CITIES),
            "title": rng.choice(TITLES),
            "age": rng.choice([None] + list(range(20, 40))),
        }
        for i in range(300)
    )
    return database


SINGLE_SHARD = [
    "SELECT title, COUNT(*) AS n FROM people WHERE city = :city "
    "GROUP BY title ORDER BY n DESC LIMIT 3",
    "SELECT COUNT(*) AS n, COUNT(age) AS aged, AVG(age) AS mean, "
    "MIN(age) AS lo, MAX(age) AS hi FROM people WHERE city = :city",
    "SELECT DISTINCT age FROM people WHERE city = :city ORDER BY age LIMIT 5 OFFSET 2",
    "SELECT age, COUNT(*) AS n FROM people WHERE city = :city AND title <> 'analyst' "
    "GROUP BY age HAVING COUNT(*) > 1",
    "SELECT id, title FROM people WHERE city = :city AND title = 'engineer' "
    "ORDER BY LENGTH(title), id DESC",
]


class TestSingleShardPushdown:
    @pytest.mark.parametrize("sql", SINGLE_SHARD)
    @pytest.mark.parametrize("city", CITIES)
    def test_matches_the_gather_path(self, db, sql, city):
        parameters = {"city": city}
        pushed = db.execute(sql, parameters)
        stats = db.last_execute_stats
        assert stats["path"] == "pushdown"
        assert stats["shards_scanned"] == 1
        shards = [db.table("people").shard_for_value(city)]
        gathered = db._gather_select(parse(sql), sql, parameters, shards)
        assert pushed.rows == gathered.rows
        assert pushed.columns == gathered.columns

    def test_multi_shard_aggregate_still_gathers(self, db):
        result = db.execute(
            "SELECT city, COUNT(*) AS n FROM people "
            "WHERE city IN ('Austin', 'Boston', 'Reno', 'Tulsa') GROUP BY city"
        )
        assert db.last_execute_stats["shards_scanned"] > 1
        assert db.last_execute_stats["path"] == "gather"
        everyone = db.execute("SELECT city FROM people").rows
        assert {row["city"]: row["n"] for row in result.rows} == {
            city: sum(row["city"] == city for row in everyone)
            for city in ("Austin", "Boston", "Reno", "Tulsa")
        }

    def test_single_shard_join_still_gathers(self, db):
        db.execute(
            "SELECT p.id FROM people p JOIN people q ON q.id = p.id WHERE p.city = 'Reno'"
        )
        assert db.last_execute_stats["shards_scanned"] == 1
        assert db.last_execute_stats["path"] == "gather"

    def test_aggregate_inside_case_is_not_pushed_across_shards(self, db):
        result = db.execute(
            "SELECT CASE WHEN COUNT(*) > 0 THEN COUNT(*) ELSE 0 END AS n FROM people"
        )
        assert db.last_execute_stats["path"] == "gather"
        assert result.rows == [{"n": 300}]
