"""Version chains, tombstones and garbage collection, observed from the outside.

This example walks through the memory-management story of Section 4 of the
paper:

* updates create versions that live in the object cache, while the persistent
  store only ever holds the newest committed version;
* a long-running reader pins the watermark, so history (and tombstones of
  deleted entities) is retained for exactly as long as it might be read;
* the threaded-list garbage collector reclaims precisely the dead versions:
  a pass examines only the versions it collects.  Experiment E5
  (``benchmarks/bench_e5_gc.py``) compares that with a PostgreSQL-style
  vacuum, which re-scans the whole database to find the same garbage.

Run with::

    python examples/version_housekeeping.py
"""

import random

from repro import GraphDatabase, IsolationLevel

PEOPLE = 150
UPDATES = 300
HOT = 10


def describe(db, moment: str) -> None:
    engine = db.engine
    print(f"{moment}:")
    print(f"  versions retained in the object cache : {engine.versions.total_versions()}")
    print(f"  chains with history (>1 version)      : {engine.versions.multi_version_chains()}")
    print(f"  versions waiting on the GC list       : {engine.gc.pending_versions()}")
    print(f"  persistent nodes in the store          : {db.store.node_count()}")


def build_people(db: GraphDatabase) -> list:
    """``PEOPLE`` Person nodes joined by random KNOWS edges; returns their ids."""
    rng = random.Random(5)
    with db.transaction() as tx:
        people = [
            tx.create_node(["Person"], {"name": f"person-{i}", "score": 0}).id
            for i in range(PEOPLE)
        ]
        for _ in range(PEOPLE * 3 // 2):
            left, right = rng.sample(people, 2)
            tx.create_relationship(left, right, "KNOWS")
    return people


def main() -> None:
    db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
    people = build_people(db)
    hot = people[:HOT]

    describe(db, "After loading the graph")

    # A long-running analytical reader opens its snapshot now.
    long_reader = db.begin(read_only=True)
    baseline_score = long_reader.get_node(hot[0]).get("score", 0)

    # Update a hot set of nodes many times, and delete a few people.
    for index in range(UPDATES):
        with db.transaction() as tx:
            node_id = hot[index % HOT]
            tx.set_node_property(node_id, "score", index)
    victims = people[-5:]
    for victim in victims:
        with db.transaction() as tx:
            tx.delete_node(victim, detach=True)

    describe(db, f"\nAfter {UPDATES} updates and {len(victims)} deletes (reader still open)")

    stats = db.run_gc()
    print(f"\nGC while the reader pins the watermark: collected {stats.versions_collected} "
          f"versions (everything is still readable by the open snapshot)")
    print(f"  the long reader still sees score={long_reader.get_node(hot[0]).get('score', 0)} "
          f"(it started at {baseline_score}) and still sees the deleted people: "
          f"{sum(1 for victim in victims if long_reader.try_get_node(victim) is not None)} of {len(victims)}")

    long_reader.rollback()
    stats = db.run_gc()
    print(f"\nGC after the reader finished: examined {stats.versions_examined} versions "
          f"to collect {stats.versions_collected}, "
          f"purged {stats.entities_purged} deleted entities, "
          f"in {stats.duration_seconds * 1000:.2f} ms")
    describe(db, "\nAfter garbage collection")
    db.close()


if __name__ == "__main__":
    main()
