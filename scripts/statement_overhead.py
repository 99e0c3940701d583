#!/usr/bin/env python
"""What a Cypher statement costs over the same work through the raw API.

Loads the benchmark suite's social graph (``benchmarks/suite/dataset.py``,
2 000 persons by default) into an in-memory database, pins the process to one
CPU, and times five of the suite's templates as whole transactions — begin,
the statement, commit — through ``tx.execute`` with the template's text and
through the transaction API calls that do the same reads and writes
(``find_nodes`` / ``expand_many`` / ``set_node_property`` /
``create_relationship``; ``friends_of_friends`` is two ``expand_many``
levels with a visited set and a name set).  The three read templates get a
third arm, the engine floor: the same reads through the state-returning
batch reads (``find_node_states`` / ``expand_states_many``), with no handle
and no Cypher.  All arms must return equal rows before any is timed.
Writes run through ``db.run_transaction`` like the suite's writers.  The
arms alternate round by round; each round runs ``--ops`` transactions per
arm and records the mean per transaction, and the table shows the median
over ``--rounds`` rounds, the statement/raw and statement/floor ratios and
the statement's overhead over the raw API.  The first ratio is the
"statement ≤ 2× raw" number of the fixed statement cost; neither is a gate.
Usage::

    python3 scripts/statement_overhead.py [--rounds 40] [--ops 100]
"""

from __future__ import annotations

import argparse
import gc
import os
import random
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks", "suite")]

import dataset  # noqa: E402
from repro import Direction, GraphDatabase  # noqa: E402

TEMPLATES = ("point_lookup", "friends", "friends_of_friends", "bump_score", "befriend")


def _person(tx, name):
    return tx.find_nodes(label="Person", key="name", value=name)[0]


def raw_point_lookup(tx, name, _other):
    person = _person(tx, name)
    return [[person["name"], person["age"]]]


def raw_friends(tx, name, _other):
    pairs = tx.expand_many([_person(tx, name)], Direction.BOTH, ["KNOWS"])[0]
    return sorted(
        [friend["name"]] for _rel, friend in pairs if "Person" in friend.labels
    )


def raw_friends_of_friends(tx, name, _other):
    root = _person(tx, name)
    visited = {root.id}
    names = {}
    level = [root]
    for _depth in range(2):
        reached = []
        for pairs in tx.expand_many(level, Direction.BOTH, ["KNOWS"]):
            for _rel, friend in reversed(pairs):
                if friend.id in visited:
                    continue
                visited.add(friend.id)
                reached.append(friend)
                if friend.has_label("Person"):
                    names[friend["name"]] = None
        level = reached
    return [[friend] for friend in names]


def raw_bump_score(tx, name, _other):
    person = _person(tx, name)
    tx.set_node_property(person, "score", person["score"] + 1)


def raw_befriend(tx, left, right):
    tx.create_relationship(_person(tx, left), _person(tx, right), "KNOWS", {"since": 2016})


RAW = {
    "point_lookup": raw_point_lookup,
    "friends": raw_friends,
    "friends_of_friends": raw_friends_of_friends,
    "bump_score": raw_bump_score,
    "befriend": raw_befriend,
}


def _person_state(tx, name):
    return tx.find_node_states(label="Person", key="name", value=name)[0]


def floor_point_lookup(tx, name, _other):
    person = _person_state(tx, name).properties
    return [[person["name"], person["age"]]]


def floor_friends(tx, name, _other):
    pairs = tx.expand_states_many(
        [_person_state(tx, name).node_id], Direction.BOTH, ["KNOWS"]
    )[0]
    return sorted(
        [friend.properties["name"]] for _rel, friend in pairs if "Person" in friend.labels
    )


def floor_friends_of_friends(tx, name, _other):
    root = _person_state(tx, name).node_id
    visited = {root}
    names = {}
    level = [root]
    for _depth in range(2):
        reached = []
        for pairs in tx.expand_states_many(level, Direction.BOTH, ["KNOWS"]):
            for _rel, friend in reversed(pairs):
                if friend.node_id in visited:
                    continue
                visited.add(friend.node_id)
                reached.append(friend.node_id)
                if "Person" in friend.labels:
                    names[friend.properties["name"]] = None
        level = reached
    return [[friend] for friend in names]


FLOOR = {
    "point_lookup": floor_point_lookup,
    "friends": floor_friends,
    "friends_of_friends": floor_friends_of_friends,
}


def statement(text, names):
    def run(tx, first, second):
        return [record.values() for record in tx.execute(text, dict(zip(names, (first, second))))]

    return run


def one_round(db, template, body, keys) -> float:
    """Mean microseconds per transaction over ``keys``."""
    writes = dataset.TEMPLATES[template][1]
    started = perf_counter()
    for first, second in keys:
        if writes:
            def work(tx, first=first, second=second):
                body(tx, first, second)
                tx.commit()

            db.run_transaction(work)
        else:
            tx = db.begin(read_only=True)
            body(tx, first, second)
            tx.commit()
    return (perf_counter() - started) / len(keys) * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--persons", type=int, default=2000)
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--ops", type=int, default=100)
    parser.add_argument("--seed", type=int, default=41)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    graph = dataset.generate(args.seed, args.persons)
    db = GraphDatabase.in_memory()
    dataset.load(db, graph)
    gc.collect()
    gc.freeze()
    rng = random.Random(args.seed)
    names = [person[0] for person in graph.persons]
    # Every arm must return the same rows before any is timed (the
    # breadth-first walks find friends of friends in another order).
    for template in FLOOR:
        text = dataset.TEMPLATES[template][0]
        for name in names[:50]:
            with db.transaction(read_only=True) as tx:
                rows = statement(text, ["name"])(tx, name, None)
                raw = RAW[template](tx, name, None)
                floor = FLOOR[template](tx, name, None)
            if template == "friends_of_friends":
                rows, raw, floor = sorted(rows), sorted(raw), sorted(floor)
            assert rows == raw == floor, template
    print(f"{'template':18s} {'tx.execute us':>14s} {'raw API us':>11s} "
          f"{'floor us':>9s} {'stmt/raw':>9s} {'stmt/floor':>11s} {'overhead us':>12s}")
    for template in TEMPLATES:
        text = dataset.TEMPLATES[template][0]
        params = ["left", "right"] if template == "befriend" else ["name"]
        arms = {"statement": statement(text, params), "raw": RAW[template]}
        if template in FLOOR:
            arms["floor"] = FLOOR[template]
        means = {arm: [] for arm in arms}
        for round_ in range(args.rounds):
            keys = [tuple(rng.sample(names, 2)) for _ in range(args.ops)]
            order = list(arms) if round_ % 2 == 0 else list(reversed(list(arms)))
            for arm in order:
                means[arm].append(one_round(db, template, arms[arm], keys))
        cypher = statistics.median(means["statement"])
        raw = statistics.median(means["raw"])
        if "floor" in means:
            floor = statistics.median(means["floor"])
            floor_cells = f"{floor:9.1f} {cypher / raw:9.2f} {cypher / floor:11.2f}"
        else:
            floor_cells = f"{'-':>9s} {cypher / raw:9.2f} {'-':>11s}"
        print(f"{template:18s} {cypher:14.1f} {raw:11.1f} {floor_cells} "
              f"{cypher - raw:12.1f}", flush=True)
    db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
