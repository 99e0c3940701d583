"""The paper's motivating scenario: a two-step graph algorithm under concurrent deletes.

Section 1 of the paper: under read committed "a path that has been traversed,
might not exist when trying to go through it later in the same transaction
(e.g. due to a two-step graph algorithm)".

This example runs a friends-of-friends computation (step 1: collect friends,
step 2: revisit each friend to collect their friends) while a concurrent
thread keeps deleting people.  Under read committed the second step regularly
finds that a friend observed in step 1 has vanished; under snapshot isolation
the whole algorithm runs against one consistent snapshot and that never
happens.

Run with::

    python examples/two_step_traversal.py
"""

import random
import threading
import time

from repro import GraphDatabase, IsolationLevel
from repro.api.traversal import two_step_neighbourhood

PEOPLE = 120
FRIENDSHIPS = PEOPLE * 5 // 2
ALGORITHM_RUNS = 60


def build_people(db: GraphDatabase) -> list:
    """``PEOPLE`` Person nodes joined by random KNOWS edges; returns their ids."""
    rng = random.Random(99)
    with db.transaction() as tx:
        people = [tx.create_node(["Person"], {"name": f"person-{i}"}).id for i in range(PEOPLE)]
        for _ in range(FRIENDSHIPS):
            left, right = rng.sample(people, 2)
            tx.create_relationship(left, right, "KNOWS")
    return people


def run_scenario(isolation: IsolationLevel) -> dict:
    db = GraphDatabase.in_memory(isolation=isolation)
    people = build_people(db)
    hubs = people[:10]
    stop = threading.Event()
    deleted = []

    def churn() -> None:
        """Keep deleting (detach) random people while the algorithm runs."""
        index = len(people) - 1
        while not stop.is_set() and index > 20:
            victim = people[index]
            index -= 1
            try:
                with db.transaction() as tx:
                    if tx.try_get_node(victim) is not None:
                        tx.delete_node(victim, detach=True)
                        deleted.append(victim)
            except Exception:
                # Write-write conflicts and lock timeouts are expected noise here.
                pass
            time.sleep(0.001)

    churner = threading.Thread(target=churn, daemon=True)
    churner.start()

    broken_traversals = 0
    for run in range(ALGORITHM_RUNS):
        start = hubs[run % len(hubs)]
        with db.transaction(read_only=True) as tx:
            if tx.try_get_node(start) is None:
                continue
            friends = [node.id for node in tx.neighbours(start, rel_types=["KNOWS"])]
            time.sleep(0.002)  # give the churn thread a window between the two steps
            for friend in friends:
                if tx.try_get_node(friend) is None:
                    # The path we just traversed no longer exists in our own view.
                    broken_traversals += 1
                    break

    stop.set()
    churner.join(timeout=5.0)

    # Bonus: the same two-step helper from the traversal framework.
    with db.transaction(read_only=True) as tx:
        remaining_hub = next(h for h in hubs if tx.try_get_node(h) is not None)
        first_hop, second_hop = two_step_neighbourhood(tx, remaining_hub, rel_types=["KNOWS"])
    db.close()
    return {
        "isolation": isolation.value,
        "algorithm_runs": ALGORITHM_RUNS,
        "broken_traversals": broken_traversals,
        "people_deleted_concurrently": len(deleted),
        "example_fof_counts": (len(first_hop), len(second_hop)),
    }


def main() -> None:
    print("Two-step traversal while a concurrent thread deletes nodes\n")
    for isolation in (IsolationLevel.READ_COMMITTED, IsolationLevel.SNAPSHOT):
        result = run_scenario(isolation)
        print(f"{result['isolation']:>15}: "
              f"{result['broken_traversals']} of {result['algorithm_runs']} traversals "
              f"saw a friend disappear mid-algorithm "
              f"({result['people_deleted_concurrently']} people deleted concurrently)")
    print("\nSnapshot isolation runs every multi-step algorithm against one "
          "consistent snapshot, so the second step always finds what the first step saw.")


if __name__ == "__main__":
    main()
