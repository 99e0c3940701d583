"""Anomaly checkers and probes.

Each ``check_*`` function runs entirely inside one transaction and reports
whether the transaction observed the anomaly.  Run under read committed they
reproduce the problems the paper's introduction describes; run under snapshot
isolation they must never fire.  The two probes script lost update and write
skew; snapshot isolation permits write skew, as the paper points out.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, Sequence, Set

from repro.api.transaction import Transaction
from repro.graph.properties import PropertyValue


def check_unrepeatable_read(
    tx: Transaction,
    node_id: int,
    property_key: str,
    *,
    delay_seconds: float = 0.0,
    pause: Optional[Callable[[], None]] = None,
) -> bool:
    """Read the same property twice in one transaction; True if the value changed.

    ``pause`` (or ``delay_seconds``) gives concurrent writers a window between
    the two reads — the paper's unrepeatable-read scenario.
    """
    first = tx.try_get_node(node_id)
    first_value = first.get(property_key) if first is not None else None
    if pause is not None:
        pause()
    elif delay_seconds > 0:
        time.sleep(delay_seconds)
    second = tx.try_get_node(node_id)
    second_value = second.get(property_key) if second is not None else None
    exists_changed = (first is None) != (second is None)
    return exists_changed or first_value != second_value


def check_phantom_read(
    tx: Transaction,
    *,
    label: Optional[str] = None,
    key: Optional[str] = None,
    value: Optional[PropertyValue] = None,
    delay_seconds: float = 0.0,
    pause: Optional[Callable[[], None]] = None,
) -> bool:
    """Run the same predicate scan twice in one transaction; True if the result set changed."""
    first: Set[int] = {node.id for node in tx.find_nodes(label=label, key=key, value=value)}
    if pause is not None:
        pause()
    elif delay_seconds > 0:
        time.sleep(delay_seconds)
    second: Set[int] = {node.id for node in tx.find_nodes(label=label, key=key, value=value)}
    return first != second


def check_traversal_consistency(
    tx: Transaction,
    start_node_id: int,
    *,
    rel_types: Optional[Sequence[str]] = None,
    pause: Optional[Callable[[], None]] = None,
) -> bool:
    """Two-step traversal consistency (the paper's motivating example).

    Step one collects the neighbours of ``start_node_id``; step two revisits
    each of them.  Returns True if a neighbour observed in step one has
    disappeared by step two — which read committed allows and snapshot
    isolation must prevent.
    """
    neighbours = [node.id for node in tx.neighbours(start_node_id, rel_types=rel_types)]
    if pause is not None:
        pause()
    for neighbour_id in neighbours:
        if tx.try_get_node(neighbour_id) is None:
            return True
    return False


class LostUpdateProbe:
    """Detects lost updates across a set of concurrent increment transactions.

    Every worker increments the same counter property by one in its own
    transaction (read-modify-write).  After the run, the counter should equal
    the number of successful commits; any shortfall is the number of updates
    that were silently overwritten.
    """

    def __init__(self, node_id: int, property_key: str = "counter") -> None:
        self.node_id = node_id
        self.property_key = property_key
        self._lock = threading.Lock()
        self.successful_increments = 0

    def increment(self, tx: Transaction, *, pause: Optional[Callable[[], None]] = None) -> None:
        """Perform one read-modify-write increment inside ``tx``."""
        node = tx.get_node(self.node_id)
        current = int(node.get(self.property_key, 0))
        if pause is not None:
            pause()
        tx.set_node_property(self.node_id, self.property_key, current + 1)

    def record_success(self) -> None:
        """Record that one increment transaction committed."""
        with self._lock:
            self.successful_increments += 1

    def lost_updates(self, tx: Transaction) -> int:
        """Number of committed increments that are missing from the counter."""
        node = tx.get_node(self.node_id)
        final_value = int(node.get(self.property_key, 0))
        return max(0, self.successful_increments - final_value)


class WriteSkewProbe:
    """The classic write-skew scenario over two account nodes.

    The application constraint is ``balance(a) + balance(b) >= 0``.  Each
    transaction reads both balances and, if the combined balance allows it,
    withdraws from one of the two accounts.  Snapshot isolation permits two
    concurrent withdrawals that together violate the constraint — the one
    anomaly the paper acknowledges SI does not prevent.
    """

    def __init__(self, account_a: int, account_b: int, withdraw_amount: int = 80) -> None:
        self.account_a = account_a
        self.account_b = account_b
        self.withdraw_amount = withdraw_amount

    def withdraw(self, tx: Transaction, from_account: int, *, pause: Optional[Callable[[], None]] = None) -> bool:
        """Withdraw if the combined balance allows it; True if a withdrawal happened."""
        balance_a = int(tx.get_node(self.account_a).get("balance", 0))
        balance_b = int(tx.get_node(self.account_b).get("balance", 0))
        if pause is not None:
            pause()
        if balance_a + balance_b >= self.withdraw_amount:
            current = balance_a if from_account == self.account_a else balance_b
            tx.set_node_property(from_account, "balance", current - self.withdraw_amount)
            return True
        return False

    def constraint_violated(self, tx: Transaction) -> bool:
        """Whether the combined balance has gone negative."""
        balance_a = int(tx.get_node(self.account_a).get("balance", 0))
        balance_b = int(tx.get_node(self.account_b).get("balance", 0))
        return balance_a + balance_b < 0
