"""Direct record-store writes through the store's one writer.

:meth:`StoreManager.apply_batch` logs a batch and queues it; the record
files catch up later.  :func:`apply` logs one batch and, by default, catches
the store up at once, so a test can inspect records (``store.nodes.read``,
page images, leak counts) right after it.
"""

from repro.graph.store_manager import StoreManager


def apply(store: StoreManager, *operations, catch_up: bool = True) -> None:
    """Log ``operations`` as one batch; with ``catch_up``, apply the backlog."""
    store.apply_batch(0, list(operations))
    if catch_up:
        store.catch_up()
