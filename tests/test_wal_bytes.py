"""The write-ahead log's bytes are pinned.

Commit operations are encoded straight into the JSON text the log frames,
with the commit timestamp carried beside each operation rather than copied
into its property map.  That encoding must reproduce, byte for byte, what
``json.dumps(payload, separators=(",", ":"), sort_keys=True)`` of the old
per-operation payload dicts wrote: recovery, the crash-image checks and
``wal_bytes_per_commit`` all read these bytes.  The digest below was
produced by commit affb71a (the last one with the payload-dict encoder) from
the fixed sequence in :func:`_run_sequence`.
"""

import hashlib
import os
import shutil

from repro import GraphDatabase

#: sha256 of ``wal.log`` after :func:`_run_sequence`, as written at affb71a.
PINNED_WAL_SHA256 = "bc6b52f84361391cd48529a4ac460fffe08bdc5d483c562422d685a882ed964d"


def _run_sequence(db):
    """Five single-threaded commits touching every operation kind."""
    with db.transaction() as tx:
        ada = tx.create_node(
            ["Person", "Admin"],
            {
                "name": "Adé \"q\"",
                "tags": ("x", "y☃"),
                "score": 1.5,
                "Zone": 7,
                "active": True,
                "bio": "a string longer than the inline slot",
            },
        ).id
        bob = tx.create_node(["Person"], {"name": "Bob", "ratios": (0.25, -2.0)}).id
    with db.transaction() as tx:
        tx.set_node_property(ada, "score", 2.25)
    with db.transaction() as tx:
        knows = tx.create_relationship(ada, bob, "KNOWS", {"since": 2019, "w": 0.5}).id
    with db.transaction() as tx:
        tx.delete_relationship(knows)
    with db.transaction() as tx:
        tx.delete_node(bob)
    return ada, bob, knows


def test_wal_bytes_match_the_payload_dict_encoding(tmp_path):
    live = str(tmp_path / "live")
    db = GraphDatabase.open(live)
    try:
        ada, bob, knows = _run_sequence(db)
        with open(os.path.join(live, "wal.log"), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        crash = str(tmp_path / "crash")
        shutil.copytree(live, crash)
        expected = (
            db.store.read_node(ada),
            db.store.read_node(bob),
            db.store.read_relationship(knows),
        )
    finally:
        db.close()
    assert digest == PINNED_WAL_SHA256
    recovered = GraphDatabase.open(crash)
    try:
        assert recovered.store.stats.batches_replayed == 5
        replayed = (
            recovered.store.read_node(ada),
            recovered.store.read_node(bob),
            recovered.store.read_relationship(knows),
        )
    finally:
        recovered.close()
    assert replayed == expected
    assert expected[0] is not None and expected[1] is None and expected[2] is None
