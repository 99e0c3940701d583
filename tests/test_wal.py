"""Unit tests for the write-ahead log."""

import os

from repro.graph.wal import WriteAheadLog


class TestWriteAheadLogInMemory:
    def test_append_and_replay(self):
        wal = WriteAheadLog(None)
        wal.append_commit(1, [{"op": "write_node", "node_id": 1}])
        wal.append_commit(2, [{"op": "write_node", "node_id": 2}, {"op": "delete_node", "node_id": 1}])
        batches = list(wal.replay())
        assert len(batches) == 2
        assert batches[0] == [{"op": "write_node", "node_id": 1}]
        assert len(batches[1]) == 2

    def test_checkpoint_clears_log(self):
        wal = WriteAheadLog(None)
        wal.append_commit(1, [{"op": "write_node", "node_id": 1}])
        wal.checkpoint()
        assert list(wal.replay()) == []
        assert wal.size_bytes() == 0

    def test_entry_count(self):
        wal = WriteAheadLog(None)
        wal.append_commit(1, [{"op": "a"}, {"op": "b"}])
        # BEGIN + 2 operations + COMMIT
        assert wal.entry_count() == 4

    def test_empty_batch_replay(self):
        wal = WriteAheadLog(None)
        wal.append_commit(5, [])
        assert list(wal.replay()) == [[]]


class TestWriteAheadLogOnDisk:
    def test_persists_across_instances(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_commit(1, [{"op": "write_node", "node_id": 7}])
        wal.close()

        reopened = WriteAheadLog(path)
        batches = list(reopened.replay())
        assert batches == [[{"op": "write_node", "node_id": 7}]]
        reopened.close()

    def test_torn_tail_is_ignored(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_commit(1, [{"op": "write_node", "node_id": 1}])
        wal.append_commit(2, [{"op": "write_node", "node_id": 2}])
        wal.close()

        # Truncate mid-way through the second batch to simulate a crash while
        # appending.
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 7)

        reopened = WriteAheadLog(path)
        batches = list(reopened.replay())
        assert batches == [[{"op": "write_node", "node_id": 1}]]
        reopened.close()

    def test_corrupted_entry_stops_replay(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_commit(1, [{"op": "first"}])
        first_size = wal.size_bytes()
        wal.append_commit(2, [{"op": "second"}])
        wal.close()

        # Flip a byte inside the second batch.
        with open(path, "r+b") as handle:
            handle.seek(first_size + 3)
            handle.write(b"\xff")

        reopened = WriteAheadLog(path)
        batches = list(reopened.replay())
        assert batches == [[{"op": "first"}]]
        reopened.close()

    def test_batch_without_commit_not_replayed(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_commit(1, [{"op": "keep"}])
        wal.close()
        # Append a BEGIN+OPERATION with no COMMIT by crafting a partial batch:
        # easiest is appending a full batch and chopping off the commit frame.
        wal2 = WriteAheadLog(path)
        before = wal2.size_bytes()
        wal2.append_commit(2, [{"op": "drop"}])
        wal2.close()
        after = os.path.getsize(path)
        with open(path, "r+b") as handle:
            # The COMMIT frame is the last 18 bytes (header + crc, no payload).
            handle.truncate(after - 18)
        reopened = WriteAheadLog(path)
        assert list(reopened.replay()) == [[{"op": "keep"}]]
        reopened.close()
        assert before > 0


class TestInMemoryStoreLog:
    """An in-memory store drops its log bytes once a group is applied.

    Nothing can replay a log that dies with the process, so keeping the
    bytes only grew memory (~200 B per commit, for the life of the store).
    The append counters keep counting what was logged.
    """

    def test_log_stays_below_one_group_while_counters_grow(self):
        from repro import GraphDatabase

        db = GraphDatabase.in_memory()
        try:
            with db.transaction() as tx:
                node_id = tx.create_node(["Counter"], {"value": 0}).id
            appended_before = db.store.wal_stats()["bytes_appended"]
            for value in range(1, 2001):
                last_group = db.store.wal_stats()["bytes_appended"]
                with db.transaction() as tx:
                    tx.set_node_property(node_id, "value", value)
            appended = db.store.wal_stats()["bytes_appended"]
            one_group = appended - last_group
            assert one_group > 0
            assert db.store.wal.size_bytes() < one_group
            assert appended - appended_before >= 200_000
        finally:
            db.close()

    def test_on_disk_store_keeps_its_log_until_checkpoint(self, tmp_path):
        from repro import GraphDatabase

        db = GraphDatabase.open(str(tmp_path / "db"))
        try:
            with db.transaction() as tx:
                tx.create_node(["Counter"], {"value": 0})
            assert db.store.wal.size_bytes() == db.store.wal_stats()["bytes_appended"]
        finally:
            db.close()
