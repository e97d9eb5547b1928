"""Unit tests for the write-ahead log and snapshot store."""

import io
import json
import struct

import pytest

from repro.errors import ConfigurationError, WALCorruptionError
from repro.service.wal import (
    SnapshotStore,
    WriteAheadLog,
    append_records,
    read_records,
)


def _entries(n):
    return [{"operation": k, "value": f"v{k}"} for k in range(1, n + 1)]


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as log:
            for entry in _entries(5):
                log.append(entry)
        replay = WriteAheadLog(tmp_path, fsync="never").open()
        assert replay.entries == _entries(5)
        assert replay.torn_bytes == 0

    def test_empty_log(self, tmp_path):
        replay = WriteAheadLog(tmp_path, fsync="never").open()
        assert replay.entries == []
        assert replay.consumed == 0

    def test_fsync_always_round_trips_too(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="always") as log:
            log.append({"operation": 1})
        replay = WriteAheadLog(tmp_path, fsync="never").open()
        assert replay.entries == [{"operation": 1}]

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_append_requires_open(self, tmp_path):
        with pytest.raises(ConfigurationError):
            WriteAheadLog(tmp_path).append({"operation": 1})


class TestTornTail:
    def test_torn_final_record_is_dropped_and_truncated(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as log:
            for entry in _entries(3):
                log.append(entry)
        path = tmp_path / "wal.log"
        whole = path.read_bytes()
        path.write_bytes(whole[:-4])  # crash mid-append of entry 3

        log = WriteAheadLog(tmp_path, fsync="never")
        replay = log.open()
        assert replay.entries == _entries(2)
        assert replay.torn_bytes > 0
        # The torn bytes are gone from disk and appending resumes.
        log.append({"operation": 99})
        log.close()
        replay = WriteAheadLog(tmp_path, fsync="never").open()
        assert replay.entries == _entries(2) + [{"operation": 99}]

    def test_torn_header_alone_is_dropped(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as log:
            log.append({"operation": 1})
        path = tmp_path / "wal.log"
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        replay = WriteAheadLog(tmp_path, fsync="never").open()
        assert replay.entries == [{"operation": 1}]
        assert replay.torn_bytes == 2


class TestCorruption:
    def test_mid_log_crc_corruption_refuses_recovery(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as log:
            for entry in _entries(3):
                log.append(entry)
        path = tmp_path / "wal.log"
        data = bytearray(path.read_bytes())
        data[10] ^= 0xFF  # flip a payload byte of the *first* record
        path.write_bytes(bytes(data))
        with pytest.raises(WALCorruptionError):
            WriteAheadLog(tmp_path, fsync="never").open()

    def test_absurd_length_prefix_is_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        tmp_path.mkdir(exist_ok=True)
        path.write_bytes(struct.pack(">II", 2 ** 31, 0) + b"x" * 64)
        with pytest.raises(WALCorruptionError):
            WriteAheadLog(tmp_path, fsync="never").open()


class TestReset:
    def test_reset_empties_the_log(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="never")
        log.open()
        log.append({"operation": 1})
        log.reset()
        log.append({"operation": 2})
        log.close()
        replay = WriteAheadLog(tmp_path, fsync="never").open()
        assert replay.entries == [{"operation": 2}]


class TestSnapshots:
    def test_save_then_load(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"state": {"operation": 4}})
        assert store.load() == {"state": {"operation": 4}}

    def test_missing_snapshot_is_none(self, tmp_path):
        assert SnapshotStore(tmp_path).load() is None

    def test_save_replaces_atomically(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"generation": 1})
        store.save({"generation": 2})
        assert store.load() == {"generation": 2}
        assert not store.path.with_suffix(".json.tmp").exists()

    def test_corrupt_snapshot_is_an_error(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"generation": 1})
        store.path.write_text("{ not json")
        with pytest.raises(WALCorruptionError):
            store.load()

    def test_saved_bytes_match_the_streaming_encoder(self, tmp_path):
        """One ``json.dumps`` + binary write lays down exactly what
        ``json.dump`` to a text handle did."""
        document = {"state": {"operation": 9, "partition_set": [1, 2]},
                    "data": {"k\u00e9y": "v\u2603", "n": [1.5, None, True]},
                    "history": _entries(50)}
        SnapshotStore(tmp_path).save(document)
        expected = io.StringIO()
        json.dump(document, expected, sort_keys=True, separators=(",", ":"))
        assert SnapshotStore(tmp_path).path.read_bytes() == \
            expected.getvalue().encode("utf-8")


class TestRecordLog:
    def test_append_then_stream(self, tmp_path):
        path = tmp_path / "history.log"
        size = append_records(path, _entries(3))
        assert size == path.stat().st_size
        assert append_records(path, []) == size
        total = append_records(path, _entries(5)[3:])
        assert list(read_records(path, total)) == _entries(5)
        assert list(read_records(path, size)) == _entries(3)

    def test_truncate_replaces_the_contents(self, tmp_path):
        path = tmp_path / "history.log"
        append_records(path, _entries(4))
        size = append_records(path, _entries(1), truncate=True)
        assert list(read_records(path, size)) == _entries(1)

    def test_records_short_of_the_vouched_size_are_corruption(
            self, tmp_path):
        path = tmp_path / "history.log"
        size = append_records(path, _entries(2))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(WALCorruptionError):
            list(read_records(path, size))
        with pytest.raises(WALCorruptionError):
            list(read_records(tmp_path / "missing.log", size))

    def test_wal_and_record_log_share_one_framing(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="never") as log:
            for entry in _entries(3):
                log.append(entry)
        wal = WriteAheadLog(tmp_path)
        assert wal.read().entries == _entries(3)
        assert list(read_records(wal.path, wal.path.stat().st_size)) == \
            _entries(3)
