"""The crash contracts of :mod:`repro.durable`, tested exhaustively.

Every byte a crash could stop at, and every bit a disk could flip, is
tried on a small log: the contract must hold at each one, not only at
the handful of points an example-based test happens to pick.
"""

import fcntl
import json
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable import (
    CorruptLineError,
    JsonLinesWriter,
    RecordLog,
    append_records,
    atomic_write,
    encode_record,
    read_json_lines,
    read_records,
    scan_records,
)
from repro.errors import WALCorruptionError

ENTRIES = [
    {"operation": 1, "kind": "write", "writes": {"k": "v"}},
    {"operation": 2, "kind": "write", "writes": {"ké": "☃"}},
    {"operation": 3, "kind": "recover", "data": None},
]


def _ends(entries):
    """Byte offset just past each framed record."""
    ends, total = [], 0
    for entry in entries:
        total += len(encode_record(entry))
        ends.append(total)
    return ends


class TestFramedRecords:
    def test_open_at_every_truncation_point(self, tmp_path):
        data = b"".join(encode_record(entry) for entry in ENTRIES)
        ends = _ends(ENTRIES)
        path = tmp_path / "log"
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            whole = sum(1 for end in ends if end <= cut)
            consumed = ends[whole - 1] if whole else 0
            log = RecordLog(path, fsync="never")
            result = log.open()
            assert result.entries == ENTRIES[:whole], cut
            assert (result.consumed, result.torn_bytes) == \
                (consumed, cut - consumed), cut
            # The torn bytes are gone, so the next append lands on a
            # record boundary and reads back.
            assert path.stat().st_size == consumed
            log.append({"operation": 99})
            log.close()
            assert scan_records(path).entries == \
                ENTRIES[:whole] + [{"operation": 99}], cut

    def test_every_bit_flip_is_caught_or_cuts_a_suffix(self, tmp_path):
        """A flipped bit never yields a record that was not written: the
        reader raises, or (when the damage looks exactly like a torn
        tail) returns a prefix.  A flip in the CRC or payload of any
        record but the last always raises."""
        data = b"".join(encode_record(entry) for entry in ENTRIES)
        ends = _ends(ENTRIES)
        path = tmp_path / "log"
        for index in range(len(data)):
            record = next(n for n, end in enumerate(ends) if index < end)
            header = index - (ends[record - 1] if record else 0) < 4
            for bit in range(8):
                damaged = bytearray(data)
                damaged[index] ^= 1 << bit
                path.write_bytes(bytes(damaged))
                try:
                    entries = scan_records(path).entries
                except WALCorruptionError:
                    continue
                assert entries == ENTRIES[:len(entries)], (index, bit)
                assert header or record == len(ENTRIES) - 1, (index, bit)

    def test_vouched_bytes_must_be_whole(self, tmp_path):
        path = tmp_path / "log"
        size = append_records(path, ENTRIES)
        data = path.read_bytes()
        for cut in range(size):
            path.write_bytes(data[:cut])
            with pytest.raises(WALCorruptionError):
                list(read_records(path, size))
        path.write_bytes(data + b"ignored tail")
        assert list(read_records(path, size)) == ENTRIES

    @settings(max_examples=60, deadline=None)
    @given(entries=st.lists(st.dictionaries(
               st.text(max_size=4), st.integers() | st.text(max_size=6),
               max_size=3), min_size=1, max_size=5),
           data=st.data())
    def test_any_records_any_cut(self, tmp_path_factory, entries, data):
        path = tmp_path_factory.mktemp("log") / "log"
        blob = b"".join(encode_record(entry) for entry in entries)
        cut = data.draw(st.integers(0, len(blob)))
        path.write_bytes(blob[:cut])
        whole = sum(1 for end in _ends(entries) if end <= cut)
        assert scan_records(path).entries == entries[:whole]


LINES = [{"run_id": "a", "n": 1}, {"run_id": "b", "s": "é"},
         {"run_id": "c", "n": [1, 2]}]


class TestJsonLines:
    def test_read_and_repair_at_every_truncation_point(self, tmp_path):
        data = b"".join(json.dumps(line).encode() + b"\n" for line in LINES)
        ends = [data.index(b"\n", 0) + 1]
        while len(ends) < len(LINES):
            ends.append(data.index(b"\n", ends[-1]) + 1)
        path = tmp_path / "index.jsonl"
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            whole = sum(1 for end in ends if end <= cut)
            position = ends[whole - 1] if whole else 0
            with open(path, "rb") as handle:
                assert read_json_lines(handle) == (LINES[:whole], position)
            with JsonLinesWriter(path) as writer:
                assert path.read_bytes() == data[:position], cut
                writer.append({"run_id": "z"})
            with open(path, "rb") as handle:
                records, end = read_json_lines(handle)
            assert records == LINES[:whole] + [{"run_id": "z"}], cut
            assert end == path.stat().st_size

    def test_cursor_resumes_where_the_last_complete_line_ended(
            self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b"')
        with open(path, "rb") as handle:
            first, cursor = read_json_lines(handle)
        path.write_bytes(b'{"a": 1}\n{"b": 2}\n')
        with open(path, "rb") as handle:
            assert read_json_lines(handle, cursor) == \
                ([{"b": 2}], path.stat().st_size)
        assert first == [{"a": 1}]

    def test_complete_corrupt_line_names_its_offset(self, tmp_path):
        path = tmp_path / "index.jsonl"
        path.write_bytes(b'{"a": 1}\nnot json\n{"b": 2}\n')
        with open(path, "rb") as handle:
            with pytest.raises(CorruptLineError) as caught:
                read_json_lines(handle)
        assert caught.value.offset == 9
        assert isinstance(caught.value, json.JSONDecodeError)

    def test_writer_keeps_separators_and_creates_the_file(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with JsonLinesWriter(path, separators=(",", ":")) as writer:
            writer.append({"b": 1, "a": [1, 2]})
        assert path.read_bytes() == b'{"a":[1,2],"b":1}\n'
        writer.append({"late": True})  # closed: a no-op
        assert writer.closed


    def test_a_writer_mid_append_is_never_cut(self, tmp_path):
        """A writer opening while another is mid-line waits for its
        lock, then keeps that line instead of cutting it as torn."""
        path = tmp_path / "index.jsonl"
        opened = []
        with open(path, "ab") as first:
            fcntl.flock(first.fileno(), fcntl.LOCK_EX)
            first.write(b'{"run_id": "a"')
            first.flush()
            thread = threading.Thread(
                target=lambda: opened.append(JsonLinesWriter(path)))
            thread.start()
            thread.join(0.2)
            assert thread.is_alive()
            first.write(b"}\n")
            first.flush()
            fcntl.flock(first.fileno(), fcntl.LOCK_UN)
        thread.join(5)
        with opened[0] as second:
            second.append({"run_id": "b"})
        with open(path, "rb") as handle:
            assert read_json_lines(handle)[0] == \
                [{"run_id": "a"}, {"run_id": "b"}]

    def test_two_open_writers_interleave_whole_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with JsonLinesWriter(path) as one, JsonLinesWriter(path) as two:
            for n in range(3):
                one.append({"n": n})
                two.append({"m": n})
        with open(path, "rb") as handle:
            records, end = read_json_lines(handle)
        assert len(records) == 6 and end == path.stat().st_size


class TestAtomicWrite:
    def test_replaces_whole_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "snapshot.json"
        atomic_write(path, b"old")
        atomic_write(path, b"new")
        assert path.read_bytes() == b"new"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["snapshot.json"]

    def test_crash_before_the_rename_keeps_the_old_bytes(
            self, tmp_path, monkeypatch):
        path = tmp_path / "record.json"
        atomic_write(path, b"old")

        def killed(*args):
            raise OSError("killed before rename")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError):
            atomic_write(path, b"new")
        assert path.read_bytes() == b"old"

    def test_bytes_are_fsynced_before_the_rename(self, tmp_path,
                                                 monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: events.append(
            "fsync") or real_fsync(fd))
        monkeypatch.setattr(os, "replace", lambda *a: events.append(
            "rename") or real_replace(*a))
        atomic_write(tmp_path / "record.json", b"{}")
        assert events == ["fsync", "rename"]
        assert (tmp_path / "record.json").read_bytes() == b"{}"
