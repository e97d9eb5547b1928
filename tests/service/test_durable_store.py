"""Crash-recovery tests for the durable replica state machine.

The contract under test: an acked commit is on disk before the ack, so
a SIGKILL at *any* point — including between the WAL append and the
rest of the commit broadcast — leaves a directory whose recovery is
byte-identical to a clean replay of the same commits.
"""

import pytest

from repro.errors import ConfigurationError, ProtocolError, WALCorruptionError
from repro.service.store import DurableReplica, commit_body, writes_digest

SITES = (1, 2, 3)
_OPENED = []


@pytest.fixture(autouse=True)
def _close_opened_stores():
    """Close every store a test opened through :func:`_open`."""
    yield
    while _OPENED:
        _OPENED.pop().close()


def _open(directory, site=1, **kwargs):
    kwargs.setdefault("fsync", "never")
    store = DurableReplica.open(directory, site, SITES, **kwargs)
    _OPENED.append(store)
    return store


def _write_entry(store, operation, value):
    return store.make_entry(
        "write", operation, operation, SITES,
        writes={"k": value}, coordinator=store.site_id,
    )


def _clean_replay(directory, entries, site=1):
    """A fresh store that applied *entries* with no crash anywhere."""
    store = _open(directory, site)
    for entry in entries:
        store.commit(entry)
    return store


class TestDigests:
    def test_writes_digest_is_stable_and_order_free(self):
        assert writes_digest({"a": 1, "b": 2}) == writes_digest({"b": 2, "a": 1})
        assert writes_digest(None) is None
        assert writes_digest({"a": 1}) != writes_digest({"a": 2})

    def test_commit_body_compares_the_protocol_fields(self):
        store = DurableReplica("unused", 1, SITES)
        entry = _write_entry(store, 1, "v1")
        entry["writes_digest"] = writes_digest(entry["writes"])
        same = dict(entry, coordinator=3)  # coordinator is not body
        assert commit_body(entry) == commit_body(same)
        other = dict(entry, version=2)
        assert commit_body(entry) != commit_body(other)


class TestBasicDurability:
    def test_commit_then_reopen(self, tmp_path):
        store = _open(tmp_path / "s1")
        store.commit(_write_entry(store, 1, "v1"))
        store.commit(_write_entry(store, 2, "v2"))
        store.close()
        recovered = _open(tmp_path / "s1")
        assert recovered.state.operation == 2
        assert recovered.data == {"k": "v2"}
        assert len(recovered.history) == 2
        assert recovered.torn_tail_bytes == 0

    def test_accepts_is_strictly_monotone(self, tmp_path):
        store = _open(tmp_path / "s1")
        store.commit(_write_entry(store, 3, "v"))
        assert store.accepts(4)
        assert not store.accepts(3)
        assert not store.accepts(2)

    def test_site_must_hold_a_copy(self, tmp_path):
        with pytest.raises(ConfigurationError):
            DurableReplica(tmp_path, 9, SITES)


class TestCrashMidCommit:
    def test_durable_but_unacked_commit_survives_the_kill(self, tmp_path):
        """SIGKILL lands after the WAL append but before the ack: the
        entry is on disk, so recovery must apply it."""
        store = _open(tmp_path / "crash")
        first = _write_entry(store, 1, "v1")
        store.commit(first)
        tail = _write_entry(store, 2, "v2")
        store.wal.append(tail)  # ...and the process dies right here
        store.close()

        recovered = _open(tmp_path / "crash")
        assert recovered.state.operation == 2
        assert recovered.data == {"k": "v2"}
        clean = _clean_replay(tmp_path / "clean", [first, tail])
        assert recovered.canonical_document() == clean.canonical_document()
        assert recovered.digest() == clean.digest()

    def test_recovery_passes_its_own_verification(self, tmp_path):
        store = _open(tmp_path / "crash")
        store.commit(_write_entry(store, 1, "v1"))
        store.wal.append(_write_entry(store, 2, "v2"))
        store.close()
        recovered = _open(tmp_path / "crash")
        report = recovered.verify_recovery()
        assert report["verified"] is True
        assert report["operation"] == 2
        assert report["digest"] == recovered.digest()

    def test_torn_final_wal_record_rolls_back_to_the_last_ack(self, tmp_path):
        """SIGKILL lands *mid-append*: the torn record was never acked,
        so recovery must equal the clean replay without it."""
        store = _open(tmp_path / "crash")
        first = _write_entry(store, 1, "v1")
        store.commit(first)
        store.commit(_write_entry(store, 2, "v2"))
        store.close()
        wal_path = tmp_path / "crash" / "wal.log"
        wal_path.write_bytes(wal_path.read_bytes()[:-5])

        recovered = _open(tmp_path / "crash")
        assert recovered.torn_tail_bytes > 0
        assert recovered.state.operation == 1
        assert recovered.data == {"k": "v1"}
        clean = _clean_replay(tmp_path / "clean", [first])
        assert recovered.canonical_document() == clean.canonical_document()
        assert recovered.verify_recovery()["verified"] is True


class TestCompaction:
    def test_snapshot_resets_the_wal(self, tmp_path):
        store = _open(tmp_path / "s1", compact_every=2)
        store.commit(_write_entry(store, 1, "v1"))
        store.commit(_write_entry(store, 2, "v2"))  # triggers compaction
        assert store.snapshots.path.exists()
        assert store.wal.path.stat().st_size == 0
        store.close()

    def test_recovery_from_snapshot_plus_tail(self, tmp_path):
        entries = [_write_entry(DurableReplica("u", 1, SITES), k, f"v{k}")
                   for k in range(1, 6)]
        store = _open(tmp_path / "s1", compact_every=3)
        for entry in entries:
            store.commit(entry)
        store.close()
        recovered = _open(tmp_path / "s1", compact_every=3)
        clean = _clean_replay(tmp_path / "clean", entries)
        assert recovered.canonical_document() == clean.canonical_document()

    def test_monotonicity_is_enforced_on_apply(self, tmp_path):
        store = _open(tmp_path / "s1")
        store.commit(_write_entry(store, 2, "v2"))
        with pytest.raises(ProtocolError):
            store.commit(_write_entry(store, 1, "v1"))

    @pytest.mark.parametrize("entry", [
        {"operation": 5},
        {"operation": 5, "version": 0, "partition_set": [1, 2, 3],
         "kind": "write"},
        {"operation": 5, "version": 5, "partition_set": [],
         "kind": "write"},
        {"operation": 5, "version": 5, "partition_set": [1, 2, 3],
         "kind": "write", "writes": "k=v"},
    ], ids=["no-version", "version-backwards", "empty-partition-set",
            "writes-not-a-map"])
    def test_a_refused_commit_never_reaches_the_wal(self, tmp_path, entry):
        store = _open(tmp_path / "s1")
        store.commit(_write_entry(store, 2, "v2"))
        wal = (tmp_path / "s1" / "wal.log").read_bytes()
        before = store.canonical_document()
        with pytest.raises(ProtocolError):
            store.commit(entry)
        assert (tmp_path / "s1" / "wal.log").read_bytes() == wal
        assert store.canonical_document() == before
        store.close()
        assert _open(tmp_path / "s1").canonical_document() == before


class TestInstallRemote:
    def test_adopting_a_peer_replaces_everything_durably(self, tmp_path):
        donor = _open(tmp_path / "donor", site=2)
        donor.commit(_write_entry(donor, 1, "v1"))
        rival = donor.make_entry("write", 2, 2, (2, 3),
                                 writes={"k": "rival"}, coordinator=2)
        donor.commit(rival)

        orphan_holder = _open(tmp_path / "holder", site=1)
        orphan_holder.commit(_write_entry(orphan_holder, 1, "v1"))
        orphan_holder.commit(_write_entry(orphan_holder, 2, "orphan"))
        orphan_holder.install_remote(
            donor.state.to_dict(), donor.data,
            [dict(entry) for entry in donor.history],
        )
        assert orphan_holder.data == {"k": "rival"}
        assert orphan_holder.state.partition_set == frozenset({2, 3})
        assert commit_body(orphan_holder.history[-1]) == commit_body(
            donor.history[-1])
        orphan_holder.close()
        # The orphan is gone from disk too, not just from memory.
        reopened = _open(tmp_path / "holder")
        assert reopened.data == {"k": "rival"}
        assert reopened.applied_index == len(reopened.history)

    def test_malformed_peer_state_is_rejected(self, tmp_path):
        store = _open(tmp_path / "s1")
        with pytest.raises(ConfigurationError):
            store.install_remote({"operation": "nope"}, {}, [])


# ----------------------------------------------------------------------
# Compaction layout: append-only history log + state-only snapshot
# ----------------------------------------------------------------------
class _Crash(Exception):
    """Stands in for a SIGKILL at one step of a multi-step write."""


def _entries(count, start=1):
    maker = DurableReplica("unused", 1, SITES)
    return [_write_entry(maker, k, f"v{k}") for k in range(start, start + count)]


def _same_as(store, reference):
    assert store.canonical_document() == reference.canonical_document()
    assert store.applied_index == reference.applied_index
    assert store.history == reference.history


def _write_v1_snapshot(store):
    """Compact *store* the way the inline-history layout did."""
    store.snapshots.save({
        "format": "repro-service-snapshot",
        "version": 1,
        "state": store.state.to_dict(),
        "data": store.data,
        "history": store.history,
        "applied_index": store.applied_index,
    })
    store.wal.reset()


class TestHistoryLog:
    def test_snapshot_is_state_only_and_history_is_appended(self, tmp_path):
        store = _open(tmp_path / "s1", compact_every=4)
        for entry in _entries(8):
            store.commit(entry)
        snapshot = store.snapshots.load()
        assert snapshot["version"] == 2
        assert "history" not in snapshot
        assert snapshot["history_bytes"] == store.history_path.stat().st_size
        assert store.history_path.name == "history.log"
        store.close()
        reopened = _open(tmp_path / "s1")
        _same_as(reopened, _clean_replay(tmp_path / "clean", _entries(8)))

    @pytest.mark.parametrize("compact_every", [1, 2, 64, 10 ** 9])
    def test_compaction_period_never_changes_the_result(self, tmp_path,
                                                        compact_every):
        entries = _entries(130)
        store = _open(tmp_path / "s1", compact_every=compact_every)
        for entry in entries:
            store.commit(entry)
        clean = _clean_replay(tmp_path / "clean", entries)
        _same_as(store, clean)
        store.close()
        _same_as(_open(tmp_path / "s1", compact_every=compact_every), clean)

    def test_torn_history_bytes_past_the_snapshot_are_dropped(self, tmp_path):
        entries = _entries(6)
        store = _open(tmp_path / "s1", compact_every=4)
        for entry in entries:
            store.commit(entry)
        store.close()
        covered = store.snapshots.load()["history_bytes"]
        with open(store.history_path, "ab") as handle:
            handle.write(b"\x00\x00\x01\x00torn")
        reopened = _open(tmp_path / "s1", compact_every=4)
        assert store.history_path.stat().st_size == covered
        _same_as(reopened, _clean_replay(tmp_path / "clean", entries))

    def test_history_log_shorter_than_the_snapshot_is_corruption(
            self, tmp_path):
        store = _open(tmp_path / "s1", compact_every=2)
        for entry in _entries(4):
            store.commit(entry)
        store.close()
        path = store.history_path
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(WALCorruptionError):
            _open(tmp_path / "s1")

    def test_version_1_snapshot_opens_and_migrates(self, tmp_path):
        entries = _entries(9)
        store = _open(tmp_path / "s1", compact_every=10 ** 9)
        for entry in entries[:5]:
            store.commit(entry)
        _write_v1_snapshot(store)
        for entry in entries[5:7]:
            store.commit(entry)
        store.close()
        clean = _clean_replay(tmp_path / "clean", entries)

        old = _open(tmp_path / "s1", compact_every=2)
        assert old.snapshots.load()["version"] == 1
        assert old.history == clean.history[:7]
        for entry in entries[7:]:
            old.commit(entry)  # the 2nd commit compacts: migration
        assert old.snapshots.load()["version"] == 2
        old.close()
        _same_as(_open(tmp_path / "s1"), clean)


class TestCompactionCrashes:
    """A SIGKILL between any two steps of ``compact()`` recovers to the
    never-compacted store fed the same commits."""

    @pytest.mark.parametrize("step", [
        "history-appended", "snapshot-tmp-written", "snapshot-renamed"])
    def test_kill_inside_compact(self, tmp_path, monkeypatch, step):
        entries = _entries(12)
        store = _open(tmp_path / "s1", compact_every=4)
        for entry in entries[:7]:
            store.commit(entry)  # one clean compaction first, at 4
        save = store.snapshots.save

        def crashing_save(document):
            if step == "snapshot-tmp-written":
                store.snapshots.path.with_suffix(".json.tmp").write_bytes(
                    b'{"format": "repro-serv')
            elif step == "snapshot-renamed":
                save(document)
            raise _Crash(step)

        monkeypatch.setattr(store.snapshots, "save", crashing_save)
        with pytest.raises(_Crash):
            store.commit(entries[7])  # the 8th commit compacts
        store.close()

        recovered = _open(tmp_path / "s1", compact_every=4)
        _same_as(recovered, _clean_replay(tmp_path / "c8", entries[:8]))
        for entry in entries[8:]:
            recovered.commit(entry)
        recovered.close()
        _same_as(_open(tmp_path / "s1"),
                 _clean_replay(tmp_path / "c12", entries))

    def test_kill_before_wal_reset_can_restart(self, tmp_path, monkeypatch):
        """Regression: the snapshot landed but the WAL was not reset, so
        replay re-applied entries the snapshot already holds and failed
        with 'operation number would go backwards'."""
        entries = _entries(5)
        store = _open(tmp_path / "s1", compact_every=10 ** 9)
        for entry in entries:
            store.commit(entry)
        monkeypatch.setattr(store.wal, "reset", lambda: None)
        store.compact()
        store.close()
        assert store.wal.path.stat().st_size > 0
        recovered = _open(tmp_path / "s1")
        _same_as(recovered, _clean_replay(tmp_path / "clean", entries))
        assert recovered.verify_recovery()["verified"] is True


class TestInstallRemoteCrashes:
    """``install_remote`` swaps the history crash-atomically: a kill
    leaves exactly the old replica or exactly the adopted one."""

    @staticmethod
    def _setup(tmp_path):
        donor = _open(tmp_path / "donor", site=2, compact_every=3)
        for entry in _entries(7):
            donor.commit(entry)
        holder = _open(tmp_path / "holder", compact_every=3)
        mine = _entries(4) + [_write_entry(holder, 5, "orphan")]
        for entry in mine:
            holder.commit(entry)
        return donor, holder, mine

    def _adopted(self, tmp_path, donor):
        reference = _open(tmp_path / "reference")
        reference.install_remote(donor.state.to_dict(), donor.data,
                                 donor.history)
        return reference

    @pytest.mark.parametrize("step", [
        "generation-written", "snapshot-renamed", "none"])
    def test_kill_inside_install_remote(self, tmp_path, monkeypatch, step):
        donor, holder, mine = self._setup(tmp_path)
        retired = holder.history_path
        if step != "none":
            save = holder.snapshots.save

            def crashing_save(document):
                if step == "snapshot-renamed":
                    save(document)
                raise _Crash(step)

            monkeypatch.setattr(holder.snapshots, "save", crashing_save)
            with pytest.raises(_Crash):
                holder.install_remote(donor.state.to_dict(), donor.data,
                                      donor.history)
        else:
            holder.install_remote(donor.state.to_dict(), donor.data,
                                  donor.history)
        holder.close()

        recovered = _open(tmp_path / "holder", compact_every=3)
        if step == "generation-written":
            expected = _clean_replay(tmp_path / "clean", mine)
        else:
            expected = self._adopted(tmp_path, donor)
            assert not retired.exists()
        _same_as(recovered, expected)
        logs = sorted(p.name for p in (tmp_path / "holder").glob("history*"))
        assert logs == [recovered.history_path.name]
        # Life goes on: later commits append to the adopted history.
        recovered.commit(_write_entry(recovered, 8, "after"))
        recovered.close()
        assert _open(tmp_path / "holder").state.operation == 8
