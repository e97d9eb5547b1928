"""Unit tests for the offline history safety checks."""

import pytest

from repro.service.invariants import check_histories, collect_histories
from repro.service.store import DurableReplica, read_history

SITES = (1, 2, 3)


def _entry(operation, version, members, kind="write", digest="d0"):
    return {
        "operation": operation,
        "version": version,
        "partition_set": sorted(members),
        "kind": kind,
        "writes_digest": digest,
    }


class TestCheckHistories:
    def test_identical_histories_are_safe(self):
        history = [_entry(1, 1, SITES), _entry(2, 2, SITES, digest="d1")]
        assert check_histories({1: history, 2: history, 3: history}) == []

    def test_prefix_histories_are_safe(self):
        """A replica that missed the tail is behind, not divergent."""
        history = [_entry(1, 1, SITES), _entry(2, 2, SITES, digest="d1")]
        assert check_histories({1: history, 2: history[:1]}) == []

    def test_divergent_commit_is_flagged(self):
        base = [_entry(1, 1, SITES)]
        violations = check_histories({
            1: base + [_entry(2, 2, SITES, digest="left")],
            2: base + [_entry(2, 2, SITES, digest="right")],
        })
        assert [v["invariant"] for v in violations] == ["divergent-commit"]
        assert violations[0]["site"] == 2

    def test_non_monotone_operation_is_flagged(self):
        violations = check_histories({
            1: [_entry(2, 1, SITES), _entry(1, 1, SITES)],
        })
        assert any(v["invariant"] == "non-monotone-state"
                   for v in violations)

    def test_version_above_operation_is_flagged(self):
        violations = check_histories({1: [_entry(1, 2, SITES)]})
        assert any(v["invariant"] == "non-monotone-state"
                   for v in violations)

    def test_foreign_commit_is_flagged(self):
        violations = check_histories({1: [_entry(1, 1, (2, 3))]})
        assert [v["invariant"] for v in violations] == ["foreign-commit"]


class TestCollectHistories:
    def test_reads_every_site_directory(self, tmp_path):
        for site in (1, 2):
            store = DurableReplica.open(
                tmp_path / f"site-{site}", site, SITES, fsync="never")
            entry = store.make_entry("write", 1, 1, SITES,
                                     writes={"k": "v"}, coordinator=1)
            store.commit(entry)
            store.close()
        histories = collect_histories(tmp_path, SITES)
        assert sorted(histories) == [1, 2]  # site 3 never ran: skipped
        assert check_histories(histories) == []
        assert next(iter(histories[1]))["operation"] == 1

    def test_one_site_at_a_time_with_a_site_missing(self, tmp_path):
        """The mapping the bench sweeps: ``len()``, ``items()`` and a
        lookup per site, each a fresh stream from disk when asked."""
        for site, commits in ((1, 2), (3, 1)):
            store = DurableReplica.open(
                tmp_path / f"site-{site}", site, SITES, fsync="never")
            for n in range(1, commits + 1):
                store.commit(store.make_entry(
                    "write", n, n, SITES, writes={"k": n}, coordinator=1))
            store.close()
        histories = collect_histories(tmp_path, SITES)
        assert len(histories) == 2
        assert 2 not in histories
        with pytest.raises(KeyError):
            histories[2]
        assert {str(site): sum(1 for _ in history)
                for site, history in sorted(histories.items())} \
            == {"1": 2, "3": 1}
        assert list(histories[1]) == list(histories[1])
        assert histories[1] is not histories[1]  # read on access
        assert not isinstance(histories[1], list)  # streamed, not built
        assert check_histories(histories) == []


    def test_a_batched_commit_is_one_body_over_every_key(self, tmp_path):
        """A group COMMIT's ``writes`` holds several keys under one
        ``(o, v)``: the same batch everywhere is safe, and a site that
        applied only part of it under the same number diverged."""
        batch = {"a": 1, "b": 2, "c": None}
        for site, writes in ((1, batch), (2, dict(reversed(batch.items()))),
                             (3, {"a": 1, "b": 2})):
            store = DurableReplica.open(
                tmp_path / f"site-{site}", site, SITES, fsync="never")
            store.commit(store.make_entry("write", 1, 1, SITES,
                                          writes=writes, coordinator=1))
            store.close()
        histories = collect_histories(tmp_path, SITES)
        assert check_histories({site: histories[site] for site in (1, 2)}) \
            == []
        violations = check_histories(collect_histories(tmp_path, SITES))
        assert [v["invariant"] for v in violations] == ["divergent-commit"]
        assert violations[0]["site"] == 3


class TestCompactedClusterSweep:
    """The streamed sweep over what a compacted, crashed cluster leaves:
    site 1 compacted many times, site 2 on a version-1 snapshot, site 3
    with a torn WAL tail, site 4's directory missing."""

    MEMBERS = (1, 2, 3, 4)

    def _cluster(self, root, diverge_at=None):
        counts = {}
        for site in (1, 2, 3):
            store = DurableReplica.open(root / f"site-{site}", site,
                                        self.MEMBERS, fsync="never",
                                        compact_every=4)
            for n in range(1, 19):
                value = "rival" if site == 3 and n == diverge_at else n
                store.commit(store.make_entry(
                    "write", n, n, self.MEMBERS, writes={"k": value},
                    coordinator=1))
                if site == 2 and n == 9:
                    store.snapshots.save({
                        "format": "repro-service-snapshot",
                        "version": 1,
                        "state": store.state.to_dict(),
                        "data": store.data,
                        "history": store.history,
                        "applied_index": store.applied_index,
                    })
                    store.history_path.unlink()
                    store.wal.reset()
                    store.compact_every = 10 ** 9
            counts[site] = len(store.history)
            store.close()
        wal = root / "site-3" / "wal.log"
        wal.write_bytes(wal.read_bytes()[:-7])  # torn mid-append
        return counts

    def test_streams_every_layout(self, tmp_path):
        counts = self._cluster(tmp_path)
        histories = collect_histories(tmp_path, self.MEMBERS)
        assert sorted(histories) == [1, 2, 3]
        assert check_histories(histories) == []
        commits = {site: sum(1 for _ in history)
                   for site, history in histories.items()}
        assert commits == {1: counts[1], 2: counts[2], 3: counts[3] - 1}
        for site in (1, 2, 3):
            reopened = DurableReplica.open(tmp_path / f"site-{site}", site,
                                           self.MEMBERS, fsync="never")
            assert list(read_history(tmp_path / f"site-{site}")) == \
                reopened.history
            reopened.close()

    def test_divergence_before_the_last_compaction_is_caught(
            self, tmp_path):
        self._cluster(tmp_path, diverge_at=2)
        assert (tmp_path / "site-3" / "history.log").stat().st_size > 0
        violations = check_histories(collect_histories(tmp_path,
                                                       self.MEMBERS))
        assert [v["invariant"] for v in violations] == ["divergent-commit"]
        assert "operation 2 " in violations[0]["detail"]
        assert violations[0]["site"] == 3
