"""Unit tests for the offline history safety checks."""

import pytest

from repro.service.invariants import check_histories, collect_histories
from repro.service.store import DurableReplica

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
        assert histories[1][0]["operation"] == 1

    def test_one_site_at_a_time_with_a_site_missing(self, tmp_path):
        """The mapping the bench sweeps: ``len()``, ``items()`` and a
        lookup per site, each replayed from disk when asked."""
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
        assert {str(site): len(history)
                for site, history in sorted(histories.items())} \
            == {"1": 2, "3": 1}
        assert histories[1] == histories[1]
        assert histories[1] is not histories[1]  # read on access
        assert check_histories(histories) == []
