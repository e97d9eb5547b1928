"""Unit tests for the ReplicatedFile public API."""

import pytest

from repro.core.lexicographic import LexicographicDynamicVoting
from repro.engine.cluster import Cluster
from repro.engine.file import ReplicatedFile
from repro.errors import (
    ConfigurationError,
    QuorumNotReachedError,
    SiteUnavailableError,
)
from repro.net.topology import single_segment
from repro.replica.state import ReplicaSet


@pytest.fixture
def cluster():
    return Cluster(single_segment(4))


class TestConstruction:
    def test_policy_by_name(self, cluster):
        file = ReplicatedFile(cluster, {1, 2, 3}, policy="MCV")
        assert file.protocol.name == "MCV"
        assert file.copy_sites == frozenset({1, 2, 3})

    def test_policy_instance(self, cluster):
        protocol = LexicographicDynamicVoting(ReplicaSet({1, 2}))
        file = ReplicatedFile(cluster, {1, 2}, policy=protocol)
        assert file.protocol is protocol

    def test_policy_instance_must_match_copies(self, cluster):
        protocol = LexicographicDynamicVoting(ReplicaSet({1, 2}))
        with pytest.raises(ConfigurationError):
            ReplicatedFile(cluster, {1, 2, 3}, policy=protocol)

    def test_copies_must_exist_in_cluster(self, cluster):
        with pytest.raises(ConfigurationError):
            ReplicatedFile(cluster, {1, 99})

    def test_initial_payload(self, cluster):
        file = ReplicatedFile(cluster, {1, 2}, initial="genesis")
        assert file.read(1) == "genesis"


class TestReadWrite:
    def test_write_then_read_roundtrip(self, cluster):
        file = ReplicatedFile(cluster, {1, 2, 3}, policy="LDV")
        file.write(1, "payload")
        assert file.read(3) == "payload"

    def test_read_from_down_site_rejected(self, cluster):
        file = ReplicatedFile(cluster, {1, 2, 3})
        cluster.fail_site(1)
        with pytest.raises(SiteUnavailableError):
            file.read(1)

    def test_write_outside_quorum_denied(self, cluster):
        file = ReplicatedFile(cluster, {1, 2, 3}, policy="MCV")
        cluster.fail_sites([2, 3])
        with pytest.raises(QuorumNotReachedError):
            file.write(1, "nope")

    def test_denied_write_leaves_value_intact(self, cluster):
        file = ReplicatedFile(cluster, {1, 2, 3}, policy="MCV", initial="old")
        cluster.fail_sites([2, 3])
        with pytest.raises(QuorumNotReachedError):
            file.write(1, "new")
        cluster.restart_site(2)
        assert file.read(2) == "old"

    def test_write_propagates_to_newest_set_only(self, cluster):
        file = ReplicatedFile(cluster, {1, 2, 3}, policy="LDV")
        cluster.fail_site(3)
        file.write(1, "v2")
        assert file.version_at(1) == 2
        assert file.version_at(3) == 1  # down copy untouched

    def test_read_from_non_copy_site(self, cluster):
        file = ReplicatedFile(cluster, {1, 2, 3}, policy="LDV", initial="x")
        assert file.read(4) == "x"  # site 4 holds no copy but may ask

    def test_mcv_write_payload_reaches_every_reachable_copy(self):
        """Regression (found by hypothesis): MCV advances *all* reachable
        copies' versions on a write, so the payload must reach them all —
        a copy that only held an old payload under a new version would
        later serve stale data as 'newest'."""
        from repro.experiments.testbed import testbed_topology

        cluster = Cluster(testbed_topology())
        file = ReplicatedFile(cluster, {6, 7, 8}, policy="MCV", initial="v0")
        cluster.fail_site(4)          # 6 is cut off behind its gateway
        file.write(7, "v1")           # majority {7, 8}
        cluster.restart_site(4)
        file.write(7, "v2")           # all three reachable again
        assert file.value_at(6) == "v2"
        assert file.read(6) == "v2"

    def test_mcv_denied_recover_still_copies_the_payload(self):
        """Regression (found by hypothesis): MCV's RECOVER refreshes a
        stale copy's version without a quorum, so the payload must come
        along even when the recovery is denied — else the copy holds the
        old payload under the new version, and a later view change with
        no other current copy reachable fails the store mirror."""
        from repro.experiments.testbed import testbed_topology

        cluster = Cluster(testbed_topology())
        file = ReplicatedFile(cluster, {1, 2, 7, 8}, policy="MCV",
                              initial="v0")
        cluster.fail_sites([8, 2])
        file.write(1, "v1")           # {1, 7}: half, with the tie-breaker
        cluster.fail_site(1)
        cluster.restart_site(8)
        assert not file.recover_site(8)   # {7, 8}: half, without it
        assert file.version_at(8) == 2
        assert file.value_at(8) == "v1"
        cluster.fail_site(7)          # 8 is the only copy left up
        assert file.value_at(8) == "v1"


class TestAvailabilityProbes:
    def test_is_available_tracks_quorum(self, cluster):
        file = ReplicatedFile(cluster, {1, 2, 3}, policy="MCV")
        assert file.is_available()
        cluster.fail_sites([1, 2])
        assert not file.is_available()

    def test_available_from_down_site_is_false(self, cluster):
        file = ReplicatedFile(cluster, {1, 2, 3})
        cluster.fail_site(4)
        assert not file.available_from(4)

    def test_probes_do_not_mutate(self, cluster):
        file = ReplicatedFile(cluster, {1, 2, 3}, policy="ODV")
        before = file.protocol.replicas.as_mapping()
        cluster.fail_site(3)   # optimistic: no reaction
        file.is_available()
        file.available_from(1)
        assert file.protocol.replicas.as_mapping() == before


class TestRecovery:
    def test_recover_reintegrates_and_clones_data(self, cluster):
        file = ReplicatedFile(cluster, {1, 2, 3}, policy="ODV", initial="a")
        cluster.fail_site(3)
        file.write(1, "b")          # 3 misses the write; quorum {1, 2}
        cluster.restart_site(3)
        assert file.recover_site(3)
        assert file.value_at(3) == "b"
        assert file.version_at(3) == 2

    def test_recover_fails_outside_majority(self, cluster):
        file = ReplicatedFile(cluster, {1, 2, 3}, policy="ODV")
        file.synchronize()
        cluster.fail_site(3)
        file.write(1, "b")          # quorum now {1, 2}
        cluster.fail_sites([1, 2])
        cluster.restart_site(3)
        assert not file.recover_site(3)

    def test_eager_policy_recovers_automatically(self, cluster):
        file = ReplicatedFile(cluster, {1, 2, 3}, policy="LDV", initial="a")
        cluster.fail_site(3)
        file.write(1, "b")
        cluster.restart_site(3)     # eager: reintegration happens here
        assert file.value_at(3) == "b"

    def test_optimistic_policy_waits_for_synchronize(self, cluster):
        file = ReplicatedFile(cluster, {1, 2, 3}, policy="ODV", initial="a")
        cluster.fail_site(3)
        file.write(1, "b")
        cluster.restart_site(3)
        assert file.version_at(3) == 1      # still stale
        assert file.synchronize()
        assert file.value_at(3) == "b"


class TestMultipleFilesOneCluster:
    def test_files_with_different_policies_coexist(self, cluster):
        eager = ReplicatedFile(cluster, {1, 2, 3}, policy="LDV",
                               initial="a", name="eager")
        lazy = ReplicatedFile(cluster, {2, 3, 4}, policy="ODV",
                              initial="b", name="lazy")
        eager.write(1, "a1")
        lazy.write(2, "b1")
        cluster.fail_site(3)   # both files notified; only LDV reacts
        assert eager.protocol.replicas.state(1).partition_set == \
            frozenset({1, 2})
        assert lazy.protocol.replicas.state(2).partition_set == \
            frozenset({2, 3, 4})
        assert eager.read(1) == "a1"
        assert lazy.read(2) == "b1"

    def test_files_fail_independently(self, cluster):
        wide = ReplicatedFile(cluster, {1, 2, 3, 4}, policy="MCV")
        narrow = ReplicatedFile(cluster, {3, 4}, policy="MCV")
        cluster.fail_sites([3, 4])
        assert wide.is_available()          # {1, 2} is half with max 1
        assert not narrow.is_available()    # every copy is down


class TestEndToEndConsistency:
    def test_reads_always_return_last_granted_write(self, cluster):
        """Scripted history across failures and partitions: every granted
        read sees the most recent granted write."""
        file = ReplicatedFile(cluster, {1, 2, 3}, policy="LDV", initial="v0")
        last = "v0"
        history = [
            ("write", 1, "v1"), ("fail", 3), ("write", 2, "v2"),
            ("restart", 3), ("read", 3), ("fail", 1), ("fail", 2),
            ("read", 3), ("restart", 1), ("write", 1, "v3"), ("read", 2),
        ]
        for step in history:
            kind = step[0]
            if kind == "fail":
                cluster.fail_site(step[1])
            elif kind == "restart":
                cluster.restart_site(step[1])
            elif kind == "write":
                try:
                    file.write(step[1], step[2])
                    last = step[2]
                except (QuorumNotReachedError, SiteUnavailableError):
                    pass
            elif kind == "read":
                try:
                    assert file.read(step[1]) == last
                except (QuorumNotReachedError, SiteUnavailableError):
                    pass
