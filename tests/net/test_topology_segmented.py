"""Unit tests for segmented (carrier-sense + gateway) topologies."""

import pytest

from repro.errors import ConfigurationError, TopologyError, UnknownSiteError
from repro.net.sites import Site
from repro.net.topology import SegmentedTopology, single_segment


def _sites(*ids):
    return [Site(i) for i in ids]


class TestConstruction:
    def test_every_site_needs_a_segment(self):
        with pytest.raises(TopologyError):
            SegmentedTopology(_sites(1, 2), {"a": [1]})

    def test_site_in_two_segments_rejected(self):
        with pytest.raises(TopologyError):
            SegmentedTopology(_sites(1, 2), {"a": [1, 2], "b": [2]})

    def test_gateway_must_be_a_site(self):
        with pytest.raises(UnknownSiteError):
            SegmentedTopology(_sites(1, 2), {"a": [1, 2]}, {9: ("a", "a")})

    def test_gateway_needs_two_segments(self):
        with pytest.raises(TopologyError):
            SegmentedTopology(_sites(1, 2), {"a": [1, 2]}, {1: ("a",)})

    def test_gateway_segments_must_exist(self):
        with pytest.raises(TopologyError):
            SegmentedTopology(_sites(1, 2), {"a": [1, 2]}, {1: ("a", "zz")})

    def test_gateway_home_must_be_joined(self):
        with pytest.raises(TopologyError):
            SegmentedTopology(
                _sites(1, 2, 3),
                {"a": [1], "b": [2], "c": [3]},
                {1: ("b", "c")},
            )

    def test_duplicate_site_ids_rejected(self):
        with pytest.raises(TopologyError):
            SegmentedTopology([Site(1), Site(1)], {"a": [1]})

    def test_empty_topology_rejected(self):
        with pytest.raises(TopologyError):
            SegmentedTopology([], {})

    def test_unknown_segment_member_rejected(self):
        with pytest.raises(UnknownSiteError):
            SegmentedTopology(_sites(1), {"a": [1, 99]})


class TestQueries:
    def test_sites_sorted_by_id(self, testbed):
        assert [s.id for s in testbed.sites] == list(range(1, 9))

    def test_site_lookup(self, testbed):
        assert testbed.site(1).name == "csvax"
        with pytest.raises(UnknownSiteError):
            testbed.site(99)

    def test_segment_of(self, testbed):
        assert testbed.segment_of(1) == "alpha"
        assert testbed.segment_of(4) == "alpha"  # gateway homed on alpha
        assert testbed.segment_of(6) == "beta"
        assert testbed.segment_of(7) == "gamma"

    def test_same_segment(self, testbed):
        assert testbed.same_segment(1, 2)
        assert testbed.same_segment(7, 8)
        assert not testbed.same_segment(1, 6)
        assert not testbed.same_segment(6, 7)

    def test_segment_members(self, testbed):
        assert testbed.segment_members("alpha") == frozenset({1, 2, 3, 4, 5})
        with pytest.raises(TopologyError):
            testbed.segment_members("nope")

    def test_gateway_ids(self, testbed):
        assert testbed.gateway_ids == frozenset({4, 5})

    def test_max_site_default_order(self, testbed):
        assert testbed.max_site({2, 5, 7}) == 2

    def test_max_site_follows_ranks_and_breaks_ties_by_lower_id(self):
        sites = [Site(1, rank=0.0), Site(2, rank=10.0), Site(3, rank=5.0),
                 Site(4, rank=1.0), Site(7, rank=1.0)]
        topology = SegmentedTopology(sites, {"a": [1, 2, 3, 4, 7]})
        assert topology.max_site({1, 2, 3}) == 2
        assert topology.max_site({7, 4}) == 4

    def test_max_site_rejects_empty_and_unknown_sets(self, testbed):
        with pytest.raises(ConfigurationError):
            testbed.max_site(set())
        with pytest.raises(UnknownSiteError):
            testbed.max_site({1, 99})


class TestPartitionOracle:
    def test_all_up_is_one_block(self, testbed):
        blocks = testbed.blocks(frozenset(range(1, 9)))
        assert blocks == (frozenset(range(1, 9)),)

    def test_gateway_4_down_cuts_off_beta(self, testbed):
        up = frozenset(range(1, 9)) - {4}
        blocks = testbed.blocks(up)
        assert frozenset({6}) in blocks
        assert frozenset({1, 2, 3, 5, 7, 8}) in blocks
        assert len(blocks) == 2

    def test_gateway_5_down_cuts_off_gamma(self, testbed):
        up = frozenset(range(1, 9)) - {5}
        blocks = testbed.blocks(up)
        assert frozenset({7, 8}) in blocks
        assert frozenset({1, 2, 3, 4, 6}) in blocks

    def test_both_gateways_down_gives_three_blocks(self, testbed):
        up = frozenset(range(1, 9)) - {4, 5}
        blocks = testbed.blocks(up)
        assert set(blocks) == {
            frozenset({1, 2, 3}),
            frozenset({6}),
            frozenset({7, 8}),
        }

    def test_down_sites_are_in_no_block(self, testbed):
        up = frozenset({1, 7, 8})
        blocks = testbed.blocks(up)
        for block in blocks:
            assert 2 not in block

    def test_same_segment_sites_never_separated(self, testbed):
        """The paper's core topological fact: 7 and 8 share gamma."""
        import itertools

        for r in range(9):
            for up in itertools.combinations(range(1, 9), r):
                up = frozenset(up)
                if 7 in up and 8 in up:
                    blocks = testbed.blocks(up)
                    block7 = next(b for b in blocks if 7 in b)
                    assert 8 in block7

    def test_blocks_partition_the_up_set(self, testbed):
        up = frozenset({1, 3, 6, 7, 8})
        blocks = testbed.blocks(up)
        union = frozenset().union(*blocks)
        assert union == up
        assert sum(len(b) for b in blocks) == len(up)

    def test_empty_up_set_no_blocks(self, testbed):
        assert testbed.blocks(frozenset()) == ()

    def test_unknown_site_in_up_rejected(self, testbed):
        with pytest.raises(UnknownSiteError):
            testbed.blocks(frozenset({1, 99}))

    def test_multi_hop_gateway_chain(self):
        """a -1- b -2- c: both gateways up connects a to c."""
        topo = SegmentedTopology(
            _sites(1, 2, 3, 4),
            {"a": [1, 3], "b": [2], "c": [4]},
            {3: ("a", "b"), 2: ("b", "c")},
        )
        assert topo.blocks(frozenset({1, 2, 3, 4})) == (frozenset({1, 2, 3, 4}),)
        # gateway 3 down: a isolated from b and c
        blocks = topo.blocks(frozenset({1, 2, 4}))
        assert set(blocks) == {frozenset({1}), frozenset({2, 4})}


class TestSingleSegment:
    def test_builds_n_sites(self):
        topo = single_segment(4)
        assert topo.site_ids == frozenset({1, 2, 3, 4})
        assert all(topo.same_segment(1, i) for i in (2, 3, 4))

    def test_never_partitions(self):
        topo = single_segment(5)
        blocks = topo.blocks(frozenset({1, 3, 5}))
        assert blocks == (frozenset({1, 3, 5}),)

    def test_invalid_count(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            single_segment(0)


class TestView:
    def test_view_snapshot(self, testbed):
        view = testbed.view(frozenset({1, 2, 6}))
        assert view.up == frozenset({1, 2, 6})
        assert view.is_up(1)
        assert not view.is_up(4)

    def test_view_rejects_unknown_sites(self, testbed):
        with pytest.raises(UnknownSiteError):
            testbed.view(frozenset({1, 42}))
