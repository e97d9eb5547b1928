"""Unit tests for sites."""

import pytest

from repro.errors import ConfigurationError
from repro.net.sites import Site


class TestSite:
    def test_default_name(self):
        assert Site(3).name == "site3"

    def test_explicit_name(self):
        assert Site(1, "csvax").name == "csvax"

    def test_default_rank_prefers_lower_ids(self):
        """The paper orders A > B > C: first (lowest-numbered) site wins."""
        assert Site(1).rank > Site(2).rank > Site(3).rank

    def test_explicit_rank(self):
        assert Site(5, rank=99.0).rank == 99.0

    def test_negative_id_rejected(self):
        with pytest.raises(ConfigurationError):
            Site(-1)

    def test_sites_are_hashable_and_frozen(self):
        site = Site(1)
        assert hash(site) == hash(Site(1))
        with pytest.raises(AttributeError):
            site.id = 2  # type: ignore[misc]
