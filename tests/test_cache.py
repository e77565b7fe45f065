"""Set-associative cache: hits, LRU, eviction, and invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.memory.cache import SetAssocCache


def small_cache(assoc=2, sets=4, line=64):
    return SetAssocCache(
        CacheConfig(size=assoc * sets * line, assoc=assoc, line_size=line, latency=1),
        name="test",
    )


class TestBasicBehaviour:
    def test_first_access_misses(self):
        c = small_cache()
        assert c.access(0x1000) is False

    def test_second_access_hits(self):
        c = small_cache()
        c.access(0x1000)
        assert c.access(0x1000) is True

    def test_same_line_different_offset_hits(self):
        c = small_cache(line=64)
        c.access(0x1000)
        assert c.access(0x103F) is True

    def test_adjacent_line_misses(self):
        c = small_cache(line=64)
        c.access(0x1000)
        assert c.access(0x1040) is False

    def test_stats_count(self):
        c = small_cache()
        c.access(0x0)
        c.access(0x0)
        c.access(0x40, is_write=True)
        assert c.stats.accesses == 3
        assert c.stats.hits == 1
        assert c.stats.misses == 2
        assert c.stats.writes == 1
        assert c.stats.miss_rate == pytest.approx(2 / 3)

    def test_lookup_does_not_modify(self):
        c = small_cache()
        assert c.lookup(0x1000) is False
        assert c.access(0x1000) is False  # still a miss: lookup didn't fill
        assert c.lookup(0x1000) is True
        assert c.stats.accesses == 1  # lookups aren't counted

    def test_invalidate_all(self):
        c = small_cache()
        c.access(0x1000)
        c.invalidate_all()
        assert c.occupancy == 0
        assert c.access(0x1000) is False


class TestLRUReplacement:
    def test_eviction_of_lru(self):
        # 2-way set: A, B fill it; touching A makes B the LRU; C evicts B.
        c = small_cache(assoc=2, sets=1)
        A, B, C = 0x0, 0x40 * 1, 0x40 * 2  # one set only -> same set
        c.access(A)
        c.access(B)
        c.access(A)  # A is MRU
        c.access(C)  # evicts B
        assert c.access(A) is True
        assert c.access(B) is False

    def test_eviction_counter(self):
        c = small_cache(assoc=1, sets=1)
        c.access(0x0)
        c.access(0x40)
        assert c.stats.evictions == 1

    def test_occupancy_capped_by_capacity(self):
        c = small_cache(assoc=2, sets=4)
        for i in range(100):
            c.access(i * 64)
        assert c.occupancy <= 8

    def test_working_set_fits_no_misses_after_warm(self):
        c = small_cache(assoc=4, sets=8, line=64)
        lines = [i * 64 for i in range(32)]  # exactly capacity
        for a in lines:
            c.access(a)
        for a in lines:
            assert c.access(a) is True


class TestRecencyOrder:
    """One 4-way set: ``_sets[0]`` lists the tags most-recent-first."""

    A, B, C = 0x0, 0x40, 0x80

    def filled(self):
        c = small_cache(assoc=4, sets=1)
        for addr in (self.A, self.B, self.C):
            c.access(addr)
        return c

    @staticmethod
    def order(c, *addrs):
        return c._sets[0] == [a >> 6 for a in addrs]

    def test_mru_rehit_keeps_order(self):
        c = self.filled()
        assert c.access(self.C) is True
        assert self.order(c, self.C, self.B, self.A)
        assert (c.stats.hits, c.stats.misses) == (1, 3)

    def test_non_mru_hit_moves_to_front(self):
        c = self.filled()
        assert c.access(self.A) is True
        assert self.order(c, self.A, self.C, self.B)
        assert (c.stats.hits, c.stats.misses) == (1, 3)

    def test_write_hit_counts_writes(self):
        c = self.filled()
        assert c.access(self.B, is_write=True) is True
        assert self.order(c, self.B, self.C, self.A)
        assert (c.stats.accesses, c.stats.hits, c.stats.writes) == (4, 1, 1)
        assert c.access(self.B, is_write=True) is True  # an MRU write hit too
        assert (c.stats.accesses, c.stats.hits, c.stats.writes) == (5, 2, 2)


class TestGeometry:
    def test_indexing_distributes_across_sets(self):
        c = small_cache(assoc=1, sets=4, line=64)
        for i in range(4):
            c.access(i * 64)
        assert c.occupancy == 4  # each line in its own set

    def test_wraparound_conflicts(self):
        c = small_cache(assoc=1, sets=4, line=64)
        c.access(0)
        c.access(4 * 64)  # same set, conflict
        assert c.access(0) is False

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SetAssocCache(CacheConfig(size=100, assoc=2, line_size=64, latency=1))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300))
def test_property_occupancy_never_exceeds_capacity(addrs):
    c = small_cache(assoc=2, sets=8)
    for a in addrs:
        c.access(a)
    assert c.occupancy <= 16


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300))
def test_property_hits_plus_misses_equals_accesses(addrs):
    c = small_cache()
    for a in addrs:
        c.access(a)
    assert c.stats.hits + c.stats.misses == c.stats.accesses == len(addrs)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=100))
def test_property_immediate_reaccess_always_hits(addrs):
    c = small_cache()
    for a in addrs:
        c.access(a)
        assert c.access(a) is True


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1 << 18), min_size=1, max_size=200),
    st.integers(min_value=0, max_value=3),
)
def test_property_lru_most_recent_within_assoc_survives(addrs, _seed):
    """The most recently accessed line always remains resident."""
    c = small_cache(assoc=2, sets=4)
    for a in addrs:
        c.access(a)
        assert c.lookup(a) is True
