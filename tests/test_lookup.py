"""Tests for the cache lookup table.

Key-index allocation lives on the layout; see
``tests/test_geometry.py::TestKeyIndexAllocation``.
"""

import pytest

from repro.core.lookup import CacheLookupTable
from repro.core.memory import Allocation
from repro.errors import ConfigurationError

KEY = b"0123456789abcdef"
ALLOC = Allocation(index=5, bitmap=0b0111)


def table(entries=8):
    return CacheLookupTable(entries=entries, ingress_pipes=2)


class TestLookup:
    def test_miss(self):
        assert table().lookup(KEY) is None

    def test_hit_carries_action_data(self):
        t = table()
        t.insert(KEY, ALLOC, egress_port=9, key_index=6)
        res = t.lookup(KEY)
        assert res.bitmap == 0b0111
        assert res.value_index == 5
        assert res.key_index == 6
        assert res.egress_port == 9
        assert res.allocation == ALLOC

    def test_duplicate_insert_rejected(self):
        t = table()
        t.insert(KEY, ALLOC, 1, key_index=0)
        with pytest.raises(ConfigurationError):
            t.insert(KEY, ALLOC, 1, key_index=1)

    def test_remove_reports_presence(self):
        t = table()
        assert not t.remove(KEY)
        t.insert(KEY, ALLOC, 0, key_index=3)
        assert KEY in t and len(t) == 1
        assert t.remove(KEY)
        assert KEY not in t and len(t) == 0


class TestResources:
    def test_replication_in_sram(self):
        one = CacheLookupTable(entries=16, ingress_pipes=1)
        two = CacheLookupTable(entries=16, ingress_pipes=2)
        assert two.sram_bytes == 2 * one.sram_bytes

    def test_invalid_pipes(self):
        with pytest.raises(ConfigurationError):
            CacheLookupTable(ingress_pipes=0)
