"""Tests for switch primitives: register arrays, tables, stages."""

import pytest

from repro.core.primitives import (
    MatchActionTable,
    RegisterArray,
    Stage,
    bits_of,
    lowest_set_bits,
    popcount,
    port_to_pipe,
)
from repro.errors import ConfigurationError, ResourceExhaustedError


class TestRegisterArray:
    def test_read_write_bytes(self):
        arr = RegisterArray("r", slots=8, slot_bytes=16)
        arr.write(3, b"hello")
        assert arr.read(3) == b"hello"

    def test_slot_width_enforced(self):
        arr = RegisterArray("r", slots=8, slot_bytes=4)
        with pytest.raises(ConfigurationError):
            arr.write(0, b"12345")

    def test_index_bounds(self):
        arr = RegisterArray("r", slots=8, slot_bytes=4)
        with pytest.raises(IndexError):
            arr.read(8)
        with pytest.raises(IndexError):
            arr.write(-1, b"x")

    def test_int_interface(self):
        arr = RegisterArray("r", slots=4, slot_bytes=2)
        arr.write_int(0, 500)
        assert arr.read_int(0) == 500

    def test_int_width_enforced(self):
        arr = RegisterArray("r", slots=4, slot_bytes=1)
        with pytest.raises(ConfigurationError):
            arr.write_int(0, 256)

    def test_saturating_add(self):
        arr = RegisterArray("r", slots=4, slot_bytes=1)
        arr.write_int(0, 250)
        assert arr.add(0, 100) == 255  # saturates, no wraparound

    def test_clear(self):
        arr = RegisterArray("r", slots=4, slot_bytes=4)
        arr.write(0, b"x")
        arr.write_int(1, 7)
        arr.clear()
        assert arr.read(0) == b"" and arr.read_int(1) == 0

    def test_sram_accounting(self):
        assert RegisterArray("r", 64, 16).sram_bytes == 1024

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_batch_index_bounds(self, bad):
        # One unsigned reduction checks both ends: -1 reads as 2**64 - 1.
        arr = RegisterArray("r", slots=8, slot_bytes=4)
        with pytest.raises(IndexError):
            arr.read_int_batch([0, bad, 7])
        with pytest.raises(IndexError):
            arr.add_batch([bad])
        assert arr.reads == 0 and arr.writes == 0
        arr.add_batch([0, 7, 7])
        assert arr.read_int_batch([0, 7]).tolist() == [1, 2]


class TestMatchActionTable:
    def test_lookup_hit_and_miss(self):
        t = MatchActionTable("t", max_entries=4, key_bytes=16)
        t.insert(b"k", {"port": 3})
        assert t.lookup(b"k") == {"port": 3}
        assert t.lookup(b"other") is None
        assert t.hits == 1 and t.misses == 1

    def test_entry_limit(self):
        t = MatchActionTable("t", max_entries=2, key_bytes=4)
        t.insert(b"a", {})
        t.insert(b"b", {})
        with pytest.raises(ResourceExhaustedError):
            t.insert(b"c", {})

    def test_overwrite_does_not_count_against_limit(self):
        t = MatchActionTable("t", max_entries=1, key_bytes=4)
        t.insert(b"a", {"x": 1})
        t.insert(b"a", {"x": 2})
        assert t.lookup(b"a")["x"] == 2

    def test_remove(self):
        t = MatchActionTable("t", max_entries=2, key_bytes=4)
        t.insert(b"a", {})
        assert t.remove(b"a") is True
        assert t.remove(b"a") is False
        assert b"a" not in t

    def test_sram_accounting(self):
        t = MatchActionTable("t", max_entries=100, key_bytes=16,
                             action_data_bytes=8)
        assert t.sram_bytes == 100 * 24


class TestStage:
    def test_budget_enforced(self):
        stage = Stage("s", sram_budget=1000)
        stage.add_array(RegisterArray("a", 50, 16))  # 800 bytes
        with pytest.raises(ResourceExhaustedError):
            stage.add_array(RegisterArray("b", 50, 16))

    def test_utilization(self):
        stage = Stage("s", sram_budget=1600)
        stage.add_array(RegisterArray("a", 50, 16))
        assert stage.utilization() == pytest.approx(0.5)


class TestBitHelpers:
    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3

    def test_bits_of(self):
        assert bits_of(0b1010) == (1, 3)
        assert bits_of(0) == ()

    def test_lowest_set_bits(self):
        assert lowest_set_bits(0b1110, 2) == 0b0110

    def test_lowest_set_bits_insufficient(self):
        with pytest.raises(ConfigurationError):
            lowest_set_bits(0b1, 2)

    def test_port_to_pipe(self):
        assert port_to_pipe(0) == 0
        assert port_to_pipe(63) == 0
        assert port_to_pipe(64) == 1
        with pytest.raises(ConfigurationError):
            port_to_pipe(-1)
