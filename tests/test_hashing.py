"""Tests for repro.sketch.hashing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch.hashing import HashFamily, hash_bytes, hash_bytes_batch


class TestHashBytes:
    def test_deterministic(self):
        assert hash_bytes(b"abc") == hash_bytes(b"abc")

    def test_seed_changes_value(self):
        assert hash_bytes(b"abc", 1) != hash_bytes(b"abc", 2)

    def test_different_inputs_differ(self):
        assert hash_bytes(b"abc") != hash_bytes(b"abd")

    def test_empty_input_ok(self):
        assert isinstance(hash_bytes(b""), int)

    def test_64_bit_range(self):
        for data in (b"", b"x", b"hello world", bytes(100)):
            h = hash_bytes(data)
            assert 0 <= h < (1 << 64)

    def test_length_extension_differs(self):
        # Same prefix, trailing zero byte must change the hash.
        assert hash_bytes(b"abc") != hash_bytes(b"abc\x00")

    def test_word_boundary_inputs(self):
        # 8-byte and 9-byte inputs exercise the tail path.
        assert hash_bytes(b"12345678") != hash_bytes(b"123456789")

    def test_avalanche(self):
        # Single-bit flip should change about half the output bits.
        a = hash_bytes(b"\x00" * 16)
        b = hash_bytes(b"\x01" + b"\x00" * 15)
        flipped = bin(a ^ b).count("1")
        assert 16 <= flipped <= 48


class TestHashKey:
    def test_uniformity_rough(self):
        buckets = [0] * 10
        for i in range(5000):
            buckets[hash_bytes(f"key{i}".encode()) % 10] += 1
        assert min(buckets) > 350  # expected 500 each


class TestHashFamily:
    def test_row_count(self):
        fam = HashFamily(4, seed=3)
        assert len(fam) == 4
        assert len(fam.indexes(b"k", 100)) == 4

    def test_rows_independent(self):
        fam = HashFamily(4, seed=3)
        idxs = fam.indexes(b"some-key", 1 << 30)
        assert len(set(idxs)) == 4

    def test_index_matches_indexes(self):
        fam = HashFamily(3, seed=9)
        all_idx = fam.indexes(b"k", 999)
        for row in range(3):
            assert fam.index(row, b"k", 999) == all_idx[row]

    def test_families_with_different_seeds_disagree(self):
        a = HashFamily(2, seed=1).indexes(b"k", 1 << 30)
        b = HashFamily(2, seed=2).indexes(b"k", 1 << 30)
        assert a != b

    def test_zero_hashes_rejected(self):
        with pytest.raises(ValueError):
            HashFamily(0)


# -- the batched kernel is hash_bytes, bit for bit --------------------------------

#: lengths 0-40 cover the empty key, short tails, exact word multiples and
#: five-word keys, mixed in one batch.
BATCH_KEYS = st.lists(st.binary(min_size=0, max_size=40), max_size=40)
SEEDS = st.one_of(st.integers(0, 2 ** 64 - 1),
                  st.sampled_from([0, 1, 2 ** 63, 2 ** 64 - 1]))


class TestHashBytesBatch:
    @settings(max_examples=200, deadline=None)
    @given(keys=BATCH_KEYS, seeds=st.lists(SEEDS, min_size=1, max_size=9))
    def test_shared_seeds_equal_scalar(self, keys, seeds):
        out = hash_bytes_batch(keys, seeds)
        assert out.dtype == np.uint64
        assert out.shape == (len(seeds), len(keys))
        assert out.tolist() == [[hash_bytes(k, s) for k in keys]
                                for s in seeds]

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.binary(min_size=0, max_size=40),
                                    SEEDS, SEEDS), max_size=40))
    def test_per_key_seeds_equal_scalar(self, pairs):
        keys = [k for k, _, _ in pairs]
        seeds = np.array([[a for _, a, _ in pairs],
                          [b for _, _, b in pairs]],
                         dtype=np.uint64).reshape(2, len(pairs))
        assert hash_bytes_batch(keys, seeds).tolist() == [
            [hash_bytes(k, a) for k, a, _ in pairs],
            [hash_bytes(k, b) for k, _, b in pairs]]

    def test_seeds_are_taken_modulo_2_64_like_the_scalar(self):
        keys = [b"", b"abc", b"0123456789abcdef"]
        for seed in (-1, 2 ** 64 + 5):
            assert hash_bytes_batch(keys, [seed])[0].tolist() == \
                [hash_bytes(k, seed) for k in keys]

    def test_no_keys(self):
        assert hash_bytes_batch([], [1, 2, 3]).shape == (3, 0)
