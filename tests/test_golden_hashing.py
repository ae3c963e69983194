"""Golden-value pins for the hash substrate.

Every derived index in the system — Count-Min rows, Bloom bits, store
shards and slots — is a pure function of
:func:`repro.sketch.hashing.hash_bytes`.  The vectorized hot path, the
committed BENCH baselines, and the chaos replay logs all assume those
values never move, so this module pins literal outputs for a fixed corpus.
If any assertion here fails, the hash function changed: every committed
snapshot and replay in the repo is invalid and must be regenerated
deliberately, not silently.
"""

import pytest

from repro.sketch.hashing import HashFamily, hash_bytes, hash_bytes_batch

#: key -> (hash_bytes seed 0, seed 1, seed 0xDEADBEEF)
GOLDEN_HASHES = {
    b"": (0xE220A8397B1DCDAF, 0x910A2DEC89025CC1, 0x4ADFB90F68C9EB9B),
    b"a": (0x7171FD973FBAE05C, 0x333BDA43BEBC7927, 0x94FC2D95F6896898),
    b"key-0": (0x2275878F899B3A29, 0x433C77FE325F88E9, 0xEC8B0D03E394D7D6),
    b"key-12345": (0xFDF1F18F5193D5A8, 0x177F5DACA2CF52AF,
                   0x2118413760A4339C),
    b"\x00" * 8: (0x0EA36F3CC1D96075, 0xE32A1C52543681CD,
                  0xA3BEEBEF7A3B800F),
    b"0123456789abcdef": (0xC02EC14ECE4D5167, 0x9EC4FAF0C6312CBC,
                          0x2C9F836268C51254),
    b"netcache": (0x88DA9C708CFC7D8E, 0x063689E948B65FC4,
                  0x47F089477B0B5F2F),
    b"seven77": (0x829B5138F6A86BB7, 0xAE00B4DF82B67044,
                 0x63A5FB21E5F08F43),
    b"nine-char": (0x33D30552B50BF692, 0x87AA80CA7FA33EF6,
                   0x3F50AE6CAB7979CC),
}

#: key -> HashFamily(4, seed=0).indexes(key, 64 * 1024)  (CM geometry)
GOLDEN_CM_INDEXES = {
    b"": [32367, 24862, 33972, 34967],
    b"a": [12771, 20709, 8531, 46335],
    b"key-0": [49753, 41981, 20912, 35147],
    b"key-12345": [51156, 53093, 20695, 57107],
    b"\x00" * 8: [25724, 58741, 33430, 59974],
    b"0123456789abcdef": [39448, 19500, 30734, 24076],
    b"netcache": [46931, 40780, 31759, 36974],
    b"seven77": [5872, 13524, 60670, 61234],
    b"nine-char": [64822, 34786, 21657, 48671],
}

#: key -> HashFamily(3, seed=1).indexes(key, 256 * 1024)  (Bloom geometry)
GOLDEN_BLOOM_INDEXES = {
    b"": [90398, 230580, 100503],
    b"a": [151781, 205139, 177407],
    b"key-0": [173053, 151984, 35147],
    b"key-12345": [249701, 217303, 188179],
    b"\x00" * 8: [58741, 98966, 191046],
    b"0123456789abcdef": [150572, 161806, 155148],
    b"netcache": [40780, 228367, 102510],
    b"seven77": [79060, 126206, 257842],
    b"nine-char": [165858, 152729, 245279],
}

#: key -> (hash_bytes(key, 0xF1F1) >> 32, hash_bytes(key, 7) >> 48)
GOLDEN_HIGH_BITS = {
    b"": (0x867D7809, 0x63CB),
    b"a": (0x6FB252AC, 0x02EB),
    b"key-0": (0x7BD32487, 0x1AD3),
    b"key-12345": (0xFB6D5D3E, 0xF0FB),
    b"\x00" * 8: (0xEF1E9B30, 0x1024),
    b"0123456789abcdef": (0xCFAA9B38, 0xEA5B),
    b"netcache": (0xF3E6656C, 0x3BA6),
    b"seven77": (0x6ACD268A, 0x7A3C),
    b"nine-char": (0xF973AC91, 0x0FD2),
}

CORPUS = sorted(GOLDEN_HASHES)


@pytest.mark.parametrize("key", CORPUS)
def test_hash_bytes_is_pinned(key):
    assert hash_bytes(key, 0) == GOLDEN_HASHES[key][0]
    assert hash_bytes(key, 1) == GOLDEN_HASHES[key][1]
    assert hash_bytes(key, 0xDEADBEEF) == GOLDEN_HASHES[key][2]


def test_hash_bytes_batch_is_pinned():
    # The batched kernel on the whole corpus at once — lengths 0 to 16
    # mixed in one call — against the same literals.
    out = hash_bytes_batch(CORPUS, (0, 1, 0xDEADBEEF))
    assert out.T.tolist() == [list(GOLDEN_HASHES[key]) for key in CORPUS]
    cm = hash_bytes_batch(CORPUS, HashFamily(4, seed=0).seeds) % (64 * 1024)
    assert cm.T.tolist() == [GOLDEN_CM_INDEXES[key] for key in CORPUS]
    bloom = hash_bytes_batch(CORPUS,
                             HashFamily(3, seed=1).seeds) % (256 * 1024)
    assert bloom.T.tolist() == [GOLDEN_BLOOM_INDEXES[key] for key in CORPUS]
    high = hash_bytes_batch(CORPUS, (0xF1F1, 7))
    assert (high[0] >> 32).tolist() == \
        [GOLDEN_HIGH_BITS[key][0] for key in CORPUS]
    assert (high[1] >> 48).tolist() == \
        [GOLDEN_HIGH_BITS[key][1] for key in CORPUS]


@pytest.mark.parametrize("key", CORPUS)
def test_hash_family_indexes_are_pinned(key):
    assert HashFamily(4, seed=0).indexes(key, 64 * 1024) == \
        GOLDEN_CM_INDEXES[key]
    assert HashFamily(3, seed=1).indexes(key, 256 * 1024) == \
        GOLDEN_BLOOM_INDEXES[key]


def test_family_row_seeds_are_pinned():
    # The digest layer precomputes against these per-row streams; rows of
    # family seed 0 overlap rows of family seed 1 shifted by one — that
    # offset construction is part of the pinned contract.
    assert HashFamily(4, seed=0).seeds == (
        0xE220A8397B1DCDAF, 0x910A2DEC89025CC1,
        0x975835DE1C9756CE, 0x1D0B14E4DB018FED)
    assert HashFamily(3, seed=1).seeds == (
        0x910A2DEC89025CC1, 0x975835DE1C9756CE, 0x1D0B14E4DB018FED)


def test_index_matches_indexes_per_row():
    fam = HashFamily(4, seed=42)
    for key in CORPUS:
        whole = fam.indexes(key, 1 << 16)
        assert [fam.index(r, key, 1 << 16) for r in range(4)] == whole
