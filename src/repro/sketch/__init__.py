"""Probabilistic data-structure substrate.

These are the building blocks of NetCache's query-statistics module
(§4.4.3): seeded hash functions, a Count-Min sketch, a Bloom filter, and a
configurable sampler, plus a SpaceSaving summary used as a software baseline.
"""

from repro.sketch.bloom import BloomFilter
from repro.sketch.countmin import CountMinSketch
from repro.sketch.digest import DigestTable, KeyDigest, digest_table_for
from repro.sketch.hashing import HashFamily, hash_bytes, hash_bytes_batch
from repro.sketch.sampler import PacketSampler
from repro.sketch.spacesaving import SpaceSaving

__all__ = [
    "BloomFilter",
    "CountMinSketch",
    "DigestTable",
    "HashFamily",
    "KeyDigest",
    "PacketSampler",
    "SpaceSaving",
    "digest_table_for",
    "hash_bytes",
    "hash_bytes_batch",
]
