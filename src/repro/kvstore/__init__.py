"""Storage substrate: hash table, sharded store, partitioning, server node,
and the coherence shim."""

from repro.kvstore.hashtable import HashTable
from repro.kvstore.partition import HashPartitioner
from repro.kvstore.server import StorageServer
from repro.kvstore.shim import ServerShim
from repro.kvstore.store import KVStore

__all__ = [
    "HashPartitioner",
    "HashTable",
    "KVStore",
    "ServerShim",
    "StorageServer",
]
