"""Cache lookup table (§4.4.2, §4.4.4).

One exact-match table over the 16-byte key field.  A hit yields three pieces
of action data (Fig 8): the value location (bitmap + value index, Fig 6b),
the key index (into the cache counters and the cache status array), and the
egress port connecting to the server that owns the key — which also selects
the egress pipe holding the value.

The table lives in the ingress pipeline and is *replicated per ingress pipe*
so queries from any upstream port can hit; replication is cheap because the
entries are small.  We model one logical table plus a replication factor for
resource accounting.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.constants import KEY_SIZE, LOOKUP_TABLE_ENTRIES
from repro.core.memory import Allocation
from repro.core.primitives import MatchActionTable
from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class LookupResult:
    """Action data produced by a lookup hit."""

    bitmap: int
    value_index: int
    key_index: int
    egress_port: int

    @property
    def allocation(self) -> Allocation:
        return Allocation(index=self.value_index, bitmap=self.bitmap)


class CacheLookupTable:
    """The logical cache lookup table; the layout assigns key indexes."""

    #: bitmap(2) + value index(2) + key index(2) + port(2)
    ACTION_DATA_BYTES = 8

    def __init__(self, entries: int = LOOKUP_TABLE_ENTRIES,
                 ingress_pipes: int = 2):
        if ingress_pipes <= 0:
            raise ConfigurationError("need at least one ingress pipe")
        self.ingress_pipes = ingress_pipes
        self.table = MatchActionTable(
            "cache_lookup", max_entries=entries, key_bytes=KEY_SIZE,
            action_data_bytes=self.ACTION_DATA_BYTES,
        )

    # -- data plane -----------------------------------------------------------

    def lookup(self, key: bytes) -> Optional[LookupResult]:
        entry = self.table.lookup(key)
        if entry is None:
            return None
        return LookupResult(
            bitmap=entry["bitmap"],
            value_index=entry["value_index"],
            key_index=entry["key_index"],
            egress_port=entry["egress_port"],
        )

    def peek(self, key: bytes) -> Optional[LookupResult]:
        """:meth:`lookup` without the hit/miss count (for observers)."""
        entry = self.table.peek(key)
        return None if entry is None else LookupResult(**entry)

    def note_probes(self, found: int, probed: int) -> None:
        """Account *probed* lookups, *found* of them hits, that a batch
        probe resolved through the layout's item column."""
        self.table.hits += found
        self.table.misses += probed - found

    # -- control plane -----------------------------------------------------------

    def insert(self, key: bytes, alloc: Allocation, egress_port: int,
               key_index: int) -> None:
        """Install the entry for *key* under the caller's *key_index*."""
        if key in self.table:
            raise ConfigurationError(f"key {key!r} already in lookup table")
        self.table.insert(key, {
            "bitmap": alloc.bitmap,
            "value_index": alloc.index,
            "key_index": key_index,
            "egress_port": egress_port,
        })

    def remove(self, key: bytes) -> bool:
        """Remove *key*; False if it was not installed."""
        return self.table.remove(key)

    def __contains__(self, key: bytes) -> bool:
        return key in self.table

    def __len__(self) -> int:
        return len(self.table)

    @property
    def sram_bytes(self) -> int:
        """Footprint including per-ingress-pipe replication (§4.4.4)."""
        return self.table.sram_bytes * self.ingress_pipes
