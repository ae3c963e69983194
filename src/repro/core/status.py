"""Cache status module (§4.4.4).

A register array with one slot per cached key, indicating whether the cached
value is valid.  Write queries invalidate the bit; the server's subsequent
``CACHE_UPDATE`` revalidates it.  We pair the valid bit with a version
register so that delayed or duplicated updates (the reliable-update retry
path) never roll a newer value back to an older one.
"""

from __future__ import annotations

from repro.constants import LOOKUP_TABLE_ENTRIES
from repro.core.primitives import RegisterArray


class CacheStatusModule:
    """Valid bits + update versions, indexed by key index."""

    def __init__(self, pipe: int, entries: int = LOOKUP_TABLE_ENTRIES):
        self.valid = RegisterArray(f"pipe{pipe}/cache_status", entries, 1)
        self.version = RegisterArray(f"pipe{pipe}/cache_version", entries, 4)
        self.invalidations = 0
        self.updates_applied = 0
        self.updates_rejected = 0

    def is_valid(self, key_index: int) -> bool:
        return bool(self.valid.read_int(key_index))

    def peek_valid(self, key_index: int) -> bool:
        """:meth:`is_valid` without the register access count."""
        return bool(self.valid.peek_int(key_index))

    def set_valid(self, key_index: int) -> None:
        """Control-plane validation after an insertion."""
        self.valid.write_int(key_index, 1)

    def invalidate(self, key_index: int) -> None:
        """Data-plane invalidation on a write query (§4.2, Alg 1 line 12)."""
        self.valid.write_int(key_index, 0)
        self.invalidations += 1

    def try_update(self, key_index: int, version: int) -> bool:
        """Apply a data-plane value update if *version* is new.

        Returns True when the update should proceed (value write + mark
        valid); False for stale duplicates, which are acked but not applied.
        """
        current = self.version.read_int(key_index)
        if version <= current:
            self.updates_rejected += 1
            return False
        self.version.write_int(key_index, version)
        self.valid.write_int(key_index, 1)
        self.updates_applied += 1
        return True

    def reset_entry(self, key_index: int) -> None:
        """Control-plane cleanup when a key index is recycled."""
        self.valid.write_int(key_index, 0)
        self.version.write_int(key_index, 0)

    @property
    def sram_bytes(self) -> int:
        return self.valid.sram_bytes + self.version.sram_bytes
