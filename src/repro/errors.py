"""Exception hierarchy for the NetCache reproduction.

Every error raised by the library derives from :class:`NetCacheError` so that
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class NetCacheError(Exception):
    """Base class for all library errors."""


class ConfigurationError(NetCacheError):
    """A component was constructed or configured with invalid parameters."""


class ResourceExhaustedError(NetCacheError):
    """A switch hardware resource (SRAM, table entries, stages) ran out."""


class CacheFullError(ResourceExhaustedError):
    """Algorithm 2 could not find slots for an insertion (no bin fits)."""


class KeyFormatError(NetCacheError):
    """A key does not satisfy the fixed-length key requirement."""


class ValueFormatError(NetCacheError):
    """A value exceeds the maximum size supported by the data plane."""


class PacketFormatError(NetCacheError):
    """A packet could not be parsed or serialized."""


class RoutingError(NetCacheError):
    """No route exists for a destination, or a port is invalid."""


class CoherenceError(NetCacheError):
    """The coherence protocol reached an inconsistent state."""


class SimulationError(NetCacheError):
    """The discrete-event simulator detected an internal inconsistency."""
