"""Calibration constants shared across the library.

The values mirror the paper's testbed (§6, §7.1) so that the simulated
evaluation regenerates the paper's operating points.  All rates are queries
per second; all sizes are bytes unless noted.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# NetCache protocol (§4.1, Fig 2b)
# ---------------------------------------------------------------------------

#: Reserved L4 port that identifies NetCache packets.
NETCACHE_PORT = 50000

#: Fixed key length of the prototype (§5 "Restricted key-value interface").
KEY_SIZE = 16

#: Maximum value size served from the switch in one pipeline pass (§6).
MAX_VALUE_SIZE = 128

#: Granularity of value storage: output width of one register array (§6).
VALUE_SLOT_SIZE = 16

# ---------------------------------------------------------------------------
# Switch data plane geometry (§6 "Implementation")
# ---------------------------------------------------------------------------

#: Number of egress stages carrying value register arrays.
NUM_VALUE_STAGES = 8

#: Slots per value register array (64K entries of 16 bytes each).
VALUE_ARRAY_SLOTS = 64 * 1024

#: Entries in the cache lookup table.
LOOKUP_TABLE_ENTRIES = 64 * 1024

#: Count-Min sketch geometry: 4 register arrays x 64K 16-bit slots.
CM_SKETCH_ROWS = 4
CM_SKETCH_WIDTH = 64 * 1024
CM_COUNTER_BITS = 16

#: Bloom filter geometry: 3 register arrays x 256K 1-bit slots.
BLOOM_HASHES = 3
BLOOM_BITS = 256 * 1024

#: Tofino-style pipe layout: 2 ingress + 2 egress pipes in the prototype's
#: logical model, 4 physical pipes on the chip.
NUM_PIPES = 4

#: Usable on-chip SRAM modelled per chip (tens of MB on Tofino; we model
#: 24 MB so that the paper's "<50% used" claim is checkable).
CHIP_SRAM_BYTES = 24 * 1024 * 1024

# ---------------------------------------------------------------------------
# Testbed capacities (§7.1) used to calibrate simulators
# ---------------------------------------------------------------------------

#: Throughput of one (unoptimized TommyDS-based) storage server.
SERVER_RATE = 10e6

#: Maximum query rate of one DPDK client with a 40G NIC.
CLIENT_RATE = 35e6

#: Aggregate packet rate of the Tofino ASIC.
SWITCH_RATE = 4e9

#: Packet rate of a single egress pipe (bound under extreme skew, §4.4.4).
PIPE_RATE = 1e9

#: Snake-test replication factor: each query traverses 32 egress ports.
SNAKE_REPLICATION = 32

#: Default cache size used by the system experiments (§7.1).
DEFAULT_CACHE_ITEMS = 10_000

# ---------------------------------------------------------------------------
# Latency model (§7.3, Fig 10c)
# ---------------------------------------------------------------------------

#: One-way client <-> rack link latency (seconds).
LINK_LATENCY = 2e-6

#: Client-side processing overhead per query (seconds); the paper attributes
#: most of the 7 us cache-hit latency to the client.
CLIENT_OVERHEAD = 3e-6

#: Modeled latency of one extra recirculation pass through the pipeline
#: (Tofino recirculation adds on the order of a few hundred nanoseconds).
#: Shared by the cache layouts (multi-pass serves surface it as reply
#: delay) and the lanes engine (per-record reply-delay lanes).
RECIRCULATION_DELAY = 400e-9

# ---------------------------------------------------------------------------
# Controller defaults (§4.3, §7.4)
# ---------------------------------------------------------------------------

#: Period between statistics resets (seconds).
STATS_RESET_INTERVAL = 1.0

#: Default heavy-hitter report threshold (sampled counts).
HOT_THRESHOLD = 128

#: Default sampling probability in front of the statistics module.
SAMPLE_RATE = 1.0 / 16

#: Number of cached keys the controller samples per update round
#: (Redis-style approximate eviction, §4.3).
COUNTER_SAMPLE_SIZE = 32
