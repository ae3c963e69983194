"""Variable-length on-chip value store (§4.4.2, Fig 6b).

One :class:`ValueStore` models the value register arrays of a single egress
pipe: ``num_arrays`` register arrays of 16-byte slots, one per stage.  A
cached value is addressed by an :class:`~repro.core.memory.Allocation`
(index + bitmap): chunk *i* of the value lives at the same index in the
*i*-th set array of the bitmap, and reading a value concatenates ("appends",
in P4 terms) the chunks stage by stage.
"""

from __future__ import annotations

from typing import List, Optional

from repro.constants import NUM_VALUE_STAGES, VALUE_ARRAY_SLOTS, VALUE_SLOT_SIZE
from repro.core.memory import Allocation
from repro.core.primitives import RegisterArray, Stage
from repro.errors import ConfigurationError, ValueFormatError


def chunk_value(value: bytes, slot_bytes: int = VALUE_SLOT_SIZE) -> List[bytes]:
    """Split *value* into slot-sized chunks (last chunk may be short)."""
    if not value:
        raise ValueFormatError("cannot store an empty value")
    return [value[i : i + slot_bytes] for i in range(0, len(value), slot_bytes)]


class ValueStore:
    """Value register arrays of one egress pipe."""

    def __init__(self, pipe: int, num_arrays: int = NUM_VALUE_STAGES,
                 slots: int = VALUE_ARRAY_SLOTS,
                 slot_bytes: int = VALUE_SLOT_SIZE,
                 stages: Optional[List[Stage]] = None):
        if num_arrays <= 0:
            raise ConfigurationError("num_arrays must be positive")
        self.pipe = pipe
        self.num_arrays = num_arrays
        self.slot_bytes = slot_bytes
        self.arrays: List[RegisterArray] = []
        for i in range(num_arrays):
            array = RegisterArray(f"pipe{pipe}/value{i}", slots, slot_bytes)
            if stages is not None:
                # Each value array occupies its own stage, as on the chip.
                stages[i].add_array(array)
            self.arrays.append(array)

    @property
    def max_value_size(self) -> int:
        """Largest value one pipeline pass can serve (§5)."""
        return self.num_arrays * self.slot_bytes

    def write(self, alloc: Allocation, value: bytes) -> None:
        """Store *value* at *alloc*; the value must fit the allocated slots.

        The data plane can only update values into already-allocated slots
        (§4.3: "only allows updates for new values that are no larger than
        the old ones"); larger values must go through the control plane,
        which allocates first.
        """
        chunks = chunk_value(value, self.slot_bytes)
        arrays = alloc.arrays
        if len(chunks) > len(arrays):
            raise ValueFormatError(
                f"value needs {len(chunks)} slots but allocation has "
                f"{len(arrays)}"
            )
        for i, array_idx in enumerate(arrays):
            chunk = chunks[i] if i < len(chunks) else b""
            self.arrays[array_idx].write(alloc.index, chunk)

    def read(self, alloc: Allocation) -> bytes:
        """Concatenate the value's chunks in stage order."""
        return b"".join(
            self.arrays[array_idx].read(alloc.index) for array_idx in alloc.arrays
        )

    def peek(self, alloc: Allocation) -> bytes:
        """:meth:`read` without the register access counts."""
        return b"".join(
            self.arrays[array_idx].peek(alloc.index) for array_idx in alloc.arrays
        )

    def clear(self, alloc: Allocation) -> None:
        """Zero the slots of a freed allocation (hygiene, not required)."""
        for array_idx in alloc.arrays:
            self.arrays[array_idx].write(alloc.index, b"")

    def fits(self, alloc: Allocation, value: bytes) -> bool:
        """True if *value* can be written into *alloc* by the data plane."""
        return len(chunk_value(value, self.slot_bytes)) <= alloc.num_slots

    @property
    def sram_bytes(self) -> int:
        return sum(a.sram_bytes for a in self.arrays)
