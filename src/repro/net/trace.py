"""Delivery digest: an order-independent fingerprint of every packet
delivery, the check that the lanes engine and the scalar event loop
deliver the same packets at the same times.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.net.packet import Packet
from repro.net.simulator import Simulator


_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)
_S33 = np.uint64(33)


def _fmix64(x: np.ndarray) -> np.ndarray:
    """MurmurHash3 finalizer, elementwise over uint64 (wraparound)."""
    x = x ^ (x >> _S33)
    x = x * _MIX1
    x = x ^ (x >> _S33)
    x = x * _MIX2
    return x ^ (x >> _S33)


class DeliveryTrace:
    """Order-independent streaming digest of every packet delivery.

    Each delivery is reduced to ``(time bits, src, dst, op, seq)``, mixed
    to a 64-bit hash, and summed mod 2**64 together with a record count —
    a multiset invariant, so the digest is identical no matter in which
    order equal-time deliveries were processed.  That is exactly the
    freedom the batched fast path needs: it must match the scalar
    reference delivery-for-delivery (same hops at the same float times),
    without the digest pinning the one unobservable difference between
    the paths, the tie-break order of simultaneous deliveries.

    Scalar segments feed it as a delivery hook (buffered, flushed in
    batches); the lanes engine calls :meth:`note_batch` directly.
    """

    _BUFFER = 4096

    def __init__(self):
        self._sum = 0
        self.count = 0
        self._times: List[float] = []
        self._srcs: List[int] = []
        self._dsts: List[int] = []
        self._ops: List[int] = []
        self._seqs: List[int] = []
        # note_batch staging: column arrays plus one (src, dst, op, n)
        # broadcast row per call, concatenated and mixed in bulk so the
        # per-call cost is two list appends, not a numpy kernel launch.
        self._bt: List[np.ndarray] = []
        self._bq: List[np.ndarray] = []
        self._bmeta: List[tuple] = []
        self._bpending = 0

    # -- feeding -----------------------------------------------------------------

    def as_hook(self) -> Callable:
        """The simulator delivery-hook form (``fn(time, src, dst, pkt)``)."""
        return self._on_delivery

    def attach(self, sim: Simulator) -> "DeliveryTrace":
        sim.delivery_hooks.append(self._on_delivery)
        return self

    def _on_delivery(self, time: float, src: int, dst: int,
                     pkt: Packet) -> None:
        self._times.append(time)
        self._srcs.append(src)
        self._dsts.append(dst)
        self._ops.append(int(pkt.op))
        self._seqs.append(pkt.seq)
        if len(self._times) >= self._BUFFER:
            self._flush()

    def note_batch(self, times: np.ndarray, src: int, dst: int, op: int,
                   seqs: np.ndarray) -> None:
        """Record a batch of deliveries sharing one hop and op.

        Batches are staged and mixed in bulk (the digest is a multiset
        sum, so grouping across calls cannot change it); tiny batches —
        single writes, short op runs — cost two appends instead of five
        elementwise hash kernels.
        """
        n = len(times)
        if not n:
            return
        self._bt.append(np.ascontiguousarray(times, dtype=np.float64))
        self._bq.append(np.asarray(seqs).astype(np.uint64))
        self._bmeta.append((src, dst, op, n))
        self._bpending += n
        if self._bpending >= self._BUFFER:
            self._flush_batches()

    def _flush_batches(self) -> None:
        if not self._bpending:
            return
        counts = [m[3] for m in self._bmeta]
        self._mix_in(
            np.concatenate(self._bt),
            np.repeat(np.array([m[0] for m in self._bmeta],
                               dtype=np.uint64), counts),
            np.repeat(np.array([m[1] for m in self._bmeta],
                               dtype=np.uint64), counts),
            np.repeat(np.array([m[2] for m in self._bmeta],
                               dtype=np.uint64), counts),
            np.concatenate(self._bq))
        self._bt.clear()
        self._bq.clear()
        self._bmeta.clear()
        self._bpending = 0

    def _flush(self) -> None:
        self._flush_batches()
        if not self._times:
            return
        self._mix_in(np.array(self._times, dtype=np.float64),
                     np.array(self._srcs, dtype=np.uint64),
                     np.array(self._dsts, dtype=np.uint64),
                     np.array(self._ops, dtype=np.uint64),
                     np.array(self._seqs, dtype=np.uint64))
        self._times.clear()
        self._srcs.clear()
        self._dsts.clear()
        self._ops.clear()
        self._seqs.clear()

    def _mix_in(self, times, srcs, dsts, ops, seqs) -> None:
        h = _fmix64(times.view(np.uint64))
        h = _fmix64(h ^ srcs)
        h = _fmix64(h ^ dsts)
        h = _fmix64(h ^ ops)
        h = _fmix64(h ^ seqs)
        self._sum = (self._sum + int(h.sum(dtype=np.uint64))) & 0xFFFFFFFFFFFFFFFF
        self.count += len(h)

    # -- reading -----------------------------------------------------------------

    def digest(self) -> str:
        """``<sum(16 hex)>:<count>`` — commit this literal in golden tests."""
        self._flush()
        return f"{self._sum:016x}:{self.count}"
