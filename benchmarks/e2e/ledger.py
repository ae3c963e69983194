"""Outside-in span ledger.

Times public methods of ``src/repro`` without editing them: for one traced
repetition each listed attribute is replaced on its owner (a class or a
module) by a wrapper that records a span, and put back afterwards.  A span
is (name, start, end, parent); spans stay in memory until the run is over.

A layer's *self time* is its spans' duration minus the duration of their
direct child spans, so within one root span the self times of all names
(the root included) add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from typing import Dict, Iterator, List, Tuple

import numpy as np


class Ledger:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # One entry per span, in start order (parallel lists keep the
        # per-call cost to four appends and two clock reads).
        self.name_id: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []     # span index, -1 for a root
        self._stack: List[int] = []

    def timed(self, func, name: str):
        """*func* wrapped so that every call records one span."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        ids, starts, ends = self.name_id, self.start, self.end
        parents, stack = self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets) -> Iterator[None]:
        """For the ``with`` body, replace ``owner.attr`` (defined on *owner*
        itself) by its timed version, for every ``(owner, attr, span name)``
        of *targets*."""
        originals = []
        try:
            for owner, attr, name in targets:
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self.timed(original, name))
            yield
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def call(self, name: str, func, *args) -> Tuple[object, range]:
        """``func(*args)`` under a root span called *name*; returns its
        result and the index range of the spans it recorded, root first."""
        first = len(self.name_id)
        result = self.timed(func, name)(*args)
        return result, range(first, len(self.name_id))

    # -- reading ---------------------------------------------------------------

    def duration(self, root: range) -> float:
        return self.end[root.start] - self.start[root.start]

    def totals(self, root: range) -> Dict[str, Tuple[float, float, int]]:
        """``name -> (self seconds, total seconds, calls)`` under *root*."""
        window = slice(root.start, root.stop)
        ids = np.asarray(self.name_id[window], dtype=np.int64)
        parent = np.asarray(self.parent[window], dtype=np.int64) - root.start
        dur = np.asarray(self.end[window]) - np.asarray(self.start[window])
        n = len(self.names)
        total = np.bincount(ids, weights=dur, minlength=n)
        calls = np.bincount(ids, minlength=n)
        nested = parent >= 0
        child = np.bincount(ids[parent[nested]], weights=dur[nested],
                            minlength=n)
        return {name: (float(total[i] - child[i]), float(total[i]),
                       int(calls[i]))
                for i, name in enumerate(self.names) if calls[i]}

    def write_jsonl(self, path) -> None:
        """One JSON object per span, gzip-compressed (a per-packet run
        records several hundred thousand spans)."""
        names = self.names
        with gzip.open(path, "wt") as out:
            for i, nid in enumerate(self.name_id):
                out.write(json.dumps({
                    "span": i, "name": names[nid], "start": self.start[i],
                    "end": self.end[i], "parent": self.parent[i]}))
                out.write("\n")
