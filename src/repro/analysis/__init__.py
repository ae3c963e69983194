"""Analysis helpers: the DES-vs-model cross-validation and the runtime
coherence monitor."""

from repro.analysis.coherence import CoherenceMonitor, Violation
from repro.analysis.validation import ValidationPoint, drive_at, predict

__all__ = [
    "CoherenceMonitor",
    "ValidationPoint",
    "Violation",
    "drive_at",
    "predict",
]
