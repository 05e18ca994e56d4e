"""IO transports: the static methods (POSIX, MPI-IO baseline, split files,
stagger) and Adaptive IO."""

from repro.core.transports.base import OutputResult, Transport, WriterTiming
from repro.core.transports.static import (
    MpiIoTransport,
    PosixTransport,
    SplitFilesTransport,
    StaggerTransport,
)
from repro.core.transports.adaptive import AdaptiveTransport
from repro.core.transports.history import (
    HistoryAwareAdaptiveTransport,
    PerformanceHistory,
)

__all__ = [
    "AdaptiveTransport",
    "HistoryAwareAdaptiveTransport",
    "MpiIoTransport",
    "OutputResult",
    "PerformanceHistory",
    "PosixTransport",
    "SplitFilesTransport",
    "StaggerTransport",
    "Transport",
    "WriterTiming",
]
