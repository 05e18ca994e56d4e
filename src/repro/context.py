"""One run configuration for every machine build and sweep batch.

A :class:`RunContext` carries the settings that machine builds and
sweep batches share: the tracer, the metrics registry, the fault plan,
the sweep journal directory, the worker count, and the per-job timeout
and retry cap.

Each value is resolved by one rule: an explicit argument at the call
site, else the context installed by the innermost :func:`using` block,
else the ``REPRO_*`` environment variables, parsed afresh by
:func:`current` whenever no context is installed::

    with using(faults=plan, jobs=4):
        fig3.run("small")

The context is frozen and picklable.  The sweep scheduler sends it to
its worker processes, so a sample sees the same configuration whether
it runs inline or in a worker started by ``fork``, ``spawn`` or
``forkserver``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan
    from repro.telemetry import MetricsRegistry
    from repro.trace.tracer import Tracer

__all__ = ["RunContext", "current", "using"]


@dataclass(frozen=True)
class RunContext:
    """Instrumentation, fault plan and sweep knobs for one scope.

    ``jobs`` of ``0`` (or less) means one worker per CPU core;
    ``job_timeout`` (seconds) and ``job_retries`` of ``None`` keep the
    scheduler's defaults.
    """

    tracer: Optional["Tracer"] = None
    metrics: Optional["MetricsRegistry"] = None
    faults: Optional["FaultPlan"] = None
    journal_dir: Optional[str] = None
    jobs: int = 1
    job_timeout: Optional[float] = None
    job_retries: Optional[int] = None

    @classmethod
    def from_env(cls) -> "RunContext":
        """The context the ``REPRO_*`` environment variables describe.

        ``REPRO_FAULTS`` names a fault-plan JSON file, ``REPRO_JOURNAL``
        a journal state directory, ``REPRO_JOBS`` the worker count,
        ``REPRO_JOB_TIMEOUT`` and ``REPRO_JOB_RETRIES`` the per-job
        budget.  Unset or empty variables leave the defaults.
        """
        faults = None
        path = os.environ.get("REPRO_FAULTS", "").strip()
        if path:
            from repro.faults import FaultPlan

            faults = FaultPlan.from_json(path)
        jobs = _env("REPRO_JOBS", int, "an integer")
        return cls(
            faults=faults,
            journal_dir=os.environ.get("REPRO_JOURNAL", "").strip() or None,
            jobs=1 if jobs is None else jobs,
            job_timeout=_env("REPRO_JOB_TIMEOUT", float, "a number"),
            job_retries=_env("REPRO_JOB_RETRIES", int, "an integer"),
        )


def _env(name: str, kind: type, what: str):
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"{name} must be {what}, got {raw!r}") from None


_installed: Optional[RunContext] = None


def current() -> RunContext:
    """The installed context, else one read from the environment now."""
    return _installed if _installed is not None else RunContext.from_env()


@contextmanager
def using(**changes) -> Iterator[RunContext]:
    """Install ``replace(current(), **changes)`` for the ``with`` block.

    The previous context (or none) is restored on exit, also when the
    block raises.
    """
    global _installed
    previous = _installed
    _installed = replace(current(), **changes)
    try:
        yield _installed
    finally:
        _installed = previous
