"""Seeded sampling utilities shared by all experiments."""

from __future__ import annotations

import os
from contextlib import contextmanager
from enum import Enum

from repro.context import using

__all__ = [
    "Scale",
    "metrics_to",
    "n_samples_override",
    "resolve_preset",
    "scale_from_env",
    "sample_seed",
    "trace_to",
]


class Scale(str, Enum):
    """Experiment size preset."""

    SMOKE = "smoke"  # seconds; used by the test suite
    SMALL = "small"  # benchmark default: reduced machine, full shape
    LARGE = "large"  # full Jaguar machine, single sweep cell per figure
    PAPER = "paper"  # publication configuration (slow)
    EXA = "exa"  # beyond-Jaguar projection: ~5000 OSTs, 64k writers

    @classmethod
    def parse(cls, value: "str | Scale") -> "Scale":
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except ValueError:
            raise ValueError(
                f"unknown scale {value!r}; choose from "
                f"{[s.value for s in cls]}"
            ) from None


def scale_from_env(default: "str | Scale" = Scale.SMALL) -> Scale:
    """Scale selected by the REPRO_SCALE environment variable."""
    return Scale.parse(os.environ.get("REPRO_SCALE", default))


# LARGE validates that a full-machine cell *completes* — figures that
# have nothing machine-size-specific to prove at that scale simply run
# their PAPER configuration instead of each growing a near-duplicate
# preset.  EXA is only meaningful for figures that define it (today
# the application sweep); everything else falls back to LARGE.
_PRESET_FALLBACKS = {Scale.LARGE: Scale.PAPER, Scale.EXA: Scale.LARGE}


def resolve_preset(presets, scale: "str | Scale"):
    """Look up a figure's preset table with documented fallbacks.

    ``presets[scale]`` when the figure defines that scale directly;
    otherwise the fallback chain in :data:`_PRESET_FALLBACKS`
    (``EXA -> LARGE -> PAPER``), followed transitively so a figure
    with only a PAPER preset still resolves at EXA.  Raises
    ``KeyError`` only for a scale the figure neither defines nor
    inherits.
    """
    scale = Scale.parse(scale)
    probe = scale
    while probe is not None:
        if probe in presets:
            return presets[probe]
        probe = _PRESET_FALLBACKS.get(probe)
    raise KeyError(
        f"no {scale.value!r} preset (and no fallback) for this figure"
    )


def sample_seed(base_seed: int, sample: int) -> int:
    """Derived per-sample seed (stable, collision-free spacing)."""
    return base_seed * 1_000_003 + sample


def n_samples_override(default: int) -> int:
    """Sample count for a sweep cell: ``REPRO_SAMPLES`` or *default*.

    Lets a caller raise (or lower) every preset's per-cell sample
    count without touching the scale — e.g. regenerate smoke-scale
    artifacts with real error bars via ``REPRO_SAMPLES=3``.
    """
    env = os.environ.get("REPRO_SAMPLES", "").strip()
    if not env:
        return default
    n = int(env)
    if n < 1:
        raise ValueError(f"REPRO_SAMPLES must be >= 1, got {n}")
    return n


@contextmanager
def trace_to(path: str, tracer=None):
    """Trace every machine built inside the block; export on exit.

    Installs a :class:`~repro.trace.Tracer` in the run context (every
    :meth:`MachineSpec.build` picks it up) and writes the Chrome
    trace-event JSON to *path* when the block finishes — even on error,
    so a crashed experiment still leaves an inspectable trace.

    >>> with trace_to("trace.json"):         # doctest: +SKIP
    ...     fig6.run("smoke")
    """
    from repro.trace import Tracer, chrome

    t = tracer if tracer is not None else Tracer()
    try:
        with using(tracer=t):
            yield t
    finally:
        chrome.export(t.events, path)


@contextmanager
def metrics_to(path: str, registry=None):
    """Collect telemetry from every machine built inside the block.

    The registry twin of :func:`trace_to`: installs a
    :class:`~repro.telemetry.MetricsRegistry` in the run context
    (every :meth:`MachineSpec.build` attaches it, and
    :mod:`repro.harness.parallel` ships worker snapshots back into it)
    and writes the JSON snapshot to *path* when the block finishes —
    even on error.  Collection is non-perturbing: results are
    bit-identical with or without it.

    >>> with metrics_to("metrics.json"):     # doctest: +SKIP
    ...     fig6.run("smoke")
    """
    from repro.telemetry import MetricsRegistry

    reg = registry if registry is not None else MetricsRegistry()
    try:
        with using(metrics=reg):
            yield reg
    finally:
        with open(path, "w") as fh:
            fh.write(reg.to_json())
