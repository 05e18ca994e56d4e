"""Resilience sweep — goodput under injected storage-target failures.

The paper's adaptive method reacts to *slow* targets; the fault
subsystem extends it to react to *dead* ones.  This sweep quantifies
that: fail ``k`` of the pool's OSTs mid-write (at ~40% of each
method's own fault-free write time) and compare methods on

* **goodput** — application bytes per second until a *complete*
  durable output exists.  A partial checkpoint has no restart value,
  so a static method whose attempt loses an OST's worth of data pays
  for a full re-run on the surviving targets (failed-attempt time
  included), exactly as an application-level retry loop would.  The
  adaptive method recovers *within* the run — relocating the affected
  sub-files onto healthy targets and re-driving the affected writers
  — so its recovery cost is only the rewritten fraction;
* **durability** — fraction of application bytes the *first* attempt
  landed (100% for a method that recovers in-run).

The static methods (stripe-aligned MPI-IO, split files) have no
recovery path: writers targeting a failed OST record a defined
failure and the run reports partial output via
:class:`~repro.errors.TransportError`.

All cells run under live production noise (the paper's operating
regime); each sample derives its own seed and builds its own machine,
so the sweep fans out over worker processes bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List

import numpy as np

from repro.harness.experiment import (
    Scale,
    n_samples_override,
    resolve_preset,
)
from repro.harness.parallel import run_samples
from repro.harness.report import format_table

__all__ = ["run", "ResilienceResult", "K_FAILED", "METHODS"]

# Pool/cap keep Jaguar's shape (672 targets, 160-stripe cap ≈ 4.2:1):
# the stripe-capped single file cannot reach the whole pool, which is
# the internal-interference regime the paper's comparison runs in.
_PRESETS = {
    Scale.SMOKE: dict(n_osts=16, cap=4, n_ranks=64, mb=16.0, samples=1),
    Scale.SMALL: dict(n_osts=32, cap=8, n_ranks=128, mb=32.0, samples=3),
    Scale.PAPER: dict(n_osts=672, cap=160, n_ranks=2048, mb=128.0,
                      samples=3),
}

#: Storage targets failed mid-write in each sweep column.
K_FAILED = (0, 1, 2, 4)

#: IO methods compared (adaptive + the static baselines).
METHODS = ("adaptive", "mpiio", "splitfiles")


def _make_transport(method: str):
    from repro.core.transports import (
        AdaptiveTransport,
        MpiIoTransport,
        SplitFilesTransport,
    )

    if method == "mpiio":
        return MpiIoTransport(build_index=False)
    if method == "splitfiles":
        return SplitFilesTransport(build_index=False)
    return AdaptiveTransport()


def _app(mb: float):
    from repro.apps import AppKernel, Variable
    from repro.units import MB

    return AppKernel(
        "resil", [Variable("v", shape=(int(mb * MB / 8),))]
    )


def _fault_free_build(spec, n_ranks: int, seed: int):
    """A machine with no fault plan, whatever the run context holds.

    The artifact injects only the plans it builds itself, so an
    ambient plan (``--faults``) must not reach its baselines.
    """
    from repro.context import using

    with using(faults=None):
        return spec.build(n_ranks=n_ranks, seed=seed)


def _one_cell(seed: int, method: str, k: int, n_osts: int, cap: int,
              n_ranks: int, mb: float) -> Dict[str, float]:
    """One (method, k-failures) sample; returns JSON-safe scalars."""
    from repro.errors import TransportError
    from repro.faults import FaultEvent, FaultPlan
    from repro.interference import install_production_noise
    from repro.machines import jaguar

    spec = jaguar(n_osts=n_osts).with_overrides(max_stripe_count=cap)
    app = _app(mb)
    transport = _make_transport(method)

    # Fault-free run: the method's own write time sizes the mid-write
    # failure instant, so every method is hit at the same *fraction*
    # of its output (not the same wall instant).
    m0 = _fault_free_build(spec, n_ranks, seed)
    install_production_noise(m0, live=True)
    base = transport.run(m0, app, output_name="resil")
    if k == 0:
        return {
            "goodput": base.total_bytes / base.reported_time,
            "bandwidth": base.aggregate_bandwidth,
            "durable_frac": 1.0,
            "completed": 1.0,
            "reported_time": base.reported_time,
        }

    fail_at = max(0.4 * base.write_time, 1e-3)
    # Failures spread evenly over the pool (uncorrelated target deaths,
    # not a correlated enclosure loss).
    plan = FaultPlan(
        events=tuple(
            FaultEvent(
                time=fail_at, kind="ost_fail",
                target=(i * n_osts) // k,
            )
            for i in range(k)
        )
    ).with_policy(run_timeout=max(120.0, 50.0 * base.reported_time))
    m = spec.build(n_ranks=n_ranks, seed=seed, faults=plan)
    install_production_noise(m, live=True)
    try:
        res = transport.run(m, app, output_name="resil")
        durable = res.extra.get("bytes_durable", res.total_bytes)
        reported = res.reported_time
        completed = 1.0
    except TransportError as exc:
        durable = exc.bytes_durable
        p = exc.partial
        reported = (
            p.reported_time
            if p is not None and p.reported_time > 0
            else m.env.now
        )
        completed = 0.0
    total = app.per_process_bytes * n_ranks
    first_frac = durable / total
    time_to_complete = reported
    if completed == 0.0:
        # The attempt left a hole; the application's retry loop must
        # redo the whole output.  Model the re-run on the surviving
        # pool (the operator deactivates the dead targets), charging
        # the wasted first attempt to the clock.
        spec2 = jaguar(n_osts=n_osts - k).with_overrides(
            max_stripe_count=cap
        )
        m2 = _fault_free_build(spec2, n_ranks, seed)
        install_production_noise(m2, live=True)
        redo = transport.run(m2, app, output_name="resil")
        time_to_complete = reported + redo.reported_time
    return {
        "goodput": total / time_to_complete if time_to_complete > 0
        else 0.0,
        "bandwidth": total / reported if reported > 0 else 0.0,
        "durable_frac": first_frac,
        "completed": completed,
        "reported_time": time_to_complete,
    }


def _integrity_cell(seed: int, method: str, n_osts: int, cap: int,
                    n_ranks: int, mb: float) -> Dict[str, float]:
    """One integrity sample: detection rates + checksum overhead.

    Three runs per sample: a checksummed fault-free run (scrubbed for
    false positives, and timing the scrub), a checksum-free fault-free
    run (the overhead baseline), and a checksummed run under a
    corruption plan (bitflips, a torn write, a stale index) whose
    scrub must detect every injected defect.
    """
    from repro.apps import AppKernel, Variable
    from repro.core.bp import BpReader
    from repro.core.integrity import detection_stats
    from repro.core.transports import (
        AdaptiveTransport,
        MpiIoTransport,
        SplitFilesTransport,
    )
    from repro.errors import TransportError
    from repro.faults import FaultEvent, FaultPlan
    from repro.interference import install_production_noise
    from repro.machines import jaguar
    from repro.units import MB

    def transport():
        # Unlike the goodput cells these need the global index built,
        # so the scrub has entries to verify against.
        if method == "mpiio":
            return MpiIoTransport()
        if method == "splitfiles":
            return SplitFilesTransport()
        return AdaptiveTransport()

    def app(checksums: bool):
        return AppKernel(
            "resil", [Variable("v", shape=(int(mb * MB / 8),))],
            checksums=checksums,
        )

    spec = jaguar(n_osts=n_osts).with_overrides(max_stripe_count=cap)

    # Checksummed fault-free run: overhead numerator + clean scrub.
    m0 = _fault_free_build(spec, n_ranks, seed)
    install_production_noise(m0, live=True)
    base = transport().run(m0, app(True), output_name="resil")
    reader0 = BpReader(m0.fs, index=base.index, files=base.files)
    clean = detection_stats(reader0.scrub(), m0.fs, base.index)

    # Checksum-free fault-free run: the overhead denominator.
    m1 = _fault_free_build(spec, n_ranks, seed)
    install_production_noise(m1, live=True)
    plain = transport().run(m1, app(False), output_name="resil")
    overhead_pct = (
        100.0 * (base.reported_time - plain.reported_time)
        / plain.reported_time
    )

    # Corruption run.  Adaptive serializes writers so blocks exist
    # mid-phase; the statics register blocks only at write completion,
    # so their corruption lands just after the write phase.
    if method == "adaptive":
        at = max(0.5 * base.write_time, 1e-3)
    else:
        at = (base.open_time + base.write_time
              + max(0.25 * base.flush_time, 1e-3))
    # Low-numbered targets so even the stripe-capped shared file
    # (which touches only ``cap`` targets) is hit by all three kinds.
    plan = FaultPlan(
        events=(
            FaultEvent(time=at, kind="block_bitflip", target=0, factor=2),
            FaultEvent(time=at, kind="torn_write", target=1, factor=0.5),
            FaultEvent(time=at, kind="stale_index", target=2, factor=1),
        ),
    ).with_policy(run_timeout=max(120.0, 50.0 * base.reported_time))
    m2 = spec.build(n_ranks=n_ranks, seed=seed, faults=plan)
    install_production_noise(m2, live=True)
    try:
        res = transport().run(m2, app(True), output_name="resil")
    except TransportError as exc:
        # The statics flag corrupt bytes at finalize; the partial
        # result still carries the index and file list to scrub.
        res = exc.partial
    reader = BpReader(m2.fs, index=res.index, files=res.files)
    proc = m2.env.process(reader.scrub_sim(0), name="resil.scrub")
    m2.env.run(until=proc)
    report, scrub_seconds = proc.value
    det = detection_stats(report, m2.fs, res.index)
    return {
        "truth": float(det["truth"]),
        "detected": float(det["detected"]),
        "undetected": float(det["undetected"]),
        "false_positives": float(det["false_positives"]),
        "fp_clean": float(clean["false_positives"]),
        "overhead_pct": overhead_pct,
        "scrub_seconds": scrub_seconds,
    }


@dataclass
class ResilienceResult:
    """Mean goodput/durability per (method, failure count)."""

    preset: Dict[str, float]
    n_samples: int
    cells: Dict[str, Dict[int, Dict[str, float]]] = field(
        default_factory=dict
    )  # method -> k -> mean metrics
    integrity: Dict[str, Dict[str, float]] = field(
        default_factory=dict
    )  # method -> mean detection/overhead metrics

    def goodput(self, method: str, k: int) -> float:
        return self.cells[method][k]["goodput"]

    def durable_frac(self, method: str, k: int) -> float:
        return self.cells[method][k]["durable_frac"]

    def render(self) -> str:
        rows = []
        for method in METHODS:
            for k in K_FAILED:
                c = self.cells[method][k]
                rows.append((
                    method,
                    k,
                    c["goodput"] / 1e6,
                    100.0 * c["durable_frac"],
                    c["completed"] * 100.0,
                    c["reported_time"],
                ))
        table = format_table(
            ["method", "OSTs failed", "goodput (MB/s)", "durable %",
             "runs clean %", "t_complete (s)"],
            rows,
            title=(
                "Resilience — goodput under mid-write OST fail-stop "
                f"({int(self.preset['n_ranks'])} writers, "
                f"{int(self.preset['n_osts'])} OSTs, "
                f"stripe cap {int(self.preset['cap'])}, "
                f"{self.preset['mb']:.0f} MB/proc, production noise)"
            ),
        )
        if not self.integrity:
            return table
        irows = [
            (
                method,
                int(c["truth"]),
                int(c["detected"]),
                int(c["undetected"]),
                int(c["false_positives"] + c["fp_clean"]),
                c["overhead_pct"],
                c["scrub_seconds"],
            )
            for method, c in self.integrity.items()
        ]
        return table + "\n\n" + format_table(
            ["method", "corrupt blocks", "detected", "undetected",
             "false pos", "cksum overhead %", "scrub (s)"],
            irows,
            title=(
                "Integrity — scrub detection under injected corruption "
                "(bitflip x2, torn write, stale index) and checksum "
                "overhead vs a checksum-free run"
            ),
        )

    def failure_report(self) -> List[str]:
        """Cells whose absorbed ``TransportError`` partials are *not*
        part of the experiment's design.

        The statics are expected to abort when targets die (that is
        the comparison); what must never happen silently is an
        incomplete run with **zero** failures injected (k=0), or the
        adaptive method — whose whole claim is in-run recovery —
        failing to produce a complete output at any k.  The experiment
        CLI turns these into a nonzero exit status.
        """
        problems: List[str] = []
        for method, by_k in self.cells.items():
            for k, cell in by_k.items():
                clean = cell.get("completed", 1.0)
                if clean >= 1.0:
                    continue
                if k == 0:
                    problems.append(
                        f"{method} @ k=0 absorbed an aborted partial "
                        f"result ({100 * clean:.0f}% of runs clean) "
                        "with no faults injected"
                    )
                elif method == "adaptive":
                    problems.append(
                        f"adaptive @ k={k} failed to recover in-run "
                        f"({100 * clean:.0f}% of runs clean; durable "
                        f"{100 * cell.get('durable_frac', 0.0):.1f}%)"
                    )
        return problems

    def to_dict(self) -> Dict:
        return {
            "preset": {k: float(v) for k, v in self.preset.items()},
            "n_samples": self.n_samples,
            "k_failed": list(K_FAILED),
            "cells": {
                method: {
                    str(k): dict(metrics) for k, metrics in by_k.items()
                }
                for method, by_k in self.cells.items()
            },
            "integrity": {
                method: dict(metrics)
                for method, metrics in self.integrity.items()
            },
        }


def run(scale: "Scale | str" = Scale.SMALL,
        base_seed: int = 0) -> ResilienceResult:
    preset = resolve_preset(_PRESETS, scale)
    n_samples = n_samples_override(preset["samples"])
    result = ResilienceResult(
        preset={k: float(v) for k, v in preset.items() if k != "samples"},
        n_samples=n_samples,
    )
    for method in METHODS:
        result.cells[method] = {}
        for k in K_FAILED:
            samples = run_samples(
                partial(
                    _one_cell,
                    method=method,
                    k=k,
                    n_osts=preset["n_osts"],
                    cap=preset["cap"],
                    n_ranks=preset["n_ranks"],
                    mb=preset["mb"],
                ),
                n_samples,
                base_seed,
                label=f"resilience[{method},k={k}]",
            )
            keys = samples[0].keys()
            result.cells[method][k] = {
                key: float(np.mean([s[key] for s in samples]))
                for key in keys
            }
    for method in METHODS:
        samples = run_samples(
            partial(
                _integrity_cell,
                method=method,
                n_osts=preset["n_osts"],
                cap=preset["cap"],
                n_ranks=preset["n_ranks"],
                mb=preset["mb"],
            ),
            n_samples,
            base_seed,
            label=f"resilience.integrity[{method}]",
        )
        keys = samples[0].keys()
        result.integrity[method] = {
            key: float(np.mean([s[key] for s in samples]))
            for key in keys
        }
    return result
