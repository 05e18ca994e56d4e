"""The benchmark's four workloads, each a family of seeded figure cells.

A workload cell is built in two timed phases:

* ``setup(seed, scale)`` builds the machine, installs production noise,
  starts the interference job and constructs the transport, returning
  a :class:`Cell`;
* ``Cell.write()`` runs the simulated write (``Transport.run``,
  ``run_ior`` or ``run_tenants``) and returns the raw result.

``signature(raw)`` reduces a raw result to the JSON-safe outputs the
output check compares bit-exactly against ``references.json``.

Every workload exists at two scales: ``full`` (what the benchmark
measures) and ``smoke`` (a seconds-long version for the self-test).
The program receives only the built machine and app; the cell seed is
the only input the benchmark varies.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.apps import AppKernel, Variable
from repro.apps.xgc1 import xgc1
from repro.core.transports import AdaptiveTransport
from repro.faults import two_ost_failure_plan
from repro.interference import BackgroundWriterJob, install_production_noise
from repro.interference.markov import global_chain, per_ost_chain
from repro.interference.production import NoisePreset
from repro.ior import IorConfig, run_ior
from repro.machines import jaguar
from repro.qos import QosConfig, TenantContract, TenantJob, run_tenants
from repro.telemetry import MetricsRegistry
from repro.trace.tracer import Tracer
from repro.units import GB, MB

__all__ = ["Cell", "Workload", "WORKLOADS", "SCALES", "probe_cell"]

SCALES = ("full", "smoke")


@dataclass
class Cell:
    """A set-up cell, ready to write."""

    machine: Any
    write: Callable[[], Any]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Reference cell seeds per scale; one pass of a run covers them all.
    pool: Dict[str, int]
    setup: Callable[[int, str], Cell]
    signature: Callable[[Any], dict]
    #: The transport results inside a raw result (for per-layer counts).
    results: Callable[[Any], List[Any]]
    #: Runs one untimed composition probe per pass (adaptive-failstop).
    probe: bool = False


def _writers_digest(result) -> str:
    """sha256 over every writer's ``(rank, start, end, bytes)``."""
    h = hashlib.sha256()
    for w in sorted(result.per_writer, key=lambda w: (w.rank, w.start)):
        h.update(struct.pack("<qddd", w.rank, w.start, w.end, w.nbytes))
    return h.hexdigest()


def _output_signature(result) -> dict:
    return {
        "reported_time": float(result.reported_time),
        "aggregate_bandwidth": float(result.aggregate_bandwidth),
        "writers_sha256": _writers_digest(result),
    }


# -- adaptive-interf / adaptive-failstop -----------------------------------
# The appbench sweep presets: pool size, adaptive targets, stripe cap,
# process count.  ``full`` is the paper's headline 8192-proc cell.
_ADAPTIVE = {
    "full": dict(pool=672, targets=512, cap=160, procs=8192,
                 fail=(100, 300), fail_at=2.0),
    "smoke": dict(pool=24, targets=16, cap=8, procs=64,
                  fail=(10, 13), fail_at=0.5),
}


def _adaptive_cell(seed: int, cfg: dict, faults=None) -> Cell:
    spec = jaguar(n_osts=cfg["pool"]).with_overrides(
        max_stripe_count=cfg["cap"]
    )
    machine = spec.build(
        n_ranks=cfg["procs"], seed=seed, extra_service_nodes=2,
        faults=faults,
    )
    install_production_noise(machine, live=True)
    # The paper's interference program: 24 writers, three per OST, on
    # the first eight targets, writing 1 GB at a time.
    BackgroundWriterJob(
        machine, n_osts=8, writers_per_ost=3, write_size=1.0 * GB
    ).start()
    transport = AdaptiveTransport(n_osts_used=cfg["targets"])
    app = xgc1()
    return Cell(machine, lambda: transport.run(machine, app,
                                               output_name="out"))


def _setup_interf(seed: int, scale: str) -> Cell:
    return _adaptive_cell(seed, _ADAPTIVE[scale])


def _setup_failstop(seed: int, scale: str) -> Cell:
    cfg = _ADAPTIVE[scale]
    # Two adaptive targets fail-stop mid-write; both lie off the
    # interference job's targets 0-7.
    plan = two_ost_failure_plan(osts=cfg["fail"], at=cfg["fail_at"])
    return _adaptive_cell(seed, cfg, faults=plan)


def probe_cell() -> Cell:
    """The known composition defect (ROADMAP item 4), as one cell.

    The 84-OST interference cell with a fail-stop on interference
    target 3 alongside adaptive target 40.  Today the background job
    does not survive it: ``SimulationError: process 'bg.w10' crashed:
    OstFailedError``.  The cell is the same at every scale.
    """
    plan = two_ost_failure_plan(osts=(3, 40), at=0.5)
    return _adaptive_cell(
        0, dict(pool=84, targets=64, cap=20, procs=256), faults=plan
    )


def _one(raw) -> List[Any]:
    return [raw]


# -- ior-churn -------------------------------------------------------------
# Fig. 1's ``large`` cell: 12 file-per-process writers per OST.
_IOR = {
    "full": dict(osts=672, writers=8064, mb=8),
    "smoke": dict(osts=8, writers=32, mb=8),
}


def _setup_ior(seed: int, scale: str) -> Cell:
    cfg = _IOR[scale]
    machine = jaguar(n_osts=cfg["osts"]).build(
        n_ranks=cfg["writers"], seed=seed
    )
    install_production_noise(
        machine,
        preset=NoisePreset(per_ost_chain(), global_chain(), intensity=0.25),
        live=False,
    )
    config = IorConfig(
        n_writers=cfg["writers"], block_size=cfg["mb"] * MB, api="posix",
        n_osts_used=cfg["osts"],
    )
    return Cell(machine, lambda: run_ior(machine, config))


# -- qos-tenants-instrumented ----------------------------------------------
# The QoS sweep's five-tenant cell: four adaptive victims holding mixed
# floors (weights 1, 1.25, 1.5, 1.75 over 80% of guaranteed capacity)
# and a ceiling-capped scavenger.  ``full`` is its large preset.
_QOS = {
    "full": dict(osts=64, cap=32, victim_ranks=32, victim_mb=192.0,
                 scavenger_ranks=192, scavenger_mb=192.0),
    "smoke": dict(osts=16, cap=8, victim_ranks=8, victim_mb=96.0,
                  scavenger_ranks=32, scavenger_mb=96.0),
}
_N_VICTIMS = 4


def _qos_config(pool_bw: float) -> QosConfig:
    guaranteed = 0.8 * pool_bw
    weights = [1.0 + 0.25 * i for i in range(_N_VICTIMS)]
    floors = [0.8 * guaranteed * w / sum(weights) for w in weights]
    contracts = [
        TenantContract(f"victim{i}", floor=f) for i, f in enumerate(floors)
    ]
    contracts.append(TenantContract(
        "scavenger", floor=0.08 * guaranteed, ceiling=0.15 * pool_bw
    ))
    return QosConfig(contracts=tuple(contracts))


def _tenant_app(name: str, mb: float) -> AppKernel:
    return AppKernel(name, [Variable("x", shape=(int(mb * MB / 8),))])


def _setup_qos(seed: int, scale: str) -> Cell:
    cfg = _QOS[scale]
    spec = jaguar(n_osts=cfg["osts"]).with_overrides(
        max_stripe_count=cfg["cap"]
    )
    n_ranks = _N_VICTIMS * cfg["victim_ranks"] + cfg["scavenger_ranks"]
    # The program's own instrumentation, attached for the whole run.
    machine = spec.build(n_ranks=n_ranks, seed=seed,
                         metrics=MetricsRegistry(), tracer=Tracer())
    config = _qos_config(cfg["osts"] * spec.ost_config.drain_peak)
    jobs = [
        TenantJob(f"victim{i}", AdaptiveTransport(),
                  _tenant_app("victim", cfg["victim_mb"]),
                  cfg["victim_ranks"])
        for i in range(_N_VICTIMS)
    ]
    jobs.append(TenantJob(
        "scavenger", AdaptiveTransport(),
        _tenant_app("scavenger", cfg["scavenger_mb"]),
        cfg["scavenger_ranks"],
    ))
    return Cell(machine, lambda: run_tenants(machine, jobs, qos=config))


def _qos_signature(raw) -> dict:
    return {
        "tenants": [
            {
                "name": o.name,
                "clean": o.clean,
                "completion_seconds": float(o.completion_seconds),
                "served_bytes": float(o.served_bytes),
                "throttled_bytes": float(o.throttled_bytes),
            }
            for o in raw.outcomes
        ]
    }


def _qos_results(raw) -> List[Any]:
    return [o.result for o in raw.outcomes if o.result is not None]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("adaptive-interf", {"full": 6, "smoke": 2},
                 _setup_interf, _output_signature, _one),
        Workload("adaptive-failstop", {"full": 4, "smoke": 2},
                 _setup_failstop, _output_signature, _one, probe=True),
        Workload("ior-churn", {"full": 12, "smoke": 2},
                 _setup_ior, _output_signature, _one),
        Workload("qos-tenants-instrumented", {"full": 24, "smoke": 2},
                 _setup_qos, _qos_signature, _qos_results),
    )
}
