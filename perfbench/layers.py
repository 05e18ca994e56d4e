"""Per-layer accounting for the traced run.

:func:`tracing` patches the public entry points of every simulator
layer (plus the private ones :class:`repro.telemetry.Profiler` already
wraps) so that each call pushes a section onto a ``Profiler`` stack and
pops it on return.  The profiler's stack arithmetic turns that into
exclusive self time per section; the wrappers also count calls where a
per-layer metric is a call count.  Everything is restored on exit, so
untraced cells run the unmodified program.

Generator methods (``FileSystem.write`` and friends run inside the
calling process via ``yield from``) are wrapped by a proxy generator
that accounts each resumption, not just the call that creates the
generator.

:func:`layer_metrics` turns one traced cell into the benchmark's
per-layer metrics: self seconds per section, the counts the wrappers
kept, and counts read off the machine and results afterwards.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple

from repro.telemetry import Profiler

__all__ = ["SECTIONS", "tracing", "layer_metrics"]

# (module, class or "" for a module function, attributes, section,
#  call counter or "", generator method)
_SPECS: Tuple[Tuple[str, str, Tuple[str, ...], str, str, bool], ...] = (
    ("repro.sim.engine", "Environment", ("run",), "sim.self_s", "", False),
    ("repro.sim.engine", "Environment", ("process",), "sim.self_s",
     "sim.processes", False),
    ("repro.net.fabric", "FlowNetwork", ("_settle",), "fabric.settle_s",
     "", False),
    ("repro.lustre.ost", "OstPool", ("capacities",), "ost.capacities_s",
     "ost.calls", False),
    ("repro.lustre.ost", "OstPool", ("next_transition",),
     "ost.next_transition_s", "ost.calls", False),
    ("repro.lustre.ost", "OstPool", ("advance",), "ost.advance_s",
     "ost.calls", False),
    ("repro.lustre.filesystem", "FileSystem", ("write",), "fs.write_s",
     "fs.writes", True),
    ("repro.lustre.filesystem", "FileSystem", ("record_aggregated_write",),
     "fs.write_s", "fs.writes", False),
    ("repro.lustre.filesystem", "FileSystem", ("create", "open", "close"),
     "fs.create_s", "", True),
    ("repro.lustre.filesystem", "FileSystem",
     ("allocate_osts", "allocate_healthy_osts", "lookup"),
     "fs.create_s", "", False),
    ("repro.lustre.filesystem", "FileSystem", ("flush",), "fs.flush_s",
     "", True),
    ("repro.lustre.filesystem", "FileSystem", ("flush_marker",),
     "fs.flush_s", "", False),
    ("repro.core.transports.adaptive", "_GroupStream",
     ("begin", "_on_timer", "_on_rate_change", "_on_flow_done",
      "_on_lane_done"),
     "protocol.stream_s", "", False),
    ("repro.apps.base", "AppKernel", ("index_entries",), "index.entries_s",
     "", False),
    ("repro.apps.base", "AppKernel", ("characteristics_of",),
     "index.characteristics_s", "", False),
    # apps.base binds block_checksum by name at import: patch it there.
    ("repro.apps.base", "", ("block_checksum",), "index.checksum_s", "",
     False),
    ("repro.mpi.comm", "SimComm", ("send",), "mpi.send_s", "mpi.sends",
     False),
    ("repro.lustre.ost", "OstPool", ("set_load_multiplier",),
     "interference.s", "interference.multiplier_updates", False),
    ("repro.interference.production", "ProductionNoise",
     ("initialize_stationary", "start"), "interference.s", "", False),
    ("repro.interference.background", "BackgroundWriterJob",
     ("start", "stop"), "interference.s", "", False),
    ("repro.faults.injector", "FaultInjector",
     ("arm", "register", "perturb_send", "summary", "_apply", "_revert"),
     "faults.s", "", False),
    ("repro.lustre.ost", "OstPool",
     ("fail_ost", "hang_ost", "brownout_ost", "recover_ost"),
     "faults.s", "", False),
    ("repro.net.fabric", "FlowNetwork", ("fail_sink",), "faults.s", "",
     False),
    ("repro.qos.plane", "QosControlPlane", ("_on_tick",), "qos.tick_s",
     "qos.ticks", False),
    ("repro.qos.plane", "QosControlPlane", ("install", "stop", "summary"),
     "qos.tick_s", "", False),
    ("repro.net.fabric", "FlowNetwork",
     ("set_tenant_limits", "tenant_accounting"), "qos.tick_s", "", False),
    ("repro.trace.tracer", "Tracer",
     ("begin", "end", "complete", "instant", "counter", "close_open_spans"),
     "instr.trace_s", "", False),
    ("repro.telemetry.monitor", "OnlineMonitor", ("install", "_on_settle"),
     "instr.telemetry_s", "", False),
    ("repro.telemetry.registry", "MetricsRegistry",
     ("counter", "gauge", "histogram", "series"), "instr.telemetry_s", "",
     False),
    ("repro.telemetry.registry", "Counter", ("inc",), "instr.telemetry_s",
     "", False),
    ("repro.telemetry.registry", "Gauge", ("set",), "instr.telemetry_s", "",
     False),
    ("repro.telemetry.registry", "Histogram", ("observe",),
     "instr.telemetry_s", "", False),
    ("repro.telemetry.registry", "Series", ("sample",), "instr.telemetry_s",
     "", False),
    ("repro.machines.base", "MachineSpec", ("build",), "machines.build_s",
     "", False),
)

# Process bodies: the interference generators' processes are the
# interference layer; every other process body is transport protocol.
_INTERFERENCE_PROCS = ("noise.", "bg.")
_STEP_SECTIONS = ("protocol.step_s", "interference.s")

#: Every self-time section, in report order.
SECTIONS: Tuple[str, ...] = tuple(dict.fromkeys(
    [s[3] for s in _SPECS] + list(_STEP_SECTIONS)
))

def _timed(orig, prof: Profiler, section: str, calls: Counter, key: str):
    push, pop = prof.push, prof.pop

    @functools.wraps(orig)
    def timed(*args, **kwargs):
        if key:
            calls[key] += 1
        push(section)
        try:
            return orig(*args, **kwargs)
        finally:
            pop()

    return timed


def _timed_gen(orig, prof: Profiler, section: str, calls: Counter,
               key: str):
    @functools.wraps(orig)
    def timed(*args, **kwargs):
        if key:
            calls[key] += 1
        return _accounted(orig(*args, **kwargs), prof.push, prof.pop,
                          section)

    return timed


def _accounted(gen, push, pop, section: str):
    """Delegate to *gen*, accounting each resumption to *section*."""
    value, error = None, None
    while True:
        push(section)
        try:
            if error is None:
                target = gen.send(value)
            else:
                target = gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            pop()
        try:
            value, error = (yield target), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # thrown in by the process; re-raised
            value, error = None, exc    # inside gen by the next gen.throw


def _timed_step(orig, prof: Profiler):
    push, pop = prof.push, prof.pop

    @functools.wraps(orig)
    def step(self, send=None, throw=None):
        push(_STEP_SECTIONS[self.name.startswith(_INTERFERENCE_PROCS)])
        try:
            return orig(self, send, throw)
        finally:
            pop()

    return step


@contextmanager
def tracing(prof: Profiler) -> Iterator[Counter]:
    """Account every layer's calls to *prof* inside the block.

    Yields the call counter the wrappers increment.
    """
    calls: Counter = Counter()
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for module, cls, attrs, section, key, is_gen in _SPECS:
            mod = importlib.import_module(module)
            owner = getattr(mod, cls) if cls else mod
            wrap = _timed_gen if is_gen else _timed
            for attr in attrs:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, wrap(orig, prof, section, calls, key))
        from repro.sim.process import Process

        saved.append((Process, "_step", Process.__dict__["_step"]))
        Process._step = _timed_step(Process.__dict__["_step"], prof)
        yield calls
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _extra_sum(results, key: str) -> float:
    return float(sum(r.extra.get(key, 0.0) for r in results))


def layer_metrics(prof: Profiler, calls: Counter, window_s: float,
                  machine, results: List[Any], raw) -> Dict[str, float]:
    """The per-layer metrics of one traced cell.

    ``window_s`` is the traced wall time (set-up plus write) that the
    self times and ``other_s`` split between them.
    """
    out: Dict[str, float] = {
        s: float(prof.self_time.get(s, 0.0)) for s in SECTIONS
    }
    out["other_s"] = window_s - sum(out[s] for s in SECTIONS)
    fab = machine.fs.fabric
    indexes = [r.index for r in results if r.index is not None]
    tracer = machine.env.tracer
    out.update({
        "sim.events": machine.env.events_scheduled,
        "sim.processes": calls["sim.processes"],
        "fabric.settles": fab.settle_count,
        "fabric.reallocs": fab.realloc_count,
        "fabric.incremental": fab.incremental_count,
        "fabric.coalesced": fab.coalesced_count,
        "fabric.flows_started": fab._next_id,
        "fabric.reallocs_per_settle":
            fab.realloc_count / max(fab.settle_count, 1),
        "ost.calls": calls["ost.calls"],
        "fs.writes": calls["fs.writes"],
        "protocol.adaptive_writes": sum(r.n_adaptive_writes
                                        for r in results),
        "protocol.busy_bounces": _extra_sum(results, "busy_bounces"),
        "index.entries": sum(ix.n_blocks for ix in indexes),
        "index.bytes": sum(ix.serialized_bytes for ix in indexes),
        "mpi.sends": calls["mpi.sends"],
        "interference.multiplier_updates":
            calls["interference.multiplier_updates"],
        "faults.injected":
            len(machine.faults.injected) if machine.faults else 0,
        "faults.retries": _extra_sum(results, "fault_retries"),
        "faults.aborts": _extra_sum(results, "fault_aborts"),
        "faults.relocations": _extra_sum(results, "sc_relocations"),
        "qos.ticks": calls["qos.ticks"],
        "qos.throttled_gb": sum(
            o.throttled_bytes for o in getattr(raw, "outcomes", ())
        ) / 1e9,
        "instr.trace_events": len(tracer.events) if tracer else 0,
        "instr.instruments": len(machine.metrics) if machine.metrics else 0,
    })
    return {k: float(v) for k, v in out.items()}
