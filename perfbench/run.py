"""Host-time benchmark of the simulator: one workload, one run.

    python3 perfbench/run.py --workload adaptive-interf --seed 1 \\
        --seconds 20 --trace 0

Runs from the root of a checkout.  A run measures whole passes over the
workload's reference cells, in an order rotated by ``--seed``, until
``--seconds`` would be exceeded (at least one pass).  Every cell's
simulated outputs are compared bit-exactly with ``references.json``; a
cell that raises or differs counts as failed.

``--trace 0`` reports the end-to-end metrics: median write seconds per
cell, median set-up seconds, the process's peak RSS and the share of
cells that passed.  Host speed on a shared machine drifts by tens of
percent over minutes, so each cell's seconds are scaled by the host's
speed at the time: a fixed reference loop that uses none of the
simulator is timed just before and after the cell, and the cell's
seconds are reported as if that loop had taken ``REF_LOOP_S``.

``--trace 1`` runs every cell twice, untraced and then with every
layer's entry points accounted (see ``layers.py``), and reports
per-layer self seconds and counts, averaged per cell, plus the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report with the host fingerprint.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-ups per cell: the extra ones are discarded, their times kept.
SETUP_REPS = 3

#: The reference loop's duration at nominal host speed.
REF_LOOP_S = 0.005

END_TO_END_UNITS = {
    "cell_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_gb"):
        return "GB"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith(("_frac", "_per_settle")):
        return "ratio"
    return "count"


def host_fingerprint() -> Dict[str, object]:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class _Event:
    __slots__ = ("t", "fn")

    def __init__(self, t: float, fn):
        self.t = t
        self.fn = fn


def _reference_loop(n: int = 3000) -> float:
    """Seconds for a fixed calendar-style loop: heap pops, small objects,
    callbacks and short numpy reductions, like the simulator's hot path
    but sharing none of its code, so no change to ``src/`` moves it."""
    import numpy

    arr = numpy.arange(672, dtype=numpy.float64)
    acc = [0.0]

    def fn(ev: _Event) -> None:
        acc[0] += ev.t

    t0 = perf_counter()
    q: list = []
    for i in range(n):
        heapq.heappush(q, ((i * 7919) % 1000, i, _Event(float(i), fn)))
    while q:
        ev = heapq.heappop(q)[2]
        ev.fn(ev)
        if len(q) % 64 == 0:
            acc[0] += float((arr * 0.5).sum())
    return perf_counter() - t0


def host_speed() -> float:
    """The host's current speed relative to nominal (1.0 = nominal).

    Call it with no cell alive: the collector is off during the loop so
    that the size of the heap does not enter the measurement.
    """
    gc.collect()
    gc.disable()
    try:
        loop_s = statistics.median(_reference_loop() for _ in range(3))
    finally:
        gc.enable()
    return REF_LOOP_S / loop_s


@dataclass
class Tally:
    """What one run measured and checked."""

    #: Seconds scaled to nominal host speed (see ``host_speed``).
    setup: List[float] = field(default_factory=list)
    write: List[float] = field(default_factory=list)
    traced_write: List[float] = field(default_factory=list)
    #: Unscaled write seconds and host speed samples, for the report.
    raw_write: List[float] = field(default_factory=list)
    speeds: List[float] = field(default_factory=list)
    layers: List[Dict[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    timed_crashes: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.mismatched == 0 and self.timed_crashes == 0


def _attempt(write, tally: Tally, what: str):
    """Run one simulated write; a raise counts the cell as failed."""
    from repro.errors import ReproError
    from repro.sim.engine import Deadlock, SimulationError

    tally.attempted += 1
    try:
        return write()
    except (SimulationError, Deadlock, ReproError) as exc:
        tally.failed += 1
        tally.errors.append(f"{what}: {type(exc).__name__}: {exc}")
        return None


def _check(wl, raw, ref: dict, tally: Tally, what: str) -> None:
    got = wl.signature(raw)
    if got != ref:
        tally.failed += 1
        tally.mismatched += 1
        tally.errors.append(f"{what}: outputs differ from reference: "
                            f"{json.dumps(got)}")


def _timed_cell(wl, seed: int, scale: str, ref: dict, tally: Tally,
                what: str):
    """Set up and write one cell and check its outputs.

    Returns the cell, the raw result (None if the write raised) and the
    set-up and write seconds.
    """
    t0 = perf_counter()
    cell = wl.setup(seed, scale)
    t1 = perf_counter()
    raw = _attempt(cell.write, tally, what)
    t2 = perf_counter()
    if raw is None:
        tally.timed_crashes += 1
    else:
        _check(wl, raw, ref, tally, what)
    return cell, raw, t1 - t0, t2 - t1


def _measure(wl, seed: int, scale: str, ref: dict, tally: Tally) -> None:
    """One untraced cell: set-ups, then the timed write and its check."""
    speed = host_speed()
    setups = []
    for _ in range(SETUP_REPS - 1):
        t0 = perf_counter()
        wl.setup(seed, scale)
        setups.append(perf_counter() - t0)
    gc.collect()
    cell, raw, setup_s, write_s = _timed_cell(wl, seed, scale, ref, tally,
                                              f"cell {seed}")
    setups.append(setup_s)
    completed = raw is not None
    del cell, raw
    after = host_speed()
    tally.speeds += [speed, after]
    speed = (speed + after) / 2
    tally.setup.extend(t * speed for t in setups)
    if completed:
        tally.write.append(write_s * speed)
        tally.raw_write.append(write_s)


def _measure_traced(wl, seed: int, scale: str, ref: dict,
                    tally: Tally) -> None:
    """One traced cell: set-up and write with every layer accounted."""
    from layers import layer_metrics, tracing
    from repro.telemetry import Profiler

    speed = host_speed()
    prof = Profiler()
    with tracing(prof) as calls:
        cell, raw, setup_s, write_s = _timed_cell(
            wl, seed, scale, ref, tally, f"traced cell {seed}"
        )
    if raw is None:
        return
    tally.layers.append(layer_metrics(
        prof, calls, setup_s + write_s, cell.machine, wl.results(raw), raw
    ))
    del cell, raw
    tally.traced_write.append(write_s * (speed + host_speed()) / 2)


def _probe(tally: Tally) -> None:
    """The untimed composition probe; it has no reference output."""
    from workloads import probe_cell

    gc.collect()
    _attempt(probe_cell().write, tally, "probe")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full",
                 references: Optional[dict] = None) -> Tally:
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    if references is None:
        references = load_references()
    refs = references[scale][name]
    k = wl.pool[scale]
    seeds = [(seed + i) % k for i in range(k)]
    tally = Tally()
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        for s in seeds:
            _measure(wl, s, scale, refs[str(s)], tally)
            if trace:
                _measure_traced(wl, s, scale, refs[str(s)], tally)
        if wl.probe:
            _probe(tally)
        now = perf_counter()
        if now - t_start + (now - t_pass) > seconds:
            return tally


def load_references() -> dict:
    return json.loads((HERE / "references.json").read_text())


def metrics_of(tally: Tally, trace: bool) -> Dict[str, float]:
    if not trace:
        return {
            "cell_wall_s": statistics.median(tally.write),
            "setup_s": statistics.median(tally.setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac":
                (tally.attempted - tally.failed) / tally.attempted,
        }
    n = len(tally.layers)
    out = {
        key: sum(cell[key] for cell in tally.layers) / n
        for key in tally.layers[0]
    }
    out["trace_overhead_frac"] = (
        statistics.median(tally.traced_write)
        / statistics.median(tally.write) - 1.0
    )
    return out


def result_json(tally: Tally, metrics: Dict[str, float]) -> dict:
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()
        },
    }


def report(name: str, seed: int, trace: bool, tally: Tally,
           metrics: Dict[str, float]) -> str:
    lines = [
        f"# host {json.dumps(host_fingerprint())}",
        f"# workload {name}, seed {seed}, trace {'on' if trace else 'off'}:"
        f" {len(tally.write)} timed cells, unscaled median write "
        f"{statistics.median(tally.raw_write):.6g} s, mean host speed "
        f"{statistics.mean(tally.speeds):.4g}",
    ]
    for k, v in metrics.items():
        lines.append(f"{k:<34} {v:>14.6g} {unit_of(k)}")
    fail_frac = tally.failed / tally.attempted
    lines.append(f"{'fail_frac':<34} {fail_frac:>14.6g} ratio "
                 f"({tally.failed}/{tally.attempted} cells failed)")
    lines.extend(f"# failed {e.splitlines()[0][:300]}" for e in tally.errors)
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no simulator sources at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    tally = run_workload(args.workload, args.seed, args.seconds, trace)
    if not tally.write or (trace and not tally.layers):
        print("run.py: no cell completed:\n" + "\n".join(tally.errors),
              file=sys.stderr)
        return 1
    metrics = metrics_of(tally, trace)
    print(report(args.workload, args.seed, trace, tally, metrics))
    print(json.dumps(result_json(tally, metrics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
