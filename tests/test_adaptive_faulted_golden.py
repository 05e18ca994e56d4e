"""The adaptive transport's fault-hardened run, pinned to golden fixtures.

A run with a fault plan takes the per-rank, fault-hardened protocol:
every writer retries and verifies its own write, each sub-coordinator
relocates its sub-file off a failed target, the coordinator poisons
failed steering targets and adopts a silent sub-coordinator's group.
``data/adaptive_faulted_golden.json`` holds what that protocol produced
on a set of small faulted cells, and this suite demands that it keep
producing, bit for bit,

* every writer's ``(rank, start, end, nbytes, target_group, adaptive)``,
* ``reported_time``, ``aggregate_bandwidth``, ``n_adaptive_writes``,
  ``files``, the whole ``extra`` dict (durability accounting, fault
  counters, fabric counters), ``messages_sent`` and
  ``coordinator_messages``, and
* every ``steer`` and ``fault`` instant in the trace (run, name, track,
  timestamp, args), in emission order.

A cell whose run raises :class:`~repro.errors.TransportError` pins the
error text, ``bytes_durable``/``bytes_lost``/``bytes_corrupt`` and the
same fields of the partial result.

Cells: the 64-rank, 16-OST fault-tolerance cell (16 MB per rank) under
a two-target fail-stop, a hung target with retries, a sub-coordinator
crash (adopted; the run raises), a bit-flip with read-back verify
(verify-rewrites fire), message delay and message loss; the 48-rank,
6-OST cell (2 MB per rank) under a brownout, a fail-stop on a target
that is being steered onto (``STEER_POISON``), a fail-stop after a
group's data landed (its index write and flush fail; the run raises),
a fail-stop with two writers per target, and a 3-step history-aware
campaign under a fail-stop; and a 64-rank, 8-OST cell with live
production noise and a background writer job, one of whose targets
fails.

Floats are stored with ``repr`` precision, so a comparison is exact.
The fixture's ``generated_by`` names the commit that wrote it.
Regenerate only when the faulted physics is meant to change::

    PYTHONPATH=src python tests/test_adaptive_faulted_golden.py --write
"""

import json
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.apps import AppKernel, Variable
from repro.core.transports import AdaptiveTransport
from repro.core.transports.history import HistoryAwareAdaptiveTransport
from repro.errors import TransportError
from repro.faults import FaultEvent, FaultPlan, two_ost_failure_plan
from repro.interference import BackgroundWriterJob, install_production_noise
from repro.machines import jaguar
from repro.trace import Tracer
from repro.units import MB

GOLDEN = Path(__file__).with_name("data") / "adaptive_faulted_golden.json"

# Fault instants, in seconds after output start.  The 64x16 cell's
# fault-free write phase lasts ~0.215 s; 0.086 s is 40% into it.  On
# the 48x6 cell with OSTs 0 and 1 slowed, steered writes onto group 2
# run from ~0.057 s to ~0.063 s, and by 0.08 s every fast group has
# landed its data and waits, index unwritten, for the slow ones.
FT_AT = 0.086
EQ_AT = 0.03
STEER_AT = 0.058
LATE_AT = 0.08


def kernel(name, mb, n_vars=1):
    per_var = int(mb * MB / 8 / n_vars)
    return AppKernel(
        name, [Variable(f"v{i}", shape=(per_var,)) for i in range(n_vars)]
    )


def _run(transport, m, app, name):
    try:
        return transport.run(m, app, output_name=name)
    except TransportError as exc:
        return exc


def _ft_cell(plan, tracer, seed=0):
    """64 ranks on 16 OSTs (stripe cap 4), 16 MB each."""
    m = jaguar(n_osts=16).with_overrides(max_stripe_count=4).build(
        n_ranks=64, seed=seed, faults=plan
    )
    m.attach_tracer(tracer)
    return [_run(AdaptiveTransport(), m, kernel("ft", 16.0), "ft")]


def _eq_machine(plan, tracer, slow_osts=(), seed=0):
    m = jaguar(n_osts=6).build(n_ranks=48, seed=seed, faults=plan)
    m.attach_tracer(tracer)
    if slow_osts:
        m.pool.set_load_multiplier(0.05, osts=np.array(list(slow_osts)))
    return m


def _eq_cell(plan, tracer, slow_osts=(), **opts):
    """48 ranks on 6 OSTs, 2 MB each."""
    m = _eq_machine(plan, tracer, slow_osts)
    return [_run(AdaptiveTransport(**opts), m, kernel("eq", 2.0, 2), "eq")]


def _history_cell(plan, tracer):
    """A 3-step history-aware campaign, OSTs 0 and 1 at 0.05x, every
    step under the same plan."""
    transport = HistoryAwareAdaptiveTransport()
    return [
        _run(transport, _eq_machine(plan, tracer, (0, 1), seed=step),
             kernel("eq", 2.0, 2), f"h{step}")
        for step in range(3)
    ]


def _interference_cell(plan, tracer):
    """Live production noise plus a background job writing OSTs 5 and
    6, which the adaptive output shares."""
    m = jaguar(n_osts=8).with_overrides(max_stripe_count=4).build(
        n_ranks=64, seed=0, extra_service_nodes=1, faults=plan
    )
    m.attach_tracer(tracer)
    install_production_noise(m, live=True)
    BackgroundWriterJob(m, n_osts=2, writers_per_ost=1,
                        write_size=64 * MB, osts=(5, 6)).start()
    return [_run(AdaptiveTransport(), m, kernel("nz", 16.0, 2), "nz")]


def _plan(*events, **policy):
    plan = FaultPlan(events=events)
    return plan.with_policy(**policy) if policy else plan


def _fail(at, ost):
    return FaultEvent(time=at, kind="ost_fail", target=ost)


CELLS = {
    "failstop-2ost": partial(
        _ft_cell,
        two_ost_failure_plan(osts=(0, 1), at=FT_AT).with_policy(
            run_timeout=120.0)),
    "hang-retry": partial(_ft_cell, _plan(
        FaultEvent(time=FT_AT, kind="ost_hang", target=3),
        write_timeout=0.43, max_retries=2, backoff_base=0.01,
        backoff_cap=0.05, run_timeout=120.0)),
    "sc-crash": partial(_ft_cell, _plan(
        FaultEvent(time=FT_AT, kind="crash_rank", target=4),
        heartbeat_interval=0.1, sc_timeout=0.5, run_timeout=120.0)),
    # The timeline bit-flip rots blocks that already passed their
    # read-back; the silent error rate rots fresh blocks, which the
    # verify loop catches and rewrites.
    "bitflip-verify": partial(_ft_cell, FaultPlan(
        events=(FaultEvent(time=FT_AT, kind="block_bitflip", target=0,
                           factor=2),),
        silent_error_rate=0.2,
    ).with_policy(read_back_verify=True, run_timeout=600.0)),
    "msg-delay": partial(_ft_cell, _plan(
        FaultEvent(time=0.05, kind="msg_delay", factor=1e-3,
                   duration=0.1))),
    "msg-loss": partial(_ft_cell, _plan(
        FaultEvent(time=0.0, kind="msg_loss", factor=0.02),
        heartbeat_interval=0.5, sc_timeout=5.0, run_timeout=30.0)),
    "brownout": partial(_eq_cell, _plan(
        FaultEvent(time=0.005, kind="ost_brownout", target=1, factor=0.3))),
    "steer-poison": partial(
        _eq_cell, _plan(_fail(STEER_AT, 2)), slow_osts=(0, 1)),
    "lanes-failstop": partial(
        _eq_cell, _plan(_fail(EQ_AT, 3)), slow_osts=(0,),
        writers_per_target=2),
    # Lands after group 3's data: nothing to relocate, but its sub-file
    # index write and flush fail and the run raises.
    "late-failstop": partial(
        _eq_cell, _plan(_fail(LATE_AT, 3)), slow_osts=(0, 1)),
    "history-failstop": partial(_history_cell, _plan(_fail(0.01, 3))),
    "interference-failstop": partial(
        _interference_cell, _plan(_fail(0.2, 5))),
}


def writer_tuples(res):
    return sorted(
        (w.rank, w.start, w.end, w.nbytes, w.target_group, w.adaptive)
        for w in res.per_writer
    )


def _result(r):
    return {
        "writers": writer_tuples(r),
        "reported_time": r.reported_time,
        "aggregate_bandwidth": r.aggregate_bandwidth,
        "n_adaptive_writes": r.n_adaptive_writes,
        "files": list(r.files),
        "extra": dict(r.extra),
        "messages_sent": r.messages_sent,
        "coordinator_messages": r.coordinator_messages,
    }


def _outcome(o):
    if isinstance(o, TransportError):
        return {
            "error": str(o),
            "bytes_durable": o.bytes_durable,
            "bytes_lost": o.bytes_lost,
            "bytes_corrupt": o.bytes_corrupt,
            "partial": _result(o.partial),
        }
    return _result(o)


def _instants(tracer):
    return [
        [ev.run, ev.name, ev.tid, ev.ts, dict(sorted((ev.args or {}).items()))]
        for ev in tracer.events
        if ev.ph == "i" and ev.cat in ("steer", "fault")
    ]


def snapshot(name):
    tracer = Tracer()
    outcomes = CELLS[name](tracer)
    pinned = {
        "runs": [_outcome(o) for o in outcomes],
        "instants": _instants(tracer),
    }
    # Through JSON, so tuples compare equal to the stored lists.
    return json.loads(json.dumps(pinned))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["cells"]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_bit_identical(golden, name):
    assert snapshot(name) == golden[name]


def _names(cell):
    return [i[1] for i in cell["instants"]]


class TestCellsExerciseTheirFault:
    """Each pinned cell really takes the recovery path it is named for."""

    def test_relocation_cells_end_durable(self, golden):
        for name in ("failstop-2ost", "hang-retry", "steer-poison",
                     "lanes-failstop", "interference-failstop"):
            run = golden[name]["runs"][0]
            assert run["extra"]["sc_relocations"] >= 1, name
            assert run["extra"]["bytes_lost"] == 0.0, name

    def test_hang_retries(self, golden):
        assert golden["hang-retry"]["runs"][0]["extra"]["fault_retries"] > 0

    def test_steered_target_poisoned(self, golden):
        assert "STEER_POISON" in _names(golden["steer-poison"])

    def test_sc_crash_adopted_and_raises(self, golden):
        run = golden["sc-crash"]["runs"][0]
        assert "SC_ADOPT" in _names(golden["sc-crash"])
        assert run["partial"]["extra"]["sc_adoptions"] == 1.0
        assert run["bytes_lost"] > 0.0

    def test_verify_rewrites(self, golden):
        run = golden["bitflip-verify"]["runs"][0]
        assert run["extra"]["verify_failures"] > 0
        assert run["extra"]["blocks_bitflipped"] > 0

    def test_late_failstop_fails_index_and_flush(self, golden):
        run = golden["late-failstop"]["runs"][0]
        assert "1 flush failure(s); 1 index write failure(s)" in run["error"]
        assert "index.abort" in _names(golden["late-failstop"])

    def test_history_steps_all_recover(self, golden):
        runs = golden["history-failstop"]["runs"]
        assert [r["extra"]["history_steps"] for r in runs] == [1.0, 2.0, 3.0]
        assert all(r["extra"]["sc_relocations"] == 1.0 for r in runs)


# -- regenerating the fixture -------------------------------------------------

def _dump(doc) -> str:
    """``json.dumps`` with every innermost list or object on one line."""
    return re.sub(
        r"[\[{][^\[\]{}]*[\]}]",
        lambda m: re.sub(r"\s*\n\s*", " ", m.group())
        .replace("[ ", "[").replace(" ]", "]")
        .replace("{ ", "{").replace(" }", "}"),
        json.dumps(doc, indent=1),
    ) + "\n"


def _commit() -> str:
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True, cwd=Path(__file__).parent)
    return out.stdout.strip() or "unknown"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    cells = {name: snapshot(name) for name in sorted(CELLS)}
    GOLDEN.write_text(_dump({
        "generated_by": {"commit": _commit(), "protocol": "per-rank faulted"},
        "cells": cells,
    }))
    print(f"wrote {GOLDEN}")
