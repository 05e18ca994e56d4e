"""The adaptive cohort protocol, pinned to golden fixtures.

A fault-free adaptive run plays each sub-coordinator's group with one
cohort process, coalesces same-instant coordinator traffic into
``CoordBatch`` envelopes and drives each group's data movement as one
aggregate fabric flow.  None of that may change *simulated physics*.
``data/adaptive_reference_golden.json`` holds what a one-process-per-
writer implementation of the same protocol (the per-rank reference,
since retired) produced on a set of small cells, and this suite demands
that the cohort path reproduce, bit for bit,

* every writer's ``(rank, start, end, nbytes, target_group, adaptive)``,
* ``reported_time``, ``aggregate_bandwidth``, ``n_adaptive_writes`` and
  ``files``, and
* each sub-coordinator's ``WRITE_START`` instant stream (its plan, then
  every steal it absorbed, in order) and the ``SC_COMPLETE`` multiset.

The reference's ``messages_sent`` is pinned too.  The cohort path sends
fewer messages (that is its point), so only the direction is checked.

Cells: 48 ranks on 6 OSTs, clean, with two slow targets and with
two-lane groups; live production noise on 8 OSTs with and without a
background job, where same-instant completions and offers tie and the
cohort must reproduce the reference's tie order; a 4-step history-aware
campaign (weighted quotas and the steering veto); and the five-tenant
QoS cell.  Faulted runs take the per-rank, fault-hardened roles and are
pinned by ``test_adaptive_faulted_golden.py``; here, attaching a tracer
or metrics registry must not move a faulted run's floats either, and a
completed faulted run must leave no live entry in the calendar.

Floats are stored with ``repr`` precision, so a comparison is exact.
The fixture's ``generated_by`` names the commit and protocol that wrote
it.  Regenerate only when the physics is meant to change; this re-pins
the cohort path and keeps the reference's message counts::

    PYTHONPATH=src python tests/test_adaptive_batched.py --write
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
from repro.faults import FaultEvent, FaultPlan
from repro.interference import BackgroundWriterJob, install_production_noise
from repro.machines import jaguar
from repro.qos import QosConfig, TenantContract, TenantJob, run_tenants
from repro.telemetry import MetricsRegistry
from repro.trace import Tracer
from repro.units import MB

GOLDEN = Path(__file__).with_name("data") / "adaptive_reference_golden.json"

SEEDS = (0, 1, 2)


def app(mb=2.0, n_vars=2):
    per_var = int(mb * MB / 8 / n_vars)
    return AppKernel(
        "eq",
        [Variable(f"v{i}", shape=(per_var,)) for i in range(n_vars)],
    )


def run_one(n_ranks=48, n_osts=6, slow_osts=(), seed=0, tracer=None,
            metrics=None, faults=None, **opts):
    m = jaguar(n_osts=n_osts).build(
        n_ranks=n_ranks, seed=seed, faults=faults, metrics=metrics
    )
    if tracer is not None:
        m.attach_tracer(tracer)
    if slow_osts:
        m.pool.set_load_multiplier(0.05, osts=np.array(list(slow_osts)))
    res = AdaptiveTransport(**opts).run(m, app(), output_name="eq")
    return m, res


def writer_tuples(res):
    return sorted(
        (w.rank, w.start, w.end, w.nbytes, w.target_group, w.adaptive)
        for w in res.per_writer
    )


def assert_equivalent(res_a, res_b):
    assert writer_tuples(res_a) == writer_tuples(res_b)
    assert res_a.reported_time == res_b.reported_time
    assert res_a.aggregate_bandwidth == res_b.aggregate_bandwidth
    assert res_a.n_adaptive_writes == res_b.n_adaptive_writes
    assert sorted(res_a.files) == sorted(res_b.files)


# -- the cells ---------------------------------------------------------------

def _eq_cell(seed, tracer, slow_osts=(), writers_per_target=1):
    """48 ranks on 6 OSTs, 2 MB each."""
    _, res = run_one(seed=seed, slow_osts=slow_osts, tracer=tracer,
                     writers_per_target=writers_per_target)
    return [res]


def _noisy_cell(seed, job, tracer):
    """Live production noise, optionally plus a two-target background
    job: same-instant completions and offers tie here."""
    m = jaguar(n_osts=8).with_overrides(max_stripe_count=4).build(
        n_ranks=64, seed=seed, extra_service_nodes=1
    )
    m.attach_tracer(tracer)
    install_production_noise(m, live=True)
    if job:
        BackgroundWriterJob(m, n_osts=2, writers_per_ost=1,
                            write_size=64 * MB, osts=(5, 6)).start()
    return [AdaptiveTransport().run(m, app(mb=16))]


def _history_cell(seed, tracer):
    """A 4-step history-aware campaign: OSTs 0 and 1 stay at 0.05x, so
    later steps run weighted quotas and veto steering onto them."""
    transport = HistoryAwareAdaptiveTransport()
    results = []
    for step in range(4):
        m = jaguar(n_osts=6).build(n_ranks=48, seed=10 * seed + step)
        m.attach_tracer(tracer)
        m.pool.set_load_multiplier(0.05, osts=np.array([0, 1]))
        results.append(transport.run(m, app(), output_name=f"h{step}"))
    return results


def _qos_cell(seed, tracer):
    """Five tenants under QoS contracts on 16 OSTs: four adaptive
    victims with weighted floors and a ceiling-capped scavenger."""
    spec = jaguar(n_osts=16).with_overrides(max_stripe_count=8)
    m = spec.build(n_ranks=4 * 8 + 32, seed=seed)
    m.attach_tracer(tracer)
    pool_bw = 16 * spec.ost_config.drain_peak
    guaranteed = 0.8 * pool_bw
    weights = [1.0 + 0.25 * i for i in range(4)]
    contracts = [
        TenantContract(f"victim{i}",
                       floor=0.8 * guaranteed * w / sum(weights))
        for i, w in enumerate(weights)
    ]
    contracts.append(TenantContract(
        "scavenger", floor=0.08 * guaranteed, ceiling=0.15 * pool_bw
    ))

    def job(name, n_ranks):
        kernel = AppKernel(name, [Variable("x", shape=(int(96 * MB / 8),))])
        return TenantJob(name, AdaptiveTransport(), kernel, n_ranks)

    jobs = [job(f"victim{i}", 8) for i in range(4)] + [job("scavenger", 32)]
    out = run_tenants(m, jobs, qos=QosConfig(contracts=tuple(contracts)))
    return [o.result for o in out.outcomes]


# Cells the reference never ran side by side with the cohort path.
EXTRA_CELLS = {
    # Every seed (of 0-39) whose tie order once diverged from the
    # reference, plus seeds 1-3 of each configuration.
    **{f"noisy-job-{s}": partial(_noisy_cell, s, True)
       for s in (0, 1, 2, 3, 9, 15, 16, 20)},
    **{f"noisy-{s}": partial(_noisy_cell, s, False)
       for s in (1, 2, 3, 28, 30)},
    **{f"history-{s}": partial(_history_cell, s) for s in (0, 1, 2)},
    **{f"qos-{s}": partial(_qos_cell, s) for s in (0, 1)},
}
CELLS = {
    **{f"clean-{s}": partial(_eq_cell, s) for s in SEEDS},
    **{f"slow-{s}": partial(_eq_cell, s, slow_osts=(0, 1)) for s in SEEDS},
    "lanes-0": partial(_eq_cell, 0, slow_osts=(0,), writers_per_target=2),
    **EXTRA_CELLS,
}


def _streams(tracer):
    """Per-run, per-SC ``WRITE_START`` streams and the sorted
    ``(run, group, final_offset)`` of every ``SC_COMPLETE``.

    Offers (``ADAPTIVE_WRITE_START``) and busy declines
    (``WRITERS_BUSY``) are left out: they move no bytes, and the
    per-writer tuples pin who writes what where.
    """
    starts, completes = {}, []
    for ev in tracer.events:
        if ev.cat != "steer":
            continue
        args = dict(sorted((ev.args or {}).items()))
        if ev.name == "WRITE_START":
            starts.setdefault(f"run{ev.run} {ev.tid}", []).append(args)
        elif ev.name == "SC_COMPLETE":
            completes.append([ev.run, args["group"], args["final_offset"]])
    return starts, sorted(completes)


def snapshot(name):
    """A cell's pinned outputs, and its runs' ``messages_sent``."""
    tracer = Tracer()
    results = CELLS[name](tracer)
    starts, completes = _streams(tracer)
    pinned = {
        "results": [
            {
                "writers": writer_tuples(r),
                "reported_time": r.reported_time,
                "aggregate_bandwidth": r.aggregate_bandwidth,
                "n_adaptive_writes": r.n_adaptive_writes,
                "files": list(r.files),
            }
            for r in results
        ],
        "write_start": starts,
        "sc_complete": completes,
    }
    # Through JSON, so tuples compare equal to the stored lists.
    return (json.loads(json.dumps(pinned)),
            [r.messages_sent for r in results])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["cells"]


def expected(golden, name):
    cell = dict(golden[name])
    del cell["reference_messages_sent"]
    return cell


class TestCleanEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_clean_cell_float_exact(self, golden, seed):
        got, _ = snapshot(f"clean-{seed}")
        assert got["results"][0]["n_adaptive_writes"] == 0
        assert got == expected(golden, f"clean-{seed}")

    def test_batching_actually_reduces_messages(self, golden):
        _, sent = snapshot("clean-0")
        assert sent[0] < golden["clean-0"]["reference_messages_sent"][0]


class TestSteeringEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_interference_cell_float_exact(self, golden, seed):
        """Slow OSTs force adaptive steering; every steered write's
        timing and target must match bit for bit."""
        got, _ = snapshot(f"slow-{seed}")
        assert got["results"][0]["n_adaptive_writes"] > 0
        assert got["results"] == expected(golden, f"slow-{seed}")["results"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_steering_sequences_identical(self, golden, seed):
        """Each group's plan-plus-steals ``WRITE_START`` stream matches
        in content and order, and the groups announce the same final
        offsets."""
        got, _ = snapshot(f"slow-{seed}")
        want = expected(golden, f"slow-{seed}")
        assert got["write_start"] == want["write_start"]
        assert got["sc_complete"] == want["sc_complete"]

    def test_multi_lane_groups_equivalent(self, golden):
        assert snapshot("lanes-0")[0] == expected(golden, "lanes-0")


@pytest.mark.parametrize("name", sorted(EXTRA_CELLS))
def test_cell_bit_identical(golden, name):
    got, sent = snapshot(name)
    assert got == expected(golden, name)
    assert all(
        s < ref
        for s, ref in zip(sent, golden[name]["reference_messages_sent"])
    )


# Faults on the 48-rank, 6-OST cell with OSTs 0 and 1 slowed: a
# fail-stop and a hang (timed out, retried, then relocated) on target 3
# while its group is still writing.
FAULT_PLANS = {
    "failstop": lambda: FaultPlan(events=(
        FaultEvent(time=0.03, kind="ost_fail", target=3),
    )),
    "hang": lambda: FaultPlan(events=(
        FaultEvent(time=0.03, kind="ost_hang", target=3),
    )).with_policy(write_timeout=0.05, max_retries=1, backoff_base=0.01,
                   backoff_cap=0.02, run_timeout=60.0),
}


class TestTelemetryBitIdentity:
    """Observation must not perturb: metrics and tracing attached to a
    run reproduce the bare run's floats exactly."""

    def test_metrics_on_off(self):
        _, bare = run_one(slow_osts=(0, 1))
        _, observed = run_one(slow_osts=(0, 1), metrics=MetricsRegistry())
        assert_equivalent(bare, observed)

    def test_tracer_on_off(self):
        _, bare = run_one(slow_osts=(0, 1))
        _, traced = run_one(slow_osts=(0, 1), tracer=Tracer())
        assert_equivalent(bare, traced)

    @pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
    @pytest.mark.parametrize("observer", ["metrics", "tracer"])
    def test_observer_on_off_faulted(self, plan, observer):
        """The fault-hardened run too: relocation, retries and their
        trace instants must not move a float."""
        def run(**observe):
            return run_one(slow_osts=(0, 1), faults=FAULT_PLANS[plan](),
                           **observe)[1]

        bare = run()
        observed = run(**{observer: {"metrics": MetricsRegistry,
                                     "tracer": Tracer}[observer]()})
        assert bare.extra["sc_relocations"] >= 1
        assert writer_tuples(bare) == writer_tuples(observed)
        assert bare.extra == observed.extra
        assert bare.reported_time == observed.reported_time


def degrade_plan():
    # A mid-write brownout on one target: enough to exercise the
    # faulted path without relocation nondeterminism.
    return FaultPlan(
        events=(
            FaultEvent(time=0.005, kind="ost_brownout", target=1,
                       factor=0.3),
        )
    )


class TestFaultedPath:
    def test_no_live_wakeups_after_faulted_run(self):
        """A completed faulted run must leave nothing in the calendar:
        the heartbeat senders' and monitor's parked timeouts, the
        run-timeout backstop and the writer-release grace are all
        cancelled.  A stale entry would fire into a dead closure, and a
        later ``env.run()`` on the machine would jump the clock to the
        backstop (900 s)."""
        m, res = run_one(faults=degrade_plan())
        assert len(res.per_writer) == 48
        live = [
            entry[3] for entry in m.env._queue
            if not entry[3].cancelled and not entry[3].processed
        ]
        assert live == []
        end = m.env.now
        m.env.run()
        assert m.env.now == end


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
    old = json.loads(GOLDEN.read_text())
    cells = {}
    for name in sorted(CELLS):
        pinned, _ = snapshot(name)
        # The per-rank reference is gone; its message counts carry over.
        pinned["reference_messages_sent"] = (
            old["cells"][name]["reference_messages_sent"]
        )
        cells[name] = pinned
    GOLDEN.write_text(_dump({
        "generated_by": {"commit": _commit(), "protocol": "cohort",
                         "reference_messages_sent_from":
                             old["generated_by"].get(
                                 "reference_messages_sent_from",
                                 old["generated_by"]["commit"])},
        "cells": cells,
    }))
    print(f"wrote {GOLDEN}")
