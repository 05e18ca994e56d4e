"""Deterministic fault injection.

Failure is a first-class simulated phenomenon: a
:class:`~repro.faults.plan.FaultPlan` (pure data, JSON-serializable)
describes *what* goes wrong and when — OST fail-stop, hang, brownout,
rank crashes, message loss/delay, or a seeded stochastic MTBF/MTTR
model — and a :class:`~repro.faults.injector.FaultInjector` applies it
to one machine build.  Transports consult ``machine.faults`` to decide
whether to run their hardened (timeout/retry/failover) paths; with no
plan installed, behaviour is bit-identical to a fault-free build.

Plans reach machine builds explicitly
(``MachineSpec.build(..., faults=plan)``) or through the run context
(``repro.context.using(faults=plan)``, or the ``REPRO_FAULTS``
environment variable naming a plan JSON file).
"""

from __future__ import annotations

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CORRUPTION_KINDS,
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
    two_ost_failure_plan,
)

__all__ = [
    "CORRUPTION_KINDS",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "two_ost_failure_plan",
]
