"""Process-parallel sample execution for experiment sweeps.

Every figure in the paper is a sweep (writer counts x transports x
interference conditions x samples), and every sample is an independent
simulation fully determined by its derived seed — embarrassingly
parallel work.  This module decomposes a sweep into jobs and hands
them to the :mod:`repro.service` scheduler (supervised worker shards,
per-job timeouts, capped retries, dead-worker adoption, checkpointed
journal), while keeping results **bit-for-bit identical** to serial
execution:

* the per-sample seed derivation is exactly
  :func:`repro.harness.experiment.sample_seed` — the same integers in
  the same order;
* results are returned in submission order regardless of completion
  order, retries, or worker deaths;
* each sample builds its own machine from its seed (that was already
  the contract), so no state crosses process boundaries;
* a resumed sweep restores completed jobs from the journal (the
  pickled originals) and recomputes only the rest from their
  pre-derived seeds, so crash/resume preserves the same contract.

The worker count, journal, per-job timeout and retry cap come from
the run context (:mod:`repro.context`): an explicit ``jobs`` argument,
else ``using(jobs=..., journal_dir=..., job_timeout=...,
job_retries=...)``, else ``REPRO_JOBS`` (``0`` means "all cores"),
``REPRO_JOURNAL``, ``REPRO_JOB_TIMEOUT`` and ``REPRO_JOB_RETRIES``.
``--jobs N`` and ``--journal DIR`` on ``repro.tools.experiment``
install them with ``using``; the benchmark suite's flags set the
variables.  With a journal active even serial execution routes through
the scheduler so every completed cell survives a crash; the journal is
also the sweep's only progress record (``python -m repro.tools.serve
status --state-dir DIR`` renders it).

Every job runs under the caller's context, shipped to its worker
whatever the start method, so fault plans reach spawned workers too.
When the context carries a tracer or metrics registry, each job runs
under fresh instrumentation and the parent absorbs the buffers in
submission order (:meth:`repro.trace.Tracer.absorb` /
:meth:`repro.telemetry.MetricsRegistry.absorb`).  Instrumentation
buffers are journaled alongside results, so a resumed traced sweep is
traced like an uninterrupted one.

Functions submitted to the pool must be picklable (module-level
functions or :func:`functools.partial` over them — not closures).  A
non-picklable function falls back to plain serial execution (no pool,
no journal) with a ``RuntimeWarning`` so a sweep never breaks, it just
stops being parallel and resumable.

A job that raises in its worker fails the sweep with a
:class:`~repro.errors.JobFailure` naming the cell label and
``sample_seed`` plus a ready-to-paste reproduction one-liner — a
worker failure is never an anonymous ``BrokenProcessPool``.
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.context import current

__all__ = ["parallel_map", "resolve_jobs", "run_samples"]

T = TypeVar("T")
U = TypeVar("U")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count to use: explicit *jobs*, else the run context's.

    ``0`` (or any negative value) means "one worker per CPU core".
    """
    if jobs is None:
        jobs = current().jobs
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def parallel_map(
    fn: Callable[[T], U],
    items: Sequence[T],
    jobs: Optional[int] = None,
    label: Optional[str] = None,
) -> List[U]:
    """``[fn(x) for x in items]``, scheduled over worker shards.

    Order-stable: result *i* corresponds to ``items[i]`` no matter
    which worker finished first (or died and had its job adopted).
    With one job (the default when the context sets none) and no
    active journal, no scheduler is created and this *is* the list
    comprehension.  A non-picklable *fn* (closure, lambda, bound
    local) triggers a plain serial fallback with a ``RuntimeWarning``.

    *label* names the sweep cell in journals, ``serve status``, and
    failure messages (falling back to the function's qualified name).
    """
    ctx = current()
    n_jobs = resolve_jobs(ctx.jobs if jobs is None else jobs)
    items = list(items)
    if ctx.journal_dir is None and (n_jobs <= 1 or len(items) <= 1):
        return [fn(x) for x in items]

    try:
        pickle.dumps(fn)
    except Exception as exc:
        warnings.warn(
            f"parallel_map: {fn!r} is not picklable ({exc}); "
            "running serially.  Pass a module-level function or a "
            "functools.partial over one to enable process parallelism "
            "and journal checkpointing.",
            RuntimeWarning,
            stacklevel=2,
        )
        return [fn(x) for x in items]

    from repro.service.job import describe_fn, make_job
    from repro.service.journal import journal_in
    from repro.service.scheduler import Scheduler

    base_label = label if label is not None else describe_fn(fn)[0]
    specs = [
        make_job(fn, x, label=base_label, index=i)
        for i, x in enumerate(items)
    ]
    policy = None
    if ctx.job_retries is not None:
        from repro.faults import RetryPolicy

        policy = RetryPolicy(max_retries=ctx.job_retries)
    scheduler = Scheduler(
        n_workers=n_jobs,
        policy=policy,
        job_timeout=ctx.job_timeout,
        journal=journal_in(ctx.journal_dir) if ctx.journal_dir else None,
    )
    return scheduler.run(specs, label=base_label)


def run_samples(
    fn: Callable[[int], T],
    n_samples: int,
    base_seed: int = 0,
    jobs: Optional[int] = None,
    label: Optional[str] = None,
) -> List[T]:
    """Run ``fn(seed)`` for each of *n_samples* derived seeds.

    The harness entry point every figure sweep uses.  Each sample
    builds its own machine from its seed, so samples are independent
    and individually reproducible.  Seeds come from
    :func:`repro.harness.experiment.sample_seed` and the output list is
    ordered by sample index, so serial, parallel, and crash-resumed
    execution are indistinguishable from the results.  *fn* must be
    picklable to fan out or journal (see :func:`parallel_map`); *label*
    names the sweep cell in journals and failure messages.
    """
    from repro.harness.experiment import sample_seed

    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    seeds = [sample_seed(base_seed, i) for i in range(n_samples)]
    return parallel_map(fn, seeds, jobs=jobs, label=label)
