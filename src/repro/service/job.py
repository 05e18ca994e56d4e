"""Job identity for the sharded sweep scheduler.

A *job* is one unit of resumable work: a picklable callable plus one
argument (for a sweep shard, the pre-derived ``sample_seed``).  What
makes a sweep resumable is that each job has a **deterministic id**
hashed from the job's full specification — the function it runs, the
cell parameters baked into it, and the seed — so a journal written by
one process names exactly the same jobs when a later process replays
the same sweep.  Nothing in the id depends on ``PYTHONHASHSEED``,
process ids, or wall-clock time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Tuple

__all__ = ["JobSpec", "describe_fn", "job_id", "make_job", "repro_command"]


def _describe_value(value: Any) -> str:
    """Deterministic text for a job-argument value.

    ``repr`` is stable across processes for the kinds of values cell
    partials carry (ints, floats, strings, bools, tuples of those,
    dataclasses with such fields, enums).  Containers recurse so a
    nested tuple of floats renders the same everywhere.
    """
    if isinstance(value, (tuple, list)):
        inner = ",".join(_describe_value(v) for v in value)
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    if isinstance(value, dict):
        items = ",".join(
            f"{_describe_value(k)}:{_describe_value(v)}"
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
        return f"{{{items}}}"
    return repr(value)


def describe_fn(fn: Callable) -> Tuple[str, Tuple, dict]:
    """``(qualified_name, partial_args, partial_kwargs)`` for *fn*.

    Unwraps nested :func:`functools.partial` layers down to the
    underlying callable, accumulating bound positional/keyword
    arguments in application order — the same flattening pickle uses,
    so two partials that run identically describe identically.
    """
    args: Tuple = ()
    kwargs: dict = {}
    chain = []
    while isinstance(fn, partial):
        chain.append(fn)
        fn = fn.func
    for p in reversed(chain):
        args = args + p.args
        kwargs = {**kwargs, **(p.keywords or {})}
    name = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
    return name, args, kwargs


def job_id(label: str, fn: Callable, arg: Any) -> str:
    """Deterministic 16-hex-digit id for ``fn(arg)`` under *label*.

    The hash covers the label, the fully-qualified function name, every
    argument a partial bound, and the job's own argument — so a journal
    entry can only ever be adopted by the job that would recompute the
    identical result.
    """
    name, p_args, p_kwargs = describe_fn(fn)
    key = "\x1f".join(
        (
            label,
            name,
            _describe_value(p_args),
            _describe_value(p_kwargs),
            _describe_value(arg),
        )
    )
    return hashlib.sha256(key.encode("utf-8", "backslashreplace")).hexdigest()[:16]


def repro_command(fn: Callable, arg: Any) -> str:
    """One-liner that reruns ``fn(arg)`` outside any harness.

    Only emitted when the call is expressible as plain importable
    Python (module-level function, arguments with faithful reprs);
    otherwise returns ``""`` rather than a command that would not
    reproduce the failure.
    """
    name, p_args, p_kwargs = describe_fn(fn)
    module, _, func = name.rpartition(".")
    if not module or "<" in name:
        return ""
    parts = [repr(a) for a in p_args]
    parts.append(repr(arg))
    parts += [f"{k}={v!r}" for k, v in p_kwargs.items()]
    call = f"{func}({', '.join(parts)})"
    if any("<" in p or " at 0x" in p for p in parts):
        return ""
    return (
        f"PYTHONPATH=src python -c "
        f'"from {module} import {func}; print({call})"'
    )


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit of a sweep.

    ``sample_seed`` is carried redundantly with ``arg`` when the job is
    a sample shard (the scheduler never interprets ``arg``).
    """

    job_id: str
    label: str
    fn: Callable
    arg: Any
    sample_seed: Optional[int] = None


def make_job(
    fn: Callable,
    arg: Any,
    label: Optional[str] = None,
    index: Optional[int] = None,
    sample_seed: Optional[int] = None,
) -> JobSpec:
    """Build a :class:`JobSpec` with a derived label and id.

    The default label is the qualified function name; an *index* (the
    job's position in its batch) is appended so sibling shards of one
    cell stay distinguishable in journals and failure messages.
    """
    if label is None:
        label = describe_fn(fn)[0]
    if index is not None:
        label = f"{label}#{index}"
    if sample_seed is None and isinstance(arg, int):
        sample_seed = arg
    return JobSpec(
        job_id=job_id(label, fn, arg),
        label=label,
        fn=fn,
        arg=arg,
        sample_seed=sample_seed,
    )
