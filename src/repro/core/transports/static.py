"""The static IO methods: four placement plans, one way to run them.

The paper's baselines — IOR's POSIX file-per-process (Section II),
the tuned ADIOS MPI-IO method (Section III-A), split files (Section
II-3) and the earlier ADIOS stagger method — all decide up front where
every rank's bytes go, and none can react to a slow or failed storage
target.  Each transport class here therefore only computes a
:class:`_Plan`: which files exist and who creates them when, and each
rank's file, offset and target group.  :class:`_StaticTransport` runs
any plan the same way: create, release the writers, write, join,
flush, close, collect.

Fault semantics are the same for all four.  They have no retry or
failover story — the paper's whole point is that they cannot react to
storage-target trouble — so under an installed fault plan they fail
fast instead of hanging or lying: every write carries the policy's
per-attempt timeout, a failed write records the writer and moves on
(no retry), the writer join is bounded by the run-timeout backstop,
and an unclean run raises :class:`~repro.errors.TransportError` with
durable/lost byte accounting and the partial result attached.  With no
plan installed every guard collapses to the fault-free code path —
same simulation events, bit-identical results.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Generator, List, NamedTuple,
    Optional, Sequence, Tuple,
)

from repro.core.groups import GroupMap
from repro.core.index import GlobalIndex, IndexEntries, WriterBlocks
from repro.core.transports.base import (
    OutputResult,
    Transport,
    TransportRun,
    WriterTiming,
    _targets,
)
from repro.errors import OstFailedError, TransportError, WriteTimeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import AppKernel
    from repro.machines.base import Machine

__all__ = [
    "MpiIoTransport",
    "PosixTransport",
    "SplitFilesTransport",
    "StaggerTransport",
]


class _Plan(NamedTuple):
    """Where a static method puts every rank's bytes, decided up front.

    Writes run in *lanes*, simulated writer processes: one lane per
    rank, or (``serial``) one lane per file that writes the file's
    ranks one at a time, in rank order.
    """

    prefix: str  # process names: "{prefix}.{rank}" / ".g{file}" / ".main"
    paths: Sequence[str]
    #: The simulated create of file ``i`` (an ``fs.create`` generator).
    create: Callable[[int], Generator]
    #: rank -> (file, offset, target group)
    place: Callable[[int], Tuple[int, float, int]]
    serial: bool = False
    #: Lane ``i`` creates file ``i`` itself (one lane per file), and the
    #: writes start once every file exists; otherwise the main process
    #: creates every file before releasing the lanes.
    open_in_lane: bool = False
    #: Lane ``i`` waits ``i * open_stagger`` before its create.
    open_stagger: Optional[float] = None
    #: Per-write wait between release and the write (an offset exchange).
    gate: float = 0.0
    #: None (no flush), "sequential" (main flushes file by file) or
    #: "concurrent" (one flush process per file).
    flush: Optional[str] = "concurrent"
    extra: Dict[str, float] = {}


class _StaticTransport(Transport):
    """Runs a transport's :class:`_Plan` with fail-fast fault semantics."""

    build_index: bool

    @abc.abstractmethod
    def _plan(self, machine: "Machine", app: "AppKernel",
              output_name: str) -> _Plan:
        """Decide where every rank's bytes go (no simulated time)."""

    def launch(
        self,
        machine: "Machine",
        app: "AppKernel",
        output_name: str = "output",
    ) -> TransportRun:
        env = machine.env
        fs = machine.fs
        self._watch_fabric(machine)
        plan = self._plan(machine, app, output_name)
        paths, place = plan.paths, plan.place
        n_ranks = machine.n_ranks
        nbytes = app.per_process_bytes
        faults = machine.faults
        write_timeout = faults.policy.write_timeout if faults else None
        flush_timeout = faults.policy.flush_timeout if faults else None
        # Tenant id for QoS flow tagging; a plain Machine has none and
        # stays untagged, a TenantView stamps its tenant on every write.
        tenant = getattr(machine, "tenant", -1)
        timings: List[Optional[WriterTiming]] = [None] * n_ranks
        created: Dict[int, Any] = {}
        write_failures: List[Tuple[int, str]] = []
        flush_failures: List[str] = []
        ready = env.event()  # its value: when the last file was created

        def ranks_by_file() -> List[List[int]]:
            members: List[List[int]] = [[] for _ in paths]
            for rank in range(n_ranks):
                members[place(rank)[0]].append(rank)
            return members

        def opened(i: int, f) -> None:
            created[i] = f
            # Every writer waits for all creates (IOR's inter-phase
            # barrier), so open time never pollutes write time.
            if len(created) == len(paths):
                ready.succeed(env.now)

        def write(rank: int):
            i, offset, group = place(rank)
            node = machine.node_of(rank)
            pid, tid = f"node/{node}", f"rank {rank}"
            tr = env.tracer
            traced = tr is not None and tr.enabled
            if plan.gate:
                if traced:
                    tr.begin("wait", cat="writer", pid=pid, tid=tid)
                yield env.timeout(plan.gate)
                if traced:
                    tr.end("wait", cat="writer", pid=pid, tid=tid)
            start = env.now
            if traced:
                tr.begin("write", cat="writer", pid=pid, tid=tid,
                         args={"nbytes": float(nbytes),
                               "target_group": group})
            try:
                yield from fs.write(
                    created[i], node=node, offset=offset, nbytes=nbytes,
                    writer=rank, timeout=write_timeout,
                    blocks=WriterBlocks(app, rank, offset), tenant=tenant,
                )
            except (OstFailedError, WriteTimeout) as exc:
                # Recorded, never raised: the process survives so the
                # join accounts for it, and a serial lane's next rank
                # still makes its own attempt.
                write_failures.append((rank, str(exc)))
                failed = {"failed": True}
                if traced:
                    tr.instant("write.abort", cat="fault", pid=pid,
                               tid=tid, args={"reason": str(exc)})
            else:
                failed = None
                timings[rank] = WriterTiming(
                    rank=rank, start=start, end=env.now, nbytes=nbytes,
                    target_group=group,
                )
            if traced:
                tr.end("write", cat="writer", pid=pid, tid=tid, args=failed)

        def lane_proc(i: int, ranks: Sequence[int]):
            if plan.open_in_lane:
                if plan.open_stagger is not None:
                    yield env.timeout(plan.open_stagger * i)
                opened(i, (yield from plan.create(i)))
            yield ready
            for rank in ranks:
                yield from write(rank)

        def join(procs):
            """Wait for the writers; True if the backstop cut them off.

            Fault-free: plain all_of.  Faulted: settle-all bounded by
            the run-timeout backstop, so a stalled run (a rank crashed
            before the barrier filled) still ends with accounting.
            """
            if faults is None:
                yield env.all_of(procs)
                return False
            from repro.sim.events import AllSettled

            deadline = env.timeout(faults.policy.run_timeout)
            yield env.any_of([AllSettled(env, procs), deadline])
            alive = [p for p in procs if p.is_alive]
            if not (deadline.processed and alive):
                return False
            for p in alive:
                p.kill("run timeout backstop")
            return True

        def flush(f):
            try:
                yield from fs.flush(f, timeout=flush_timeout)
            except (OstFailedError, WriteTimeout) as exc:
                flush_failures.append(str(exc))

        def main():
            t0 = env.now
            if plan.serial:
                lanes = ranks_by_file()
                tag = f"{plan.prefix}.g"
            else:
                lanes = [range(r, r + 1) for r in range(n_ranks)]
                tag = f"{plan.prefix}."
            procs = [env.process(lane_proc(i, ranks), name=f"{tag}{i}")
                     for i, ranks in enumerate(lanes)]
            if faults is not None:
                # Start the plan clock; expose rank procs to rank crashes.
                faults.arm()
                for ranks, proc in zip(lanes, procs):
                    for rank in ranks:
                        faults.register(rank, proc)
            if not plan.open_in_lane:
                for i in range(len(paths)):
                    opened(i, (yield from plan.create(i)))
            timed_out = yield from join(procs)
            write_end = env.now
            files = [created[i] for i in sorted(created)]
            if plan.flush == "sequential":
                for f in files:
                    yield from flush(f)
            elif plan.flush == "concurrent":
                yield env.all_of([
                    env.process(flush(f), name=f"{plan.prefix}.flush")
                    for f in files
                ])
            flush_end = env.now
            for f in files:
                yield from fs.close(f)
            return t0, write_end, flush_end, env.now, timed_out

        done = env.process(main(), name=f"{plan.prefix}.main")

        def collect() -> OutputResult:
            t0, write_end, flush_end, close_end, timed_out = done.value
            index = None
            if self.build_index:
                index = GlobalIndex()
                for i, ranks in enumerate(ranks_by_file()):
                    # Only ranks whose data landed; a file that none of
                    # them reached stays out of the index.
                    entries = IndexEntries(
                        WriterBlocks(app, r, place(r)[1])
                        for r in ranks if timings[r] is not None
                    )
                    if entries:
                        index.add_file(paths[i], entries)
                        created[i].attach_local_index(entries)
            open_end = ready.value if ready.triggered else write_end
            files = [created[i] for i in sorted(created)]
            result = OutputResult(
                transport=self.name,
                n_writers=n_ranks,
                total_bytes=nbytes * n_ranks,
                open_time=open_end - t0,
                write_time=write_end - open_end,
                flush_time=flush_end - write_end,
                close_time=close_end - flush_end,
                per_writer=[t for t in timings if t is not None],
                files=[f.path for f in files],
                index=index,
                extra=dict(plan.extra),
            )
            if faults is None:
                return self._finish(machine, result)
            return self._conclude(machine, result, files, write_failures,
                                  flush_failures, timed_out)

        return TransportRun(done=done, collect=collect)

    def _conclude(self, machine: "Machine", result: OutputResult, files,
                  write_failures: list, flush_failures: list,
                  timed_out: bool) -> OutputResult:
        """Faulted run: clean → validated result; unclean → TransportError.

        A write acknowledged into a target's cache is only as durable
        as the cache: bytes a fail-stop destroyed before they drained
        are subtracted from the completed writes.  The static methods
        have no verify/rewrite loop either, so whatever the fault plan
        rotted stays rotten and lands in the accounting as corrupt.
        """
        faults = machine.faults
        corrupt = 0.0
        for f in files:
            for blk in f.stored_blocks():
                if blk.corrupt or blk.torn:
                    corrupt += blk.nbytes
        cache_lost = float(machine.pool.bytes_lost.sum())
        bytes_durable = max(
            0.0, float(sum(w.nbytes for w in result.per_writer)) - cache_lost
        )
        result.extra["bytes_durable"] = bytes_durable
        result.extra["bytes_lost"] = result.total_bytes - bytes_durable
        result.extra["bytes_corrupt"] = corrupt
        result.extra.update(faults.summary())
        missing = result.n_writers - len(result.per_writer)
        if not (timed_out or write_failures or flush_failures or missing
                or corrupt):
            return self._finish(machine, result)
        tracer = machine.env.tracer
        if tracer is not None and tracer.enabled:
            tracer.close_open_spans()
        reasons = [why for bad, why in (
            (timed_out, f"run timeout ({faults.policy.run_timeout:g}s) hit"),
            (write_failures, f"{len(write_failures)} write failure(s)"),
            (flush_failures, f"{len(flush_failures)} flush failure(s)"),
            (faults.crashed_ranks,
             f"{len(faults.crashed_ranks)} rank(s) crashed"),
            (missing, f"{missing} writer(s) did not complete"),
            (corrupt, f"{corrupt:.0f} B of stored output corrupt/torn"),
        ) if bad]
        raise TransportError(
            f"{result.transport} output did not complete cleanly: "
            + "; ".join(reasons),
            bytes_durable=bytes_durable,
            bytes_lost=result.extra["bytes_lost"],
            partial=result,
            bytes_corrupt=corrupt,
        )


def _back_to_back(groups: GroupMap, chunk: float) -> list:
    """Places with each group's ranks packed, in rank order, in its file."""
    return [(g, slot * chunk, g) for g in range(groups.n_groups)
            for slot in range(groups.group_size(g))]


@dataclass(eq=False)
class PosixTransport(_StaticTransport):
    """POSIX file-per-process transport — the IOR configuration.

    Section II's interference measurements use IOR "configured ...
    where each process writes data to a separate file and to some
    fixed OST using POSIX-IO.  Writers are split evenly across the 512
    OSTs."  This transport reproduces that pattern: every rank creates
    its own single-stripe file pinned to ``rank % n_osts_used``, then
    all ranks write their buffers concurrently.

    Parameters
    ----------
    n_osts_used:
        Storage targets the writers are split across (the paper uses
        512 of Jaguar's 672).  Defaults to the whole pool.
    include_flush:
        Whether the operation ends with an explicit flush to disk.
        Section II timings measure the write only; Section IV adds
        the flush.
    build_index:
        Also assemble a global index over the per-process files (off
        by default — plain IOR has no index).
    """

    name = "posix"
    n_osts_used: Optional[int] = None
    include_flush: bool = False
    build_index: bool = False

    def _plan(self, machine, app, output_name):
        n_osts = _targets(self.n_osts_used, machine)
        fs = machine.fs
        paths = [f"/{output_name}/rank{r:06d}.dat"
                 for r in range(machine.n_ranks)]
        return _Plan(
            prefix="posix",
            paths=paths,
            create=lambda r: fs.create(paths[r], osts=[r % n_osts]),
            place=lambda r: (r, 0.0, r % n_osts),
            open_in_lane=True,
            flush="sequential" if self.include_flush else None,
        )


@dataclass(eq=False)
class MpiIoTransport(_StaticTransport):
    """Buffered shared-file MPI-IO output (the ADIOS MPI method).

    This is the paper's comparison point (Section III-A): "The MPI-IO
    transport method was developed as one of the first options offered
    by ADIOS ... leading to excellent peak IO performance seen on
    Jaguar and its Lustre file system.  Substantial performance
    advantages are derived from limited asynchronicity, by buffering
    all output data on compute nodes before writing it."

    Concretely the tuned method writes one shared file:

    * stripe count capped at 160 OSTs (the Lustre 1.6 per-file limit
      the paper identifies as the structural bottleneck);
    * stripe size set to the per-process chunk size, so each rank's
      buffered, contiguous chunk lands on exactly one OST and ranks
      round-robin over the file's stripes — the stripe-aligned layout
      the ADIOS Jaguar tuning used (Lofstead et al., IPDPS'09);
    * all ranks write simultaneously after a coordination step that
      computes offsets (modelled as a tree collective).

    With 16 384 writers over 160 OSTs that is ~102 concurrent streams
    per storage target — precisely the internal-interference regime of
    Fig. 1 — and the whole operation gates on the slowest OST, which is
    what external interference exploits.

    Parameters
    ----------
    stripe_count:
        Stripes requested for the shared file; clamped to the file
        system's per-file limit (160 on Lustre 1.6) and the pool size.
    build_index:
        Assemble the BP-style index over the shared file (ADIOS does;
        raw MPI-IO wouldn't — on by default because the baseline *is*
        ADIOS).
    """

    name = "mpiio"
    stripe_count: Optional[int] = None
    build_index: bool = True

    def _plan(self, machine, app, output_name):
        fs = machine.fs
        stripe_count = min(
            self.stripe_count or fs.max_stripe_count,
            fs.max_stripe_count,
            machine.n_osts,
        )
        chunk = app.per_process_bytes
        path = f"/{output_name}.bp"
        return _Plan(
            prefix="mpiio",
            paths=[path],
            # Rank 0 creates the shared file; stripe-aligned layout.
            create=lambda _: fs.create(path, stripe_count=stripe_count,
                                       stripe_size=chunk),
            place=lambda r: (0, r * chunk, r % stripe_count),
            # Offset exchange: every rank learns its slot via the
            # collective the real method runs (sizes are gathered and
            # offsets scanned); modelled at tree-collective cost.
            gate=machine.spec.latency.tree_collective(16.0, machine.n_ranks),
            # Explicit flush before close (the paper's measurement
            # protocol for the Section IV comparisons).
            flush="sequential",
            extra={"stripe_count": float(stripe_count)},
        )


@dataclass(eq=False)
class SplitFilesTransport(_StaticTransport):
    """MPI-IO-style concurrent writing into K stripe-capped files.

    Split-file output is the paper's Section II-3 alternative: "Another
    approach to reducing internal interference is to split output into
    a collection of files to match the parallel file system being used.
    In the case of Jaguar and its Lustre FS, for instance, splitting
    output into 5 parts would enable an application to take full
    advantage of the entire file system's resources."  (672 targets /
    160-stripe cap ≈ 5 files.)

    The paper's verdict — "this helps alleviate internal interference,
    but does not solve it nor does it address external interference" —
    is exactly what the split-files ablation bench demonstrates: more
    targets help, but all writers still write simultaneously and
    nothing reacts to slow targets.

    Parameters
    ----------
    n_files:
        Number of shared files; default ``ceil(pool / stripe cap)`` —
        enough to cover every storage target (the paper's "5 parts").
    """

    name = "splitfiles"
    n_files: Optional[int] = None
    build_index: bool = True

    def __post_init__(self):
        if self.n_files is not None and self.n_files < 1:
            raise ValueError("n_files must be >= 1")

    def _plan(self, machine, app, output_name):
        n_ranks = machine.n_ranks
        cap = machine.fs.max_stripe_count
        n_files = self.n_files or max(1, math.ceil(machine.n_osts / cap))
        n_files = min(n_files, n_ranks)
        groups = GroupMap(n_ranks, n_files)
        chunk = app.per_process_bytes
        places = _back_to_back(groups, chunk)
        paths = [f"/{output_name}.part{g}.bp" for g in range(n_files)]
        return _Plan(
            prefix="split",
            paths=paths,
            create=lambda g: machine.fs.create(
                paths[g],
                stripe_count=min(cap, machine.n_osts, groups.group_size(g)),
                stripe_size=chunk,
            ),
            place=places.__getitem__,
            extra={"n_files": float(n_files)},
        )


@dataclass(eq=False)
class StaggerTransport(_StaticTransport):
    """Staggered opens + per-target serialization, no adaptation.

    The ADIOS *stagger* method is prior work, kept as an ablation:
    "Some results for the ADIOS stagger IO approach were reported at
    the 2009 Cray User's Group.  Stagger addressed internal
    interference and exposed the magnitude of the transient external
    interference."

    Stagger does two things adaptive IO inherits, and nothing more:

    * file opens are staggered in time so the metadata server sees a
      trickle, not a thundering herd;
    * each storage target serves its writers one at a time (static
      serialization).

    Crucially there is **no coordinator and no steering**: a group
    stuck behind a slow OST stays stuck, which is exactly the gap
    adaptive IO closes — making this the natural ablation baseline.

    Parameters
    ----------
    n_osts_used:
        Storage targets (= groups = sub-files); defaults to
        ``min(pool size, n_ranks)``.
    open_stagger:
        Seconds between consecutive groups' file creates.
    build_index:
        Assemble the global index (on by default; stagger is an ADIOS
        method and writes BP files).
    """

    name = "stagger"
    n_osts_used: Optional[int] = None
    open_stagger: float = 2.0e-3
    build_index: bool = True

    def __post_init__(self):
        if self.open_stagger < 0:
            raise ValueError("open_stagger must be >= 0")

    def _plan(self, machine, app, output_name):
        n_ranks = machine.n_ranks
        n_groups = _targets(self.n_osts_used, machine)
        groups = GroupMap(n_ranks, n_groups)
        places = _back_to_back(groups, app.per_process_bytes)
        fs = machine.fs
        paths = [f"/{output_name}.bp.dir/{g:04d}.bp" for g in range(n_groups)]
        return _Plan(
            prefix="stagger",
            paths=paths,
            # Each group's file sits on the next target the allocator
            # hands out when the group gets to open it.
            create=lambda g: fs.create(paths[g],
                                       osts=[fs.allocate_osts(1)[0]],
                                       stripe_size=1e15),
            place=places.__getitem__,
            # Static serialization: members write one at a time, in
            # rank order, each at the running offset.
            serial=True,
            # Staggered create: group g opens open_stagger * g later.
            open_in_lane=True,
            open_stagger=self.open_stagger,
            extra={"n_groups": float(n_groups)},
        )
