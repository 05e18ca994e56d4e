"""CLI: regenerate a paper artifact.

Usage::

    python -m repro.tools.experiment fig1 --scale small --seed 0
    python -m repro.tools.experiment table1 --scale paper
    python -m repro.tools.experiment all --scale smoke --fail-fast
    python -m repro.tools.experiment fig1 --scale paper --jobs 4 \
        --journal sweep_state --out results.json

Exit status is nonzero when any cell fails: a raised error in a sweep
cell (reported with the cell's label and ``sample_seed`` so it can be
reproduced with a one-liner) **or** a rendered-but-degraded artifact —
a result whose ``failure_report()`` names cells that absorbed a
``TransportError``-aborted partial output.  ``--fail-fast`` stops at
the first failing artifact instead of rendering the rest.

``--journal DIR`` (or ``REPRO_JOURNAL``) checkpoints every completed
cell to ``DIR/journal.jsonl``; kill the run at any point, SIGKILL
included, and rerunning the same command resumes from it
bit-identically (DESIGN.md §14).  ``DIR/manifest.json`` pins the
scale and seed: a resume that asks for different ones is rejected.
``python -m repro.tools.serve status --state-dir DIR`` renders the
journal's progress, also while the run is live.  ``--out PATH``
writes every artifact's machine-readable result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.harness.experiment import Scale

__all__ = ["main", "ARTIFACTS", "artifact_failures", "read_manifest"]

MANIFEST_NAME = "manifest.json"


def _fig1(scale, seed):
    from repro.harness.figures import fig1

    return fig1.run(scale, seed)


def _table1(scale, seed):
    from repro.harness.figures import table1

    return table1.run(scale, seed)


def _fig2(scale, seed):
    from repro.harness.figures import fig2

    return fig2.run(scale, seed)


def _fig3(scale, seed):
    from repro.harness.figures import fig3

    return fig3.run(scale, seed)


def _fig5(scale, seed):
    from repro.harness.figures import fig5

    return fig5.run(scale, seed)


def _fig6(scale, seed):
    from repro.harness.figures import fig6

    return fig6.run(scale, seed)


def _fig7(scale, seed):
    from repro.harness.figures import fig7

    return fig7.run(scale, seed)


def _resilience(scale, seed):
    from repro.harness.figures import resilience

    return resilience.run(scale, seed)


def _qos(scale, seed):
    from repro.harness.figures import qos

    return qos.run(scale, seed)


#: name -> callable returning the artifact's *result object* (render
#: with ``.render()``; machine-readable payload via ``.to_dict()``).
ARTIFACTS: Dict[str, Callable] = {
    "fig1": _fig1,
    "table1": _table1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "resilience": _resilience,
    "qos": _qos,
}


def artifact_failures(result) -> list:
    """Failure strings a rendered result self-reports (else empty).

    Results may expose ``failure_report() -> list[str]`` naming cells
    that only *look* complete — e.g. a method that absorbed a
    ``TransportError`` partial output into its table.  Absence of the
    protocol means nothing to report.
    """
    report = getattr(result, "failure_report", None)
    if not callable(report):
        return []
    return [str(x) for x in report()]


def _write_json_atomic(path: str, payload: dict) -> None:
    """Write *payload* so readers never observe a half-written file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def read_manifest(state_dir: str) -> Optional[dict]:
    """The journal dir's ``manifest.json``, or None if absent/unreadable."""
    try:
        with open(os.path.join(state_dir, MANIFEST_NAME), "r",
                  encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _check_manifest(state_dir: str, names: List[str], scale: str,
                    seed: int) -> None:
    """Create or validate ``manifest.json`` for a (re)run.

    Job ids hash the cell's spec and seed, so resuming with a
    different scale or seed would not *corrupt* anything — it would
    silently recompute everything while looking like a resume.  That
    is always a mistake, so mismatches are rejected with a pointer at
    a fresh journal dir.
    """
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, MANIFEST_NAME)
    manifest = read_manifest(state_dir)
    if manifest is None:
        _write_json_atomic(path, {
            "artifacts": names,
            "scale": scale,
            "seed": seed,
            "created_unix": time.time(),
        })
        return
    for key, value in (("scale", scale), ("seed", seed)):
        if manifest.get(key) != value:
            raise SystemExit(
                f"error: journal dir {state_dir!r} was created with "
                f"{key}={manifest.get(key)!r} but this run asks for "
                f"{value!r}; resuming would recompute every cell. "
                "Use a fresh --journal dir (or delete this one)."
            )
    if sorted(manifest.get("artifacts", [])) != sorted(names):
        # Differing artifact lists are fine (ids are per-cell); keep
        # the manifest's list current for `serve status`.
        manifest["artifacts"] = sorted(
            set(manifest.get("artifacts", [])) | set(names)
        )
        _write_json_atomic(path, manifest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.experiment",
        description=(
            "Regenerate a table or figure from 'Managing Variability in "
            "the IO Performance of Petascale Storage Systems' (SC'10)."
        ),
    )
    parser.add_argument(
        "artifact",
        choices=sorted(ARTIFACTS) + ["all"],
        help="which paper artifact to regenerate",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=[s.value for s in Scale],
        help="experiment size preset (default: small)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base random seed"
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for sample fan-out (0 = all cores; "
        "default: REPRO_JOBS, else serial).  Results are bit-identical "
        "to serial runs",
    )
    parser.add_argument(
        "--journal", metavar="DIR", default=None,
        help="checkpoint every completed sweep cell to DIR (append-only "
        "JSON-lines journal; rerunning the same command resumes from "
        "it, bit-identically, and a resume with another --scale or "
        "--seed is rejected.  Equivalent to setting REPRO_JOURNAL; "
        "inspect progress with python -m repro.tools.serve status "
        "--state-dir DIR)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write every artifact's machine-readable result (its "
        "to_dict()), wall time and failures to PATH as JSON",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="stop at the first failing artifact instead of rendering "
        "the remaining ones (exit status is nonzero on any failure "
        "either way)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="export a Chrome trace-event JSON of every simulation "
        "run (open in Perfetto; summarize with repro.tools.trace)",
    )
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="export a telemetry JSON snapshot of every simulation run "
        "(per-OST time series, fabric/transport counters, straggler "
        "flags; render with repro.tools.monitor --dashboard).  "
        "Collection is non-perturbing: results are bit-identical "
        "with or without it",
    )
    parser.add_argument(
        "--faults", metavar="PATH", default=None,
        help="inject faults from a FaultPlan JSON into every "
        "simulation run, in worker processes too (equivalent to "
        "setting REPRO_FAULTS; the resilience artifact builds its own "
        "plans and ignores this)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Installed as the run context below, so every machine build and
    # sweep batch (and each batch's worker processes) sees them.
    changes = {}
    if args.jobs is not None:
        changes["jobs"] = args.jobs
    if args.journal is not None:
        changes["journal_dir"] = args.journal
    if args.faults is not None:
        from repro.faults import FaultPlan

        changes["faults"] = FaultPlan.from_json(args.faults)
    names = sorted(ARTIFACTS) if args.artifact == "all" else [args.artifact]

    failures = []
    results: Dict[str, dict] = {}

    def run_all() -> None:
        for name in names:
            start = time.time()
            try:
                result = ARTIFACTS[name](Scale.parse(args.scale), args.seed)
            except Exception as exc:
                failures.append(f"{name}: {exc}")
                results[name] = {"ok": False, "error": str(exc)}
                print(f"[{name} @ {args.scale}, seed {args.seed}: "
                      f"FAILED]\n{exc}\n", file=sys.stderr)
                if args.fail_fast:
                    return
                continue
            elapsed = time.time() - start
            print(result.render())
            print(f"\n[{name} @ {args.scale}, seed {args.seed}: "
                  f"{elapsed:.1f}s wall]\n")
            degraded = artifact_failures(result)
            if args.out:
                to_dict = getattr(result, "to_dict", None)
                results[name] = {
                    "ok": not degraded,
                    "elapsed": round(elapsed, 3),
                    "degraded_cells": degraded,
                    "data": to_dict() if callable(to_dict) else None,
                }
            if degraded:
                failures.extend(f"{name}: {d}" for d in degraded)
                print(
                    f"[{name}: {len(degraded)} cell(s) absorbed a "
                    "partial/aborted result:]\n  "
                    + "\n  ".join(degraded),
                    file=sys.stderr,
                )
                if args.fail_fast:
                    return

    from contextlib import ExitStack

    from repro.context import using

    with ExitStack() as stack:
        journal_dir = stack.enter_context(using(**changes)).journal_dir
        if journal_dir is not None:
            _check_manifest(journal_dir, names, args.scale, args.seed)
        tracer = None
        registry = None
        if args.trace:
            from repro.harness.experiment import trace_to

            tracer = stack.enter_context(trace_to(args.trace))
        if args.metrics:
            from repro.harness.experiment import metrics_to

            registry = stack.enter_context(metrics_to(args.metrics))
        run_all()
    if tracer is not None:
        print(f"[trace: {len(tracer.events)} events -> {args.trace}]")
    if registry is not None:
        print(f"[metrics: {len(registry)} instruments over "
              f"{registry.n_runs} run(s) -> {args.metrics}]")
    if args.out:
        _write_json_atomic(args.out, {
            "scale": args.scale,
            "seed": args.seed,
            "state_dir": journal_dir,
            "artifacts": results,
            "failures": failures,
        })
        print(f"[results -> {args.out}]")
    if failures:
        print(f"[{len(failures)} failure(s)]", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
