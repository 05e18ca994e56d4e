"""Client CLI: render the progress of a journaled sweep.

Usage::

    # run artifacts with every sweep cell checkpointed (rerun the same
    # command to resume after any crash)
    python -m repro.tools.experiment fig1 --scale small --jobs 4 \\
        --journal sweep_state --out results.json

    # inspect the live (or crashed) run's progress from another shell
    python -m repro.tools.serve status --state-dir sweep_state

``status`` is read-only and safe to run while the sweep is live: it
renders the run's ``manifest.json`` (artifacts, scale, seed) and
replays ``journal.jsonl`` into per-cell
planned/done/pending/retried/adopted/failed counts.  The journal is
the sweep's only progress record (see DESIGN.md §14).
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main", "build_parser"]


def _fmt_seconds(s: float) -> str:
    return f"{s:.1f}s" if s < 120 else f"{s / 60:.1f}m"


def _status(args) -> int:
    from repro.harness.report import format_table
    from repro.service.journal import summarize
    from repro.tools.experiment import read_manifest

    state_dir = args.state_dir
    summary = summarize(state_dir)
    manifest = read_manifest(state_dir)
    if args.json:
        print(json.dumps(
            {"manifest": manifest, "journal": summary},
            indent=2, sort_keys=True,
        ))
        return 0
    if manifest:
        print(
            f"sweep: {' '.join(manifest.get('artifacts', []))} "
            f"@ {manifest.get('scale')}, seed {manifest.get('seed')}"
        )
    totals = summary["totals"]
    if not summary["labels"]:
        print(f"no journal in {state_dir!r} yet")
        return 0
    rows = []
    for label in sorted(summary["labels"]):
        c = summary["labels"][label]
        rows.append((
            label, int(c["planned"]), int(c["done"]), int(c["pending"]),
            int(c["retried"]), int(c.get("adopted", 0)),
            int(c["failed"]),
            _fmt_seconds(c["elapsed"]),
        ))
    print(format_table(
        ["cell", "planned", "done", "pending", "retried", "adopted",
         "failed", "elapsed"],
        rows,
        title=f"journal @ {state_dir}",
    ))
    print(
        f"\n{totals['done']}/{totals['planned']} jobs done, "
        f"{totals['pending']} pending, {totals['retried']} retried, "
        f"{totals.get('adopted', 0)} adopted, "
        f"{totals['failed']} failed; journal "
        f"{totals['journal_bytes']} bytes"
        + (f" ({totals['discarded_lines']} corrupt line(s) ignored)"
           if totals["discarded_lines"] else "")
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.serve",
        description=(
            "Inspect the progress of a sweep journaled by "
            "python -m repro.tools.experiment --journal DIR."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    status = sub.add_parser(
        "status",
        help="render a journal dir's progress (read-only; safe while "
        "the sweep runs)",
    )
    status.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="the sweep's --journal dir",
    )
    status.add_argument(
        "--json", action="store_true",
        help="dump manifest + journal summary as JSON",
    )
    status.set_defaults(fn=_status)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
