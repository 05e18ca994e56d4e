"""CLI: aggregate benchmark results into one perf-trajectory table.

Every benchmark run saves ``benchmarks/results/BENCH_<name>.json``
with its machine-readable numbers under ``data`` and, when the
benchmark re-runs, the prior numbers under ``data.previous``.  This
tool collects the whole directory into a single view of where
performance moved: each scalar metric, its current value, its previous
value, and the ratio.

Usage::

    python -m repro.tools.bench_report
    python -m repro.tools.bench_report --only kernel --only scale
    python -m repro.tools.bench_report --json report.json

Gate mode turns the tool into CI's perf check: each ``--gate`` names a
``<benchmark>.<metric>=<min_ratio>`` against a ``--baseline`` directory
of committed results; metrics whose name ends in ``_seconds`` are
lower-is-better (ratio = baseline/current), everything else
higher-is-better (ratio = current/baseline).  Exit status 1 when any
gate fails::

    python -m repro.tools.bench_report --baseline /tmp/committed \\
        --gate kernel.events_per_sec=0.70 \\
        --gate scale.adaptive_8192_seconds=0.70
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional

__all__ = ["main", "collect", "render_markdown", "run_gates"]

DEFAULT_RESULTS = pathlib.Path("benchmarks") / "results"


def _flatten(data: dict, prefix: str = "") -> Dict[str, float]:
    """Scalar numeric leaves with dotted keys; 'previous' excluded."""
    out: Dict[str, float] = {}
    for key, value in data.items():
        if key == "previous":
            continue
        name = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[name] = float(value)
        elif isinstance(value, dict):
            out.update(_flatten(value, prefix=f"{name}."))
    return out


def collect(results_dir: pathlib.Path,
            only: Optional[List[str]] = None) -> List[dict]:
    """One record per benchmark: name + per-metric current/previous."""
    records = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        if only and name not in only:
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            records.append({"name": name, "error": str(exc), "metrics": []})
            continue
        data = payload.get("data") or {}
        if not isinstance(data, dict):
            records.append({"name": name, "metrics": []})
            continue
        current = _flatten(data)
        prev_raw = data.get("previous")
        previous = _flatten(prev_raw) if isinstance(prev_raw, dict) else {}
        metrics = []
        for key in sorted(current):
            cur = current[key]
            prev = previous.get(key)
            ratio = (
                cur / prev
                if prev is not None and prev != 0
                else None
            )
            metrics.append(
                {
                    "metric": key,
                    "current": cur,
                    "previous": prev,
                    "ratio": ratio,
                }
            )
        records.append({"name": name, "metrics": metrics})
    return records


def _fmt(v: Optional[float]) -> str:
    if v is None:
        return "-"
    if v == 0:
        return "0"
    if abs(v) >= 1e6 or abs(v) < 1e-3:
        return f"{v:.3g}"
    if v == int(v):
        return str(int(v))
    return f"{v:.4g}"


def render_markdown(records: List[dict], changed_only: bool = False) -> str:
    """One markdown table covering every benchmark's metrics."""
    lines = [
        "| benchmark | metric | current | previous | ratio |",
        "|---|---|---:|---:|---:|",
    ]
    n_rows = 0
    for rec in records:
        if rec.get("error"):
            lines.append(
                f"| {rec['name']} | (unreadable: {rec['error']}) "
                "| - | - | - |"
            )
            continue
        for m in rec["metrics"]:
            if changed_only and m["previous"] is None:
                continue
            ratio = (
                f"{m['ratio']:.2f}x" if m["ratio"] is not None else "-"
            )
            lines.append(
                f"| {rec['name']} | {m['metric']} | {_fmt(m['current'])} "
                f"| {_fmt(m['previous'])} | {ratio} |"
            )
            n_rows += 1
    if n_rows == 0 and len(lines) == 2:
        return "(no benchmark results found)"
    return "\n".join(lines)


def _bench_metrics(results_dir: pathlib.Path, bench: str) -> Dict[str, float]:
    path = results_dir / f"BENCH_{bench}.json"
    payload = json.loads(path.read_text())
    data = payload.get("data") or {}
    return _flatten(data) if isinstance(data, dict) else {}


def parse_gate(spec: str):
    """``'<bench>.<metric>=<min_ratio>'`` -> (bench, metric, threshold)."""
    key, sep, thr = spec.partition("=")
    bench, dot, metric = key.partition(".")
    if not sep or not dot or not bench or not metric:
        raise ValueError(
            f"bad gate {spec!r}; expected <bench>.<metric>=<min_ratio>"
        )
    return bench, metric, float(thr)


def run_gates(results_dir: pathlib.Path, baseline_dir: pathlib.Path,
              gates: List[str]) -> int:
    """Check every gate; returns the number of failures.

    A metric ending in ``_seconds`` is lower-is-better, so its ratio is
    ``baseline / current``; anything else is higher-is-better with
    ``current / baseline``.  A gate passes when ratio >= threshold.
    Missing files or metrics count as failures — a gate that cannot
    measure must not silently pass.
    """
    failures = 0
    for spec in gates:
        bench, metric, threshold = parse_gate(spec)
        try:
            current = _bench_metrics(results_dir, bench)
            baseline = _bench_metrics(baseline_dir, bench)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"GATE FAIL {spec}: unreadable results ({exc})")
            failures += 1
            continue
        got = current.get(metric)
        ref = baseline.get(metric)
        if got is None or ref is None or ref == 0 or got == 0:
            print(f"GATE FAIL {spec}: metric missing "
                  f"(current={got}, baseline={ref})")
            failures += 1
            continue
        lower_better = metric.endswith("_seconds")
        ratio = ref / got if lower_better else got / ref
        ok = ratio >= threshold
        direction = "lower-better" if lower_better else "higher-better"
        print(f"GATE {'ok  ' if ok else 'FAIL'} {bench}.{metric}: "
              f"baseline {_fmt(ref)}, current {_fmt(got)} "
              f"-> {ratio:.2f}x ({direction}, min {threshold:.2f})")
        if not ok:
            failures += 1
    return failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.bench_report",
        description="Aggregate benchmarks/results/BENCH_*.json into one "
        "perf-trajectory table (current vs previous per metric).",
    )
    parser.add_argument(
        "--results", metavar="DIR", default=str(DEFAULT_RESULTS),
        help=f"results directory (default: {DEFAULT_RESULTS})",
    )
    parser.add_argument(
        "--only", action="append", metavar="NAME", default=None,
        help="restrict to this benchmark (repeatable); names as in "
        "BENCH_<name>.json",
    )
    parser.add_argument(
        "--changed-only", action="store_true",
        help="only rows that have a previous value to compare against",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the aggregation as JSON",
    )
    parser.add_argument(
        "--gate", action="append", metavar="BENCH.METRIC=MIN_RATIO",
        default=None,
        help="perf gate against --baseline (repeatable); *_seconds "
        "metrics compare baseline/current, others current/baseline; "
        "exit 1 if the ratio is below MIN_RATIO",
    )
    parser.add_argument(
        "--baseline", metavar="DIR", default=None,
        help="directory of committed BENCH_*.json files gates compare "
        "against (required with --gate)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    results_dir = pathlib.Path(args.results)
    if not results_dir.is_dir():
        print(f"results directory not found: {results_dir}",
              file=sys.stderr)
        return 1
    if args.gate:
        if not args.baseline:
            print("--gate requires --baseline", file=sys.stderr)
            return 2
        baseline_dir = pathlib.Path(args.baseline)
        if not baseline_dir.is_dir():
            print(f"baseline directory not found: {baseline_dir}",
                  file=sys.stderr)
            return 2
        try:
            failures = run_gates(results_dir, baseline_dir, args.gate)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        return 1 if failures else 0
    records = collect(results_dir, only=args.only)
    print(render_markdown(records, changed_only=args.changed_only))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"results_dir": str(results_dir),
                       "benchmarks": records}, fh, indent=2)
        print(f"\n[json -> {args.json}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
