"""Seconds-long self-test of the benchmark.

    python3 perfbench/selftest.py

Runs a smoke-sized version of every workload, untraced and traced,
against the smoke references, and checks that:

* every workload produces exactly the metrics ``BENCHMARK.json`` names,
  with their units;
* every timed cell passes the output check, and the only failure is the
  composition probe of ``adaptive-failstop``;
* a doctored reference is caught as a failed cell;
* the traced run's layer self times plus ``other_s`` add up to the
  traced wall time, with no section negative.

Exits non-zero on the first broken check.
"""

from __future__ import annotations

import copy
import json
import sys

from run import HERE, SRC, load_references, metrics_of, result_json, \
    run_workload

sys.path.insert(0, str(SRC))

from layers import SECTIONS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest: FAILED: {what}")


def _names(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    _expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
            "BENCHMARK.json workloads match workloads.py")
    table = json.loads((HERE / "workloads.json").read_text())
    _expect(sorted(table["workloads"]) == sorted(WORKLOADS),
            "workloads.json describes every workload")
    per_layer = _names(spec, "per_layer")
    _expect(sorted(m for row in table["layers"] for m in row["metrics"])
            == sorted(per_layer),
            "workloads.json's layer table names every per-layer metric")
    refs = load_references()
    for name, wl in WORKLOADS.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            tally = run_workload(name, 1, 0.0, trace, "smoke", refs)
            out = result_json(tally, metrics_of(tally, trace))
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            _expect(got == _names(spec, key),
                    f"{name}: {key} metrics and units match BENCHMARK.json")
            _expect(out["correct"], f"{name}: outputs match references "
                                    f"({tally.errors})")
            probes = 1 if wl.probe else 0
            _expect(out["failed"] == probes,
                    f"{name}: only the probe fails ({tally.errors})")
            if trace:
                for cell in tally.layers:
                    _expect(all(cell[s] >= 0.0 for s in SECTIONS),
                            f"{name}: no negative self time")
                    _expect(cell["other_s"] >= 0.0,
                            f"{name}: sections fit the traced wall time")
        print(f"selftest: {name} ok", flush=True)

    # A doctored reference must surface as a failed, incorrect cell.
    bad = copy.deepcopy(refs)
    bad["smoke"]["ior-churn"]["0"]["reported_time"] += 1e-9
    tally = run_workload("ior-churn", 0, 0.0, False, "smoke", bad)
    _expect(tally.failed == 1 and not tally.correct,
            "a changed output is counted as a failed cell")
    print("selftest: output check catches a changed output", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
