"""Regenerate ``references.json``: the outputs every cell must reproduce.

    python3 perfbench/make_references.py [--scale full|smoke]

Runs every reference cell of every workload once and stores its
simulated outputs (see ``workloads.py``).  The stored values are the
yardstick a change to ``src/`` is checked against, so regenerate them
only when a change is meant to alter the simulated physics, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, SRC

sys.path.insert(0, str(SRC))

from workloads import SCALES, WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=SCALES, action="append",
                        help="scale to regenerate (default: all)")
    args = parser.parse_args()
    path = HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    for scale in args.scale or SCALES:
        refs[scale] = {}
        for name, wl in WORKLOADS.items():
            refs[scale][name] = {}
            for seed in range(wl.pool[scale]):
                raw = wl.setup(seed, scale).write()
                refs[scale][name][str(seed)] = wl.signature(raw)
                print(f"{scale} {name} {seed}", flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
