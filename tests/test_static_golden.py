"""Golden outputs of the four static transports on one small cell.

POSIX file-per-process, MPI-IO, split files and stagger each decide up
front where every rank's bytes go.  This pins, bit for bit, what they
produce on one seeded cell with live production noise and a small
interference job: the four phase times, the sorted per-writer
``(rank, start, end, nbytes, target_group)``, the file list and the
index entry count.  Under a two-target fail-stop it pins the error's
durable/lost byte accounting and the partial per-writer list.

Floats are stored with ``repr`` precision, so a comparison is exact.
Regenerate (only when the physics is meant to change) with::

    PYTHONPATH=src python tests/test_static_golden.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.apps import AppKernel, Variable
from repro.core.transports import (
    MpiIoTransport,
    PosixTransport,
    SplitFilesTransport,
    StaggerTransport,
)
from repro.errors import TransportError
from repro.faults import two_ost_failure_plan
from repro.interference import BackgroundWriterJob, install_production_noise
from repro.machines import jaguar
from repro.units import MB

GOLDEN = Path(__file__).with_name("data") / "static_transports_golden.json"

N_RANKS = 20  # uneven groups: 20 ranks over 8 stagger groups
SEED = 7
FAIL_AT = 0.3  # mid-write for every transport on this cell

CASES = {
    "posix": lambda: PosixTransport(),
    "posix-flush": lambda: PosixTransport(include_flush=True),
    "posix-index": lambda: PosixTransport(build_index=True),
    "mpiio": lambda: MpiIoTransport(),
    "splitfiles": lambda: SplitFilesTransport(),
    "stagger": lambda: StaggerTransport(),
}
FAULTED = ("posix", "mpiio", "splitfiles")


def _app():
    count = int(64 * MB / 8)
    return AppKernel(
        "golden",
        [
            Variable("a", shape=(count // 2,), value_range=(0.0, 1.0)),
            Variable("b", shape=(count - count // 2,), value_range=(-1, 1)),
        ],
    )


def _machine(faults=None):
    spec = jaguar(n_osts=8).with_overrides(max_stripe_count=4)
    m = spec.build(n_ranks=N_RANKS, seed=SEED, extra_service_nodes=1,
                   faults=faults)
    install_production_noise(m, live=True)
    BackgroundWriterJob(m, n_osts=2, writers_per_ost=1, write_size=64 * MB,
                        osts=(5, 6)).start()
    return m


def _writers(per_writer):
    return sorted(
        [w.rank, w.start, w.end, w.nbytes, w.target_group]
        for w in per_writer
    )


def clean_snapshot(case: str) -> dict:
    res = CASES[case]().run(_machine(), _app(), output_name="g")
    return {
        "phases": [res.open_time, res.write_time, res.flush_time,
                   res.close_time],
        "writers": _writers(res.per_writer),
        "files": list(res.files),
        "index_entries": None if res.index is None else res.index.n_blocks,
    }


def faulted_snapshot(case: str) -> dict:
    plan = two_ost_failure_plan(osts=(0, 1), at=FAIL_AT)
    try:
        CASES[case]().run(_machine(plan), _app(), output_name="g")
    except TransportError as exc:
        return {
            "bytes_durable": exc.bytes_durable,
            "bytes_lost": exc.bytes_lost,
            "writers": _writers(exc.partial.per_writer),
        }
    raise AssertionError(f"{case} completed under a two-target fail-stop")


def snapshot() -> dict:
    return {
        "clean": {c: clean_snapshot(c) for c in CASES},
        "faulted": {c: faulted_snapshot(c) for c in FAULTED},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_clean_cell_bit_identical(golden, case):
    assert clean_snapshot(case) == golden["clean"][case]


@pytest.mark.parametrize("case", FAULTED)
def test_faulted_accounting_identical(golden, case):
    assert faulted_snapshot(case) == golden["faulted"][case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
