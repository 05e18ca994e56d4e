"""Append-only on-disk checkpoint journal for sweep jobs.

Format: JSON-lines, one record per line, ``fsync`` after every append
so a checkpoint survives the writing process being SIGKILLed the next
instant.  Record kinds:

* ``{"kind": "done", "job": id, "label": ..., "attempt": n,
  "result": <enc>, "events": b64?, "metrics": b64?, "elapsed": s}`` —
  a completed job and its result;
* ``{"kind": "failed", "job": id, "label": ..., "error": text}`` — a
  job that exhausted its budget (replay does **not** restore these:
  a resumed sweep retries previously failed jobs);
* ``{"kind": "plan", "label": ..., "jobs": n}`` — batch bookkeeping so
  progress tools can show pending counts.

Results are stored so that restoring one is **bit-identical** to
recomputing it: values made only of JSON-exact types (``None``,
``bool``, ``int``, ``float``, ``str``, and ``list``/``dict`` of those
— checked by exact type, so tuples and numpy scalars don't sneak
through a lossy round-trip) are stored as plain JSON; anything else is
pickled and base64-encoded.  Python's ``json`` round-trips ``float``
via ``repr`` exactly, so both paths preserve every bit.

Truncation tolerance: a crash can leave a half-written final line.
:func:`replay` silently discards an unparseable **last** line; an
unparseable line anywhere earlier stops replay at that point (the
records after it are untrusted) with a warning.  Either way every
checkpoint before the damage survives.  Reading never modifies the
file; the first :meth:`Journal.append` cuts it back to the end of the
last record replay kept and starts on a fresh line, so new checkpoints
never land on a damaged tail.
"""

from __future__ import annotations

import base64
import io
import json
import os
import pickle
import warnings
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Journal",
    "decode_result",
    "encode_result",
    "journal_in",
    "replay",
    "summarize",
]

JOURNAL_NAME = "journal.jsonl"


def _json_exact(value: Any) -> bool:
    """True when ``json.loads(json.dumps(value))`` is *value*, exactly.

    Exact-type checks on purpose: a tuple would come back a list, a
    numpy scalar a plain float — same ``==`` but not the same object
    shape, which breaks the bit-identity contract downstream.
    """
    t = type(value)
    if value is None or t in (bool, int, str):
        return True
    if t is float:
        # NaN/inf are not strict JSON; route them through pickle.
        return value == value and value not in (float("inf"), float("-inf"))
    if t is list:
        return all(_json_exact(v) for v in value)
    if t is dict:
        return all(
            type(k) is str and _json_exact(v) for k, v in value.items()
        )
    return False


def encode_result(value: Any) -> Dict[str, Any]:
    """Journal encoding of a job result (see module docstring)."""
    if _json_exact(value):
        return {"json": value}
    return {"b64": base64.b64encode(pickle.dumps(value)).decode("ascii")}


def decode_result(enc: Dict[str, Any]) -> Any:
    """Inverse of :func:`encode_result`."""
    if "json" in enc:
        return enc["json"]
    return pickle.loads(base64.b64decode(enc["b64"]))


def _scan(path: str) -> Tuple[List[dict], int, int, bool]:
    """``(records, n_discarded_lines, kept_bytes, needs_newline)``.

    *kept_bytes* is the file offset just past the last kept record;
    *needs_newline* is true when that record is the file's final line
    and has no terminating newline.
    """
    try:
        with io.open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return [], 0, 0, False
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    records: List[dict] = []
    kept = 0
    for i, line in enumerate(lines):
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("journal line is not an object")
        except ValueError:
            dropped = len(lines) - i
            if i < len(lines) - 1:
                warnings.warn(
                    f"journal {path}: corrupt record at line {i + 1}; "
                    f"discarding it and the {dropped - 1} line(s) after "
                    "it (checkpoints before the damage survive)",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return records, dropped, kept, False
        records.append(rec)
        kept += len(line) + 1
    if kept > len(data):  # final record has no newline
        return records, 0, len(data), True
    return records, 0, kept, False


def replay(path: str) -> Tuple[List[dict], int]:
    """Parse a journal file into ``(records, n_discarded_lines)``.

    Missing file -> ``([], 0)``.  See the module docstring for the
    truncation/corruption policy.
    """
    records, dropped, _, _ = _scan(path)
    return records, dropped


class Journal:
    """One sweep's checkpoint log, with an in-memory replay index.

    ``done`` maps job id -> its latest ``done`` record; ``plans`` maps
    batch label -> planned job count.  Appends keep both in sync, so a
    scheduler sharing the journal across many batches (one sweep = many
    ``run_samples`` calls) replays the file once.
    """

    def __init__(self, path: str, fsync: bool = True):
        self.path = path
        self.fsync = fsync
        self.done: Dict[str, dict] = {}
        self.failed: Dict[str, dict] = {}
        self.plans: Dict[str, int] = {}
        self.bytes_appended = 0
        records, self.discarded_lines, kept, self._needs_newline = \
            _scan(path)
        # Where the first append cuts the file back to (damaged tail).
        self._truncate_at = kept if self.discarded_lines else None
        for rec in records:
            self._index(rec)
        self._fh: Optional[io.TextIOWrapper] = None

    def _index(self, rec: dict) -> None:
        kind = rec.get("kind")
        if kind == "done" and "job" in rec:
            self.done[rec["job"]] = rec
            self.failed.pop(rec["job"], None)
        elif kind == "failed" and "job" in rec:
            self.failed[rec["job"]] = rec
        elif kind == "plan" and "label" in rec:
            self.plans[rec["label"]] = int(rec.get("jobs", 0))

    def append(self, rec: dict) -> int:
        """Durably append one record; returns bytes written."""
        line = json.dumps(rec, separators=(",", ":")) + "\n"
        if self._fh is None:
            self._open()
        self._fh.write(line)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._index(rec)
        n = len(line.encode("utf-8"))
        self.bytes_appended += n
        return n

    def _open(self) -> None:
        """Open for appending, first cutting off any damaged tail."""
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if self._truncate_at is not None:
            with io.open(self.path, "r+b") as fh:
                fh.truncate(self._truncate_at)
            self._truncate_at = None
        self._fh = io.open(self.path, "a", encoding="utf-8")
        if self._needs_newline:
            self._fh.write("\n")
            self._needs_newline = False

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _base_label(label: str) -> str:
    """Cell label without the per-shard ``#N`` suffix."""
    base, sep, tail = label.rpartition("#")
    if sep and tail.isdigit():
        return base
    return label


def summarize(state_dir: str) -> dict:
    """Progress summary of a journal for status/partial rendering.

    Per cell (plan label): planned/done/pending/retried/failed counts,
    jobs adopted from dead workers, plus elapsed seconds over completed
    jobs; overall totals include
    the journal size in bytes.  Read-only: never creates the file.
    ``pending`` is planned minus done, floored at zero (a cell label
    reused across batches keeps only its latest plan).
    """
    path = os.path.join(state_dir, JOURNAL_NAME)
    records, discarded = replay(path)
    labels: Dict[str, Dict[str, float]] = {}

    def cell(label: str) -> Dict[str, float]:
        return labels.setdefault(label, {
            "planned": 0, "done": 0, "retried": 0, "failed": 0,
            "adopted": 0, "elapsed": 0.0,
        })

    done_jobs: Dict[str, str] = {}
    failed_jobs: Dict[str, str] = {}
    for rec in records:
        kind = rec.get("kind")
        if kind == "plan":
            cell(rec.get("label", "?"))["planned"] = int(
                rec.get("jobs", 0)
            )
        elif kind == "done" and "job" in rec:
            label = _base_label(rec.get("label", "?"))
            c = cell(label)
            c["done"] += 1
            c["elapsed"] += float(rec.get("elapsed", 0.0))
            if int(rec.get("attempt", 0)) > 0:
                c["retried"] += 1
            if int(rec.get("adopted", 0)) > 0:
                c["adopted"] += 1
            done_jobs[rec["job"]] = label
            failed_jobs.pop(rec["job"], None)
        elif kind == "failed" and "job" in rec:
            failed_jobs[rec["job"]] = _base_label(rec.get("label", "?"))
    for label in failed_jobs.values():
        cell(label)["failed"] += 1
    for c in labels.values():
        c["pending"] = max(int(c["planned"]) - int(c["done"]), 0)
    try:
        size = os.path.getsize(path)
    except OSError:
        size = 0
    totals = {
        "cells": len(labels),
        "planned": sum(int(c["planned"]) for c in labels.values()),
        "done": sum(int(c["done"]) for c in labels.values()),
        "pending": sum(int(c["pending"]) for c in labels.values()),
        "retried": sum(int(c["retried"]) for c in labels.values()),
        "failed": sum(int(c["failed"]) for c in labels.values()),
        "adopted": sum(int(c["adopted"]) for c in labels.values()),
        "journal_bytes": size,
        "discarded_lines": discarded,
    }
    return {"labels": labels, "totals": totals}


# One Journal instance is kept per directory so many scheduler batches
# in one sweep share a single replay.
_journals: Dict[str, Journal] = {}


def journal_in(state_dir: str) -> Journal:
    """The shared :class:`Journal` for *state_dir* (created on demand)."""
    path = os.path.join(state_dir, JOURNAL_NAME)
    j = _journals.get(path)
    if j is None:
        j = _journals[path] = Journal(path)
    return j
