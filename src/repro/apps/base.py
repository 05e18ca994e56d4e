"""Application data models: variables, sizes, index generation."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.index import (
    Characteristics,
    IndexEntry,
    block_checksum,
    entry_bytes,
)

__all__ = ["Variable", "AppKernel"]

_DTYPE_BYTES = {
    "f8": 8,
    "f4": 4,
    "i8": 8,
    "i4": 4,
}


@dataclass(frozen=True)
class Variable:
    """One output variable as seen per process.

    Parameters
    ----------
    name:
        Variable name in the output set.
    shape:
        Per-process block shape.
    dtype:
        Element type code ("f8", "f4", "i8", "i4").
    value_range:
        Physical range the synthetic characteristics are drawn from.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str = "f8"
    value_range: Tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        if self.dtype not in _DTYPE_BYTES:
            raise ValueError(f"unknown dtype {self.dtype!r}")
        if any(d < 1 for d in self.shape):
            raise ValueError("shape dims must be >= 1")
        lo, hi = self.value_range
        if lo > hi:
            raise ValueError("value_range must be (low, high)")
        # Precomputed: count/nbytes are read per (rank, var) on the
        # index hot path — n_ranks * n_vars times per output.
        n = 1
        for d in self.shape:
            n *= d
        object.__setattr__(self, "_count", n)
        object.__setattr__(self, "_nbytes", float(n * _DTYPE_BYTES[self.dtype]))

    @property
    def count(self) -> int:
        return self._count

    @property
    def nbytes(self) -> float:
        return self._nbytes


class AppKernel:
    """An application's per-process output model.

    Every process emits the same variable set (weak scaling), so the
    kernel is shared across ranks; per-rank synthetic characteristics
    are derived deterministically from (app, rank, var).

    ``checksums`` (default on) makes every index entry carry a
    per-block content checksum and every write register its blocks
    with the storage layer, enabling read-back verification and
    scrubbing.  Turn it off to model checksum-free output (blocks
    classify as unverified, silent corruption goes undetected).
    """

    def __init__(self, name: str, variables: List[Variable],
                 checksums: bool = True):
        if not variables:
            raise ValueError("an app kernel needs at least one variable")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.name = name
        self.variables: Tuple[Variable, ...] = tuple(variables)
        self.checksums = bool(checksums)
        self._cksum_cache: dict = {}
        #: Serialized bytes of one writer's index entries (same for
        #: every rank and offset), so index sizes need no entries.
        self.index_entry_bytes = float(sum(
            entry_bytes(v.name, True, self.checksums) for v in self.variables
        ))

    def _checksum(self, var: Variable, rank: int) -> Optional[int]:
        """Cached :func:`block_checksum` — index_entries and data_blocks
        hash the same (var, rank) triple once each per write otherwise."""
        if not self.checksums:
            return None
        key = (var.name, rank)
        c = self._cksum_cache.get(key)
        if c is None:
            c = block_checksum(var.name, rank, var.nbytes)
            self._cksum_cache[key] = c
        return c

    @property
    def per_process_bytes(self) -> float:
        return float(sum(v.nbytes for v in self.variables))

    def total_bytes(self, n_ranks: int) -> float:
        return self.per_process_bytes * n_ranks

    def _var_digest(self, rank: int, var: Variable) -> bytes:
        return hashlib.sha256(
            f"{self.name}:{rank}:{var.name}".encode()
        ).digest()

    def _var_rng(self, rank: int, var: Variable) -> np.random.Generator:
        digest = self._var_digest(rank, var)
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def characteristics_of(self, rank: int, var: Variable) -> Characteristics:
        """Deterministic synthetic min/max for one rank's block.

        Derived straight from the (app, rank, var) digest: the batched
        protocol builds every rank's index entries inside the cohort
        processes, so this runs n_ranks * n_vars times per output and
        must not pay a fresh numpy Generator per call (~12us each —
        a third of the 8192-proc cell's wall time before this).
        """
        digest = self._var_digest(rank, var)
        lo, hi = var.value_range
        span = hi - lo
        a = lo + span * (int.from_bytes(digest[8:16], "little") / 2.0**64)
        b = lo + span * (int.from_bytes(digest[16:24], "little") / 2.0**64)
        if b < a:
            a, b = b, a
        return Characteristics(float(a), float(b), var.count)

    def index_entries(
        self,
        rank: int,
        base_offset: float,
        with_characteristics: bool = True,
    ) -> List[IndexEntry]:
        """The local index of one rank's output at ``base_offset``.

        Variables are laid out back-to-back in declaration order, the
        ADIOS process-group layout.
        """
        entries: List[IndexEntry] = []
        offset = base_offset
        for var in self.variables:
            chars = (
                self.characteristics_of(rank, var)
                if with_characteristics
                else None
            )
            entries.append(
                IndexEntry(
                    var=var.name,
                    writer=rank,
                    offset=offset,
                    nbytes=var.nbytes,
                    characteristics=chars,
                    checksum=self._checksum(var, rank),
                )
            )
            offset += var.nbytes
        return entries

    def data_blocks(
        self, rank: int, base_offset: float
    ) -> List[Tuple[float, float, Optional[int]]]:
        """``(offset, nbytes, checksum)`` per variable block of one rank.

        The blocks the storage layer records for one write (directly,
        or on first read from a
        :class:`~repro.core.index.WriterBlocks` record); matches
        :meth:`index_entries` block for block (same layout, same
        checksums) without paying for characteristics.
        """
        blocks: List[Tuple[float, float, Optional[int]]] = []
        offset = base_offset
        for var in self.variables:
            blocks.append((
                offset,
                var.nbytes,
                self._checksum(var, rank),
            ))
            offset += var.nbytes
        return blocks

    def block_spans(self, base_offset: float) -> List[Tuple[float, float]]:
        """``(start, end)`` of each variable block at ``base_offset``.

        The extents :meth:`index_entries` lays out, with none of the
        per-block metadata.
        """
        spans: List[Tuple[float, float]] = []
        offset = base_offset
        for var in self.variables:
            spans.append((offset, offset + var.nbytes))
            offset += var.nbytes
        return spans

    def sample_block(self, rank: int, var_name: str, n: int = 64) -> np.ndarray:
        """A small representative data block (tests / examples only)."""
        var = next((v for v in self.variables if v.name == var_name), None)
        if var is None:
            raise KeyError(f"{self.name} has no variable {var_name!r}")
        rng = self._var_rng(rank, var)
        lo, hi = var.value_range
        return rng.uniform(lo, hi, size=min(n, var.count))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AppKernel({self.name!r}, {len(self.variables)} vars, "
            f"{self.per_process_bytes / 1e6:.1f} MB/process)"
        )
