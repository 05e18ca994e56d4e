"""BP-style indexing: characteristics, local and global indices.

The ADIOS BP format writes each process group's data followed by a
per-file local index; a master ("global") index maps every variable
block to (file, offset).  The paper additionally stores *data
characteristics* — per-block min/max — which let queries prune without
reading data ("enabling quickly searching for both the content as well
as the logical location of the data of interest").
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "Characteristics",
    "IndexEntry",
    "IndexEntries",
    "LocalIndex",
    "WriterBlocks",
    "GlobalIndex",
    "block_checksum",
    "entry_bytes",
]

_ENTRY_HEADER_BYTES = 64.0  # serialized per-entry overhead
_CHAR_BYTES = 24.0  # serialized characteristics block
_CKSUM_BYTES = 8.0  # serialized per-block checksum


def entry_bytes(var: str, characteristics: bool, checksum: bool) -> float:
    """Serialized size of one index entry for variable *var*."""
    extra = _CHAR_BYTES if characteristics else 0.0
    if checksum:
        extra += _CKSUM_BYTES
    return _ENTRY_HEADER_BYTES + len(var) + extra


def block_checksum(var: str, writer: int, nbytes: float) -> int:
    """Deterministic 64-bit content checksum of one variable block.

    The simulator stores no payload bytes, so a block's *content* is
    fully determined by what produced it: (variable, writer, size).
    Hashing that triple stands in for checksumming the real bytes —
    the writer computes it at write time, the index carries it, and
    any in-place mutation of the stored copy (bit flip, tear) breaks
    the equality exactly as a real CRC would.  Rewrites of the same
    block (retries, relocated incarnations) reproduce the same value,
    because the content is the same.
    """
    digest = hashlib.blake2b(
        f"{var}|{int(writer)}|{float(nbytes)!r}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class Characteristics:
    """Per-block data characteristics (min/max/count)."""

    minimum: float
    maximum: float
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.count > 0 and self.minimum > self.maximum:
            raise ValueError("minimum must be <= maximum")

    @classmethod
    def of(cls, data: np.ndarray) -> "Characteristics":
        """Characteristics of an actual array."""
        arr = np.asarray(data)
        if arr.size == 0:
            return cls(0.0, 0.0, 0)
        return cls(float(arr.min()), float(arr.max()), int(arr.size))

    def merge(self, other: "Characteristics") -> "Characteristics":
        if self.count == 0:
            return other
        if other.count == 0:
            return self
        return Characteristics(
            min(self.minimum, other.minimum),
            max(self.maximum, other.maximum),
            self.count + other.count,
        )

    def overlaps(self, low: float, high: float) -> bool:
        """Could a value in [low, high] live in this block?"""
        if self.count == 0:
            return False
        return not (high < self.minimum or low > self.maximum)


@dataclass(frozen=True)
class IndexEntry:
    """One variable block: who wrote which variable where.

    ``checksum`` is the per-block content checksum
    (:func:`block_checksum`) when the writing application computed
    one; ``None`` for checksum-free output sets, whose blocks a scrub
    can only classify as unverified.
    """

    var: str
    writer: int
    offset: float
    nbytes: float
    characteristics: Optional[Characteristics] = None
    checksum: Optional[int] = None

    def __post_init__(self):
        if self.offset < 0 or self.nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        object.__setattr__(self, "_serialized", entry_bytes(
            self.var, self.characteristics is not None,
            self.checksum is not None,
        ))

    @property
    def serialized_bytes(self) -> float:
        return self._serialized


class WriterBlocks:
    """One writer's process group at ``offset``: ``(app, rank, offset)``.

    Every index entry and stored block of a writer's output is a pure
    function of this triple (:meth:`AppKernel.index_entries
    <repro.apps.base.AppKernel.index_entries>`,
    :meth:`~repro.apps.base.AppKernel.data_blocks`), so the record
    stands in for them until something reads them: counts and
    serialized sizes are arithmetic, and the per-block objects are
    built on demand.
    """

    __slots__ = ("app", "rank", "offset")

    def __init__(self, app, rank: int, offset: float):
        self.app = app
        self.rank = rank
        self.offset = offset

    @property
    def n_blocks(self) -> int:
        return len(self.app.variables)

    @property
    def serialized_bytes(self) -> float:
        return self.app.index_entry_bytes

    def entries(self) -> List[IndexEntry]:
        return self.app.index_entries(self.rank, self.offset)

    def data_blocks(self) -> List[Tuple[float, float, Optional[int]]]:
        return self.app.data_blocks(self.rank, self.offset)

    def spans(self) -> List[Tuple[float, float]]:
        return self.app.block_spans(self.offset)


class _Entries:
    """Explicit :class:`IndexEntry` objects, with the record's interface."""

    __slots__ = ("_entries", "serialized_bytes")

    def __init__(self, entries: Iterable[IndexEntry]):
        self._entries = tuple(entries)
        self.serialized_bytes = float(
            sum(e.serialized_bytes for e in self._entries)
        )

    @property
    def n_blocks(self) -> int:
        return len(self._entries)

    def entries(self) -> Tuple[IndexEntry, ...]:
        return self._entries

    def spans(self) -> List[Tuple[float, float]]:
        return [(e.offset, e.offset + e.nbytes) for e in self._entries]


def _offset_var(e: IndexEntry):
    return (e.offset, e.var)


class IndexEntries(Sequence):
    """A read-only sequence of index entries, built on first read.

    Holds the pieces (:class:`WriterBlocks` records or explicit
    entries) it was made from; its length and serialized size need no
    entries.  The first element access builds every entry once,
    concatenated in piece order and, when ``sort``, stably sorted by
    ``(offset, var)`` — the order :meth:`LocalIndex.finalize` seals.
    """

    __slots__ = ("_pieces", "_sort", "_built", "_len", "serialized_bytes")

    def __init__(self, pieces, sort: bool = False):
        self._pieces = tuple(pieces)
        self._sort = sort
        self._built: Optional[Tuple[IndexEntry, ...]] = None
        self._len = sum(p.n_blocks for p in self._pieces)
        # Whole numbers of bytes: exact in any summation order.
        self.serialized_bytes = float(
            sum(p.serialized_bytes for p in self._pieces)
        )

    def _entries(self) -> Tuple[IndexEntry, ...]:
        if self._built is None:
            out: List[IndexEntry] = []
            for p in self._pieces:
                out.extend(p.entries())
            if self._sort:
                out.sort(key=_offset_var)
            self._built = tuple(out)
            self._pieces = ()
        return self._built

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        return self._entries()[i]

    def __iter__(self) -> Iterator[IndexEntry]:
        return iter(self._entries())


class LocalIndex:
    """The per-sub-file index a sub-coordinator assembles.

    Pieces arrive out of order (adaptive writers interleave with the
    group's own); :meth:`finalize` sorts and seals, mirroring the SC's
    "sort and merge the index pieces" step.  A piece is one writer's
    :class:`WriterBlocks` record or explicit :class:`IndexEntry`
    objects; records stay records until the sealed index is read.
    """

    def __init__(self, file_path: str):
        self.file_path = file_path
        self._pieces: List["WriterBlocks | _Entries"] = []
        self._final: Optional[IndexEntries] = None

    def add(self, entries: "WriterBlocks | Iterable[IndexEntry]") -> None:
        if self._final is not None:
            raise RuntimeError("index already finalized")
        self._pieces.append(entries if isinstance(entries, WriterBlocks)
                            else _Entries(entries))

    def finalize(self) -> IndexEntries:
        """Seal the index; its entries in ``(offset, var)`` order."""
        if self._final is None:
            self._final = IndexEntries(self._pieces, sort=True)
        return self._final

    @property
    def entries(self) -> Tuple[IndexEntry, ...]:
        if self._final is not None:
            return tuple(self._final)
        return tuple(IndexEntries(self._pieces))

    def __len__(self) -> int:
        return sum(p.n_blocks for p in self._pieces)

    @property
    def serialized_bytes(self) -> float:
        # Whole numbers of bytes: exact in any summation order.
        return float(sum(p.serialized_bytes for p in self._pieces) + 128.0)

    def check_no_overlap(self) -> None:
        """Invariant: data extents within one sub-file never overlap."""
        spans = sorted(s for p in self._pieces for s in p.spans())
        for (a0, a1), (b0, _b1) in zip(spans, spans[1:]):
            if b0 < a1 - 1e-6:
                raise ValueError(
                    f"{self.file_path}: overlapping extents "
                    f"[{a0},{a1}) and starting at {b0}"
                )


class GlobalIndex:
    """The master index the coordinator writes at the end of output.

    Maps ``var -> [(file, IndexEntry), ...]`` so any block is a single
    lookup + direct read, "sometimes resulting in improved
    performance" vs single-file formats (paper, Section IV-C).  Files
    are kept as added; the per-variable map is built on the first
    query, and block counts and serialized size are kept as sums.
    """

    def __init__(self):
        self._files: List[Tuple[str, IndexEntries]] = []
        self._paths: set = set()
        self._by_var: Optional[Dict[str, List[Tuple[str, IndexEntry]]]] = None
        self._n_blocks = 0
        self._entry_bytes = 0.0

    def add_file(self, file_path: str, entries: Sequence[IndexEntry]) -> None:
        if file_path in self._paths:
            raise ValueError(f"duplicate file {file_path!r} in global index")
        if not isinstance(entries, IndexEntries):
            entries = IndexEntries([_Entries(entries)])
        self._paths.add(file_path)
        self._files.append((file_path, entries))
        self._n_blocks += len(entries)
        self._entry_bytes += entries.serialized_bytes
        self._by_var = None

    def _index(self) -> Dict[str, List[Tuple[str, IndexEntry]]]:
        if self._by_var is None:
            by_var: Dict[str, List[Tuple[str, IndexEntry]]] = {}
            for path, entries in self._files:
                for e in entries:
                    by_var.setdefault(e.var, []).append((path, e))
            self._by_var = by_var
        return self._by_var

    @property
    def files(self) -> List[str]:
        return [path for path, _ in self._files]

    @property
    def variables(self) -> List[str]:
        return sorted(self._index())

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    def entries_by_file(self) -> Dict[str, List[IndexEntry]]:
        """``file -> [entries]``, each file's list in (offset, var) order.

        The scrub/fsck walk order: deterministic regardless of the
        message interleaving that built the index.
        """
        return {
            path: sorted(entries, key=lambda e: (e.offset, e.var, e.writer))
            for path, entries in self._files
        }

    def lookup(
        self, var: str, writer: Optional[int] = None
    ) -> List[Tuple[str, IndexEntry]]:
        """All blocks of *var* (optionally one writer's)."""
        hits = self._index().get(var, [])
        if writer is None:
            return list(hits)
        return [(f, e) for f, e in hits if e.writer == writer]

    def query_value_range(
        self, var: str, low: float, high: float
    ) -> List[Tuple[str, IndexEntry]]:
        """Blocks of *var* whose characteristics overlap [low, high].

        Blocks without characteristics are conservatively returned.
        """
        out = []
        for f, e in self._index().get(var, []):
            if e.characteristics is None or e.characteristics.overlaps(low, high):
                out.append((f, e))
        return out

    def total_bytes(self, var: Optional[str] = None) -> float:
        by_var = self._index()
        if var is not None:
            return sum(e.nbytes for _, e in by_var.get(var, []))
        return sum(e.nbytes for hits in by_var.values() for _, e in hits)

    @property
    def serialized_bytes(self) -> float:
        # Each entry adds its own bytes plus a 32-byte file reference.
        return float(self._entry_bytes + 32.0 * self._n_blocks + 256.0)
