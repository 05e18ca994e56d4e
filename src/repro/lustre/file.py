"""File objects in the simulated namespace."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lustre.layout import StripeLayout

__all__ = ["SimFile", "StoredBlock", "WriteRecord"]


@dataclass(frozen=True)
class WriteRecord:
    """One completed write: who wrote what where, and when."""

    offset: float
    nbytes: float
    start_time: float
    end_time: float
    writer: Optional[int] = None  # rank, when known

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


@dataclass
class StoredBlock:
    """The stored state of one variable block, as the OSTs hold it.

    This is the integrity layer's ground truth: ``checksum`` is what a
    read-back would actually compute over the stored copy (the fault
    injector mutates it to model bit rot), ``valid_bytes`` < ``nbytes``
    models a torn write (only a prefix landed), and ``corrupt`` flags
    any injected mutation — detectable or not — so detection rates can
    be measured against what really happened.
    """

    offset: float
    nbytes: float
    checksum: Optional[int]
    valid_bytes: float
    seq: int  # filesystem-wide store order (recency for the injector)
    writer: Optional[int] = None
    corrupt: bool = False

    @property
    def torn(self) -> bool:
        return self.valid_bytes < self.nbytes - 1e-9


@dataclass
class SimFile:
    """A file: a stripe layout plus the history of writes against it.

    The simulator does not store payload bytes — experiments only need
    extents and timing — but it *does* store opaque per-extent payload
    tags when callers provide them, which is how the BP index layer
    round-trips metadata through "files" for the read-back path.
    """

    path: str
    layout: StripeLayout
    create_time: float = 0.0
    writes: List[WriteRecord] = field(default_factory=list)
    payloads: Dict[Tuple[float, float], object] = field(default_factory=dict)
    closed: bool = False
    _blocks: Dict[Tuple[float, float], StoredBlock] = field(
        default_factory=dict, init=False, repr=False
    )
    # Blocks recorded at write completion but not built yet, in store
    # order: (source with data_blocks(), seq before its first block,
    # writer).
    _deferred: List[tuple] = field(
        default_factory=list, init=False, repr=False
    )

    @property
    def size(self) -> float:
        """Bytes from 0 to the end of the furthest extent written."""
        if not self.writes:
            return 0.0
        return max(w.offset + w.nbytes for w in self.writes)

    @property
    def bytes_written(self) -> float:
        """Total bytes written (extents may overlap; they all count)."""
        return sum(w.nbytes for w in self.writes)

    def record_write(self, record: WriteRecord, payload: object = None) -> None:
        if self.closed:
            raise ValueError(f"{self.path}: write after close")
        self.writes.append(record)
        if payload is not None:
            self.payloads[(record.offset, record.nbytes)] = payload

    def payload_at(self, offset: float, nbytes: float) -> object:
        """The payload tag stored for an exact extent, or None."""
        return self.payloads.get((offset, nbytes))

    def attach_local_index(self, entries) -> None:
        """Attach the file's local-index footer as a metadata payload.

        The BP layout stores each file's own index inside the file;
        this is what index rebuild (fsck) recovers the global index
        from when the master index is lost.  Transports that pay
        simulated time for the index write do so separately — this
        only records the metadata content.  *entries* is a read-only
        sequence, stored as given.
        """
        self.payloads[("local_index", self.path)] = ("local_index", entries)

    @property
    def blocks(self) -> Dict[Tuple[float, float], StoredBlock]:
        """``(offset, nbytes) -> StoredBlock``, deferred blocks built."""
        if self._deferred:
            deferred, self._deferred = self._deferred, []
            for source, seq, writer in deferred:
                for offset, nbytes, checksum in source.data_blocks():
                    seq += 1
                    self._blocks[(offset, nbytes)] = StoredBlock(
                        offset=offset,
                        nbytes=nbytes,
                        checksum=checksum,
                        valid_bytes=float(nbytes),
                        seq=seq,
                        writer=writer,
                    )
        return self._blocks

    def defer_blocks(self, source, seq: int, writer: Optional[int]) -> None:
        """Record a write's blocks, to be built on first read.

        ``source.data_blocks()`` gives the ``(offset, nbytes,
        checksum)`` triples; they take store sequence numbers
        ``seq + 1``, ``seq + 2``, ... and land behind every block
        recorded before them, as :meth:`store_block` calls would.
        """
        self._deferred.append((source, seq, writer))

    def store_block(
        self,
        offset: float,
        nbytes: float,
        checksum: Optional[int],
        seq: int,
        writer: Optional[int] = None,
    ) -> StoredBlock:
        """Register (or overwrite) the stored state of one data block.

        A rewrite at the same extent replaces the block outright — the
        repair semantics of a retried or fsck-reissued write.
        """
        blk = StoredBlock(
            offset=offset,
            nbytes=nbytes,
            checksum=checksum,
            valid_bytes=float(nbytes),
            seq=seq,
            writer=writer,
        )
        self.blocks[(offset, nbytes)] = blk
        return blk

    def block_at(self, offset: float, nbytes: float) -> Optional[StoredBlock]:
        """The stored block at an exact extent, or None."""
        return self.blocks.get((offset, nbytes))

    def stored_blocks(self) -> List[StoredBlock]:
        """Every stored data block, in (offset, nbytes) order."""
        blocks = self.blocks
        return [blocks[k] for k in sorted(blocks)]

    def extents(self) -> List[Tuple[float, float]]:
        """(offset, nbytes) of every write, in completion order."""
        return [(w.offset, w.nbytes) for w in self.writes]
