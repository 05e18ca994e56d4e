"""Per-block metadata built on first read equals eager construction.

A write records each writer's output as one ``(app, rank, offset)``
record; its index entries and stored blocks are built only when
something reads them.  Here every read surface is checked against
metadata built eagerly from the file system's ground truth:

* the global index's ``entries_by_file``, ``lookup``,
  ``query_value_range``, ``n_blocks`` and ``serialized_bytes``, against
  entries made with :meth:`AppKernel.index_entries` from every data
  write's ``(writer, offset)``;
* every file's ``stored_blocks()`` — offset, nbytes, checksum, seq and
  writer — against the same cell run with a corruption hook armed,
  which makes the storage layer build each block at store time;
* the sub-files' local-index payloads, which fsck rebuilds from.

Cells: a 64-rank adaptive cohort run with steering, the same with
two writers per target, the same with a tracer attached, and a static
(split-files) run.  An allocation guard checks that a clean cohort run
builds no :class:`IndexEntry` and no :class:`StoredBlock` at all until
they are read.
"""

import numpy as np
import pytest

from repro.apps import AppKernel, Variable
from repro.core.index import IndexEntry
from repro.core.transports import AdaptiveTransport, SplitFilesTransport
from repro.lustre.file import StoredBlock
from repro.machines import jaguar
from repro.trace import Tracer
from repro.units import MB


def _app():
    n = int(1 * MB / 8)
    return AppKernel("lazy", [
        Variable("rho", shape=(n,), value_range=(0.0, 4.0)),
        Variable("temp", shape=(n // 2,), value_range=(100.0, 400.0)),
        Variable("flux", shape=(n // 4,)),
    ])


def _run(transport, tracer=None, eager_blocks=False):
    m = jaguar(n_osts=8).build(n_ranks=64, seed=3, tracer=tracer)
    # Two slow targets: their groups finish last, so the coordinator
    # steers their tail writers onto the freed targets.
    m.pool.set_load_multiplier(0.1, osts=np.array([1, 6]))
    if eager_blocks:
        m.fs.corrupt_hook = lambda f, stored: None
    res = transport.run(m, _app(), output_name="lazy")
    return m, res


CELLS = {
    "cohort": lambda **kw: _run(AdaptiveTransport(), **kw),
    "two-lanes": lambda **kw: _run(
        AdaptiveTransport(writers_per_target=2), **kw),
    "traced": lambda **kw: _run(AdaptiveTransport(), tracer=Tracer(), **kw),
    "static": lambda **kw: _run(SplitFilesTransport(n_files=8), **kw),
}


def _data_writes(f):
    """A file's data writes (index footers carry a payload)."""
    return [w for w in f.writes if f.payload_at(w.offset, w.nbytes) is None]


def _eager_files(m, res, app):
    """``path -> entries`` in each file's index order, built eagerly."""
    out = {}
    for path in res.index.files:
        f = m.fs.lookup(path)
        entries = []
        if res.transport == "adaptive":
            for w in _data_writes(f):
                entries.extend(app.index_entries(w.writer, w.offset))
            entries.sort(key=lambda e: (e.offset, e.var))
        else:  # statics index a file's writers in rank order
            for w in sorted(_data_writes(f), key=lambda w: w.writer):
                entries.extend(app.index_entries(w.writer, w.offset))
        out[path] = entries
    return out


@pytest.fixture(scope="module", params=sorted(CELLS))
def cell(request):
    make = CELLS[request.param]
    m, res = make()
    m_eager, res_eager = make(eager_blocks=True)
    return request.param, m, res, m_eager, res_eager


def test_cell_steers_and_writes_everything(cell):
    name, m, res, _m, res_eager = cell
    assert len(res.per_writer) == 64
    if name != "static":
        assert res.n_adaptive_writes > 0
    key = lambda r: sorted((w.rank, w.start, w.end) for w in r.per_writer)
    assert key(res) == key(res_eager)
    assert res.reported_time == res_eager.reported_time


def test_global_index_equals_eager(cell):
    _name, m, res, _m, _r = cell
    app = _app()
    eager = _eager_files(m, res, app)
    index = res.index
    all_entries = [e for es in eager.values() for e in es]
    assert index.n_blocks == len(all_entries) == 64 * len(app.variables)
    assert index.serialized_bytes == float(
        sum(e.serialized_bytes + 32.0 for e in all_entries) + 256.0
    )
    assert index.entries_by_file() == {
        p: sorted(es, key=lambda e: (e.offset, e.var, e.writer))
        for p, es in eager.items()
    }
    for var in app.variables:
        hits = [(p, e) for p, es in eager.items() for e in es
                if e.var == var.name]
        assert index.lookup(var.name) == hits
        assert index.lookup(var.name, writer=5) == [
            (p, e) for p, e in hits if e.writer == 5
        ]
        lo, hi = var.value_range
        mid = (lo + hi) / 2
        assert index.query_value_range(var.name, lo, mid) == [
            (p, e) for p, e in hits if e.characteristics.overlaps(lo, mid)
        ]
    assert index.variables == sorted(v.name for v in app.variables)
    assert index.total_bytes() == sum(e.nbytes for e in all_entries)


def test_stored_blocks_equal_eager(cell):
    _name, m, res, m_eager, res_eager = cell
    app = _app()
    assert res.files == res_eager.files
    n = 0
    for path in res.files:
        f, fe = m.fs.lookup(path), m_eager.fs.lookup(path)
        lazy = [(b.offset, b.nbytes, b.checksum, b.seq, b.writer,
                 b.valid_bytes, b.corrupt) for b in f.stored_blocks()]
        eager = [(b.offset, b.nbytes, b.checksum, b.seq, b.writer,
                  b.valid_bytes, b.corrupt) for b in fe.stored_blocks()]
        assert lazy == eager
        assert list(f.blocks) == list(fe.blocks)  # store order
        for w in _data_writes(f):
            for off, nb, ck in app.data_blocks(w.writer, w.offset):
                assert f.block_at(off, nb).checksum == ck
        n += len(lazy)
    assert n == 64 * len(app.variables)


def test_local_index_payloads_equal_eager(cell):
    _name, m, res, _m, _r = cell
    eager = _eager_files(m, res, _app())
    for path, entries in eager.items():
        f = m.fs.lookup(path)
        payloads = [p for p in f.payloads.values()
                    if isinstance(p, tuple) and p[0] == "local_index"]
        assert len(payloads) == 1
        assert tuple(payloads[0][1]) == tuple(entries)


def test_clean_cohort_run_builds_no_block_objects(monkeypatch):
    built = {"entries": 0, "blocks": 0}
    post_init = IndexEntry.__post_init__
    init = StoredBlock.__init__

    def counting_post_init(self):
        built["entries"] += 1
        post_init(self)

    def counting_init(self, *args, **kwargs):
        built["blocks"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(IndexEntry, "__post_init__", counting_post_init)
    monkeypatch.setattr(StoredBlock, "__init__", counting_init)
    m, res = CELLS["cohort"]()
    assert res.n_adaptive_writes > 0
    assert res.index.n_blocks == 192
    assert res.index.serialized_bytes > 0
    assert built == {"entries": 0, "blocks": 0}
    res.index.lookup("rho")
    assert built["entries"] == 192
    m.fs.lookup(res.files[0]).stored_blocks()
    assert built["blocks"] > 0
