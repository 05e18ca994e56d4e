"""Incremental hot-path structures against full recomputation.

Three structures keep per-settle or per-decision state up to date
instead of rebuilding it, and each must be indistinguishable from the
rebuild it replaced:

* the OST pool's curve cache (drain and ingest vectors re-evaluated
  only where stream counts changed) against a pool forced to evaluate
  every target on every call — bit for bit, through load, brownout,
  hang, fail and recover;
* the fabric's rate-watcher arrays against the dict-order snapshot
  scan they replaced — same callbacks, same order, same rates, under
  watch/unwatch/re-watch churn and callbacks that prune other
  watchers;
* the coordinator's sorted WRITING list against the linear
  round-robin scan over every group.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transports.adaptive import (
    _BUSY,
    _COMPLETE,
    _WRITING,
    _GroupStates,
)
from repro.lustre.ost import OstPool, OstPoolConfig
from repro.net.fabric import _RateWatchers
from repro.units import MB

# -- OST pool curve cache ------------------------------------------------------

N_OSTS = 6

_counts = st.lists(st.integers(0, 300), min_size=N_OSTS, max_size=N_OSTS)
_osts = st.lists(st.integers(0, N_OSTS - 1), min_size=1, max_size=N_OSTS,
                 unique=True)
_pool_ops = st.lists(
    st.one_of(
        st.tuples(st.just("counts"), _counts),
        st.tuples(st.just("advance"), st.floats(1e-4, 2.0),
                  st.lists(st.one_of(st.just(0.0), st.floats(1.0, 400 * MB)),
                           min_size=N_OSTS, max_size=N_OSTS)),
        st.tuples(st.just("load"), st.floats(0.05, 1.0), st.none()),
        st.tuples(st.just("load"), st.floats(0.05, 1.0), _osts),
        st.tuples(st.just("brownout"), st.integers(0, N_OSTS - 1),
                  st.floats(0.05, 1.0)),
        st.tuples(st.just("hang"), st.integers(0, N_OSTS - 1)),
        st.tuples(st.just("fail"), st.integers(0, N_OSTS - 1)),
        st.tuples(st.just("recover"), st.integers(0, N_OSTS - 1)),
    ),
    min_size=1,
    max_size=40,
)


def _full_curves(pool, counts):
    """Every target's drain and ingest rates, evaluated from scratch."""
    cfg = pool.config
    c = np.maximum(counts, 1)
    drain = cfg.drain_peak * cfg.drain_curve(c) * pool.load_mult \
        * pool.fault_mult
    ingest = cfg.ingest_peak * cfg.ingest_curve(c) * pool.ingest_mult \
        * pool._ingest_gate
    return drain, ingest


def _same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b))


@given(_pool_ops)
@settings(max_examples=150, deadline=None)
def test_curve_cache_equals_full_evaluation(ops):
    cfg = OstPoolConfig(n_osts=N_OSTS)
    cached, full = OstPool(cfg), OstPool(cfg)
    counts = np.zeros(N_OSTS, dtype=np.int64)
    inflow = np.zeros(N_OSTS)
    now = 0.0
    for op in ops:
        kind = op[0]
        for pool in (cached, full):
            full._curve_counts = None  # the reference never caches
            if kind == "counts":
                pass
            elif kind == "advance":
                pool.advance(op[1], inflow, now)
            elif kind == "load":
                osts = None if op[2] is None else np.array(op[2])
                pool.set_load_multiplier(op[1], osts=osts)
            elif kind == "brownout":
                pool.brownout_ost(op[1], op[2])
            elif kind == "hang":
                pool.hang_ost(op[1])
            elif kind == "fail":
                pool.fail_ost(op[1])
            else:
                pool.recover_ost(op[1])
        if kind == "counts":
            counts = np.array(op[1], dtype=np.int64)
        elif kind == "advance":
            now += op[1]
            inflow = np.array(op[2])
        full._curve_counts = None
        caps = [p.capacities(counts.copy(), now) for p in (cached, full)]
        assert _same(*caps)
        drain, ingest = _full_curves(full, counts)
        assert _same(cached._curves(counts)[0], drain)
        assert _same(cached._curves(counts)[1], ingest)
        full._curve_counts = None
        assert _same(cached.drain_rates(), full.drain_rates())
        full._curve_counts = None
        assert (cached.next_transition(inflow, counts, now)
                == full.next_transition(inflow, counts, now))
        assert _same(cached.cache_level, full.cache_level)
        assert _same(cached.is_full(), full.is_full())


# -- fabric rate watchers -----------------------------------------------------

class _DictWatchers:
    """The watcher scan the arrays replaced: a dict in registration
    order, snapshotted into arrays whenever the watcher set changed."""

    def __init__(self):
        self.recs = {}  # fid -> [callback, last rate, slot]
        self.dirty = False
        self.fids, self.slots, self.last = [], None, None

    def __len__(self):
        return len(self.recs)

    def watch(self, fid, slot, rate, callback):
        self.recs[fid] = [callback, rate, slot]
        self.dirty = True

    def unwatch(self, fid):
        if self.recs.pop(fid, None) is not None:
            self.dirty = True

    def notify(self, rates, now):
        if self.dirty:
            self.fids = list(self.recs)
            self.slots = np.array([self.recs[f][2] for f in self.fids],
                                  dtype=np.intp)
            self.last = np.array([self.recs[f][1] for f in self.fids])
            self.dirty = False
        cur = rates[self.slots]
        for i in np.nonzero(cur != self.last)[0]:
            rec = self.recs.get(self.fids[i])
            if rec is None:
                continue
            r = float(cur[i])
            rec[1] = r
            self.last[i] = r
            rec[0](now, r)


N_FIDS = 6

_watch_ops = st.lists(
    st.one_of(
        # watch fid (a re-watch when already watched); during a notify
        # its callback may unwatch or re-watch another flow
        st.tuples(st.just("watch"), st.integers(0, N_FIDS - 1),
                  st.sampled_from(["log", "unwatch", "rewatch"]),
                  st.integers(0, N_FIDS - 1)),
        st.tuples(st.just("unwatch"), st.integers(0, N_FIDS - 1)),
        st.tuples(st.just("rate"), st.integers(0, N_FIDS - 1),
                  st.sampled_from([0.0, 1.0, 2.5, 7.0, 9.5])),
        st.tuples(st.just("notify")),
    ),
    min_size=1,
    max_size=80,
)


def _live_order(watchers):
    """Watched flow ids in notification order."""
    if isinstance(watchers, _DictWatchers):
        return list(watchers.recs)
    order = [watchers._fids[i] for i in range(watchers._n)
             if watchers._live[i]]
    assert all(watchers._fids[p] == f for f, p in watchers._pos.items())
    return order


def _drive(watchers, ops):
    """Apply *ops*; returns the notification log and, after every op,
    the watch order.  Flow ``fid`` lives in slot ``fid``."""
    rates = np.zeros(N_FIDS)
    log = []
    now = 0.0

    def make_cb(fid, action, other, gen):
        def cb(t, r):
            log.append((gen, fid, t, r))
            if action == "unwatch":
                watchers.unwatch(other)
            elif action == "rewatch":
                watchers.watch(other, other, float(rates[other]),
                               make_cb(other, "log", other, ("re", gen)))
        return cb

    for k, op in enumerate(ops):
        if op[0] == "watch":
            fid = op[1]
            watchers.watch(fid, fid, float(rates[fid]),
                           make_cb(fid, op[2], op[3], k))
        elif op[0] == "unwatch":
            watchers.unwatch(op[1])
        elif op[0] == "rate":
            rates[op[1]] = op[2]
        else:
            now += 1.0
            if len(watchers):
                watchers.notify(rates, now)
        log.append(_live_order(watchers))
    return log


@given(_watch_ops)
@settings(max_examples=500, deadline=None)
def test_watchers_match_dict_order_scan(ops):
    ref, arrays = _DictWatchers(), _RateWatchers()
    assert _drive(arrays, ops) == _drive(ref, ops)
    assert len(arrays) == len(ref)


def test_watcher_pruned_then_rewatched_inside_a_notify():
    """A callback unwatches a later flow and the next re-watches it:
    the later flow is told once, through its new callback."""
    ops = [("watch", 0, "unwatch", 2), ("watch", 1, "rewatch", 2),
           ("watch", 2, "log", 2), ("rate", 0, 1.0), ("rate", 1, 1.0),
           ("rate", 2, 1.0), ("notify",), ("rate", 2, 7.0), ("notify",)]
    log = _drive(_RateWatchers(), ops)
    assert log == _drive(_DictWatchers(), ops)
    calls = [e for e in log if isinstance(e, tuple)]
    assert [(e[0], e[1], e[3]) for e in calls] == [
        (0, 0, 1.0), (1, 1, 1.0), (("re", 1), 2, 1.0), (("re", 1), 2, 7.0),
    ]


def test_watchers_compact_in_order():
    w = _RateWatchers()
    seen = []
    rates = np.arange(1.0, 41.0)  # flow f (slot f) runs at f + 1
    for fid in range(40):
        w.watch(fid, fid, 0.0, lambda t, r, fid=fid: seen.append((fid, r)))
    w.notify(rates, 1.0)
    assert seen == [(f, f + 1.0) for f in range(40)]
    for fid in range(0, 40, 3):
        w.unwatch(fid)
    for fid in range(1, 40, 3):
        w.unwatch(fid)
    # A re-watch keeps its position and takes the new rate and callback.
    w.watch(5, 5, 0.0, lambda t, r: seen.append(("re5", r)))
    seen.clear()
    rates[[8, 14]] = 0.5
    w.notify(rates, 2.0)  # dead > live: compacts first
    live = [f for f in range(40) if f % 3 == 2]
    assert w._n == len(live)
    assert _live_order(w) == live
    assert seen == [("re5", 6.0), (8, 0.5), (14, 0.5)]


# -- coordinator steering order -----------------------------------------------

class _LinearScan:
    """The coordinator's old group bookkeeping: a dict and a scan."""

    def __init__(self, n):
        self.n = n
        self.state = {g: _WRITING for g in range(n)}
        self.rr = 0

    def next_writing(self, exclude):
        for step in range(self.n):
            g = (self.rr + step) % self.n
            if g != exclude and self.state[g] == _WRITING:
                self.rr = (g + 1) % self.n
                return g
        return None

    @property
    def all_complete(self):
        return all(s == _COMPLETE for s in self.state.values())


@given(
    st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.one_of(
                st.tuples(st.just("set"), st.integers(0, n - 1),
                          st.sampled_from([_WRITING, _BUSY, _COMPLETE])),
                st.tuples(st.just("next"), st.integers(-1, n - 1)),
            ),
            max_size=60,
        ),
    ))
)
@settings(max_examples=300, deadline=None)
def test_group_states_match_linear_scan(case):
    n, ops = case
    ref, states = _LinearScan(n), _GroupStates(n)
    for op in ops:
        if op[0] == "set":
            ref.state[op[1]] = op[2]
            states[op[1]] = op[2]
        else:
            assert states.next_writing(op[1]) == ref.next_writing(op[1])
        assert states.all_complete == ref.all_complete
        assert [states[g] for g in range(n)] == [ref.state[g]
                                                 for g in range(n)]
