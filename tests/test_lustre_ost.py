"""Unit tests for the OST pool: caches, efficiency curves, load."""

import numpy as np
import pytest

from repro.lustre.ost import (
    EfficiencyCurve,
    OstPool,
    OstPoolConfig,
    lustre_drain_curve,
    lustre_ingest_curve,
)


class TestEfficiencyCurve:
    def test_exact_control_points(self):
        c = EfficiencyCurve([(1, 0.5), (4, 1.0), (16, 0.8)])
        assert c.at(1) == pytest.approx(0.5)
        assert c.at(4) == pytest.approx(1.0)
        assert c.at(16) == pytest.approx(0.8)

    def test_log_interpolation(self):
        c = EfficiencyCurve([(1, 0.5), (4, 1.0)])
        assert c.at(2) == pytest.approx(0.75)

    def test_flat_extrapolation(self):
        c = EfficiencyCurve([(2, 0.9), (8, 0.6)])
        assert c.at(1) == pytest.approx(0.9)
        assert c.at(1000) == pytest.approx(0.6)

    def test_vectorized(self):
        c = EfficiencyCurve([(1, 1.0), (16, 0.5)])
        out = c(np.array([1, 4, 16]))
        assert out.shape == (3,)
        assert out[0] == pytest.approx(1.0)
        assert out[2] == pytest.approx(0.5)

    def test_zero_count_treated_as_one(self):
        c = EfficiencyCurve([(1, 0.7), (4, 1.0)])
        assert c(np.array([0]))[0] == pytest.approx(0.7)

    def test_validation(self):
        with pytest.raises(ValueError):
            EfficiencyCurve([])
        with pytest.raises(ValueError):
            EfficiencyCurve([(0, 1.0)])
        with pytest.raises(ValueError):
            EfficiencyCurve([(1, 0.0)])
        with pytest.raises(ValueError):
            EfficiencyCurve([(1, 0.5), (1, 0.6)])

    def test_default_curves_sane(self):
        drain = lustre_drain_curve()
        # single stream below peak, small multiples at peak, heavy
        # concurrency degrades — the Fig. 1 shape.
        assert drain.at(1) < drain.at(4)
        assert drain.at(4) == pytest.approx(1.0)
        assert drain.at(32) < drain.at(8)
        ingest = lustre_ingest_curve()
        # RPC pipelining: slight rise to a plateau, decline only under
        # extreme request pressure.
        assert ingest.at(1) < ingest.at(16)
        assert ingest.at(16) == pytest.approx(1.0)
        assert ingest.at(512) < 0.9


class TestOstPoolConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OstPoolConfig(n_osts=0)
        with pytest.raises(ValueError):
            OstPoolConfig(n_osts=1, drain_peak=-1)
        with pytest.raises(ValueError):
            OstPoolConfig(n_osts=1, drain_peak=100, ingest_peak=50)
        with pytest.raises(ValueError):
            OstPoolConfig(n_osts=1, hysteresis=1.5)


def make_pool(n=2, drain=100.0, ingest=200.0, cache=1000.0):
    flat = EfficiencyCurve([(1, 1.0)])
    cfg = OstPoolConfig(
        n_osts=n,
        drain_peak=drain,
        ingest_peak=ingest,
        cache_capacity=cache,
        drain_curve=flat,
        ingest_curve=flat,
    )
    return OstPool(cfg)


class TestOstPoolDynamics:
    def test_empty_cache_reports_ingest_capacity(self):
        pool = make_pool()
        caps = pool.capacities(np.array([1, 0]), 0.0)
        assert caps[0] == pytest.approx(200.0)

    def test_cache_fills_then_capacity_drops_to_drain(self):
        pool = make_pool()
        counts = np.array([1, 0])
        pool.capacities(counts, 0.0)
        # Ingest 200 B/s, drain 100 B/s -> net fill 100 B/s; cache 1000 B
        t = pool.next_transition(np.array([200.0, 0.0]), counts, 0.0)
        assert t == pytest.approx(10.0)
        pool.advance(10.0, np.array([200.0, 0.0]), 10.0)
        assert pool.cache_level[0] == pytest.approx(1000.0)
        caps = pool.capacities(counts, 10.0)
        assert caps[0] == pytest.approx(100.0)  # drain-limited now

    def test_hysteresis_restores_ingest(self):
        pool = make_pool()
        counts = np.array([1, 0])
        pool.capacities(counts, 0.0)
        pool.advance(10.0, np.array([200.0, 0.0]), 10.0)
        pool.capacities(counts, 10.0)
        assert pool.is_full()[0]
        # Now inflow stops; cache drains at 100 B/s; threshold 95%.
        t = pool.next_transition(np.array([0.0, 0.0]), counts, 10.0)
        assert t == pytest.approx(0.5)  # 50 bytes to drain below 950
        pool.advance(0.5, np.array([0.0, 0.0]), 10.5)
        caps = pool.capacities(counts, 10.5)
        assert not pool.is_full()[0]
        assert caps[0] == pytest.approx(200.0)

    def test_drained_accounting_conserves_bytes(self):
        pool = make_pool()
        inflow = np.array([150.0, 0.0])
        pool.capacities(np.array([1, 0]), 0.0)
        pool.advance(4.0, inflow, 4.0)
        absorbed = pool.bytes_absorbed[0]
        drained = pool.bytes_drained[0]
        level = pool.cache_level[0]
        assert absorbed == pytest.approx(600.0)
        assert absorbed == pytest.approx(drained + level)

    def test_cache_never_negative(self):
        pool = make_pool()
        pool.capacities(np.array([1, 0]), 0.0)
        pool.advance(100.0, np.zeros(2), 100.0)
        assert (pool.cache_level >= 0).all()

    def test_load_multiplier_scales_capacity(self):
        pool = make_pool(cache=0.0)  # cache-less: always drain-limited
        pool.set_load_multiplier(0.5, osts=np.array([0]))
        caps = pool.capacities(np.array([1, 1]), 0.0)
        assert caps[0] == pytest.approx(50.0)
        assert caps[1] == pytest.approx(100.0)

    def test_load_multiplier_invalid(self):
        pool = make_pool()
        with pytest.raises(ValueError):
            pool.set_load_multiplier(0.0)
        with pytest.raises(ValueError):
            pool.set_load_multiplier(2.0)

    def test_load_multiplier_triggers_callback(self):
        pool = make_pool()
        hits = []
        pool.bind_invalidate(lambda: hits.append(1))
        pool.set_load_multiplier(0.8)
        assert hits == [1]

    def test_no_transition_when_idle_and_not_full(self):
        pool = make_pool()
        counts = np.zeros(2, dtype=int)
        pool.capacities(counts, 0.0)
        t = pool.next_transition(np.zeros(2), counts, 0.0)
        assert t == float("inf")

    def test_efficiency_applied_to_drain(self):
        cfg = OstPoolConfig(
            n_osts=1,
            drain_peak=100.0,
            ingest_peak=200.0,
            cache_capacity=0.0,
            drain_curve=EfficiencyCurve([(1, 0.5), (4, 1.0)]),
            ingest_curve=EfficiencyCurve([(1, 1.0)]),
        )
        pool = OstPool(cfg)
        assert pool.capacities(np.array([1]), 0.0)[0] == pytest.approx(50.0)
        assert pool.capacities(np.array([4]), 0.0)[0] == pytest.approx(100.0)

    def test_summary(self):
        pool = make_pool()
        s = pool.summary()
        assert s["n_osts"] == 2
        assert s["mean_load_mult"] == pytest.approx(1.0)


class TestMultiplierChangeOrdering:
    """Known defect, recorded rather than fixed (ROADMAP item 1).

    ``set_load_multiplier`` (and ``brownout_ost``/``hang_ost``) write
    the new multiplier before asking the fabric to settle, so the
    settle integrates the interval since the previous settle at the
    *new* drain rate.  Fixing the order re-times every committed
    output; the fix lands with item 1's benchmark re-pin.
    """

    @pytest.mark.xfail(
        strict=True,
        reason="multiplier change applies backwards to the interval "
               "since the last settle (ROADMAP item 1)",
    )
    def test_load_change_does_not_apply_to_the_past(self):
        from repro.machines import jaguar
        from repro.units import MB

        m = jaguar(n_osts=4).build(n_ranks=1, seed=0)
        m.fs.fabric.start_flow(0, 0, 150 * MB)
        m.env.run(until=0.70)
        m.fs.fabric.invalidate()
        level, rate = m.pool.cache_level[0], m.pool.drain_rates()[0]
        assert level == pytest.approx(59.28 * MB)
        assert rate == pytest.approx(129.6 * MB)
        m.env.run(until=0.90)
        m.pool.set_load_multiplier(0.5, osts=[0])
        # 0.20 s at the old 129.6 MB/s: 33.36 MB left (today 46.32 MB,
        # the halved rate's value).
        assert m.pool.cache_level[0] == pytest.approx(level - 0.20 * rate)
