"""The run context: one precedence rule for every configured value.

An explicit argument beats the context installed by ``using``, which
beats the ``REPRO_*`` environment.  Nested ``using`` blocks restore the
outer context on exit, and with no context installed the environment
is read afresh on every ``current()``.  One parametrized test covers
the tracer, the metrics registry, the fault plan and the journal
directory.
"""

import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import pytest

from repro.context import RunContext, current, using
from repro.faults import two_ost_failure_plan
from repro.harness.parallel import parallel_map
from repro.machines import jaguar
from repro.service import Scheduler, journal_in, make_job
from repro.service.journal import JOURNAL_NAME
from repro.telemetry import MetricsRegistry
from repro.trace import Tracer


def _echo(x: int) -> int:
    return x


def _build(**explicit):
    return jaguar(n_osts=4).build(n_ranks=4, seed=0, **explicit)


def _plan_file(tmp_path, plan) -> str:
    path = tmp_path / f"plan{len(os.listdir(tmp_path))}.json"
    plan.save_json(str(path))
    return str(path)


def _journals(tmp_path):
    return sorted(
        p.name for p in tmp_path.iterdir()
        if (p / JOURNAL_NAME).exists()
    )


@dataclass
class Channel:
    """One configured value: how to make it, set it, and observe it."""

    field: str
    #: ``make(tmp_path, i)`` -> the i-th distinct value
    make: Callable[[Any, int], Any]
    #: ``observe(tmp_path, explicit)`` -> the value a build / sweep used
    observe: Callable[[Any, Optional[Any]], Any]
    #: environment variable and its encoding of a value, if any
    env: Optional[str] = None
    encode: Optional[Callable[[Any, Any], str]] = None


def _observe_faults(tmp_path, explicit):
    m = _build(faults=explicit)
    return None if m.faults is None else m.faults.plan


def _observe_journal(tmp_path, explicit):
    """The directory (name) the sweep's journal landed in."""
    before = set(_journals(tmp_path))
    if explicit is not None:
        job = make_job(_echo, 0, label="precedence", index=0)
        Scheduler(journal=journal_in(explicit)).run([job], "precedence")
    else:
        parallel_map(_echo, [0], jobs=1, label="precedence")
    new = sorted(set(_journals(tmp_path)) - before)
    assert len(new) <= 1, new
    return str(tmp_path / new[0]) if new else None


CHANNELS = [
    Channel(
        "tracer",
        make=lambda tmp, i: Tracer(),
        observe=lambda tmp, explicit: _build(tracer=explicit).env.tracer,
    ),
    Channel(
        "metrics",
        make=lambda tmp, i: MetricsRegistry(),
        observe=lambda tmp, explicit: _build(metrics=explicit).metrics,
    ),
    Channel(
        "faults",
        make=lambda tmp, i: two_ost_failure_plan(osts=(i,)),
        observe=_observe_faults,
        env="REPRO_FAULTS",
        encode=_plan_file,
    ),
    Channel(
        "journal_dir",
        make=lambda tmp, i: str(tmp / f"state{i}"),
        observe=_observe_journal,
        env="REPRO_JOURNAL",
        encode=lambda tmp, value: value,
    ),
]


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    for name in ("REPRO_FAULTS", "REPRO_JOURNAL", "REPRO_JOBS",
                 "REPRO_JOB_TIMEOUT", "REPRO_JOB_RETRIES"):
        monkeypatch.delenv(name, raising=False)
    yield
    from repro.service import journal as journal_mod

    journal_mod._journals.clear()


def _same(a, b) -> bool:
    """Identity for live objects, equality for values read from files."""
    return a is b or (a is not None and a == b)


@pytest.mark.parametrize("ch", CHANNELS, ids=lambda ch: ch.field)
class TestPrecedence:
    def test_explicit_beats_using_beats_env(self, ch, tmp_path,
                                            monkeypatch):
        explicit, installed, ambient = (ch.make(tmp_path, i)
                                        for i in range(3))
        if ch.env is not None:
            monkeypatch.setenv(ch.env, ch.encode(tmp_path, ambient))
            assert _same(ch.observe(tmp_path, None), ambient)
        else:
            assert ch.observe(tmp_path, None) is None
        with using(**{ch.field: installed}):
            assert _same(ch.observe(tmp_path, None), installed)
            assert _same(ch.observe(tmp_path, explicit), explicit)

    def test_nested_using_restores_outer(self, ch, tmp_path):
        outer, inner = ch.make(tmp_path, 0), ch.make(tmp_path, 1)
        with using(**{ch.field: outer}):
            with using(**{ch.field: inner}):
                assert getattr(current(), ch.field) is inner
            assert getattr(current(), ch.field) is outer
            with pytest.raises(RuntimeError, match="inside"):
                with using(**{ch.field: inner}):
                    raise RuntimeError("inside")
            assert getattr(current(), ch.field) is outer
            assert _same(ch.observe(tmp_path, None), outer)
        assert getattr(current(), ch.field) is None

@pytest.mark.parametrize("ch", [c for c in CHANNELS if c.env],
                         ids=lambda ch: ch.field)
def test_env_reread_without_installed_context(ch, tmp_path, monkeypatch):
    first, second = ch.make(tmp_path, 0), ch.make(tmp_path, 1)
    monkeypatch.setenv(ch.env, ch.encode(tmp_path, first))
    assert _same(getattr(current(), ch.field), first)
    monkeypatch.setenv(ch.env, ch.encode(tmp_path, second))
    assert _same(getattr(current(), ch.field), second)
    assert _same(ch.observe(tmp_path, None), second)


def test_env_knobs_keep_their_error_texts(monkeypatch):
    monkeypatch.setenv("REPRO_JOB_TIMEOUT", "soon")
    with pytest.raises(ValueError,
                       match="REPRO_JOB_TIMEOUT must be a number"):
        RunContext.from_env()
    monkeypatch.setenv("REPRO_JOB_TIMEOUT", "2.5")
    monkeypatch.setenv("REPRO_JOB_RETRIES", "1.5")
    with pytest.raises(ValueError,
                       match="REPRO_JOB_RETRIES must be an integer"):
        RunContext.from_env()
    monkeypatch.setenv("REPRO_JOB_RETRIES", "3")
    ctx = RunContext.from_env()
    assert (ctx.job_timeout, ctx.job_retries, ctx.jobs) == (2.5, 3, 1)


class TestResilienceBaseline:
    """The resilience artifact injects only the plans it builds: an
    installed plan must not reach its fault-free runs."""

    CELL = dict(n_osts=16, cap=4, n_ranks=64, mb=16.0)

    def test_k0_cell_identical_with_plan_installed(self, tmp_path,
                                                   monkeypatch):
        from repro.harness.figures.resilience import _one_cell

        plain = _one_cell(0, "adaptive", 0, **self.CELL)
        with using(faults=two_ost_failure_plan()):
            installed = _one_cell(0, "adaptive", 0, **self.CELL)
        monkeypatch.setenv(
            "REPRO_FAULTS", _plan_file(tmp_path, two_ost_failure_plan())
        )
        from_env = _one_cell(0, "adaptive", 0, **self.CELL)
        # == on floats, not approx: the contract is bit-equality.
        assert installed == plain
        assert from_env == plain

    def test_integrity_baselines_identical_with_plan_installed(self):
        from repro.harness.figures.resilience import _integrity_cell

        plain = _integrity_cell(0, "adaptive", **self.CELL)
        with using(faults=two_ost_failure_plan()):
            installed = _integrity_cell(0, "adaptive", **self.CELL)
        assert installed == plain
