"""Table I — IO performance variability due to external interference.

Paper setup: hourly IOR probes (512 writers POSIX, one file per
writer, one process per storage target) over weeks of production
operation — 469 samples on Jaguar; ~2 years of NERSC monitoring data
for Franklin (80 writers); and two controlled XTP configurations: a
single 512-writer IOR ("without Int.") vs two simultaneous IOR jobs
("with Int.").

Reported: sample count, average bandwidth, standard deviation and
"covariance" (CoV).  Paper values: Jaguar ~40%, Franklin ~59%,
XTP with Int. ~43%, XTP without Int. small.

Each hourly probe sees the production-noise Markov field at an
independent stationary draw (an hour >> the chains' dwell times), so
samples here are independent machines with frozen stationary noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List

import numpy as np

from repro.harness.experiment import (
    Scale,
    n_samples_override,
    resolve_preset,
)
from repro.harness.parallel import run_samples
from repro.harness.report import format_table
from repro.interference import (
    BackgroundWriterJob,
    install_production_noise,
)
from repro.ior import IorConfig, run_ior
from repro.machines import franklin, jaguar, xtp
from repro.metrics.stats import SampleStats, summarize
from repro.units import MB

__all__ = ["run", "Table1Result", "CONDITIONS"]

_PRESETS = {
    Scale.SMOKE: dict(n_samples=4, jaguar_osts=16, franklin_osts=16),
    Scale.SMALL: dict(n_samples=40, jaguar_osts=96, franklin_osts=96),
    Scale.PAPER: dict(n_samples=469, jaguar_osts=512, franklin_osts=96),
}

CONDITIONS = (
    "jaguar",
    "franklin",
    "xtp_with_int",
    "xtp_without_int",
)


@dataclass
class Table1Result:
    bandwidths: Dict[str, List[float]] = field(default_factory=dict)

    def stats(self, condition: str) -> SampleStats:
        return summarize(self.bandwidths[condition])

    def cov_percent(self, condition: str) -> float:
        return self.stats(condition).cov_percent

    def render(self) -> str:
        label = {
            "jaguar": "Jaguar",
            "franklin": "Franklin",
            "xtp_with_int": "XTP (with Int.)",
            "xtp_without_int": "XTP (without Int.)",
        }
        rows = []
        for cond in CONDITIONS:
            s = self.stats(cond)
            rows.append(
                (
                    label[cond],
                    s.n,
                    s.mean / 1e6,
                    s.std / 1e6,
                    f"{s.cov_percent:.0f}%",
                )
            )
        return format_table(
            ["Machine", "Samples", "Avg BW (MB/s)", "Std Dev", "CoV"],
            rows,
            title="Table I — IO variability due to external interference",
        )

    def to_dict(self) -> Dict:
        """Machine-readable summary (JSON-safe scalars only)."""
        out: Dict[str, Dict] = {}
        for cond in CONDITIONS:
            if cond not in self.bandwidths:
                continue
            s = self.stats(cond)
            out[cond] = {
                "n": s.n,
                "mean": s.mean,
                "std": s.std,
                "cov_percent": s.cov_percent,
                "samples": [float(b) for b in self.bandwidths[cond]],
            }
        return {"conditions": out}


def _probe_jaguar(seed: int, n_osts: int) -> float:
    machine = jaguar(n_osts=n_osts).build(n_ranks=n_osts, seed=seed)
    install_production_noise(machine, live=False)
    res = run_ior(
        machine,
        IorConfig(n_writers=n_osts, block_size=512 * MB, api="posix",
                  n_osts_used=n_osts),
    )
    return res.write_bandwidth


def _probe_franklin(seed: int, n_osts: int) -> float:
    # NERSC's recurring test uses 80 writers on the 96-OST system.
    n_writers = min(80, n_osts)
    machine = franklin(n_osts=n_osts).build(n_ranks=n_writers, seed=seed)
    install_production_noise(machine, live=False)
    res = run_ior(
        machine,
        IorConfig(n_writers=n_writers, block_size=512 * MB, api="posix",
                  n_osts_used=n_osts),
    )
    return res.write_bandwidth


def _probe_xtp(seed: int, with_interference: bool) -> float:
    """One controlled XTP probe.

    "with Int." races a second IOR program against the probe: an
    identical one-shot writer population, launched at a random phase
    within the probe window and with a jittered block size.  How much
    of the probe it overlaps varies sample to sample — the mechanism
    behind the paper's 43% CoV on a machine with almost no ambient
    noise.
    """
    n_writers = 480  # 512 in the paper; 480 = 40 blades x 12 fits XTP
    machine = xtp().build(
        n_ranks=n_writers, seed=seed, extra_service_nodes=40
    )
    install_production_noise(machine, live=False)  # mild ambient
    if with_interference:
        rng = machine.rngs.get("xtp.second_job")
        start_delay = float(rng.uniform(0.0, 4.0))
        block = float(rng.uniform(0.5, 2.0)) * 128 * MB
        env = machine.env
        fabric = machine.fs.fabric

        def second_job():
            yield env.timeout(start_delay)
            flows = [
                fabric.start_flow(
                    machine.service_node(i % machine.n_service_nodes),
                    i % machine.n_osts,
                    block,
                )
                for i in range(n_writers)
            ]
            yield env.all_of(flows)

        env.process(second_job(), name="xtp.job2")
    res = run_ior(
        machine,
        IorConfig(n_writers=n_writers, block_size=128 * MB, api="posix",
                  n_osts_used=40),
    )
    return res.write_bandwidth


def run(scale: "Scale | str" = Scale.SMALL, base_seed: int = 0) -> Table1Result:
    preset = resolve_preset(_PRESETS, scale)
    n = n_samples_override(preset["n_samples"])
    result = Table1Result()
    result.bandwidths["jaguar"] = run_samples(
        partial(_probe_jaguar, n_osts=preset["jaguar_osts"]), n, base_seed,
        label="table1[jaguar]",
    )
    result.bandwidths["franklin"] = run_samples(
        partial(_probe_franklin, n_osts=preset["franklin_osts"]),
        n,
        base_seed + 1,
        label="table1[franklin]",
    )
    xtp_n = max(4, n // 4)  # XTP was probed less often in the paper too
    result.bandwidths["xtp_with_int"] = run_samples(
        partial(_probe_xtp, with_interference=True), xtp_n, base_seed + 2,
        label="table1[xtp+int]",
    )
    result.bandwidths["xtp_without_int"] = run_samples(
        partial(_probe_xtp, with_interference=False), xtp_n, base_seed + 3,
        label="table1[xtp-int]",
    )
    return result
