"""Figure 1 — internal interference: IOR scaling on Jaguar/Lustre.

Paper setup: IOR POSIX, 512 OSTs, one file per writer, writers split
evenly across targets; writers-per-OST ratio 1..32; per-writer sizes
1 MB..1024 MB, weak scaling; 40 samples per cell; a quiet system (no
production noise) — the interference is *internal*.

Fig. 1(a) plots aggregate write bandwidth; Fig. 1(b) per-writer write
bandwidth.  Both come from one sweep here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from repro.harness.experiment import (
    Scale,
    n_samples_override,
    resolve_preset,
)
from repro.harness.parallel import run_samples
from repro.harness.report import format_table
from repro.interference import install_production_noise
from repro.interference.markov import global_chain, per_ost_chain
from repro.interference.production import NoisePreset
from repro.ior import IorConfig, run_ior
from repro.machines import jaguar
from repro.metrics.stats import summarize
from repro.units import MB

__all__ = ["run", "Fig1Result"]

_PRESETS = {
    Scale.SMOKE: dict(
        n_osts=8, ratios=(1, 2, 4), sizes_mb=(1, 8), n_samples=1
    ),
    Scale.SMALL: dict(
        n_osts=64,
        ratios=(1, 2, 4, 8, 16, 32),
        sizes_mb=(1, 8, 128),
        n_samples=3,
    ),
    # Full-machine validation: every OST Jaguar's scratch filesystem
    # had, one high-churn cell (12 writers/OST -> 8064 writers), one
    # sample.  Exists to prove a full-scale cell *completes* in
    # tractable wall time, not to tighten Fig. 1's error bars.
    Scale.LARGE: dict(
        n_osts=672, ratios=(12,), sizes_mb=(8,), n_samples=1
    ),
    Scale.PAPER: dict(
        n_osts=512,
        ratios=(1, 2, 4, 8, 16, 32),
        sizes_mb=(1, 8, 64, 128, 512, 1024),
        n_samples=40,
    ),
}


@dataclass
class Fig1Result:
    """Sweep output: cell -> (aggregate, per-writer) bandwidth stats."""

    n_osts: int
    ratios: Tuple[int, ...]
    sizes_mb: Tuple[int, ...]
    # (size_mb, n_writers) -> list of aggregate bandwidths (bytes/s)
    aggregate: Dict[Tuple[int, int], List[float]] = field(
        default_factory=dict
    )
    per_writer: Dict[Tuple[int, int], List[float]] = field(
        default_factory=dict
    )

    def aggregate_stats(self, size_mb: int, n_writers: int):
        return summarize(self.aggregate[(size_mb, n_writers)])

    def per_writer_stats(self, size_mb: int, n_writers: int):
        return summarize(self.per_writer[(size_mb, n_writers)])

    def render(self) -> str:
        rows = []
        for size in self.sizes_mb:
            for ratio in self.ratios:
                n = ratio * self.n_osts
                agg = self.aggregate_stats(size, n)
                per = self.per_writer_stats(size, n)
                rows.append(
                    (
                        size,
                        n,
                        ratio,
                        agg.mean / 1e9,
                        agg.minimum / 1e9,
                        agg.maximum / 1e9,
                        per.mean / 1e6,
                    )
                )
        return format_table(
            [
                "MB/writer",
                "writers",
                "w/OST",
                "agg GB/s",
                "min",
                "max",
                "per-writer MB/s",
            ],
            rows,
            title=(
                f"Fig. 1 — internal interference "
                f"(IOR POSIX, {self.n_osts} OSTs, quiet system)"
            ),
        )

    # -- shape assertions the paper's text makes --------------------------
    def per_writer_monotone_decline(self, size_mb: int) -> bool:
        """Fig 1(b): per-writer bandwidth falls as writers increase."""
        means = [
            self.per_writer_stats(size_mb, r * self.n_osts).mean
            for r in self.ratios
        ]
        return all(b < a * 1.02 for a, b in zip(means, means[1:]))

    def aggregate_eventually_declines(self, size_mb: int) -> bool:
        """Fig 1(a): aggregate bandwidth peaks then decreases."""
        means = [
            self.aggregate_stats(size_mb, r * self.n_osts).mean
            for r in self.ratios
        ]
        peak = int(np.argmax(means))
        return peak < len(means) - 1 and means[-1] < means[peak]

    def to_dict(self) -> Dict:
        """Machine-readable summary (JSON-safe scalars only)."""
        cells = []
        for size in self.sizes_mb:
            for ratio in self.ratios:
                n = ratio * self.n_osts
                agg = self.aggregate_stats(size, n)
                per = self.per_writer_stats(size, n)
                cells.append(
                    {
                        "size_mb": size,
                        "n_writers": n,
                        "writers_per_ost": ratio,
                        "aggregate_mean": agg.mean,
                        "aggregate_std": agg.std,
                        "aggregate_min": agg.minimum,
                        "aggregate_max": agg.maximum,
                        "per_writer_mean": per.mean,
                        "per_writer_std": per.std,
                        "samples": list(self.aggregate[(size, n)]),
                    }
                )
        return {
            "n_osts": self.n_osts,
            "ratios": list(self.ratios),
            "sizes_mb": list(self.sizes_mb),
            "cells": cells,
        }


def _one_cell(n_writers: int, size_mb: int, n_osts: int, seed: int) -> Tuple:
    """One seeded IOR run for one (size, writer-count) cell.

    Module-level so the parallel executor can pickle a partial of it.
    """
    machine = jaguar(n_osts=n_osts).build(n_ranks=n_writers, seed=seed)
    # The paper's probes ran on the production machine at relatively
    # quiet times — mild ambient load supplies Fig. 1's error bars
    # without drowning the internal-interference signal.
    install_production_noise(
        machine,
        preset=NoisePreset(per_ost_chain(), global_chain(), intensity=0.25),
        live=False,
    )
    res = run_ior(
        machine,
        IorConfig(
            n_writers=n_writers,
            block_size=size_mb * MB,
            api="posix",
            n_osts_used=n_osts,
        ),
    )
    return (
        res.write_bandwidth,
        float(res.per_writer_bandwidths.mean()),
    )


def run(scale: "Scale | str" = Scale.SMALL, base_seed: int = 0) -> Fig1Result:
    """Run the Fig. 1 sweep at the given scale preset."""
    preset = resolve_preset(_PRESETS, scale)
    n_osts = preset["n_osts"]
    n_samples = n_samples_override(preset["n_samples"])
    result = Fig1Result(
        n_osts=n_osts,
        ratios=tuple(preset["ratios"]),
        sizes_mb=tuple(preset["sizes_mb"]),
    )
    for size_mb in result.sizes_mb:
        for ratio in result.ratios:
            n_writers = ratio * n_osts
            samples = run_samples(
                partial(_one_cell, n_writers, size_mb, n_osts),
                n_samples,
                base_seed,
                label=f"fig1[{size_mb}MB,{n_writers}w]",
            )
            result.aggregate[(size_mb, n_writers)] = [s[0] for s in samples]
            result.per_writer[(size_mb, n_writers)] = [s[1] for s in samples]
    return result
