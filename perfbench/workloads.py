"""Workload definitions and config generation.

Each workload is one shipped config, a few size overrides and the
experiments that run on it, in a fixed order.  The benchmark seed becomes
`sim.seed`; a workload whose cost depends on the seed runs several derived
seeds and reports their median (see `sub_seeds`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # shipped config, relative to the checkout root
    experiments: tuple
    overrides: dict = field(default_factory=dict)
    n_sub_seeds: int = 1  # derived seeds per run; > 1 when cost depends on the seed

    def sub_seeds(self, seed: int) -> list[int]:
        """Seeds run by one benchmark run; disjoint across benchmark seeds."""
        return [seed * self.n_sub_seeds + j for j in range(self.n_sub_seeds)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dini_verdicts",
            "configs/builtin_dini.cfg",
            ("zvonkin", "decay", "entropy", "alh", "gradient"),
            # Shipped sizes take about a minute; shorter horizon and coarser
            # step keep the per-call Zvonkin work (theta_inv, 7 lambda
            # sweeps) the dominant cost in about a quarter of the time.
            {"sim.N_replicas": "128", "sim.T": "2.0", "sim.h": "0.04"},
        ),
        Workload(
            "linear_verdicts",
            "configs/builtin_linear.cfg",
            ("decay", "entropy", "alh", "gradient"),
            # Criterion-7 step and horizon, so the Euler loop and the history
            # integral dominate; a quarter of its replicas, for run time.
            {"sim.h": "0.01", "sim.T": "8.0", "sim.N_replicas": "512"},
        ),
        Workload(
            "meanfield_growth",
            "configs/builtin_linear.cfg",
            ("validate", "growth"),
            # 64 particles: exact assignment on the base curve, Sinkhorn on
            # the doubled (128-particle) curve.
            {"sim.N_particles": "64"},
            # Sinkhorn iteration counts vary from seed to seed, so each run
            # takes the median over five seeds.
            n_sub_seeds=5,
        ),
    )
}


def generate_config(root: Path, workload: Workload, seed: int, out_dir: Path) -> str:
    """The shipped config text with sizes, seed and output directory replaced."""
    values = {**workload.overrides, "sim.seed": str(seed), "output.dir": str(out_dir)}
    lines, seen = [], set()
    for line in (root / workload.config).read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        if "=" in line and not line.lstrip().startswith("#") and key in values:
            line = f"{key} = {values[key]}"
            seen.add(key)
        lines.append(line)
    missing = set(values) - seen
    if missing:
        raise KeyError(f"{workload.config} has no key(s) {sorted(missing)}")
    return "\n".join(lines) + "\n"
