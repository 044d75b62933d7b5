"""The three benchmark workloads: generated configs and the CLI calls that use them.

Every workload is a fixed list of `ar2lab` CLI calls over generated
config files.  The workload seed is the only input that varies between
runs; it becomes the config `seed`, so the program sees nothing but
ordinary config files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

U64 = 2 ** 64

# Hsu-Robbins desk config of the ROADMAP.  Grid 1..128 is dense, so the
# tail stage draws sum(grid) / |grid| = 64.5 noise values per indicator.
DESK = dict(a=0.3, b=0.2, p=1, r=2, epsilon=1, family="normal", grid_max=128, replications=8192)

# A few very long blocks: 4096 x 8192 doubles per array, far beyond any cache.
HORIZON = dict(a=0.3, b=0.2, p=1.5, r=2, epsilon=1, family="rademacher", grid_max=8192, replications=4096)

# One coefficient pair per spectral class, each with its own noise family.
ANALYTIC_PAIRS = (
    ("two_real", 0.3, 0.2, "normal", ()),
    ("repeated", 1.0, -0.25, "rademacher", ()),
    ("complex", 0.5, -0.9, "uniform", (1.0,)),
    ("negative", -0.5, 0.45, "student_t", (3.0,)),
    ("near_boundary", 0.2, 0.79, "pareto", (3.0, 1.0)),
)
ANALYTIC_GRID_MAX = 8192
ANALYTIC_COMMANDS = ("spectrum", "weights", "simulate", "verify")

# `ar2lab verify` checks U(400) against 1/(1-a-b) at a fixed horizon of
# 400, which cannot hold at rho ~ 0.994: the check reports FAIL with gap
# ~10.6.  The benchmark recognises exactly this failure and reports it
# as a known defect; any other FAIL is a failed operation.
KNOWN_DEFECT_PAIR = "near_boundary"
KNOWN_DEFECT_CHECK = "cumulative weights approach 1/(1-a-b)"
VERIFY_HORIZON = 400


@dataclass(frozen=True)
class Config:
    """One generated config file."""

    name: str
    a: float
    b: float
    p: float
    r: float
    epsilon: float
    family: str
    params: tuple
    grid_max: int
    replications: int
    seed: int
    output: str  # path prefix, relative to the checkout root

    def text(self) -> str:
        lines = [
            f"a = {self.a!r}",
            f"b = {self.b!r}",
            f"p = {self.p!r}",
            f"r = {self.r!r}",
            f"epsilon = {self.epsilon!r}",
            f"noise.family = {self.family}",
        ]
        lines += [f"noise.param{i} = {v!r}" for i, v in enumerate(self.params, start=1)]
        lines += [
            f"grid_max = {self.grid_max}",
            f"replications = {self.replications}",
            f"seed = {self.seed}",
            f"output = {self.output}",
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Call:
    """One CLI call: a name for its outputs, the command and its config."""

    name: str
    command: str
    config: Config

    def argv(self, config_dir: str) -> list:
        return [self.command, "--config", os.path.join(config_dir, self.config.name + ".cfg")]


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple
    calls: tuple


def _series_config(name: str, spec: dict, seed: int, out_dir: str) -> Config:
    return Config(
        name=name, a=spec["a"], b=spec["b"], p=spec["p"], r=spec["r"], epsilon=spec["epsilon"],
        family=spec["family"], params=(), grid_max=spec["grid_max"],
        replications=spec["replications"], seed=seed, output=os.path.join(out_dir, name),
    )


def build(name: str, seed: int, out_dir: str) -> Workload:
    """The workload `name` for a benchmark seed; outputs go under out_dir."""
    seed = int(seed) % U64
    if name in ("desk", "horizon"):
        cfg = _series_config(name, DESK if name == "desk" else HORIZON, seed, out_dir)
        return Workload(name, (cfg,), (Call(name, "series", cfg),))
    if name == "analytic":
        configs = tuple(
            Config(
                name=tag, a=a, b=b, p=1.0, r=2.0, epsilon=1.0, family=family, params=params,
                grid_max=ANALYTIC_GRID_MAX, replications=1000, seed=seed,
                output=os.path.join(out_dir, tag),
            )
            for tag, a, b, family, params in ANALYTIC_PAIRS
        )
        calls = tuple(
            Call(f"{cfg.name}.{command}", command, cfg)
            for cfg in configs
            for command in ANALYTIC_COMMANDS
        )
        return Workload(name, configs, calls)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("desk", "horizon", "analytic")


def default_grid(n_max: int) -> list:
    """The documented grid policy: 1..min(n_max, 128), then powers of two."""
    grid = list(range(1, min(n_max, 128) + 1))
    power = 256
    while power <= n_max:
        grid.append(power)
        power *= 2
    return grid
