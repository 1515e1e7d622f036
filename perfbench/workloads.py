"""The benchmark's workloads: fixed sets of acceptance-experiment configs.

Seed 0 is exactly the acceptance configs (C10 rotational, C11, C10 free
plus C12 free+V).  Any other seed draws the cell positions uniformly from
the box the acceptance positions span and, in two dimensions, rotates the
direction fan by an angle drawn from one fan step.  One-dimensional fans
are the two signs and stay fixed, as does the t0 = 0 control, whose single
cell sits on the singular point by construction.
"""

from __future__ import annotations

import copy
import math
import random

SCALAR = {"family": "soft-power", "mu": 1.0, "amplitude": 0.3}

FREE_TRANSPORT = {
    "experiment": "free-transport",
    "grid": {"n": 1, "points": 4096, "halfwidth": 30.0},
    "t0": 1.0, "dt": 1e-3,
    "data": ["gaussian", {"name": "delta-like", "width": 0.15},
             {"name": "jump", "steepness": 0.25}],
    "positions": [[-1.0], [0.0], [1.0]],
    "directions": 2,
    "ladder": {"kmin": 2, "kmax": 6},
    "b": "auto", "width": 1.0,
    "k_radius": 0.2, "cone_angle": 0.2, "a": 1.0,
    "min_agreement": 1.0,
}

ROTATIONAL_TRANSPORT = {
    "experiment": "magnetic-transport",
    "potential": {"family": "rotational", "n": 2, "rho": 0.5, "modulation": "sin"},
    "grid": {"n": 2, "points": 256, "halfwidth": 5.0},
    "t0": 0.5, "dt": 2.5e-3,
    "data": [{"name": "gaussian", "width": 0.7},
             {"name": "delta-like", "width": 0.5},
             {"name": "gaussian", "label": "moving-packet", "width": 0.6,
              "center": [-0.5, 0.0], "momentum": [2.0, 0.0]}],
    "positions": [[0.0, 0.0], [0.6, 0.0], [0.0, -0.6]],
    "directions": 4,
    "ladder": {"kmin": 2, "kmax": 6},
    "b": "auto", "width": 0.5,
    "k_radius": 0.15, "cone_angle": 0.2, "a": 1.0,
    "min_agreement": 0.9,
}

POINT_MASS_ZERO = {
    "experiment": "fundamental-solution",
    "grid": {"n": 1, "points": 4096, "halfwidth": 30.0},
    "t0": 1.0,
    "positions": [[-2.0], [-1.0], [0.0], [1.0], [2.0]],
    "directions": 2,
    "ladder": {"kmin": 2, "kmax": 6},
    "b": "auto", "width": 1.0, "k_radius": 0.2, "a": 1.0,
}

POINT_MASS_SOFT = {
    "experiment": "fundamental-solution",
    "potential": {"family": "soft-power", "n": 2, "rho": 0.5,
                  "amplitude": [0.7, 0.7]},
    "grid": {"n": 2, "points": 256, "halfwidth": 5.0},
    "t0": 1.0,
    "positions": [[-0.5, -0.5], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]],
    "directions": 4,
    "ladder": {"kmin": 2, "kmax": 6},
    "b": "auto", "width": 0.5, "k_radius": 0.15, "a": 1.0,
}

POINT_MASS_CONTROL = dict(
    POINT_MASS_ZERO, t0=0.0, control=True, positions=[[0.0]],
    ladder={"kmin": 3, "kmax": 11}, k_radius=0.25,
    grid={"n": 1, "points": 32768, "halfwidth": 10.0})

WORKLOADS = {
    "magnetic-transport": [ROTATIONAL_TRANSPORT],
    "point-mass": [POINT_MASS_ZERO, POINT_MASS_SOFT, POINT_MASS_CONTROL],
    "free-transport": [FREE_TRANSPORT,
                       dict(FREE_TRANSPORT, experiment="scalar-potential",
                            scalar_potential=SCALAR)],
}


def _redraw(cfg: dict, rng: random.Random) -> dict:
    """Positions and fan rotation drawn from the ranges of the seed-0 config."""
    if cfg.get("control"):
        return cfg
    n = cfg["grid"]["n"]
    lo = [min(p[i] for p in cfg["positions"]) for i in range(n)]
    hi = [max(p[i] for p in cfg["positions"]) for i in range(n)]
    cfg["positions"] = [[round(rng.uniform(lo[i], hi[i]), 6) for i in range(n)]
                        for _ in cfg["positions"]]
    if n == 2:
        count = cfg["directions"]
        theta = rng.uniform(0.0, 2.0 * math.pi / count)
        cfg["directions"] = [[math.cos(theta + 2.0 * math.pi * k / count),
                              math.sin(theta + 2.0 * math.pi * k / count)]
                             for k in range(count)]
    return cfg


def configs(workload: str, seed: int) -> list:
    """The workload's configs for a seed, as fresh dictionaries."""
    cfgs = [copy.deepcopy(c) for c in WORKLOADS[workload]]
    if seed == 0:
        return cfgs
    rng = random.Random(f"{workload}:{seed}")
    return [_redraw(c, rng) for c in cfgs]


def expected_cells(cfg: dict) -> int:
    """Cells one config scans: data x positions x directions."""
    n = cfg["grid"]["n"]
    dirs = cfg.get("directions", 4 if n > 1 else 2)
    n_dirs = len(dirs) if isinstance(dirs, list) else min(dirs, 2) if n == 1 else dirs
    n_data = 1 if cfg["experiment"] == "fundamental-solution" \
        else len(cfg.get("data", ["gaussian"]))
    return n_data * len(cfg["positions"]) * n_dirs
