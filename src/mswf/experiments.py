"""Experiment runners: transport consistency and point-mass smoothing.

Every runner takes a plain configuration dictionary and first parses it
into a frozen config class, `TransportConfig` or `PointMassConfig`; both
extend `ScanConfig`, the keys every scanning experiment reads.  Their
fields are the reference for the keys and their defaults, and this module
alone knows the config's JSON: nested specs are JSON objects, and the
library types built from them take Python values.  The grid is a square
box, one point count and one half-width for every axis, and a point (a
scan position or direction, a datum's centre or momentum) is a list of n
numbers, read by `grid.point_array`.  An unknown key, a missing required
key, a value of the wrong type or a scan setting out of range raises
InputError (exit code 2) before anything is computed.  What
no config varies is fixed, and setting it is an unknown key: the detector
thresholds, the noise floors (1e-7 static, 1e-12 dynamic), the flow
tolerance `detector.FLOW_TOL` = 1e-9 and the point-mass run's ladder of
ballistic ratios, `ENVELOPE_LADDER`.
The runner then computes with the library modules and (optionally) writes a
JSON summary plus plot-ready long-format CSV tables.  Outputs are
deterministic: identical configs and inputs produce byte-identical files,
so no timestamps or machine info are embedded, only the configuration and
resolved values.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import characteristics as chars
from . import detector, grid, packets, potentials, propagator
from .errors import (ConsistencyError, GuardError, InputError, integer, json_object,
                     number, one_of)

# the evolved field carries solver error; its transform floor sits there
STATIC_NOISE_REL, DYNAMIC_NOISE_REL = 1e-7, 1e-12
# the ladder of the point-mass run's ballistic ratios |x(0)| / (lam t0 |xi|)
ENVELOPE_LADDER = (1.0, 10.0, 100.0, 1000.0, 10000.0)


# ---------------------------------------------------------------------------
# output


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonify(obj), indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, header: list, rows: list) -> None:
    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _config_echo(cfg: dict) -> dict:
    """The computational part of the config; the destination does not
    influence results and must not break output byte-identity."""
    return {k: v for k, v in cfg.items() if k != "out_dir"}


# ---------------------------------------------------------------------------
# config schema


def _key(parse, default=MISSING):
    """A config key converted by `parse(value, key, done)`, where `done`
    holds the keys declared before it, already converted."""
    return field(default=default, metadata={"parse": parse})


def _typed(value, key, kind, what: str):
    if not isinstance(value, kind):
        raise InputError(f"'{key}' must be {what}, got {value!r}")
    return value


# converters of the keys that name none, by their annotation
_BY_TYPE = {
    "float": lambda v, key, done: number(v, key),
    "bool": lambda v, key, done: _typed(v, key, bool, "true or false"),
    "str | None": lambda v, key, done: _typed(v, key, (str, type(None)), "a string or null"),
}


def _fraction(value, key, done) -> float:
    return number(value, key, at_least=0.0, at_most=1.0)


def _grid(value, key, done) -> grid.GridSpec:
    g = json_object(value, ("n", "points", "halfwidth"))
    return grid.GridSpec(g.get("n"), g["points"], g["halfwidth"])


def _model(cls, value):
    """`cls` built from a JSON object of its fields' keys, {} if None."""
    return cls(**json_object({} if value is None else value, [f.name for f in fields(cls)]))


def _potential(value, key, done) -> potentials.VectorPotentialModel:
    """A vector potential in the grid's dimension; the zero model if None."""
    n = done["grid"].n
    model = potentials.zero_model(n) if value is None \
        else _model(potentials.VectorPotentialModel, value)
    if model.n != n:
        raise InputError(f"'{key}' has n = {model.n}, the grid has n = {n}")
    return model


def _ladder(value, key, done) -> tuple:
    """Dilations, {"kmin", "kmax"} for 2^kmin .. 2^kmax, or None for the default."""
    if isinstance(value, dict):
        value = json_object(value, ("kmin", "kmax"))
        value = detector.default_ladder(*(integer(value.get(k), k) for k in ("kmin", "kmax")))
    return detector.parse_ladder(value)


def _b(value, key, done) -> float:
    """The window scaling exponent: a number, or "auto" for the theorem's
    exponent under the potential's growth rate rho."""
    if value != "auto":
        return number(value, key)
    model = done["potential"]
    return packets.theorem_scaling_exponent(
        model.rho if model.family in ("soft-power", "rotational") else 0.0)


def _points(value, key, done) -> np.ndarray:
    """A nonempty list of points, each n numbers for the grid's n, as (S, n)."""
    value = _typed(value, key, list, "a list of points")  # text is not read as one
    return grid.point_array(value, done["grid"].n, (2, 2), key)


def _directions(value, key, done) -> np.ndarray:
    n = done["grid"].n
    if isinstance(value, list):
        return _points(value, key, done)
    return detector.direction_fan(n, integer((4 if n > 1 else 2) if value is None
                                             else value, key))


def _data(value, key, done) -> tuple:
    """(builder, label, keywords) per datum, the keywords checked against the
    builder's and a width, centre or momentum read as the builder reads it;
    "delta-like" is a gaussian of width 0.15 unless given."""
    if not _typed(value, key, (list, tuple), "a nonempty list of data"):
        raise InputError(f"'{key}' must be a nonempty list of data, got {value!r}")
    entries = []
    for entry in value:
        entry = json_object({"name": entry} if isinstance(entry, str) else entry)
        name = entry.pop("name", None)
        label = entry.pop("label", name)
        if not (isinstance(label, str) and label) or any(c in label for c in ',"\r\n'):
            raise InputError(f"datum label {label!r} must be a nonempty string "
                             "without a comma, a quote or a line break")
        if name == "delta-like":
            name, entry = "gaussian", {"width": 0.15, **entry}
        inspect.signature(grid.BUILTIN_DATA[name]).bind(None, **entry)
        if "width" in entry:
            number(entry["width"], "width", above=0.0)
        for k in {"center", "momentum"} & set(entry):
            grid.point_array(entry[k], done["grid"].n, (1, 1), k)
        entries.append((name, label, entry))
    return tuple(entries)


def _datum_from_config(entry: tuple, spec: grid.GridSpec) -> grid.GridFunction:
    """The datum built on the grid; InputError naming its label if a keyword
    value does not build or the values are not finite."""
    name, label, kwargs = entry
    try:
        f = grid.builtin_data(name, spec, label=label, **kwargs)
    except (TypeError, ValueError) as exc:
        raise InputError(f"datum '{label}' cannot be built from {kwargs}: {exc}") from None
    if not np.isfinite(f.values).all():
        raise InputError(f"datum '{label}' has non-finite values, from {kwargs}")
    return f


@dataclass(frozen=True, kw_only=True)
class ScanConfig:
    """The keys every scanning experiment reads, and the one config parser.
    `directions` is a count for `detector.direction_fan` (by default 4, or
    2 in 1-d) or a list."""

    experiment: str | None = None
    out_dir: str | None = None
    grid: grid.GridSpec = _key(_grid)
    potential: potentials.VectorPotentialModel = _key(_potential, None)
    positions: np.ndarray = _key(_points)
    directions: np.ndarray = _key(_directions, None)
    ladder: tuple = _key(_ladder, None)
    width: float = 1.0
    b: float = _key(_b, "auto")
    k_radius: float = detector.ConicSample.k_radius
    cone_angle: float = detector.ConicSample.half_angle
    a: float = detector.ConicSample.a
    t0: float = 1.0

    @classmethod
    def parse(cls, cfg: dict):
        """Convert each key once, from its value or else its default; InputError
        for an unknown or missing key, a value of the wrong type, a scan
        setting that a cell's conic sample or the window refuses, or an
        out_dir that cannot be created.  out_dir is created here, before
        anything is computed."""
        obj = json_object(cfg, [f.name for f in fields(cls)])
        done = {}
        for f in fields(cls):
            if f.default is MISSING and f.name not in obj:
                raise InputError(f"config needs '{f.name}'")
            parse = f.metadata.get("parse") or _BY_TYPE[f.type]
            try:
                done[f.name] = parse(obj.get(f.name, f.default), f.name, done)
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"config key '{f.name}': {exc!r}") from None
        config = cls(**done)
        # the cells' samples and the window own the ranges of these settings
        for x0 in config.positions:
            for xi0 in config.directions:
                detector.ConicSample(x0, xi0, k_radius=config.k_radius,
                                     half_angle=config.cone_angle, a=config.a)
        packets.GaussianWindow(config.grid.n, config.width, config.ladder[-1], config.b)
        if config.out_dir is not None:
            try:
                Path(config.out_dir).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise InputError(f"'out_dir' {config.out_dir!r} cannot be created: "
                                 f"{exc.strerror}") from None
        return config

    def write(self, summary: dict, tables: dict) -> None:
        """summary.json and CSV tables {name: (header, rows)} into out_dir, if set."""
        if self.out_dir is None:
            return
        out = Path(self.out_dir)
        write_json(out / "summary.json", summary)
        for name, (header, rows) in tables.items():
            write_csv(out / name, header, rows)

    def scan(self, mode: str, data, **kwargs) -> list:
        """`detector.wf_scan` over this config's cells and settings."""
        return detector.wf_scan(
            mode, data, self.positions, self.directions, self.ladder,
            width=self.width, b=self.b, model=self.potential,
            t0=self.t0, k_radius=self.k_radius, half_angle=self.cone_angle,
            a=self.a, **kwargs)


@dataclass(frozen=True, kw_only=True)
class TransportConfig(ScanConfig):
    """Keys of the free-transport, magnetic-transport and scalar-potential
    experiments."""

    experiment: str | None = "free-transport"
    scalar_potential: propagator.ScalarPotentialModel = _key(
        lambda v, key, done: _model(propagator.ScalarPotentialModel, v), None)
    data: tuple = _key(_data, ("gaussian",))
    dt: float = 1e-3
    min_agreement: float = _key(_fraction, 0.9)
    max_inconclusive: float = _key(_fraction, 0.5)


@dataclass(frozen=True, kw_only=True)
class PointMassConfig(ScanConfig):
    """Keys of the fundamental-solution experiment."""

    t0: float = _key(lambda v, key, done: number(v, key, at_least=0.0), 1.0)
    control: bool = False


def _cell_columns(n: int) -> list:
    return [f"x0_{i}" for i in range(n)] + [f"dir_{i}" for i in range(n)]


def _ladder_rows(cell, *lead) -> list:
    """One row per rung of the cell's binding sample, after `lead`."""
    rep = cell.report
    if rep is None or not len(rep.magnitudes):
        return []
    return [[*lead, *cell.x0, *cell.xi0, lam, m, rep.n_hat, rep.verdict]
            for lam, m in zip(rep.ladder, rep.magnitudes[rep.binding_index])]


# ---------------------------------------------------------------------------
# transport consistency


def run_transport_consistency(cfg: dict) -> dict:
    """Static test on the evolved field vs dynamic test on the datum.

    Also runs the scalar-potential experiment: a sub-quadratic scalar term
    enters the evolution only, since the flow never sees it.
    """
    config = TransportConfig.parse(cfg)
    spec, model, scalar = config.grid, config.potential, config.scalar_potential
    if not model.conforming:
        raise GuardError(f"model family '{model.family}' violates the decay "
                         "hypothesis; transport experiments need a conforming model")
    evolve_cfg = propagator.EvolveConfig(dt=config.dt)
    propagator._step_count(0.0, config.t0, evolve_cfg)  # refused before any datum
    data = [_datum_from_config(entry, spec) for entry in config.data]
    evolved = propagator.evolve(model, scalar, data, 0.0, config.t0, evolve_cfg)
    # one scan per mode over all data; results come back datum-major
    static_cells = config.scan("static", evolved, noise_rel=STATIC_NOISE_REL)
    dynamic_cells = config.scan("dynamic", data, noise_rel=DYNAMIC_NOISE_REL)
    per_datum = len(static_cells) // len(data)
    cell_rows, ladder_rows = [], []
    for k, (sc, dc) in enumerate(zip(static_cells, dynamic_cells)):
        label = data[k // per_datum].label
        conclusive = (sc.verdict in ("in-WF", "not-in-WF")
                      and dc.verdict in ("in-WF", "not-in-WF"))
        agree = conclusive and sc.verdict == dc.verdict
        cell_rows.append({
            "datum": label, "x0": sc.x0, "direction": sc.xi0,
            "static": sc.verdict, "dynamic": dc.verdict,
            "static_nhat": sc.report.n_hat if sc.report else None,
            "dynamic_nhat": dc.report.n_hat if dc.report else None,
            "static_r2": sc.report.r2 if sc.report else None,
            "dynamic_r2": dc.report.r2 if dc.report else None,
            "conclusive": conclusive, "agree": agree,
            "static_error": sc.error, "dynamic_error": dc.error,
        })
        ladder_rows += _ladder_rows(sc, label, "static") + _ladder_rows(dc, label, "dynamic")
    results = [{"datum": u0.label, "cells": cell_rows[j * per_datum:(j + 1) * per_datum]}
               for j, u0 in enumerate(data)]
    total_cells = len(cell_rows)
    conclusive_count = sum(r["conclusive"] for r in cell_rows)
    agree_count = sum(r["agree"] for r in cell_rows)

    agreement = agree_count / conclusive_count if conclusive_count else 0.0
    inconclusive_frac = 1.0 - (conclusive_count / total_cells if total_cells else 0.0)
    summary = {
        "experiment": config.experiment,
        "config": _jsonify(_config_echo(cfg)),
        "resolved": {
            "b": config.b, "ladder": list(config.ladder), "t0": config.t0,
            "dt": config.dt, "width": config.width,
            "thresholds": {"N": detector.N_HIGH, "Nlow": detector.N_LOW,
                           "R2": detector.R2_MIN},
            "model": asdict(model),
            "scalar": scalar.family,
        },
        "cells_total": total_cells,
        "cells_conclusive": conclusive_count,
        "cells_agreeing": agree_count,
        "agreement": agreement,
        "inconclusive_fraction": inconclusive_frac,
        "data": results,
    }
    columns = _cell_columns(spec.n)
    config.write(summary, {
        "cells.csv": (["datum"] + columns + [
            "static_verdict", "static_nhat", "static_r2", "dynamic_verdict",
            "dynamic_nhat", "dynamic_r2", "conclusive", "agree"],
            [[r["datum"], *r["x0"], *r["direction"], r["static"], r["static_nhat"],
              r["static_r2"], r["dynamic"], r["dynamic_nhat"], r["dynamic_r2"],
              int(r["conclusive"]), int(r["agree"])] for r in cell_rows]),
        "ladder.csv": (["datum", "mode"] + columns + ["lambda", "mag", "nhat", "verdict"],
                       ladder_rows)})
    if total_cells and inconclusive_frac > config.max_inconclusive:
        raise ConsistencyError(
            f"{inconclusive_frac:.0%} of cells inconclusive "
            f"(limit {config.max_inconclusive:.0%})")
    if conclusive_count and agreement < config.min_agreement:
        raise ConsistencyError(
            f"verdict agreement {agreement:.1%} below the configured "
            f"bound {config.min_agreement:.1%}")
    return summary


# ---------------------------------------------------------------------------
# point-mass experiment


def run_fundamental_solution(cfg: dict) -> dict:
    """Dynamic membership scan for a point-mass datum, plus the ballistic
    ratios of its backward flows.

    Refuses t0 < 0, and t0 = 0 unless 'control' is set (at time zero the
    point mass is its own singular field, which is exactly the control case).
    """
    config = PointMassConfig.parse(cfg)
    spec, model, t0, b = config.grid, config.potential, config.t0, config.b
    if not model.conforming:
        raise GuardError("fundamental-solution experiment needs a conforming model")
    if t0 == 0.0 and not config.control:
        raise GuardError("t0 = 0 is the singular control case; pass control=true")
    u0 = grid.delta_spike(spec)

    cells = config.scan("dynamic", u0)
    conclusive = [c for c in cells if c.verdict in ("in-WF", "not-in-WF")]
    smooth = [c for c in conclusive if c.verdict == "not-in-WF"]
    fraction_smooth = len(smooth) / len(conclusive) if conclusive else 0.0

    ratio_report = None if t0 == 0.0 else chars.lower_bound_x0(
        model, t0, config.positions, config.directions, ENVELOPE_LADDER,
        tol=detector.FLOW_TOL)

    summary = {
        "experiment": "fundamental-solution",
        "config": _jsonify(_config_echo(cfg)),
        "resolved": {"b": b, "ladder": list(config.ladder), "t0": t0,
                     "width": config.width,
                     "model": asdict(model),
                     "control": config.control},
        "cells_total": len(cells),
        "cells_conclusive": len(conclusive),
        "fraction_not_in_wf": fraction_smooth,
        "cells": [{"x0": c.x0, "direction": c.xi0, "verdict": c.verdict,
                   "nhat": c.report.n_hat if c.report else None,
                   "error": c.error} for c in cells],
        "ballistic_ratios": None if ratio_report is None else {
            "ladder": list(ratio_report.ladder),
            "ratios": {repr(k): v for k, v in ratio_report.ratios.items()},
            "top_in_bracket": ratio_report.top_in_bracket,
        },
    }
    columns = _cell_columns(spec.n)
    tables = {"ladder.csv": (columns + ["lambda", "mag", "nhat", "verdict"],
                             [row for c in cells for row in _ladder_rows(c)])}
    if ratio_report is not None:
        tables["ratios.csv"] = (["lambda", "sample", "ratio"],
                                [[lam, i, r] for lam in ratio_report.ladder
                                 for i, r in enumerate(ratio_report.ratios[lam])])
    config.write(summary, tables)
    return summary


RUNNERS = {
    "free-transport": run_transport_consistency,
    "magnetic-transport": run_transport_consistency,
    "fundamental-solution": run_fundamental_solution,
    "scalar-potential": run_transport_consistency,
}


def run_experiment(config: dict) -> dict:
    return RUNNERS[one_of(json_object(config).get("experiment"), RUNNERS, "experiment")](config)
