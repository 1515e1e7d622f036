"""Experiment runners: transport consistency, point-mass smoothing, bound suites.

Every runner consumes a plain configuration dictionary, computes with the
library modules, and (optionally) writes a JSON summary plus plot-ready
long-format CSV tables.  Outputs are deterministic: identical configs and
inputs produce byte-identical files, so no timestamps or machine info are
embedded, only the resolved configuration and guard values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import characteristics as chars
from . import detector, grid, packets, potentials, propagator
from .errors import ConsistencyError, GuardError, InputError

DEFAULT_THRESHOLDS = {"N": 6.0, "Nlow": 1.0, "R2": 0.95}

EXPERIMENTS = ("free-transport", "magnetic-transport", "fundamental-solution",
               "lemma-suite", "scalar-potential")


# ---------------------------------------------------------------------------
# config plumbing


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


def _grid_from_config(cfg: dict) -> grid.GridSpec:
    g = cfg.get("grid")
    if g is None:
        raise InputError("config needs a 'grid' section")
    return grid.GridSpec(int(g["n"]), g["points"], g["halfwidth"])


def _model_from_config(cfg: dict) -> potentials.VectorPotentialModel:
    spec = cfg.get("potential")
    if spec is None:
        n = int(cfg["grid"]["n"])
        return potentials.zero_model(n)
    return potentials.model_from_json(spec)


def _scalar_from_config(cfg: dict):
    spec = cfg.get("scalar_potential")
    if spec is None:
        return propagator.ZERO_SCALAR
    return propagator.scalar_from_json(spec)


def _thresholds_from_config(cfg: dict) -> detector.Thresholds:
    t = {**DEFAULT_THRESHOLDS, **cfg.get("thresholds", {})}
    return detector.Thresholds(n_high=float(t["N"]), n_low=float(t["Nlow"]),
                               r2_min=float(t["R2"]))


def _ladder_from_config(cfg: dict) -> tuple:
    ladder = cfg.get("ladder")
    if ladder is None:
        return detector.default_ladder()
    if isinstance(ladder, dict):
        return detector.default_ladder(int(ladder["kmin"]), int(ladder["kmax"]))
    return tuple(float(l) for l in ladder)


def _b_from_config(cfg: dict, model: potentials.VectorPotentialModel) -> float:
    b = cfg.get("b", "auto")
    if b == "auto":
        rho = model.rho if model.family in ("soft-power", "rotational") else 0.0
        return packets.theorem_scaling_exponent(rho)
    return float(b)


def _datum_from_config(entry, spec: grid.GridSpec) -> grid.GridFunction:
    if isinstance(entry, str):
        entry = {"name": entry}
    entry = dict(entry)
    name = entry.pop("name")
    label = entry.pop("label", name)
    if name == "delta-like":
        width = entry.pop("width", 0.15)
        f = grid.gaussian_data(spec, width=width, **entry)
    else:
        f = grid.builtin_data(name, spec, **entry)
    f.label = label
    return f


def _positions_from_config(cfg: dict, n: int) -> list:
    positions = cfg.get("positions")
    if positions is None:
        raise InputError("config needs 'positions'")
    return [np.resize(np.asarray(p, dtype=float), n) for p in positions]


def _directions_from_config(cfg: dict, n: int) -> np.ndarray:
    directions = cfg.get("directions", 4 if n > 1 else 2)
    if isinstance(directions, int):
        return detector.direction_fan(n, directions)
    return np.asarray([np.resize(np.asarray(d, dtype=float), n)
                       for d in directions])


def _scan_settings(cfg: dict, spec: grid.GridSpec,
                   model: potentials.VectorPotentialModel) -> dict:
    """The `wf_scan` arguments a scanning experiment reads from its config."""
    return {
        "positions": _positions_from_config(cfg, spec.n),
        "directions": _directions_from_config(cfg, spec.n),
        "ladder": _ladder_from_config(cfg),
        "thresholds": _thresholds_from_config(cfg),
        "width": float(cfg.get("width", 1.0)),
        "b": _b_from_config(cfg, model),
        "k_radius": float(cfg.get("k_radius", 0.2)),
        "half_angle": float(cfg.get("cone_angle", 0.2)),
        "a": float(cfg.get("a", 1.0)),
        "tol": float(cfg.get("tol", 1e-9)),
    }


def _out_dir(cfg: dict) -> Path | None:
    out = cfg.get("out_dir")
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _config_echo(cfg: dict) -> dict:
    """The computational part of the config; the destination does not
    influence results and must not break output byte-identity."""
    return {k: v for k, v in cfg.items() if k != "out_dir"}


def _cell_columns(n: int) -> list:
    return [f"x0_{i}" for i in range(n)] + [f"dir_{i}" for i in range(n)]


# ---------------------------------------------------------------------------
# transport consistency


def run_transport_consistency(cfg: dict) -> dict:
    """Static test on the evolved field vs dynamic test on the datum.

    Also runs the scalar-potential experiment: a sub-quadratic scalar term
    enters the evolution only, since the flow never sees it.
    """
    experiment = cfg.get("experiment", "free-transport")
    spec = _grid_from_config(cfg)
    model = _model_from_config(cfg)
    scalar = _scalar_from_config(cfg)
    if not model.conforming:
        raise GuardError(f"model family '{model.family}' violates the decay "
                         "hypothesis; transport experiments need a conforming model")
    if not scalar.conforming:
        raise GuardError("scalar potential must be sub-quadratic")
    scan = _scan_settings(cfg, spec, model)
    t0 = float(cfg.get("t0", 1.0))
    dt = float(cfg.get("dt", 1e-3))
    min_agreement = float(cfg.get("min_agreement", 0.9))
    max_inconclusive = float(cfg.get("max_inconclusive", 0.5))
    data_entries = cfg.get("data", ["gaussian"])

    # the evolved field carries solver error; its transform floor sits there
    static_noise = float(cfg.get("static_noise_rel", 1e-7))
    dynamic_noise = float(cfg.get("dynamic_noise_rel", 1e-12))
    evolve_cfg = propagator.EvolveConfig(dt=dt)
    results = []
    cell_rows = []
    ladder_rows = []
    agree_count = conclusive_count = total_cells = 0
    data = [_datum_from_config(entry, spec) for entry in data_entries]
    evolved = propagator.evolve(model, scalar, data, 0.0, t0, evolve_cfg)
    for u0, u_t0 in zip(data, evolved):
        static_cells = detector.wf_scan("static", u_t0, **scan,
                                        noise_rel=static_noise)
        dynamic_cells = detector.wf_scan("dynamic", u0, **scan, model=model,
                                         t0=t0, scalar=scalar,
                                         noise_rel=dynamic_noise)
        datum_rows = []
        for sc, dc in zip(static_cells, dynamic_cells):
            total_cells += 1
            conclusive = (sc.verdict in ("in-WF", "not-in-WF")
                          and dc.verdict in ("in-WF", "not-in-WF"))
            agree = conclusive and sc.verdict == dc.verdict
            conclusive_count += conclusive
            agree_count += agree
            row = {
                "datum": u0.label, "x0": sc.x0, "direction": sc.xi0,
                "static": sc.verdict, "dynamic": dc.verdict,
                "static_nhat": sc.report.n_hat if sc.report else None,
                "dynamic_nhat": dc.report.n_hat if dc.report else None,
                "static_r2": sc.report.r2 if sc.report else None,
                "dynamic_r2": dc.report.r2 if dc.report else None,
                "conclusive": conclusive, "agree": agree,
                "static_error": sc.error, "dynamic_error": dc.error,
            }
            datum_rows.append(row)
            cell_rows.append(row)
            for mode, cell in (("static", sc), ("dynamic", dc)):
                if cell.report is None or not cell.report.per_sample:
                    continue
                rep = cell.report
                mag = rep.magnitudes[rep.binding_index]
                for lam, m in zip(rep.ladder, mag):
                    ladder_rows.append([u0.label, mode, *cell.x0, *cell.xi0,
                                        lam, m, rep.n_hat, rep.verdict])
        results.append({"datum": u0.label, "cells": datum_rows})

    agreement = agree_count / conclusive_count if conclusive_count else 0.0
    inconclusive_frac = 1.0 - (conclusive_count / total_cells if total_cells else 0.0)
    summary = {
        "experiment": experiment,
        "config": _jsonify(_config_echo(cfg)),
        "resolved": {
            "b": scan["b"], "ladder": list(scan["ladder"]), "t0": t0, "dt": dt,
            "width": scan["width"], "thresholds": DEFAULT_THRESHOLDS
            | cfg.get("thresholds", {}),
            "model": potentials.model_to_json(model),
            "scalar": scalar.family,
        },
        "cells_total": total_cells,
        "cells_conclusive": conclusive_count,
        "cells_agreeing": agree_count,
        "agreement": agreement,
        "inconclusive_fraction": inconclusive_frac,
        "data": results,
    }
    out = _out_dir(cfg)
    if out is not None:
        write_json(out / "summary.json", summary)
        n = spec.n
        header = ["datum"] + _cell_columns(n) + [
            "static_verdict", "static_nhat", "static_r2",
            "dynamic_verdict", "dynamic_nhat", "dynamic_r2", "conclusive", "agree"]
        rows = [[r["datum"], *r["x0"], *r["direction"], r["static"],
                 r["static_nhat"], r["static_r2"], r["dynamic"],
                 r["dynamic_nhat"], r["dynamic_r2"],
                 int(r["conclusive"]), int(r["agree"])] for r in cell_rows]
        write_csv(out / "cells.csv", header, rows)
        write_csv(out / "ladder.csv",
                  ["datum", "mode"] + _cell_columns(n)
                  + ["lambda", "mag", "nhat", "verdict"], ladder_rows)
    if total_cells and inconclusive_frac > max_inconclusive:
        raise ConsistencyError(
            f"{inconclusive_frac:.0%} of cells inconclusive "
            f"(limit {max_inconclusive:.0%})")
    if conclusive_count and agreement < min_agreement:
        raise ConsistencyError(
            f"verdict agreement {agreement:.1%} below the configured "
            f"bound {min_agreement:.1%}")
    return summary


# ---------------------------------------------------------------------------
# point-mass experiment


def run_fundamental_solution(cfg: dict) -> dict:
    """Dynamic membership scan for a point-mass datum, plus analytic tables.

    Refuses t0 = 0 unless 'control' is set (at time zero the point mass is
    its own singular field, which is exactly the control case).
    """
    spec = _grid_from_config(cfg)
    model = _model_from_config(cfg)
    if not model.conforming:
        raise GuardError("fundamental-solution experiment needs a conforming model")
    t0 = float(cfg.get("t0", 1.0))
    control = bool(cfg.get("control", False))
    if t0 == 0.0 and not control:
        raise GuardError("t0 = 0 is the singular control case; pass control=true")
    scan = _scan_settings(cfg, spec, model)
    b = scan["b"]
    u0 = grid.delta_spike(spec)

    cells = detector.wf_scan("dynamic", u0, **scan, model=model, t0=t0)
    conclusive = [c for c in cells if c.verdict in ("in-WF", "not-in-WF")]
    smooth = [c for c in conclusive if c.verdict == "not-in-WF"]
    fraction_smooth = len(smooth) / len(conclusive) if conclusive else 0.0

    # analytic cross-plot: flowed |x(0)| against the magnitude envelope; the
    # ratio report flows each cell once per rung, in the cells' order
    env_ladder = tuple(float(l) for l in cfg.get("envelope_ladder",
                                                 (1.0, 10.0, 100.0, 1000.0, 10000.0)))
    envelope_rows = []
    ratio_report = None
    if t0 != 0.0:
        ratio_report = chars.lower_bound_x0(
            model, t0, scan["positions"], scan["directions"], env_ladder,
            tol=scan["tol"])
        for i, c in enumerate(cells):
            for lam in env_ladder:
                x0_norm = ratio_report.x0_norms[lam][i]
                env = packets.fundamental_solution_envelope(lam, b, t0, x0_norm, spec.n)
                envelope_rows.append([*c.x0, *c.xi0, lam, x0_norm, env])

    summary = {
        "experiment": "fundamental-solution",
        "config": _jsonify(_config_echo(cfg)),
        "resolved": {"b": b, "ladder": list(scan["ladder"]), "t0": t0,
                     "width": scan["width"],
                     "model": potentials.model_to_json(model),
                     "control": control},
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
    out = _out_dir(cfg)
    if out is not None:
        write_json(out / "summary.json", summary)
        n = spec.n
        rows = []
        for c in cells:
            if c.report is None or not c.report.per_sample:
                continue
            rep = c.report
            for lam, m in zip(rep.ladder, rep.magnitudes[rep.binding_index]):
                rows.append([*c.x0, *c.xi0, lam, m, rep.n_hat, rep.verdict])
        write_csv(out / "ladder.csv",
                  _cell_columns(n) + ["lambda", "mag", "nhat", "verdict"], rows)
        if envelope_rows:
            write_csv(out / "envelope.csv",
                      _cell_columns(n) + ["lambda", "x0_norm", "envelope"],
                      envelope_rows)
        if ratio_report is not None:
            ratio_rows = [[lam, i, r] for lam in ratio_report.ladder
                          for i, r in enumerate(ratio_report.ratios[lam])]
            write_csv(out / "ratios.csv", ["lambda", "sample", "ratio"], ratio_rows)
    return summary


# ---------------------------------------------------------------------------
# bound suites


def run_lemma_suite(cfg: dict) -> dict:
    """Sandwich bounds, integral bound, and commutation checks in one run."""
    n = int(cfg.get("grid", {}).get("n", cfg.get("n", 1)))
    models_cfg = cfg.get("models")
    if models_cfg is None:
        models = [potentials.zero_model(n)]
    else:
        models = [potentials.model_from_json(m) for m in models_cfg]
    for model in models:
        if not model.conforming:
            raise GuardError("bound sweeps need conforming models")
    t0 = float(cfg.get("t0", 1.0))
    a_param = float(cfg.get("a", 2.0))
    p = float(cfg.get("p", 0.5))
    tol = float(cfg.get("tol", 1e-9))
    flow_ladder = tuple(float(l) for l in cfg.get(
        "flow_ladder", [2.0 ** k for k in range(4, 13)]))
    int_ladder = tuple(float(l) for l in cfg.get(
        "integral_ladder", (1.0, 10.0, 100.0, 1000.0, 10000.0)))
    delta = float(cfg.get("delta", 0.5))

    checks = []
    for model in models:
        n_m = model.n
        k_samples = [np.zeros(n_m), 0.3 * np.eye(n_m)[0]]
        e1 = np.eye(n_m)[0]
        e_last = np.eye(n_m)[-1]
        gamma = [e1 / a_param, e1, a_param * e1]
        if n_m > 1:
            gamma.append(0.5 * (e1 + e_last) / np.linalg.norm(0.5 * (e1 + e_last)))
        fb = chars.check_flow_bounds(model, a_param, p, flow_ladder, t0,
                                     k_samples, gamma, tol=tol)
        ib = chars.check_integral_bound(model, delta, (0.0, t0),
                                        [(np.zeros(n_m), e1),
                                         (0.3 * e1, e1)],
                                        int_ladder, tol=max(tol, 1e-12))
        checks.append({
            "model": potentials.model_to_json(model),
            "flow_bounds": {"lambda_hat0": fb.lambda_hat0, "ok": fb.ok,
                            "violations_above_2hat": fb.violations_above_2hat},
            "integral_bound": {"sup_ratio": {repr(k): v for k, v in
                                             ib.sup_ratio.items()},
                               "stable": ib.stable},
        })

    commutator = []
    gspec = grid.GridSpec(1, int(cfg.get("commutator_points", 512)),
                          float(cfg.get("commutator_halfwidth", 20.0)))
    packet = packets.make_scaled_packet(gspec, packets.GaussianBase(1.0), 1.0, 0.125)
    worst = 0.0
    for t in cfg.get("commutator_times", (0.5, 1.0)):
        for alpha, beta in (((0,), (0,)), ((1,), (0,)), ((0,), (1,)),
                            ((2,), (0,)), ((1,), (1,)), ((0,), (2,))):
            d = packets.commutator_check(packet, float(t), alpha, beta)
            worst = max(worst, d)
            commutator.append({"t": float(t), "alpha": list(alpha),
                               "beta": list(beta), "discrepancy": d})
    comm_tol = float(cfg.get("commutator_tol", 1e-8))

    all_ok = (all(c["flow_bounds"]["ok"] for c in checks)
              and all(c["integral_bound"]["stable"] for c in checks)
              and worst <= comm_tol)
    summary = {
        "experiment": "lemma-suite",
        "config": _jsonify(_config_echo(cfg)),
        "checks": checks,
        "commutator": commutator,
        "commutator_worst": worst,
        "commutator_tol": comm_tol,
        "all_ok": all_ok,
    }
    out = _out_dir(cfg)
    if out is not None:
        write_json(out / "summary.json", summary)
    if not all_ok:
        raise ConsistencyError("one or more bound checks failed; see summary")
    return summary


RUNNERS = {
    "free-transport": run_transport_consistency,
    "magnetic-transport": run_transport_consistency,
    "fundamental-solution": run_fundamental_solution,
    "lemma-suite": run_lemma_suite,
    "scalar-potential": run_transport_consistency,
}


def run_experiment(cfg: dict) -> dict:
    name = cfg.get("experiment")
    if name not in RUNNERS:
        raise InputError(f"unknown experiment '{name}' (have {EXPERIMENTS})")
    return RUNNERS[name](cfg)
