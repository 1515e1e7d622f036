import ast
import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from mswf import characteristics as chars, cli, errors, experiments as exp, grid
from mswf import potentials, propagator as prop

PLANE = {"n": 2, "points": 64, "halfwidth": 6.0}
FREE_CFG = {
    "experiment": "free-transport",
    "grid": {"n": 1, "points": 2048, "halfwidth": 30.0},
    "t0": 1.0, "dt": 2e-3,
    "data": ["gaussian"],
    "positions": [[0.0], [1.0]],
    "directions": 2,
    "ladder": {"kmin": 2, "kmax": 6},
    "b": "auto", "width": 1.0,
    "k_radius": 0.2, "cone_angle": 0.2, "a": 1.0,
}


def test_transport_consistency_free_smoke(tmp_path):
    cfg = dict(FREE_CFG, out_dir=str(tmp_path))
    summary = exp.run_transport_consistency(cfg)
    assert summary["agreement"] == 1.0
    assert summary["cells_conclusive"] == summary["cells_total"] == 4
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "cells.csv").exists()
    ladder_csv = (tmp_path / "ladder.csv").read_text().splitlines()
    assert ladder_csv[0].startswith("datum,mode,x0_0,dir_0,lambda,mag")
    # one row per cell per rung and mode
    assert len(ladder_csv) == 1 + 2 * 4 * 5


def test_transport_consistency_deterministic_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    exp.run_transport_consistency(dict(FREE_CFG, out_dir=str(out1)))
    exp.run_transport_consistency(dict(FREE_CFG, out_dir=str(out2)))
    for name in ("summary.json", "cells.csv", "ladder.csv"):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} not byte-identical"


def test_transport_consistency_agreement_gate(monkeypatch):
    # an evolve that does nothing leaves the point mass singular for the
    # static test, while the dynamic test flows away from it
    monkeypatch.setattr(exp.propagator, "evolve", lambda model, scalar, data, *rest: data)
    with pytest.raises(errors.ConsistencyError, match="verdict agreement"):
        exp.run_transport_consistency(dict(FREE_CFG, data=["delta"], positions=[[0.0]],
                                           min_agreement=1.0))


def test_transport_rejects_nonconforming_model():
    cfg = dict(FREE_CFG, potential={"family": "constant-field", "n": 2, "b0": 1.0},
               grid=PLANE, positions=[[0.0, 0.0]])
    with pytest.raises(errors.GuardError):
        exp.run_transport_consistency(cfg)


FS_CFG = {
    "experiment": "fundamental-solution",
    "grid": {"n": 1, "points": 4096, "halfwidth": 30.0},
    "t0": 1.0,
    "positions": [[-1.0], [0.0], [1.0]],
    "directions": 2,
    "ladder": {"kmin": 2, "kmax": 6},
    "b": "auto", "width": 1.0, "k_radius": 0.2, "a": 1.0,
}


def test_fundamental_solution_smoke(tmp_path):
    summary = exp.run_fundamental_solution(dict(FS_CFG, out_dir=str(tmp_path)))
    assert summary["fraction_not_in_wf"] == 1.0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["ladder.csv", "ratios.csv", "summary.json"]


def test_fundamental_solution_flows_each_point_once(tmp_path, monkeypatch):
    calls = {"flow": [], "flow_batch": []}

    def counting(name):
        original = getattr(chars, name)

        def counted(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(chars, name, counted)

    counting("flow")
    counting("flow_batch")
    exp.run_fundamental_solution(dict(FS_CFG, out_dir=str(tmp_path)))
    cells = len(FS_CFG["positions"]) * FS_CFG["directions"]
    # one grouped flow, a group per ratio rung holding every cell once
    assert calls["flow"] == []
    (args,) = calls["flow_batch"]
    assert args[3].shape == (len(exp.ENVELOPE_LADDER), cells, 1)


def test_fundamental_solution_rejects_t0_zero():
    with pytest.raises(errors.GuardError):
        exp.run_fundamental_solution(dict(FS_CFG, t0=0.0))


def test_fundamental_solution_rejects_nonconforming_model():
    cfg = dict(FS_CFG, potential={"family": "constant-field", "n": 2, "b0": 1.0},
               grid={"n": 2, "points": 64, "halfwidth": 6.0}, positions=[[0.0, 0.0]])
    with pytest.raises(errors.GuardError, match="conforming"):
        exp.run_fundamental_solution(cfg)


def test_datum_with_non_finite_values_exits_2(capsys):
    # json.loads reads NaN, so a config can carry one into a datum's amplitude
    cfg = dict(FREE_CFG, data=[{"name": "gaussian", "amplitude": float("nan")}])
    with pytest.raises(errors.InputError, match="non-finite values"):
        exp.run_transport_consistency(cfg)
    assert cli.main(["experiment", "--config", json.dumps(cfg)]) == 2
    assert "non-finite values" in capsys.readouterr().err


def test_fundamental_solution_control_case():
    cfg = dict(FS_CFG, t0=0.0, control=True, positions=[[0.0]],
               ladder={"kmin": 3, "kmax": 11}, k_radius=0.25,
               grid={"n": 1, "points": 32768, "halfwidth": 10.0})
    summary = exp.run_fundamental_solution(cfg)
    assert all(c["verdict"] == "in-WF" for c in summary["cells"])


@pytest.mark.parametrize("name", ["nope", "lemma-suite"])
def test_unknown_experiment_exits_2(name, capsys):
    with pytest.raises(errors.InputError):
        exp.run_experiment({"experiment": name})
    assert cli.main(["experiment", "--config", json.dumps({"experiment": name})]) == 2
    assert "InputError" in capsys.readouterr().err


def test_readme_names_every_experiment_once():
    # the `mswf experiment` comment and the list of config classes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    comment = readme.split("# configured experiment (")[1].split(")")[0]
    assert sorted(re.findall(r"[a-z]+(?:-[a-z]+)+", comment)) == sorted(exp.RUNNERS)
    listed = readme.split("into a frozen class in `mswf.experiments`")[1].split("\n\n")[1]
    assert sorted(re.findall(r"`([a-z-]+)`", listed)) == sorted(exp.RUNNERS)


def test_readme_names_every_potential_family_once():
    # the vector potential's families, then the scalar term's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    vector, scalar = (text.split(",")[0] for text in readme.split('`{"family": ')[1:3])
    assert sorted(re.findall(r'"([a-z-]+)"', vector)) == sorted(potentials.FAMILIES)
    assert sorted(re.findall(r'"([a-z-]+)"', scalar)) == sorted(prop.SCALAR_FAMILIES)


# ---------------------------------------------------------------------------
# config schema

SOFT_1D = {"family": "soft-power", "n": 1, "rho": 0.5}
BAD_CONFIGS = {
    "misspelled-key": lambda cfg: dict(cfg, half_angle=0.2),
    "no-grid": lambda cfg: {k: v for k, v in cfg.items() if k != "grid"},
    "no-positions": lambda cfg: {k: v for k, v in cfg.items() if k != "positions"},
    "grid-typo": lambda cfg: dict(cfg, grid={"n": 1, "points": 2048, "halfwdth": 30.0}),
    # the detector thresholds are constants, not a key
    "thresholds": lambda cfg: dict(cfg, thresholds={"N": 7}),
    # a nested spec is a JSON object inside the config, not JSON text
    "grid-json-text": lambda cfg: dict(cfg, grid=json.dumps(cfg["grid"])),
    "potential-json-text": lambda cfg: dict(cfg, potential=json.dumps(SOFT_1D)),
    "scalar-json-text": lambda cfg: dict(cfg, scalar_potential=json.dumps(
        {"family": "soft-power", "mu": 1.0, "amplitude": 0.3})),
    "t0-text": lambda cfg: dict(cfg, t0="soon"),
    "t0-nan": lambda cfg: dict(cfg, t0=float("nan")),
    "ladder-decreasing": lambda cfg: dict(cfg, ladder=[32, 16, 8, 4, 2]),
    "ladder-below-one": lambda cfg: dict(cfg, ladder=[0.5, 1, 2, 4, 8]),
    "ladder-kmax-missing": lambda cfg: dict(cfg, ladder={"kmin": 2}),
    "ladder-kmin-kmax-step": lambda cfg: dict(cfg, ladder={"kmin": 2, "kmax": 6, "step": 2}),
    "ladder-kmin-negative": lambda cfg: dict(cfg, ladder={"kmin": -1, "kmax": 4}),
    "datum-typo": lambda cfg: dict(cfg, data=[{"name": "gaussian", "widht": 1.0}]),
    # the data are a nonempty list, not one datum's name or object
    "data-text": lambda cfg: dict(cfg, data="delta"),
    "data-object": lambda cfg: dict(cfg, data={"name": "gaussian"}),
    "data-empty": lambda cfg: dict(cfg, data=[]),
    # a label is one CSV field
    "datum-label-comma": lambda cfg: dict(cfg, data=[{"name": "gaussian", "label": "a,b"}]),
    "datum-label-number": lambda cfg: dict(cfg, data=[{"name": "gaussian", "label": 7}]),
    "potential-dimension": lambda cfg: dict(
        cfg, potential={"family": "soft-power", "n": 2, "rho": 0.5}),
    "position-length": lambda cfg: dict(cfg, positions=[[0.0], [0.5, 0.0]]),
    # every axis is alike: one point count, one half-width, one datum width,
    # no jump axis, and a point is n numbers, not one number for all
    "grid-points-list": lambda cfg: dict(
        cfg, grid=dict(cfg["grid"], points=[cfg["grid"]["points"]])),
    "grid-halfwidth-list": lambda cfg: dict(cfg, grid=dict(cfg["grid"], halfwidth=[30.0])),
    "datum-width-list": lambda cfg: dict(cfg, data=[{"name": "gaussian", "width": [1.0]}]),
    "jump-axis": lambda cfg: dict(cfg, data=[{"name": "jump", "axis": 0}]),
    "position-short": lambda cfg: dict(cfg, grid=PLANE, positions=[[0.5]]),
    "center-short": lambda cfg: dict(cfg, grid=PLANE, positions=[[0.0, 0.0]],
                                     data=[{"name": "gaussian", "center": [0.5]}]),
    "direction-length": lambda cfg: dict(cfg, directions=[[1.0, 0.0, 7.0]]),
    "direction-zero": lambda cfg: dict(cfg, directions=[[0.0]]),
    # a scan names at least one cell, and a ladder has the 5 rungs of a fit
    "directions-negative": lambda cfg: dict(cfg, directions=-1),
    "directions-zero": lambda cfg: dict(cfg, directions=0),
    "directions-empty": lambda cfg: dict(cfg, directions=[]),
    "positions-empty": lambda cfg: dict(cfg, positions=[]),
    "positions-digit-text": lambda cfg: dict(cfg, positions="12"),
    "ladder-short": lambda cfg: dict(cfg, ladder={"kmin": 2, "kmax": 4}),
    # the ranges the conic sample and the window own, and the point mass's time
    "k-radius-negative": lambda cfg: dict(cfg, k_radius=-0.1),
    "cone-angle-negative": lambda cfg: dict(cfg, cone_angle=-0.2),
    "a-below-one": lambda cfg: dict(cfg, a=0.5),
    "width-zero": lambda cfg: dict(cfg, width=0.0),
    "b-one": lambda cfg: dict(cfg, b=1.0),
    "t0-negative": lambda cfg: dict(cfg, t0=-1.0),
    # the transport gates are fractions
    "min-agreement-above-one": lambda cfg: dict(cfg, min_agreement=1.01),
    "max-inconclusive-negative": lambda cfg: dict(cfg, max_inconclusive=-0.1),
    # settings that are constants now, and keys of the removed lemma suite
    "tol": lambda cfg: dict(cfg, tol=1e-9),
    "envelope-ladder": lambda cfg: dict(cfg, envelope_ladder=[1.0, 10.0, 100.0]),
    "noise-floor": lambda cfg: dict(cfg, static_noise_rel=1e-7),
    "commutator-tol": lambda cfg: dict(cfg, commutator_tol=1e-8),
    "lemma-n": lambda cfg: dict(cfg, n=1),
    "flow-ladder-empty": lambda cfg: dict(cfg, flow_ladder=[]),
    "flow-ladder-below-one": lambda cfg: dict(cfg, flow_ladder=[0.5, 2.0, 4.0]),
    # text is not read digit by digit
    "ladder-digit-text": lambda cfg: dict(cfg, ladder="12345"),
    # a point count is an integer, not truncated to one
    "grid-points-fractional": lambda cfg: dict(
        cfg, grid=dict(cfg["grid"], points=cfg["grid"]["points"] + 0.5)),
    # grids have 1 or 2 axes, time factors are 1 and sin t, and V has none
    "grid-dimension-3": lambda cfg: dict(cfg, grid={"n": 3, "points": 64, "halfwidth": 8.0}),
    "potential-cosbump": lambda cfg: dict(cfg, potential=dict(SOFT_1D, modulation="cosbump")),
    "scalar-modulation": lambda cfg: dict(cfg, scalar_potential={
        "family": "soft-power", "mu": 1.0, "amplitude": 0.3, "modulation": "sin"}),
    # every scalar term is sub-quadratic, so a quadratic family is an unknown name
    "scalar-quadratic-test": lambda cfg: dict(cfg, scalar_potential={"family": "quadratic-test"}),
    # bad values inside a model; unchecked, each exits 1 or 3 mid-run
    "potential-typo": lambda cfg: dict(
        cfg, potential={"family": "soft-power", "n": 1, "rh": 0.5}),
    "potential-rho-text": lambda cfg: dict(cfg, potential=dict(SOFT_1D, rho="half")),
    "potential-amplitude-text": lambda cfg: dict(cfg, potential=dict(SOFT_1D, amplitude="x")),
    "potential-amplitude-nan": lambda cfg: dict(
        cfg, potential=dict(SOFT_1D, amplitude=float("nan"))),
    "potential-amplitude-count": lambda cfg: dict(
        cfg, potential=dict(SOFT_1D, amplitude=[1, 2])),
    "potential-modulation-list": lambda cfg: dict(
        cfg, potential=dict(SOFT_1D, modulation=["one"])),
    "constant-field-modulation": lambda cfg: dict(
        cfg, grid={"n": 2, "points": 64, "halfwidth": 6.0},
        potential={"family": "constant-field", "n": 2, "modulation": "sin"}),
    # text and non-finite values where a number or a ladder belongs
    "grid-points-text": lambda cfg: dict(cfg, grid=dict(cfg["grid"], points="abc")),
    "grid-halfwidth-nan": lambda cfg: dict(cfg, grid=dict(cfg["grid"], halfwidth=float("nan"))),
    "ladder-text": lambda cfg: dict(cfg, ladder="2:6:9"),
    "a-inf": lambda cfg: dict(cfg, a=float("inf")),
    "width-nan": lambda cfg: dict(cfg, width=float("nan")),
    "dt-nan": lambda cfg: dict(cfg, dt=float("nan")),
    # finite values whose window curvature or step count overflows
    "width-huge": lambda cfg: dict(cfg, width=1e308),
    "width-tiny": lambda cfg: dict(cfg, width=1e-300),
    # finite at lam = 1, infinite at the top rung 64
    "width-tiny-at-top-rung": lambda cfg: dict(cfg, width=1e-154),
    "t0-huge": lambda cfg: dict(cfg, t0=1e308),
    # finite step counts above the stepper's limit
    "t0-steps-over-limit": lambda cfg: dict(cfg, t0=1e300),
    "dt-tiny": lambda cfg: dict(cfg, dt=1e-300),
    # an output directory under a regular file cannot be created
    "out-dir-under-file": lambda cfg: dict(cfg, out_dir=str(Path(__file__) / "out")),
}

POINT_MASS_ONLY = ("t0-negative",)
TRANSPORT_ONLY = ("datum-typo", "data-text", "data-object", "data-empty", "datum-label-comma",
                  "datum-label-number", "datum-width-list", "jump-axis", "center-short",
                  "noise-floor", "min-agreement-above-one",
                  "max-inconclusive-negative", "scalar-modulation", "scalar-json-text",
                  "scalar-quadratic-test", "dt-nan", "t0-huge", "t0-steps-over-limit", "dt-tiny")
SCHEMA_CASES = (
    [(exp.run_transport_consistency, FREE_CFG, bad)
     for bad in BAD_CONFIGS if bad not in POINT_MASS_ONLY]
    + [(exp.run_fundamental_solution, FS_CFG, bad)
       for bad in BAD_CONFIGS if bad not in TRANSPORT_ONLY])


@pytest.fixture
def no_compute(monkeypatch):
    """Fail on any evolve, scan, flow or datum a runner reaches."""
    def forbidden(*args, **kwargs):
        raise AssertionError("computed before the config was checked")

    for owner, name in ((exp.propagator, "evolve"), (exp.detector, "wf_scan"),
                        (exp.chars, "lower_bound_x0"), (exp.grid, "gaussian_data"),
                        (exp.grid, "builtin_data"), (exp.grid, "delta_spike")):
        monkeypatch.setattr(owner, name, forbidden)


@pytest.mark.parametrize("runner,base,bad", SCHEMA_CASES,
                         ids=[f"{c[0].__name__}-{c[2]}" for c in SCHEMA_CASES])
def test_bad_config_exits_2_before_compute(runner, base, bad, no_compute, capsys):
    cfg = BAD_CONFIGS[bad](base)
    with pytest.raises(errors.InputError):
        runner(cfg)
    assert cli.main(["experiment", "--config", json.dumps(cfg)]) == 2
    assert "InputError" in capsys.readouterr().err


@pytest.mark.parametrize("data", ["delta", {"name": "gaussian"}, 5, None, []],
                         ids=["text", "object", "number", "null", "empty"])
def test_data_must_be_a_nonempty_list(data, no_compute):
    # the refusal names the key, not a KeyError or TypeError from inside the parse
    with pytest.raises(errors.InputError, match="'data' must be a nonempty list"):
        exp.run_transport_consistency(dict(FREE_CFG, data=data))


@pytest.mark.parametrize("key,spec", [
    ("grid", FREE_CFG["grid"]), ("potential", SOFT_1D),
    ("scalar_potential", {"family": "soft-power", "mu": 1.0, "amplitude": 0.3})],
    ids=["grid", "potential", "scalar_potential"])
def test_nested_spec_in_a_file_exits_2(key, spec, tmp_path, no_compute, capsys):
    # only --config names a file; a path inside the config is not read
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(spec))
    cfg = dict(FREE_CFG, **{key: str(path)})
    assert cli.main(["experiment", "--config", json.dumps(cfg)]) == 2
    assert "InputError" in capsys.readouterr().err


def test_config_parse_converts_once():
    config = exp.TransportConfig.parse(FREE_CFG)
    assert config.grid == grid.GridSpec(1, 2048, 30.0)
    assert config.potential == potentials.zero_model(1)
    assert config.scalar_potential == prop.ScalarPotentialModel()
    # "auto" is the theorem's exponent, {"kmin", "kmax"} the powers of two
    assert config.b == 0.125 and config.ladder == (4.0, 8.0, 16.0, 32.0, 64.0)
    assert exp.TransportConfig.parse(dict(FREE_CFG, ladder=None)).ladder \
        == exp.detector.default_ladder()
    assert [list(p) for p in config.positions] == [[0.0], [1.0]]
    assert config.directions.tolist() == [[1.0], [-1.0]]
    assert config.data == (("gaussian", "gaussian", {}),) and config.dt == 2e-3
    # in 2-D a point is two numbers
    plane = exp.ScanConfig.parse({"grid": PLANE, "positions": [[0.5, 0.5], [0.5, -1.0]],
                                  "directions": [[1.0, 1.0]]})
    assert plane.positions.tolist() == [[0.5, 0.5], [0.5, -1.0]]
    assert plane.directions.tolist() == [[1.0, 1.0]]


# bad values inside a model or a datum; unchecked, each exits 1 or 3 mid-run
BAD_VALUE_ARGV = {
    "config-amplitude-nan": ["experiment", "--config", json.dumps(dict(
        FREE_CFG, experiment="magnetic-transport",
        potential=dict(SOFT_1D, amplitude=float("nan"))))],
    "config-amplitude-count": ["experiment", "--config", json.dumps(dict(
        FS_CFG, grid={"n": 2, "points": 64, "halfwidth": 6.0}, positions=[[0.0, 0.0]],
        potential={"family": "soft-power", "n": 2, "rho": 0.5, "amplitude": [1, 2, 3]}))],
    # a finite step count above the limit; unchecked, the CFL guard's
    # midpoint array raises a bare ValueError
    "config-magnetic-steps-over-limit": ["experiment", "--config", json.dumps(dict(
        FREE_CFG, experiment="magnetic-transport", potential=SOFT_1D, t0=1e300, dt=1e-3))],
    "datum-width-nan": ["experiment", "--config", json.dumps(dict(
        FREE_CFG, data=[{"name": "gaussian", "width": float("nan")}]))],
    **{f"datum-{name}": ["experiment", "--config", json.dumps(dict(FREE_CFG, data=[datum]))]
       for name, datum in (
           ("width-text", {"name": "gaussian", "width": "abc"}),
           ("width-negative", {"name": "gaussian", "width": -1}),
           ("amplitude-text", {"name": "gaussian", "amplitude": "z"}),
           ("center-null", {"name": "gaussian", "center": None}),
           ("steepness-text", {"name": "jump", "steepness": "a"}))},
}


@pytest.mark.parametrize("argv", [
    ["experiment", "--config", '{"experiment": "free-transport",'],
    ["experiment", "--config", "no-such-config.json"],
    *BAD_VALUE_ARGV.values(),
], ids=["malformed-json", "missing-file", *BAD_VALUE_ARGV])
def test_bad_outside_input_exits_2(argv, capsys):
    assert cli.main(argv) == 2
    assert "InputError" in capsys.readouterr().err


@pytest.mark.parametrize("model", [
    potentials.zero_model(1), potentials.soft_power_model(1, 0.25, modulation="sin"),
    potentials.soft_power_model(2, 0.5, amplitude=(0.7, -0.2)),
    potentials.rotational_model(0.5, amplitude=0.7, modulation="sin"),
    potentials.constant_field_model(2.0)], ids=lambda m: f"{m.family}-{m.n}")
def test_potential_round_trips_through_the_config(model):
    # summary.json's resolved model, read back as a config's potential
    base = {"grid": {"n": model.n, "points": 64, "halfwidth": 6.0}, "positions": [[0.0] * model.n]}
    resolved = json.loads(json.dumps(asdict(model)))
    assert exp.ScanConfig.parse(dict(base, potential=resolved)).potential == model
    scalar = prop.ScalarPotentialModel("soft-power", mu=1.0, amplitude=0.3)
    again = exp.TransportConfig.parse(dict(base, scalar_potential=asdict(scalar)))
    assert again.scalar_potential == scalar


# a key that no config sets becomes a constant; these stay keys on purpose
UNSET_KEYS = {"max_inconclusive": "the transport pass rule is not settled (ROADMAP item 2)"}


def _demo_config_keys() -> set:
    """Top-level keys of the config dicts that demo 05 runs."""
    demo = Path(__file__).resolve().parents[1] / "demos" / "05_fundamental_solution.py"
    return {key.value for node in ast.walk(ast.parse(demo.read_text()))
            if isinstance(node, ast.Call) for arg in node.args if isinstance(arg, ast.Dict)
            for key in arg.keys}


def test_every_config_key_has_a_caller(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    set_keys = {"out_dir"} | _demo_config_keys() | {
        key for name in workloads.WORKLOADS for cfg in workloads.configs(name, 0) for key in cfg}
    keys = {f.name for cls in (exp.TransportConfig, exp.PointMassConfig) for f in fields(cls)}
    assert not keys & set(UNSET_KEYS) & set_keys, "an allowlisted key has a caller now"
    assert sorted(keys - set_keys - set(UNSET_KEYS)) == []


LINE_BUDGET = 3060  # ROADMAP item 6's standing budget for src/mswf


def test_library_stays_within_its_line_budget():
    # counted as `wc -l src/mswf/*.py` counts them: newline characters
    src = Path(__file__).resolve().parents[1] / "src" / "mswf"
    lines = sum(path.read_bytes().count(b"\n") for path in src.glob("*.py"))
    assert lines <= LINE_BUDGET, f"src/mswf has {lines} lines, over the budget of {LINE_BUDGET}"


# ---------------------------------------------------------------------------
# command line


def test_cli_experiment(tmp_path):
    # the --out-dir flag writes what the out_dir key writes, byte for byte
    cfg = dict(FREE_CFG, out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
    assert cli.main(["experiment", "--config", json.dumps(FREE_CFG),
                     "--out-dir", str(tmp_path / "flag")]) == 0
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == ["cells.csv", "ladder.csv", "summary.json"]
    for name in names:
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


def test_cli_exit_codes(tmp_path):
    # guard violation -> 2
    cfg = dict(FS_CFG, t0=0.0)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
    # numeric failure -> 3 (the narrow datum's mass reaches the box edge)
    cfg = dict(FREE_CFG, grid={"n": 1, "points": 256, "halfwidth": 5.0}, t0=2.0, dt=0.01,
               data=[{"name": "gaussian", "width": 0.1}])
    assert cli.main(["experiment", "--config", json.dumps(cfg)]) == 3
    # consistency failure -> 4 (every rung leaves the band: all inconclusive)
    cfg = dict(FREE_CFG, ladder={"kmin": 7, "kmax": 11})
    cfg_path2 = tmp_path / "strict.json"
    cfg_path2.write_text(json.dumps(cfg))
    assert cli.main(["experiment", "--config", str(cfg_path2)]) == 4
    # malformed vector -> 2
    cfg = dict(FREE_CFG, positions=[["oops"]])
    assert cli.main(["experiment", "--config", json.dumps(cfg)]) == 2


def _fresh_interpreter(code: str) -> str:
    """stdout of `code` run in a new interpreter, which has imported nothing
    and finds mswf in this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          text=True, check=True).stdout.strip()


SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    assert _fresh_interpreter("import sys, mswf.cli; " + SCIPY_LOADED) == "[]"


def test_point_mass_and_scalar_evolve_load_no_scipy():
    cfg = dict(FS_CFG, grid={"n": 1, "points": 512, "halfwidth": 20.0},
               ladder={"kmin": 2, "kmax": 6})
    out = _fresh_interpreter(f"""
import sys
from mswf import experiments, grid, potentials, propagator
summary = experiments.run_fundamental_solution({cfg!r})
u0 = grid.gaussian_data(grid.GridSpec(1, 256, 20.0))
scalar = propagator.ScalarPotentialModel("soft-power", mu=1.0, amplitude=0.3)
u1 = propagator.evolve(potentials.zero_model(1), scalar, u0, 0.0, 0.1,
                       propagator.EvolveConfig(dt=0.01))
print(summary["experiment"], abs(u1.l2_norm() - u0.l2_norm()) < 1e-12)
{SCIPY_LOADED}""")
    assert out.splitlines() == ["fundamental-solution True", "[]"]


def test_rotational_evolve_in_a_fresh_interpreter():
    out = _fresh_interpreter("""
import sys
from mswf import grid, potentials, propagator
u0 = grid.gaussian_data(grid.GridSpec(2, 32, 8.0))
print('scipy.sparse' in sys.modules)
u1 = propagator.evolve(potentials.rotational_model(0.5), None, u0, 0.0, 0.05,
                       propagator.EvolveConfig(dt=0.01))
print('scipy.sparse' in sys.modules, abs(u1.l2_norm() / u0.l2_norm() - 1.0) < 1e-4)""")
    assert out.splitlines() == ["False", "True True"]
