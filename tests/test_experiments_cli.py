import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mswf import characteristics as chars, cli, detector, errors, experiments as exp, grid
from mswf import potentials, propagator as prop

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
               grid={"n": 2, "points": 64, "halfwidth": 6.0})
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
    "envelope_ladder": [1.0, 10.0, 100.0],
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
    assert args[3].shape == (len(FS_CFG["envelope_ladder"]), cells, 1)


def test_fundamental_solution_rejects_t0_zero():
    with pytest.raises(errors.GuardError):
        exp.run_fundamental_solution(dict(FS_CFG, t0=0.0))


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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split('`{"family": ')[1].split(",")[0]
    assert sorted(re.findall(r'"([a-z-]+)"', listed)) == sorted(potentials.FAMILIES)


# ---------------------------------------------------------------------------
# config schema

SOFT_1D = {"family": "soft-power", "n": 1, "rho": 0.5}
BAD_CONFIGS = {
    "misspelled-key": lambda cfg: dict(cfg, half_angle=0.2),
    "no-grid": lambda cfg: {k: v for k, v in cfg.items() if k != "grid"},
    "no-positions": lambda cfg: {k: v for k, v in cfg.items() if k != "positions"},
    "grid-typo": lambda cfg: dict(cfg, grid={"n": 1, "points": 2048, "halfwdth": 30.0}),
    "threshold-typo": lambda cfg: dict(cfg, thresholds={"n": 7}),
    "t0-text": lambda cfg: dict(cfg, t0="soon"),
    "t0-nan": lambda cfg: dict(cfg, t0=float("nan")),
    "ladder-decreasing": lambda cfg: dict(cfg, ladder=[32, 16, 8, 4, 2]),
    "ladder-below-one": lambda cfg: dict(cfg, ladder=[0.5, 1, 2, 4, 8]),
    "datum-typo": lambda cfg: dict(cfg, data=[{"name": "gaussian", "widht": 1.0}]),
    "potential-dimension": lambda cfg: dict(
        cfg, potential={"family": "soft-power", "n": 2, "rho": 0.5}),
    "position-length": lambda cfg: dict(cfg, positions=[[0.0], [0.5, 0.0]]),
    "direction-length": lambda cfg: dict(cfg, directions=[[1.0, 0.0, 7.0]]),
    # a scan names at least one cell, and a ladder has the 5 rungs of a fit
    "directions-negative": lambda cfg: dict(cfg, directions=-1),
    "directions-zero": lambda cfg: dict(cfg, directions=0),
    "directions-empty": lambda cfg: dict(cfg, directions=[]),
    "positions-empty": lambda cfg: dict(cfg, positions=[]),
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
    "noise-floor": lambda cfg: dict(cfg, static_noise_rel=1e-7),
    "commutator-tol": lambda cfg: dict(cfg, commutator_tol=1e-8),
    "lemma-n": lambda cfg: dict(cfg, n=1),
    "flow-ladder-empty": lambda cfg: dict(cfg, flow_ladder=[]),
    "flow-ladder-below-one": lambda cfg: dict(cfg, flow_ladder=[0.5, 2.0, 4.0]),
    # a dilation ladder has at least one rung, each >= 1
    "envelope-ladder-zero": lambda cfg: dict(cfg, envelope_ladder=[0]),
    "envelope-ladder-negative": lambda cfg: dict(cfg, envelope_ladder=[-1]),
    "envelope-ladder-empty": lambda cfg: dict(cfg, envelope_ladder=[]),
    # and its rungs are strictly increasing, like the scan ladder's
    "envelope-ladder-repeated": lambda cfg: dict(cfg, envelope_ladder=[1, 10, 10]),
    "envelope-ladder-decreasing": lambda cfg: dict(cfg, envelope_ladder=[10, 1]),
    # a point count is an integer, not truncated to one
    "grid-points-fractional": lambda cfg: dict(
        cfg, grid=dict(cfg["grid"], points=cfg["grid"]["points"] + 0.5)),
    # grids have 1 or 2 axes, time factors are 1 and sin t, and V has none
    "grid-dimension-3": lambda cfg: dict(cfg, grid={"n": 3, "points": 64, "halfwidth": 8.0}),
    "potential-cosbump": lambda cfg: dict(cfg, potential=dict(SOFT_1D, modulation="cosbump")),
    "scalar-modulation": lambda cfg: dict(cfg, scalar_potential={
        "family": "soft-power", "mu": 1.0, "amplitude": 0.3, "modulation": "sin"}),
}

POINT_MASS_ONLY = ("envelope-ladder-zero", "envelope-ladder-negative", "envelope-ladder-empty",
                   "envelope-ladder-repeated", "envelope-ladder-decreasing", "t0-negative")
TRANSPORT_ONLY = ("datum-typo", "noise-floor", "min-agreement-above-one",
                  "max-inconclusive-negative", "scalar-modulation")
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


def test_config_parse_converts_once():
    config = exp.TransportConfig.parse(dict(FREE_CFG, thresholds={"N": 7}))
    assert config.grid == grid.GridSpec(1, 2048, 30.0)
    assert config.b == 0.125 and config.ladder == (4.0, 8.0, 16.0, 32.0, 64.0)
    assert config.thresholds.to_json() == {"N": 7.0, "Nlow": 1.0, "R2": 0.95}
    assert [list(p) for p in config.positions] == [[0.0], [1.0]]
    assert config.directions.tolist() == [[1.0], [-1.0]]
    assert config.data == (("gaussian", "gaussian", {}),) and config.dt == 2e-3
    # a one-number entry stands for every axis
    plane = exp.ScanConfig.parse({"grid": {"n": 2, "points": 64, "halfwidth": 6.0},
                                  "positions": [[0.5], [0.5, -1.0]], "directions": [[1.0]]})
    assert [list(p) for p in plane.positions] == [[0.5, 0.5], [0.5, -1.0]]
    assert plane.directions.tolist() == [[1.0, 1.0]]


SHORT_WFGF = "<a WFGF file whose payload is shorter than its header says>"
GAUSSIAN_WFGF = "<a WFGF file of a gaussian datum>"
FOREIGN_NPZ = "<an npz archive that holds no grid_points array>"
MISSHAPED_NPZ = "<a table archive whose values do not match its axes>"


def _flow_argv(potential: dict) -> list:
    n = potential["n"]
    return ["flow", "--potential", json.dumps(potential), "--t0", "1.0", "--target", "0.0",
            "--x", ",".join(["0.3"] * n), "--xi", ",".join(["1.0"] * n)]

# bad values inside a model or a datum; unchecked, each exits 1 or 3 mid-run
BAD_VALUE_ARGV = {
    "potential-amplitude-text": _flow_argv(dict(SOFT_1D, amplitude="x")),
    "potential-modulation-list": _flow_argv(dict(SOFT_1D, modulation=["one"])),
    "potential-amplitude-nan": _flow_argv(dict(SOFT_1D, amplitude=float("nan"))),
    "potential-amplitude-count": _flow_argv(
        {"family": "soft-power", "n": 2, "rho": 0.5, "amplitude": [1, 2, 3]}),
    "constant-field-modulation": _flow_argv(
        {"family": "constant-field", "n": 2, "modulation": "sin"}),
    "scalar-modulation-list": [
        "evolve", "--dt", "0.01", "--t1", "0.1", "--in", GAUSSIAN_WFGF,
        "--out", "no-such-out.wfgf", "--scalar-potential",
        json.dumps({"family": "soft-power", "mu": 1.0, "modulation": ["one"]})],
    "config-amplitude-nan": ["experiment", "--config", json.dumps(dict(
        FREE_CFG, experiment="magnetic-transport",
        potential=dict(SOFT_1D, amplitude=float("nan"))))],
    "config-amplitude-count": ["experiment", "--config", json.dumps(dict(
        FS_CFG, grid={"n": 2, "points": 64, "halfwidth": 6.0}, positions=[[0.0, 0.0]],
        potential={"family": "soft-power", "n": 2, "rho": 0.5, "amplitude": [1, 2, 3]}))],
    "datum-width-nan": ["experiment", "--config", json.dumps(dict(
        FREE_CFG, data=[{"name": "gaussian", "width": float("nan")}]))],
    **{f"datum-{name}": ["experiment", "--config", json.dumps(dict(FREE_CFG, data=[datum]))]
       for name, datum in (
           ("width-text", {"name": "gaussian", "width": "abc"}),
           ("width-negative", {"name": "gaussian", "width": -1}),
           ("amplitude-text", {"name": "gaussian", "amplitude": "z"}),
           ("center-null", {"name": "gaussian", "center": None}),
           ("steepness-text", {"name": "jump", "steepness": "a"}),
           ("jump-axis-out-of-range", {"name": "jump", "axis": 5}),
           ("jump-axis-fraction", {"name": "jump", "axis": 1.5}))},
}


@pytest.mark.parametrize("argv", [
    ["experiment", "--config", '{"experiment": "free-transport",'],
    ["experiment", "--config", "no-such-config.json"],
    ["flow", "--potential", '{"family": "soft-power", "n": 2, "rh": 0.5}',
     "--t0", "1.0", "--target", "0.0", "--x", "0.3,0.0", "--xi", "2.0,1.0"],
    ["flow", "--potential", '{"family": "soft-power", "n": 2, "rho": "half"}',
     "--t0", "1.0", "--target", "0.0", "--x", "0.3,0.0", "--xi", "2.0,1.0"],
    ["packet", "--grid", "1,abc,20"],
    ["wpt", "--in", "no-such-field.wfgf", "--x", "0", "--xi", "1"],
    ["iwpt", "--table", "no-such-table.npz", "--out", "no-such-out.wfgf"],
    ["iwpt", "--table", FOREIGN_NPZ, "--out", "no-such-out.wfgf"],
    ["iwpt", "--table", MISSHAPED_NPZ, "--out", "no-such-out.wfgf"],
    ["wpt", "--in", SHORT_WFGF, "--x", "0", "--xi", "1"],
    ["detect", "--in", SHORT_WFGF, "--x0", "0", "--xi0", "1"],
    ["evolve", "--dt", "0.01", "--t1", "0.1", "--in", SHORT_WFGF,
     "--out", "no-such-out.wfgf"],
    ["detect", "--in", GAUSSIAN_WFGF, "--x0", "0", "--xi0", "1", "--ladder", "2:6:9"],
    ["flow", "--t0", "0", "--target", "inf", "--x", "0", "--xi", "1"],
    ["flow", "--t0", "0", "--target", "nan", "--x", "0", "--xi", "1"],
    ["flow", "--t0", "0", "--target", "1", "--x", "nan", "--xi", "1"],
    ["detect", "--in", GAUSSIAN_WFGF, "--x0", "0", "--xi0", "1", "--a", "inf"],
    ["detect", "--in", GAUSSIAN_WFGF, "--x0", "0", "--xi0", "1", "--potential",
     json.dumps({"family": "soft-power", "n": 2, "rho": 0.5})],
    ["evolve", "--dt", "0.01", "--t1", "nan", "--in", GAUSSIAN_WFGF,
     "--out", "no-such-out.wfgf"],
    ["evolve", "--dt", "nan", "--t1", "0.1", "--in", GAUSSIAN_WFGF,
     "--out", "no-such-out.wfgf"],
    ["packet", "--grid", "1,256,20", "--width", "nan"],
    ["packet", "--grid", "1,256,20", "--t", "nan"],
    ["packet", "--grid", "1,256,nan"],
    *BAD_VALUE_ARGV.values(),
], ids=["malformed-json", "missing-file", "potential-typo", "potential-type",
        "grid-text", "missing-field-file", "missing-table-file", "foreign-table",
        "misshaped-table", "short-field-wpt", "short-field-detect", "short-field-evolve",
        "ladder-text", "flow-target-inf", "flow-target-nan", "flow-x-nan", "detect-a-inf",
        "detect-potential-dimension",
        "evolve-t1-nan", "evolve-dt-nan", "packet-width-nan", "packet-t-nan",
        "grid-halfwidth-nan", *BAD_VALUE_ARGV])
def test_bad_outside_input_exits_2(argv, tmp_path, capsys):
    short = tmp_path / "short.wfgf"
    gaussian = tmp_path / "gaussian.wfgf"
    grid.save_wfgf(grid.gaussian_data(grid.GridSpec(1, 64, 5.0)), gaussian)
    short.write_bytes(gaussian.read_bytes()[:-8])
    foreign = tmp_path / "foreign.npz"
    np.savez(foreign, values=np.zeros(4))
    misshaped = tmp_path / "misshaped.npz"
    spec = grid.GridSpec(1, 16, 2.0)
    np.savez(misshaped, values=np.zeros((15, 16)), grid_points=np.array(spec.points),
             grid_halfwidths=np.array(spec.halfwidths), x_axis_0=spec.axis(0),
             xi_axis_0=spec.freq_axis(0))
    files = {SHORT_WFGF: str(short), GAUSSIAN_WFGF: str(gaussian),
             FOREIGN_NPZ: str(foreign), MISSHAPED_NPZ: str(misshaped)}
    assert cli.main([files.get(a, a) for a in argv]) == 2
    assert "InputError" in capsys.readouterr().err


def test_scalar_spec_rejects_unknown_keys():
    with pytest.raises(errors.InputError):
        prop.scalar_from_json('{"family": "soft-power", "mu": 1.0, "amp": 0.3}')


# ---------------------------------------------------------------------------
# command line


def test_cli_packet_wpt_iwpt_roundtrip(tmp_path):
    pk = tmp_path / "pk.wfgf"
    tab = tmp_path / "tab.npz"
    back = tmp_path / "back.wfgf"
    assert cli.main(["packet", "--grid", "1,256,20", "--lam", "4",
                     "--out", str(pk), "--csv", str(tmp_path / "pk.csv")]) == 0
    assert cli.main(["wpt", "--in", str(pk), "--x", "0.5", "--xi", "1.0"]) == 0
    assert cli.main(["wpt", "--in", str(pk), "--table-out", str(tab)]) == 0
    assert cli.main(["iwpt", "--table", str(tab), "--out", str(back)]) == 0
    original = grid.load_wfgf(pk)
    recovered = grid.load_wfgf(back)
    err = np.sqrt(np.sum(np.abs(recovered.values - original.values) ** 2)
                  * original.spec.cell_volume)
    assert err / original.l2_norm() <= 1e-6


def test_cli_wpt_iwpt_roundtrip_band_limited(tmp_path):
    # C01's band-limited field fills the box, so the forward table and the
    # inverse must sample the window the same periodic way
    spec = grid.GridSpec(1, 256, 20.0)
    rng = np.random.default_rng(0)
    coef = np.zeros(256, dtype=complex)
    coef[:64] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    coef[-64:] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    original = grid.GridFunction(spec, np.fft.ifft(coef))
    field, tab, back = tmp_path / "f.wfgf", tmp_path / "tab.npz", tmp_path / "back.wfgf"
    grid.save_wfgf(original, field)
    assert cli.main(["wpt", "--in", str(field), "--table-out", str(tab)]) == 0
    assert cli.main(["iwpt", "--table", str(tab), "--out", str(back)]) == 0
    recovered = grid.load_wfgf(back)
    err = np.sqrt(np.sum(np.abs(recovered.values - original.values) ** 2)
                  * spec.cell_volume)
    assert err / original.l2_norm() <= 1e-4


@pytest.mark.parametrize("flags", [["--x", "0.5"], ["--xi", "1.0"], []],
                         ids=["lone-x", "lone-xi", "no-table-out"])
def test_cli_wpt_checks_arguments_before_computing(flags, tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("wpt_grid ran before the arguments were checked")

    monkeypatch.setattr(cli.packets, "wpt_grid", never)
    field = tmp_path / "f.wfgf"
    grid.save_wfgf(grid.gaussian_data(grid.GridSpec(2, 64, 8.0)), field)
    assert cli.main(["wpt", "--in", str(field), *flags]) == 2


def test_cli_flow_dump(tmp_path):
    traj = tmp_path / "traj.csv"
    rc = cli.main(["flow", "--potential",
                   '{"family": "soft-power", "n": 2, "rho": 0.5}',
                   "--t0", "1.0", "--target", "0.0",
                   "--x", "0.3,0.0", "--xi", "2.0,1.0",
                   "--dump-traj", str(traj)])
    assert rc == 0
    lines = traj.read_text().splitlines()
    assert lines[0] == "s,x0,x1,xi0,xi1,h,RePsi,ImPsi"
    assert float(lines[1].split(",")[0]) == 1.0
    assert float(lines[-1].split(",")[0]) == 0.0


def test_cli_evolve_probe(tmp_path):
    pk = tmp_path / "u0.wfgf"
    out = tmp_path / "u1.wfgf"
    probe = tmp_path / "l2.csv"
    grid.save_wfgf(grid.gaussian_data(grid.GridSpec(1, 256, 20.0)), pk)
    rc = cli.main(["evolve", "--dt", "0.001", "--t1", "0.5", "--in", str(pk),
                   "--out", str(out), "--probe-l2", str(probe)])
    assert rc == 0
    rows = probe.read_text().splitlines()
    assert rows[0] == "t,l2"
    assert len(rows) == 501


def test_cli_detect(tmp_path):
    field = tmp_path / "d.wfgf"
    report = tmp_path / "report.json"
    grid.save_wfgf(grid.delta_spike(grid.GridSpec(1, 32768, 10.0)), field)
    rc = cli.main(["detect", "--mode", "static", "--in", str(field),
                   "--x0", "0.0", "--xi0", "1.0", "--ladder", "3:11",
                   "--a", "1.5", "--out", str(report),
                   "--csv", str(tmp_path / "ladder.csv")])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["verdict"] == "in-WF"
    assert payload["Nhat"] == pytest.approx(-0.0625, abs=0.05)


@pytest.mark.parametrize("mode,spec,x0,xi0", [
    ("static", grid.GridSpec(1, 2048, 30.0), (0.5,), (1.0,)),
    ("dynamic", grid.GridSpec(1, 2048, 30.0), (0.5,), (-1.0,)),
    # one number stands for every axis, as in a config
    ("static", grid.GridSpec(2, 64, 8.0), (0.5,), (1.0, 0.0)),
], ids=["static", "dynamic", "one-number-x0"])
def test_cli_detect_writes_the_report_of_the_library_test(mode, spec, x0, xi0, tmp_path):
    field, out, direct = tmp_path / "u.wfgf", tmp_path / "cli.json", tmp_path / "direct.json"
    u = grid.gaussian_data(spec)
    grid.save_wfgf(u, field)
    potential = {"family": "soft-power", "n": spec.n, "rho": 0.5}
    assert cli.main(["detect", "--mode", mode, "--in", str(field), "--potential",
                     json.dumps(potential), "--t0", "1.0", "--ladder", "2:6",
                     "--x0", ",".join(map(str, x0)), "--xi0", ",".join(map(str, xi0)),
                     "--out", str(out)]) == 0
    model = potentials.model_from_json(potential)
    sample = detector.ConicSample(np.resize(x0, spec.n), xi0)
    settings = (sample, detector.default_ladder(2, 6), detector.Thresholds(), 1.0,
                detector.resolve_b("auto", model))
    report = (detector.wf_test_static(u, *settings) if mode == "static"
              else detector.wf_test_dynamic(u, model, 1.0, *settings))
    exp.write_json(direct, report.to_json_dict())
    assert out.read_bytes() == direct.read_bytes()


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
    # numeric failure -> 3 (mass reaches the box edge)
    u0 = tmp_path / "narrow.wfgf"
    grid.save_wfgf(grid.gaussian_data(grid.GridSpec(1, 256, 5.0), width=0.1), u0)
    rc = cli.main(["evolve", "--dt", "0.01", "--t1", "2.0", "--in", str(u0),
                   "--out", str(tmp_path / "x.wfgf")])
    assert rc == 3
    # consistency failure -> 4 (every rung leaves the band: all inconclusive)
    cfg = dict(FREE_CFG, ladder={"kmin": 7, "kmax": 11})
    cfg_path2 = tmp_path / "strict.json"
    cfg_path2.write_text(json.dumps(cfg))
    assert cli.main(["experiment", "--config", str(cfg_path2)]) == 4
    # malformed vector -> 2
    assert cli.main(["flow", "--t0", "0", "--target", "1",
                     "--x", "oops", "--xi", "1"]) == 2


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
               ladder={"kmin": 2, "kmax": 6}, envelope_ladder=[1.0, 10.0])
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
