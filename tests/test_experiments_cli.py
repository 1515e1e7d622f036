import json

import numpy as np
import pytest

from mswf import characteristics as chars, cli, errors, experiments as exp, grid

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


def test_transport_consistency_agreement_gate():
    with pytest.raises(errors.ConsistencyError):
        exp.run_transport_consistency(dict(FREE_CFG, min_agreement=1.01))


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
    assert (tmp_path / "ladder.csv").exists()
    assert (tmp_path / "envelope.csv").exists()
    assert (tmp_path / "ratios.csv").exists()


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
    # one stacked flow per envelope rung, holding every cell once
    assert calls["flow"] == []
    assert len(calls["flow_batch"]) == len(FS_CFG["envelope_ladder"])
    assert all(args[3].shape[0] == cells for args in calls["flow_batch"])
    # each envelope row carries the |x(0)| its cell's ratio was taken from
    # (t0 = 1 and |xi| = 1, so ratio = |x(0)| / lam)
    ratio = {(float(lam), int(i)): float(r) for lam, i, r in
             (line.split(",") for line in
              (tmp_path / "ratios.csv").read_text().splitlines()[1:])}
    rows = [[float(v) for v in line.split(",")] for line in
            (tmp_path / "envelope.csv").read_text().splitlines()[1:]]
    assert len(rows) == cells * len(FS_CFG["envelope_ladder"])
    for k, (_, _, lam, x0_norm, _) in enumerate(rows):
        cell = k // len(FS_CFG["envelope_ladder"])
        assert ratio[(lam, cell)] == x0_norm / lam


def test_fundamental_solution_rejects_t0_zero():
    with pytest.raises(errors.GuardError):
        exp.run_fundamental_solution(dict(FS_CFG, t0=0.0))


def test_fundamental_solution_control_case():
    cfg = dict(FS_CFG, t0=0.0, control=True, positions=[[0.0]],
               ladder={"kmin": 3, "kmax": 11}, k_radius=0.25,
               grid={"n": 1, "points": 32768, "halfwidth": 10.0})
    summary = exp.run_fundamental_solution(cfg)
    assert all(c["verdict"] == "in-WF" for c in summary["cells"])


def test_lemma_suite_smoke(tmp_path):
    summary = exp.run_lemma_suite({
        "models": [{"family": "zero", "n": 1}],
        "t0": 1.0, "a": 2.0, "p": 0.5, "delta": 1.0,
        "flow_ladder": [2.0 ** k for k in range(4, 10)],
        "out_dir": str(tmp_path),
    })
    assert summary["all_ok"]
    assert summary["commutator_worst"] <= 1e-8
    assert (tmp_path / "summary.json").exists()


def test_run_experiment_dispatch():
    with pytest.raises(errors.InputError):
        exp.run_experiment({"experiment": "nope"})


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


def test_cli_experiment(tmp_path):
    cfg = dict(FREE_CFG, out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "summary.json").exists()


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
    # consistency failure -> 4
    cfg = dict(FREE_CFG, min_agreement=1.01)
    cfg_path2 = tmp_path / "strict.json"
    cfg_path2.write_text(json.dumps(cfg))
    assert cli.main(["experiment", "--config", str(cfg_path2)]) == 4
    # malformed vector -> 2
    assert cli.main(["flow", "--t0", "0", "--target", "1",
                     "--x", "oops", "--xi", "1"]) == 2
