"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s`); the
assertion that follows carries the same condition, so red output and red
tests always agree.  Shared heavyweight objects (fine grids, evolved
fields, experiment summaries) are module-scoped fixtures.  The C10, C11
and C12 configs are the benchmark's seed-0 workloads, read from
perfbench/workloads.py, their one source, and run once per module; their
cells are also held to the benchmark's reference (perfbench/reference.json,
by check.py's rule).
"""

import functools
import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest

from mswf import (characteristics as chars, detector as det,
                  experiments as exp, grid, packets, potentials as pots,
                  propagator as prop)
from mswf.packets import GaussianWindow

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name: str):
    """perfbench is not a package, so its modules are loaded by path."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _perfbench_module("workloads")
check = _perfbench_module("check")


def report(cid: str, ok: bool, desc: str, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {cid}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def spec256():
    return grid.GridSpec(1, 256, 20.0)


@pytest.fixture(scope="module")
def fine_grid():
    return grid.GridSpec(1, 32768, 10.0)


def _saved(summary: dict) -> dict:
    """A summary as summary.json holds it."""
    return json.loads(json.dumps(exp._jsonify(summary)))


@pytest.fixture(scope="module")
def c11():
    """The seed-0 C11 summaries (zero, soft-power, control)."""
    return [_saved(exp.run_fundamental_solution(cfg))
            for cfg in workloads.configs("point-mass", 0)]


def _timed_transport(workload: str) -> list:
    """(summary, seconds) of each seed-0 config of a transport workload."""
    runs = []
    for cfg in workloads.configs(workload, 0):
        start = time.time()
        summary = exp.run_transport_consistency(cfg)
        runs.append((_saved(summary), time.time() - start))
    return runs


@pytest.fixture(scope="module")
def free_transport():
    """The seed-0 C10 free and C12 free+V runs."""
    return _timed_transport("free-transport")


@pytest.fixture(scope="module")
def rotational_transport():
    """The seed-0 C10 rotational run."""
    return _timed_transport("magnetic-transport")


def _reference_bits(workload: str, summaries: list) -> tuple:
    """(problems, cells, largest |N_hat - reference|) of a workload's seed-0
    summaries against the benchmark's reference, by check.py's rule."""
    refs = json.loads((PERFBENCH / "reference.json").read_text())[workload]
    cfgs = workloads.configs(workload, 0)
    problems, worst, cells = [], 0.0, 0
    for cfg, summary, ref in zip(cfgs, summaries, refs, strict=True):
        problems += check.score(cfg, workloads.expected_cells(cfg), 0, summary, ref)[1]
        for cell, want in zip(check.cells_of(summary), ref["cells"]):
            cells += 1
            worst = max([worst] + [abs(a - b) for a, b in zip(cell[2], want[2])
                                   if a is not None and b is not None])
    return problems, cells, worst


def test_c01_inversion_roundtrip(spec256):
    pk = GaussianWindow(1, 1.0, 1.0, 0.125)
    f = grid.gaussian_data(spec256)
    back = packets.inverse_wpt(packets.wpt_grid(f, pk), pk)
    err_g = np.sqrt(np.sum(np.abs(back.values - f.values) ** 2)
                    * spec256.cell_volume) / f.l2_norm()

    rng = np.random.default_rng(0)
    coef = np.zeros(256, dtype=complex)
    coef[:64] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    coef[-64:] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    fb = grid.GridFunction(spec256, np.fft.ifft(coef))
    back_b = packets.inverse_wpt(packets.wpt_grid(fb, pk), pk)
    err_b = np.sqrt(np.sum(np.abs(back_b.values - fb.values) ** 2)
                    * spec256.cell_volume) / fb.l2_norm()
    ok = err_g <= 1e-6 and err_b <= 1e-4
    assert report("C01", ok, "inversion round trip",
                  f"gaussian {err_g:.2e} <= 1e-6, band-limited {err_b:.2e} <= 1e-4")


def test_c02_gaussian_oracle_agreement(spec256):
    f = grid.gaussian_data(spec256)
    pk = GaussianWindow(1, 1.0, 1.0, 0.125)
    worst = 0.0
    for x in np.linspace(-2.0, 2.0, 8):
        for xi in np.linspace(-2.0, 2.0, 8):
            q = abs(packets.wpt(f, pk, ((x,), (xi,))))
            closed = np.sqrt(np.pi) * np.exp(-x ** 2 / 4 - xi ** 2 / 4)
            worst = max(worst, abs(q - closed))
    ok = worst <= 1e-8
    assert report("C02", ok, "quadrature matches the closed-form transform",
                  f"max abs err {worst:.2e} <= 1e-8 on an 8x8 lattice")


def test_c03_flow_correctness():
    # free motion is exact
    free = chars.flow(pots.zero_model(2), 0.5, 3.0, (1.0, -1.0), (2.0, 0.5), 1e-10)
    err_free = max(
        float(np.max(np.abs(np.array(free.terminal.x)
                            - (np.array([1.0, -1.0]) + 2.5 * np.array([2.0, 0.5]))))),
        float(np.max(np.abs(np.array(free.terminal.xi) - (2.0, 0.5)))))

    # closed-form circular orbit over one period
    b0, x0, xi0 = 1.0, np.array([1.0, 0.0]), np.array([0.5, 1.0])
    model = pots.constant_field_model(b0)
    res = chars.flow(model, 0.0, 2 * np.pi, x0, xi0, 1e-10)
    v0 = xi0 - pots.eval_a(model, 0.0, x0)
    err_orbit = 0.0
    for s in np.linspace(0.0, 2 * np.pi, 33):
        c, sn = np.cos(b0 * s), np.sin(b0 * s)
        v = np.array([c * v0[0] + sn * v0[1], -sn * v0[0] + c * v0[1]])
        x_ref = x0 + np.array([sn * v0[0] + (1 - c) * v0[1],
                               -(1 - c) * v0[0] + sn * v0[1]]) / b0
        xi_ref = v + pots.eval_a(model, s, x_ref)
        st = res.at(s)
        err_orbit = max(err_orbit,
                        float(np.max(np.abs(np.array(st.x) - x_ref))),
                        float(np.max(np.abs(np.array(st.xi) - xi_ref))))

    soft = pots.soft_power_model(2, 0.5, amplitude=(0.8, 0.5), modulation="sin")
    fwd = chars.flow(soft, 1.0, 0.0, (0.4, -0.2), (1.5, 0.7), 1e-10)
    back = chars.flow(soft, 0.0, 1.0, fwd.terminal.x, fwd.terminal.xi, 1e-10)
    err_rev = max(float(np.max(np.abs(np.array(back.terminal.x) - (0.4, -0.2)))),
                  float(np.max(np.abs(np.array(back.terminal.xi) - (1.5, 0.7)))))
    ok = err_orbit <= 1e-8 and err_free <= 1e-12 and err_rev <= 1e-8
    assert report("C03", ok, "flow matches closed forms",
                  f"orbit {err_orbit:.2e} <= 1e-8, free {err_free:.2e} <= 1e-12, "
                  f"reversibility {err_rev:.2e} <= 1e-8")


def test_c04_sandwich_bounds():
    ladder = [2.0 ** k for k in range(4, 13)]
    details = []
    ok = True
    for model in (pots.zero_model(1), pots.soft_power_model(1, 0.5)):
        rep = chars.check_flow_bounds(
            model, 2.0, 0.5, ladder, 1.0,
            [np.zeros(model.n), 0.3 * np.eye(model.n)[0]],
            [0.5 * np.eye(model.n)[0], np.eye(model.n)[0], 2.0 * np.eye(model.n)[0]],
            tol=1e-9)
        ok &= rep.ok and np.isfinite(rep.lambda_hat0) \
            and rep.violations_above_2hat == 0
        details.append(f"{model.family}: lambda_hat0={rep.lambda_hat0:g}")
    assert report("C04", ok, "two-sided ballistic bounds hold above lambda_hat0",
                  "; ".join(details))


def test_c05_integral_bound():
    ladder = (1.0, 10.0, 100.0, 1000.0, 10000.0)
    ok = True
    details = []
    for model in (pots.zero_model(1), pots.soft_power_model(1, 0.5)):
        rep = chars.check_integral_bound(
            model, 0.5, (0.0, 1.0),
            [((0.0,), (1.0,)), ((0.3,), (1.0,))], ladder, tol=1e-10)
        tail = [rep.sup_ratio[lam] for lam in ladder[1:]]
        spread = max(tail) / min(tail)
        ok &= rep.stable and spread < 2.0
        details.append(f"{model.family}: spread {spread:.3f}x")
    closed = chars.check_integral_bound(
        pots.zero_model(1), 1.0, (0.0, 1.0), [((0.0,), (1.0,))],
        (1000.0,), tol=1e-12)
    err = abs(closed.values[1000.0][0] * 2.0 - np.arctan(1000.0))
    ok &= err <= 1e-6
    assert report("C05", ok, "momentum-over-position integral stays bounded",
                  "; ".join(details) + f"; arctan err {err:.2e} <= 1e-6")


def test_c06_commutation_identity():
    spec = grid.GridSpec(1, 512, 20.0)
    pk = packets.make_scaled_packet(spec, 1.0, 1.0, 0.125)
    worst = 0.0
    for t in (0.5, 1.0):
        for alpha, beta in (((0,), (0,)), ((1,), (0,)), ((0,), (1,)),
                            ((2,), (0,)), ((1,), (1,)), ((0,), (2,))):
            worst = max(worst, packets.commutator_check(pk, t, alpha, beta))
    ok = worst <= 1e-8
    assert report("C06", ok, "position/derivative commutation under free evolution",
                  f"max discrepancy {worst:.2e} <= 1e-8")


def test_c07_propagator():
    spec = grid.GridSpec(1, 512, 20.0)
    u0 = grid.gaussian_data(spec)
    u1 = prop.evolve(pots.zero_model(1), None, u0, 0.0, 1.0,
                     prop.EvolveConfig(dt=1e-3))
    x = spec.axis(0)
    exact = (1 + 1j) ** (-0.5) * np.exp(-x ** 2 / (2 * (1 + 1j)))
    err_free = float(np.max(np.abs(u1.values - exact)))

    drifts = {}
    cases = [("zero", pots.zero_model(1), spec, 1e-3),
             ("soft-power", pots.soft_power_model(1, 0.5), spec, 5e-3),
             ("rotational", pots.rotational_model(0.5),
              grid.GridSpec(2, 256, 6.0), 1e-2),
             ("constant-field", pots.constant_field_model(1.0),
              grid.GridSpec(2, 256, 6.0), 1e-2)]
    for name, model, s, dt in cases:
        g = grid.gaussian_data(s)
        out = prop.evolve(model, None, g, 0.0, 1.0, prop.EvolveConfig(dt=dt))
        drifts[name] = abs(out.l2_norm() - g.l2_norm()) / g.l2_norm()

    fine = grid.GridSpec(1, 1024, 20.0)
    ug = grid.gaussian_data(fine)
    model = pots.soft_power_model(1, 0.5, amplitude=1.0)
    T = 0.5

    def run(dt):
        return prop.evolve(model, None, ug, 0.0, T, prop.EvolveConfig(dt=dt))

    ref = run(T / 128)
    ratio = (np.max(np.abs(run(T / 16).values - ref.values))
             / np.max(np.abs(run(T / 32).values - ref.values)))
    ok = (err_free <= 1e-6 and all(d <= 1e-6 for d in drifts.values())
          and 3.0 <= ratio <= 5.5)
    worst_drift = max(drifts.values())
    assert report("C07", ok, "split-step solver",
                  f"free err {err_free:.2e} <= 1e-6, worst drift "
                  f"{worst_drift:.2e} <= 1e-6/unit, order ratio {ratio:.2f} ~ 4")


# The constant field lies outside the decay hypothesis, but its Hamiltonian
# is quadratic, so the 2-D magnetic evolve has exact answers there.
LANDAU_SPEC = grid.GridSpec(2, 128, 8.0)


def test_c07_landau_state_is_stationary():
    """In the constant field B0 = 1 (symmetric gauge) the magnetically
    translated ground state psi_c = exp(-|x - c|^2 / 4 + (i/2)(c1 x2 - c2 x1))
    is stationary: u(t) = exp(-i t / 2) psi_c.  The error is 9.8e-6 of the
    peak, of which the box edge takes 3.9e-6 (the spectral reference's error
    on this grid); the a = 0 evolve is off by 0.24, the flipped phase (a
    flipped field) by 0.87."""
    x1, x2 = LANDAU_SPEC.meshgrid()
    c1, c2 = 1.0, -0.5
    psi = np.exp(-((x1 - c1) ** 2 + (x2 - c2) ** 2) / 4.0 + 0.5j * (c1 * x2 - c2 * x1))
    u1 = prop.evolve(pots.constant_field_model(1.0), None, grid.GridFunction(LANDAU_SPEC, psi),
                     0.0, 1.0, prop.EvolveConfig(dt=1e-2))
    err = float(np.max(np.abs(u1.values - np.exp(-0.5j) * psi)) / np.max(np.abs(psi)))
    assert report("C07 Landau", err <= 5e-5, "Landau state is stationary in the constant field",
                  f"error {err:.2e} <= 5e-5 of the peak")


EHRENFEST_START = ((1.0, -0.5), (1.5, 0.5))  # the packet's centre and momentum
EHRENFEST_T, EHRENFEST_TOL = 1.0, 2e-4


@functools.cache
def _ehrenfest_centre() -> tuple:
    """<x>(t) of the Gaussian packet evolved in the constant field B0 = 1."""
    x0, xi0 = EHRENFEST_START
    u0 = grid.gaussian_data(LANDAU_SPEC, center=x0, momentum=xi0)
    u1 = prop.evolve(pots.constant_field_model(1.0), None, u0, 0.0, EHRENFEST_T,
                     prop.EvolveConfig(dt=5e-3))
    density = np.abs(u1.values) ** 2
    return tuple(float(np.sum(x * density) / np.sum(density)) for x in LANDAU_SPEC.meshgrid())


def ehrenfest_gap() -> float:
    """|<x>(t) - x_flow(t)|: the evolved packet's centre against the terminal
    x of `characteristics.flow` from (x0, xi0) = (centre, momentum).  The
    evolve does not depend on the flow, so it runs once per session."""
    orbit_end = chars.flow(pots.constant_field_model(1.0), 0.0, EHRENFEST_T,
                           *EHRENFEST_START).terminal.x
    return float(np.linalg.norm(np.subtract(_ehrenfest_centre(), orbit_end)))


def test_c07_ehrenfest_centre_follows_the_flow():
    """Under a quadratic Hamiltonian a packet's centre follows the classical
    orbit exactly, so <x>(t) of the evolved Gaussian must be the terminal x
    of the flow.  This ties the evolve (static side) to the flow (dynamic
    side)."""
    gap = ehrenfest_gap()
    assert report("C07 Ehrenfest", gap <= EHRENFEST_TOL,
                  "packet centre follows the bicharacteristic",
                  f"|<x> - x_flow| = {gap:.2e} <= {EHRENFEST_TOL:g}")


def test_c08_leading_term():
    spec = grid.GridSpec(1, 512, 20.0)
    u0 = grid.gaussian_data(spec)
    t = 1.0
    u1 = prop.evolve(pots.zero_model(1), None, u0, 0.0, t,
                     prop.EvolveConfig(dt=1e-3))
    ps = GaussianWindow(1, 1.0, 4.0, 0.125)
    p = ((0.5,), (1.2,))
    lhs = packets.wpt(u1, ps.evolved(t), p)
    rhs = prop.evolved_wpt_leading(pots.zero_model(1), u0, ps, t, p)
    err_free = abs(lhs - rhs)

    fine = grid.GridSpec(1, 1024, 20.0)
    ug = grid.gaussian_data(fine, width=0.2)
    model = pots.soft_power_model(1, 0.5, amplitude=0.5)
    b = packets.theorem_scaling_exponent(0.5)
    ts = 0.5
    u1s = prop.evolve(model, None, ug, 0.0, ts, prop.EvolveConfig(dt=5e-4))
    disc = []
    for lam in (16.0, 64.0, 256.0):
        psl = GaussianWindow(1, 1.0, lam, b)
        pl = ((0.0,), (lam * 0.1,))
        lhs_l = packets.wpt(u1s, psl.evolved(ts), pl)
        rhs_l = prop.evolved_wpt_leading(model, ug, psl, ts, pl, tol=1e-11)
        disc.append(abs(lhs_l - rhs_l))
    ok = err_free <= 1e-6 and disc[0] > disc[1] > disc[2]
    assert report("C08", ok, "backward-flow leading term",
                  f"free err {err_free:.2e} <= 1e-6; discrepancy "
                  f"{disc[0]:.2e} > {disc[1]:.2e} > {disc[2]:.2e} over lam=16,64,256")


def test_c09_static_ground_truth(fine_grid):
    ladder = det.default_ladder(3, 11)
    g = grid.gaussian_data(fine_grid)
    d = grid.delta_spike(fine_grid)
    ok = True
    for x0 in (-5.0, 0.0, 5.0):
        rep = det.wf_test_static(g, det.ConicSample((x0,), (1.0,), a=1.5),
                                 ladder, width=1.0, b=0.125)
        ok &= rep.verdict == "not-in-WF"
    origin = det.wf_test_static(d, det.ConicSample((0.0,), (1.0,), a=1.5),
                                ladder, width=1.0, b=0.125)
    ok &= origin.verdict == "in-WF"
    ok &= abs(origin.n_hat - (-0.0625)) <= 0.05
    for x0 in (-5.0, 5.0):
        rep = det.wf_test_static(d, det.ConicSample((x0,), (1.0,), a=1.5),
                                 ladder, width=1.0, b=0.125)
        ok &= rep.verdict == "not-in-WF" and "super-polynomial" in rep.flags
    assert report("C09", ok, "static detector ground truth",
                  f"gaussian smooth everywhere; point mass in-WF at 0 with "
                  f"Nhat={origin.n_hat:.4f} (-1/16 +- 0.05), smooth elsewhere")


def test_c10_transport_consistency(free_transport, rotational_transport):
    ((free, free_s), _), ((rot, rot_s),) = free_transport, rotational_transport
    elapsed = free_s + rot_s
    ok = (free["agreement"] == 1.0 and free["cells_conclusive"] > 0
          and rot["agreement"] >= 0.9 and rot["cells_conclusive"] > 0
          and elapsed <= 1200.0)
    assert report("C10", ok, "static-vs-dynamic verdict agreement",
                  f"free {free['agreement']:.0%} "
                  f"({free['cells_conclusive']} cells), rotational "
                  f"{rot['agreement']:.0%} ({rot['cells_conclusive']} cells), "
                  f"{elapsed:.0f}s <= 20min")


@pytest.mark.parametrize("workload", ["free-transport", "magnetic-transport"])
def test_transport_cells_keep_their_reference_bits(workload, free_transport,
                                                   rotational_transport):
    """Every seed-0 C10 free, C12 free+V and C10 rotational cell keeps the
    verdict the benchmark's reference records and an N_hat within 1e-9 of
    it, so a change to the evolve that moves these bits fails here."""
    runs = free_transport if workload == "free-transport" else rotational_transport
    problems, cells, worst = _reference_bits(workload, [summary for summary, _ in runs])
    assert report("C10/C12 bits", not problems, f"{workload} cells keep their reference "
                  "verdicts and N_hat", f"{cells} cells, largest |N_hat - reference| "
                  f"{worst:.1e} <= {check.NHAT_TOL:g}; {problems[:3]}"), problems


def c11_smooth(summary: dict) -> bool:
    """A C11 summary at t0 != 0 shows the point mass smoothed out: every
    cell not-in-WF, some conclusive, and |x(0)| / (lam t0 |xi|) within 10
    percent of 1 at the top rung."""
    return (summary["fraction_not_in_wf"] == 1.0 and summary["cells_conclusive"] > 0
            and summary["ballistic_ratios"]["top_in_bracket"])


def test_c11_fundamental_solution(c11):
    s_zero, s_soft, control = c11
    ok = (c11_smooth(s_zero) and c11_smooth(s_soft)
          and all(c["verdict"] == "in-WF" for c in control["cells"]))
    assert report("C11", ok, "point-mass datum smooths out for t0 != 0",
                  f"zero {s_zero['fraction_not_in_wf']:.0%}, soft-power "
                  f"{s_soft['fraction_not_in_wf']:.0%} not-in-WF; control in-WF; "
                  f"|x(0)|/(lam t0 |xi|) in [0.9, 1.1] at lam=1e4")


def test_c11_cells_keep_their_reference_bits(c11):
    """Every seed-0 C11 cell keeps the verdict the benchmark's reference
    records and an N_hat within 1e-9 of it, so a speed-up that moves these
    bits fails here, not only in the benchmark."""
    problems, cells, worst = _reference_bits("point-mass", c11)
    assert report("C11 bits", not problems, "point-mass cells keep their reference verdicts and N_hat",
                  f"{cells} cells, largest |N_hat - reference| {worst:.1e} <= "
                  f"{check.NHAT_TOL:g}; {problems[:3]}"), problems


def test_c11_negative_control_constant_field(monkeypatch):
    """The constant field B0 = 2 pi is outside the decay hypothesis.  Its
    Landau levels give e^{-itH} = -Id at the cyclotron period t = 1, so the
    point mass is singular again at x = 0 there, and smooth at half the
    period.  Only the x0 = 0 cells are asserted: the freely evolved windows
    of the dynamic test are too wide on this ladder to place a singularity
    that the flow brings back to where it started (see README)."""
    spec = grid.GridSpec(2, 256, 5.0)
    model = pots.constant_field_model(2.0 * np.pi)

    def verdicts(t0):
        cells = det.wf_scan("dynamic", grid.delta_spike(spec), [(0.0, 0.0)],
                            det.direction_fan(2, 4), det.default_ladder(2, 6),
                            width=0.5, b=1.0 / 8.0, model=model, t0=t0, k_radius=0.15)
        return {c.verdict for c in cells}

    period, half = verdicts(1.0), verdicts(0.5)
    # the same scan with the magnetic part of the flow left out
    free_flow = det.flow_batch
    monkeypatch.setattr(det, "flow_batch", lambda model, *args: free_flow(
        pots.zero_model(model.n), *args))
    unflowed = verdicts(1.0)
    ok = period == {"in-WF"} and half == {"not-in-WF"} and unflowed == {"not-in-WF"}
    assert report("C11 control", ok, "constant field refocuses the point mass at its period",
                  f"t0 = 1: {period}, t0 = 1/2: {half}, a = 0 flow at t0 = 1: {unflowed}")


def test_c12_scalar_potential(free_transport):
    free = free_transport[1][0]
    rot = exp.run_transport_consistency(dict(workloads.ROTATIONAL_TRANSPORT,
                                             experiment="scalar-potential",
                                             scalar_potential=dict(workloads.SCALAR)))
    ok = (free["agreement"] == 1.0 and free["cells_conclusive"] > 0
          and rot["agreement"] >= 0.9 and rot["cells_conclusive"] > 0)
    assert report("C12", ok, "equivalence persists under a sub-quadratic scalar term",
                  f"free+V {free['agreement']:.0%}, rotational+V {rot['agreement']:.0%}")

