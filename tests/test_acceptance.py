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
    back = packets.inverse_wpt(spec256, packets.wpt_grid(f, pk), pk)
    err_g = np.sqrt(np.sum(np.abs(back.values - f.values) ** 2)
                    * spec256.cell_volume) / f.l2_norm()

    rng = np.random.default_rng(0)
    coef = np.zeros(256, dtype=complex)
    coef[:64] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    coef[-64:] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    fb = grid.GridFunction(spec256, np.fft.ifft(coef))
    back_b = packets.inverse_wpt(spec256, packets.wpt_grid(fb, pk), pk)
    err_b = np.sqrt(np.sum(np.abs(back_b.values - fb.values) ** 2)
                    * spec256.cell_volume) / fb.l2_norm()
    ok = err_g <= 1e-12 and err_b <= 1e-12
    assert report("C01", ok, "inversion round trip",
                  f"gaussian {err_g:.2e} <= 1e-12, band-limited {err_b:.2e} <= 1e-12")


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
        # every rung from lambda_hat0 up is in band, and lambda_hat0 is at
        # most the middle rung
        ok &= rep.ok and rep.lambda_hat0 <= 2.0 ** 8
        details.append(f"{model.family}: lambda_hat0={rep.lambda_hat0:g} <= 256")
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
    pk = GaussianWindow(1, 1.0, 1.0, 0.125).grid_function(spec)
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
    x = spec.axis()
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


LANDAU_STATE_TOL = 5e-5


def landau_state_error() -> float:
    """In the constant field B0 = 1 (symmetric gauge) the magnetically
    translated ground state psi_c = exp(-|x - c|^2 / 4 + (i/2)(c1 x2 - c2 x1))
    is stationary: u(t) = exp(-i t / 2) psi_c.  The evolved state's largest
    distance from that at t = 1, relative to the peak."""
    x1, x2 = LANDAU_SPEC.meshgrid()
    c1, c2 = 1.0, -0.5
    psi = np.exp(-((x1 - c1) ** 2 + (x2 - c2) ** 2) / 4.0 + 0.5j * (c1 * x2 - c2 * x1))
    u1 = prop.evolve(pots.constant_field_model(1.0), None, grid.GridFunction(LANDAU_SPEC, psi),
                     0.0, 1.0, prop.EvolveConfig(dt=1e-2))
    return float(np.max(np.abs(u1.values - np.exp(-0.5j) * psi)) / np.max(np.abs(psi)))


def test_c07_landau_state_is_stationary():
    """The error is 9.8e-6 of the peak, of which the box edge takes 3.9e-6
    (the spectral reference's error on this grid); the a = 0 evolve is off
    by 0.24, the flipped field by 0.73."""
    err = landau_state_error()
    assert report("C07 Landau", err <= LANDAU_STATE_TOL,
                  "Landau state is stationary in the constant field",
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


# C08's 1-D fields are gradients (B = 0), so there the flow's magnetic term is
# a gauge; the rotational field's B is not zero.  Under a = sin(t) a0, the
# paper's time-dependent case, the field is weak over [0, t], so the leading
# term is closer and its bound tighter; only there does the flow's time
# factor show.
LEADING_SPEC = grid.GridSpec(2, 256, 8.0)
LEADING_MODELS = {m: pots.rotational_model(0.5, modulation=m) for m in ("one", "sin")}
LEADING_T, LEADING_LAMS = 0.1, (8.0, 16.0, 32.0)
LEADING_TOL = {"one": 0.06, "sin": 1e-3}


@functools.cache
def _leading_fields(modulation: str) -> tuple:
    """(u0, u(t)) of the Gaussian packets of width 0.5 and momentum (lam, 0),
    evolved in the rotational field as one batch."""
    u0 = [grid.gaussian_data(LEADING_SPEC, width=0.5, momentum=(lam, 0.0))
          for lam in LEADING_LAMS]
    return u0, prop.evolve(LEADING_MODELS[modulation], None, u0, 0.0, LEADING_T,
                           prop.EvolveConfig(dt=1e-3))


@functools.cache
def leading_probe_points(modulation: str) -> tuple:
    """Each packet's phase point (0, (lam, 0)) flowed forward to t."""
    return tuple(chars.flow(LEADING_MODELS[modulation], 0.0, LEADING_T, (0.0, 0.0),
                            (lam, 0.0), 1e-10).terminal for lam in LEADING_LAMS)


def leading_term_discrepancy(modulation: str = "one") -> list:
    """|W[u(t)] - leading term| / |W[u(t)]| at each rung, with the window
    of width 1 dilated by lam^(1/16), at the forward-flowed probe point.

    The evolve and the probe points are cached once per session; only
    the backward flow inside `evolved_wpt_leading` runs on each call.  So
    an evolve mutant would read whichever evolve filled the cache first,
    and the mutant table fills the points' cache before it applies a
    mutant."""
    u0, u1 = _leading_fields(modulation)
    out = []
    for lam, f0, f1, p in zip(LEADING_LAMS, u0, u1, leading_probe_points(modulation)):
        window = GaussianWindow(2, 1.0, lam, 1.0 / 16.0)
        lhs = packets.wpt(f1, window.evolved(LEADING_T), (p.x, p.xi))
        rhs = prop.evolved_wpt_leading(LEADING_MODELS[modulation], f0, window, LEADING_T,
                                       (p.x, p.xi))
        out.append(abs(lhs - rhs) / abs(lhs))
    return out


def _leading_report(cid: str, modulation: str) -> bool:
    disc, tol = leading_term_discrepancy(modulation), LEADING_TOL[modulation]
    return report(cid, max(disc) <= tol, f"leading term in the rotational field ({modulation})",
                  "relative discrepancy " + ", ".join(f"{d:.2e}" for d in disc)
                  + f" <= {tol:g} over lam=8,16,32")


def test_c08_leading_term_where_b_is_not_zero():
    """Measured 1.22e-2, 9.08e-3 and 3.77e-2 at lam = 8, 16, 32; the a = 0
    leading term reads 5.78e-2, 0.169 and 0.401."""
    assert _leading_report("C08 B != 0", "one")


def test_c08_leading_term_in_a_time_dependent_field():
    """Measured 3.46e-5, 1.93e-5 and 8.31e-5 at lam = 8, 16, 32; with the
    flow's field taken at -t the leading term reads 5.33e-4, 1.62e-3 and
    4.08e-3."""
    assert _leading_report("C08 sin", "sin")


def test_c09_static_ground_truth(fine_grid):
    ladder = det.default_ladder(3, 11)
    g = grid.gaussian_data(fine_grid)
    d = grid.delta_spike(fine_grid)
    # datum-major: the Gaussian's cells at -5, 0, 5, then the point mass's
    cells = det.wf_scan("static", [g, d], [(-5.0,), (0.0,), (5.0,)], [(1.0,)], ladder,
                        width=1.0, b=0.125, a=1.5)
    ok = all(c.verdict == "not-in-WF" for c in cells[:3])
    origin = cells[4].report
    ok &= origin.verdict == "in-WF"
    ok &= abs(origin.n_hat - (-0.0625)) <= 0.05
    ok &= all(c.verdict == "not-in-WF" and "super-polynomial" in c.report.flags
              for c in (cells[3], cells[5]))
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


# A transport check that can fail: a focusing chirp is singular at t0 > 0,
# so its verdicts depend on where the backward flow lands.  The rung gap
# compares the two sides' transforms (`DecayReport.magnitudes`) rung by
# rung, which no fit threshold moves; the verdicts are not counted.
CHIRP_SPEC = grid.GridSpec(1, 4096, 30.0)
CHIRP_T0, CHIRP_WIDTH, CHIRP_GAP = 0.2, 7.0, 0.5
CHIRP_SOFT = pots.soft_power_model(1, 0.5, amplitude=0.7)
CHIRP_CASES = {"free": (pots.zero_model(1), None), "soft-power": (CHIRP_SOFT, None),
               "soft-power+V": (CHIRP_SOFT, prop.ScalarPotentialModel(
                   "soft-power", mu=1.0, amplitude=0.3))}
CHIRP_SCAN = dict(positions=[(-3.0,), (-2.0,), (2.0,), (3.0,)], directions=[(1.0,), (-1.0,)],
                  ladder=det.default_ladder(2, 6), width=1.0, b=0.125, k_radius=0.2,
                  half_angle=0.2, a=1.0)


def focusing_chirp() -> grid.GridFunction:
    """u0 = exp(-x^2 / (2 w^2)) exp(-i x^2 / (2 t0)), which focuses at t0."""
    x = CHIRP_SPEC.axis()
    return grid.GridFunction(CHIRP_SPEC, np.exp(-x ** 2 / (2.0 * CHIRP_WIDTH ** 2)
                                                - 1j * x ** 2 / (2.0 * CHIRP_T0)))


@functools.cache
def _chirp_evolved(case: str) -> grid.GridFunction:
    model, scalar = CHIRP_CASES[case]
    return prop.evolve(model, scalar, focusing_chirp(), 0.0, CHIRP_T0,
                       prop.EvolveConfig(dt=1e-3))


def rung_gap(static, dynamic) -> float:
    """A cell's largest |log10(|W_static| / |W_dynamic|)| over the (sample,
    rung) entries of the rungs both sides keep where each side is above
    1e-3 of its top; inf where no entry is left to compare."""
    reps = (static.report, dynamic.report)
    if any(rep is None or not rep.magnitudes.size for rep in reps):
        return np.inf
    common = [lam for lam in reps[0].ladder if lam in reps[1].ladder]
    ms, md = (rep.magnitudes[:, [rep.ladder.index(lam) for lam in common]] for rep in reps)
    both = (ms >= 1e-3 * reps[0].magnitudes.max()) & (md >= 1e-3 * reps[1].magnitudes.max())
    return float(np.max(np.abs(np.log10(ms[both] / md[both])))) if both.any() else np.inf


def test_c10_free_transport_rung_gap():
    """With a = 0 the transport identity is exact, so the seed-0 C10 free
    config's static and dynamic transforms agree rung by rung to round-off:
    the largest gap over its 18 cells measured 5.1e-12 decades."""
    config = exp.TransportConfig.parse(workloads.configs("free-transport", 0)[0])
    data = [exp._datum_from_config(entry, config.grid) for entry in config.data]
    evolved = prop.evolve(config.potential, config.scalar_potential, data, 0.0,
                          config.t0, prop.EvolveConfig(dt=config.dt))
    static = config.scan("static", evolved, noise_rel=exp.STATIC_NOISE_REL)
    dynamic = config.scan("dynamic", data, noise_rel=exp.DYNAMIC_NOISE_REL)
    gap = max(rung_gap(s, d) for s, d in zip(static, dynamic, strict=True))
    assert report("C10 free gap", gap <= 1e-9,
                  "static and dynamic transforms agree rung by rung",
                  f"{len(static)} cells, largest gap {gap:.2g} <= 1e-9 decades")


def chirp_transport(case: str) -> tuple:
    """(largest rung gap over the cells, cells conclusive on both sides that
    disagree) of the chirp's static scan at t0 against its dynamic scan."""
    model, _ = CHIRP_CASES[case]
    static = det.wf_scan("static", _chirp_evolved(case), model=model,
                         noise_rel=exp.STATIC_NOISE_REL, **CHIRP_SCAN)
    dynamic = det.wf_scan("dynamic", focusing_chirp(), model=model, t0=CHIRP_T0,
                          noise_rel=exp.DYNAMIC_NOISE_REL, **CHIRP_SCAN)
    conclusive = ("in-WF", "not-in-WF")
    disagree = sum(s.verdict in conclusive and d.verdict in conclusive
                   and s.verdict != d.verdict for s, d in zip(static, dynamic))
    return max(rung_gap(s, d) for s, d in zip(static, dynamic)), disagree


def chirp_runs() -> dict:
    return {case: chirp_transport(case) for case in CHIRP_CASES}


def chirp_consistent(runs: dict) -> bool:
    return all(gap <= CHIRP_GAP and not disagree for gap, disagree in runs.values())


def test_focusing_chirp_transport_rung_gap():
    """Measured rung gaps: free 1.9e-10, soft-power 0.12-0.35 and soft-power
    + V 0.13-0.33 decades per cell; the a = 0 scan flow reads 1.07-1.33 and
    1.09-1.31 there."""
    runs = chirp_runs()
    assert report("chirp", chirp_consistent(runs),
                  "focusing chirp: static and dynamic transforms agree rung by rung",
                  ", ".join(f"{case} gap {gap:.3g} ({disagree} disagree)"
                            for case, (gap, disagree) in runs.items())
                  + f" <= {CHIRP_GAP} decades")


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

