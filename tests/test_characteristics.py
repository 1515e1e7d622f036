import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import RK45, solve_ivp

import broadcast_reference as ref
from mswf import characteristics as chars, detector as det, errors, potentials as pots


def landau_orbit(b0, x0, xi0, s):
    """Closed-form circular orbit in a constant field, symmetric gauge."""
    model = pots.constant_field_model(b0)
    v0 = np.asarray(xi0) - pots.eval_a(model, 0.0, np.asarray(x0))
    c, sn = np.cos(b0 * s), np.sin(b0 * s)
    v = np.array([c * v0[0] + sn * v0[1], -sn * v0[0] + c * v0[1]])
    x = np.asarray(x0) + np.array([sn * v0[0] + (1 - c) * v0[1],
                                   -(1 - c) * v0[0] + sn * v0[1]]) / b0
    return x, v + pots.eval_a(model, s, x)


def test_hamiltonian_values():
    assert chars.hamiltonian(pots.zero_model(2), 0.0, (0.0, 0.0), (3.0, 4.0)) == 12.5
    model = pots.soft_power_model(2, 0.5)
    a = pots.eval_a(model, 0.7, np.array([1.0, 2.0]))
    assert chars.hamiltonian(model, 0.7, (1.0, 2.0), tuple(a)) == pytest.approx(0.0, abs=1e-15)
    # a(0) = (1, 1) for the unit soft-power family
    assert chars.hamiltonian(model, 0.0, (0.0, 0.0), (2.0, 0.0)) == pytest.approx(1.0)


@pytest.mark.parametrize("case", ref.cases(), ids=lambda c: "-".join(map(str, c)))
def test_vector_field_keeps_the_einsum_bits(case):
    # sum_k J[..., k, :] v_k, component-wise, against the einsum contraction
    model, s, x, xi = ref.draw(*case)
    for got, want in zip(pots.flow_field(model, s, x, xi),
                         ref.vector_field(model, s, x, xi)):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", list(ref.MODELS))
def test_groups_rhs_writes_the_concatenated_layout(name):
    # the derivative the right-hand side writes in place is, bit for bit, the
    # reference vector field and the channels' rates concatenated per trajectory
    model, n = ref.MODELS[name], ref.MODELS[name].n
    rng = np.random.default_rng(3)

    def phase(s, x, xi, v, dxi):
        return chars._phase_rate(model, s, x, v, dxi)

    for G, K in ((80, 45), (5, 16), (1, 1)):
        for extra, channels in ((None, 0), (phase, 2)):
            s = rng.uniform(-3.0, 3.0, G)
            y = rng.uniform(-5.0, 5.0, (G, K * (2 * n + channels)))
            rhs = chars._groups_rhs(model, K) if extra is None else \
                chars._groups_rhs(model, K, extra)
            state = y.reshape(G, K, -1)
            x, xi = state[..., :n], state[..., n:2 * n]
            v, dxi = ref.vector_field(model, s[:, None], x, xi)
            rates = [] if extra is None else \
                [r[..., None] for r in phase(s[:, None], x, xi, v, dxi)]
            want = np.concatenate([v, dxi, *rates], axis=-1).reshape(G, -1)
            np.testing.assert_array_equal(rhs(s, y), want)


def test_free_flow_exact():
    model = pots.zero_model(2)
    res = chars.flow(model, 0.5, 3.0, (1.0, -1.0), (2.0, 0.5), 1e-10)
    np.testing.assert_allclose(res.terminal.x,
                               np.array([1.0, -1.0]) + 2.5 * np.array([2.0, 0.5]),
                               atol=1e-12)
    np.testing.assert_allclose(res.terminal.xi, (2.0, 0.5), atol=1e-12)


def test_flow_identity_at_start():
    model = pots.soft_power_model(1, 0.5)
    res = chars.flow(model, 1.0, 1.0, (0.3,), (2.0,), 1e-10)
    assert res.terminal.x == (0.3,) and res.terminal.xi == (2.0,)
    assert res.psi_integral == 0.0


LANDAU_TOL = 1e-8


def landau_orbit_error() -> float:
    """Largest deviation of the constant-field flow over one cyclotron
    period, read through its dense output, from the closed-form orbit."""
    b0 = 1.0
    x0, xi0 = (1.0, 0.0), (0.5, 1.0)
    res = chars.flow(pots.constant_field_model(b0), 0.0, 2 * np.pi, x0, xi0, 1e-10)
    worst = 0.0
    for s in np.linspace(0.0, 2 * np.pi, 25):
        st = res.at(s)
        x_ref, xi_ref = landau_orbit(b0, x0, xi0, s)
        worst = max(worst, float(np.max(np.abs(np.array(st.x) - x_ref))),
                    float(np.max(np.abs(np.array(st.xi) - xi_ref))))
    return worst


def test_landau_orbit_matches():
    assert landau_orbit_error() <= LANDAU_TOL


def test_energy_conservation_time_independent():
    model = pots.soft_power_model(2, 0.5, amplitude=(0.8, 0.5))
    x0, xi0 = (0.4, -0.2), (1.5, 0.7)
    res = chars.flow(model, 0.0, 10.0, x0, xi0, 1e-10)
    h0 = chars.hamiltonian(model, 0.0, x0, xi0)
    drift = max(abs(chars.hamiltonian(model, st.s, st.x, st.xi) - h0)
                for st in res.states)
    assert drift / h0 <= 1e-8


def test_flow_selfconvergence_order():
    model = pots.soft_power_model(2, 0.5, amplitude=(0.8, 0.5), modulation="sin")
    args = ((0.4, -0.2), (1.5, 0.7))
    ref = np.array(chars.flow(model, 0.0, 2.0, *args, 1e-13).terminal.x)
    errs = [np.max(np.abs(np.array(
        chars.flow(model, 0.0, 2.0, *args, 1e-3, max_step=h).terminal.x) - ref))
        for h in (0.2, 0.1)]
    assert errs[0] / errs[1] >= 2 ** 4  # embedded pair propagates at order >= 4


def test_flow_tolerance_monotone():
    model = pots.soft_power_model(1, 0.5, modulation="sin")
    ref = np.array(chars.flow(model, 0.0, 3.0, (0.2,), (1.0,), 1e-13).terminal.x)
    errs = [np.max(np.abs(np.array(
        chars.flow(model, 0.0, 3.0, (0.2,), (1.0,), tol).terminal.x) - ref))
        for tol in (1e-5, 1e-7, 1e-9)]
    assert errs[0] > errs[1] > errs[2]


def test_flow_tol_range_guard():
    with pytest.raises(errors.InputError):
        chars.flow(pots.zero_model(1), 0.0, 1.0, (0.0,), (1.0,), 1e-2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_flows_reject_non_finite_times_and_points(bad):
    model = pots.zero_model(1)
    for t0, s, x, xi in ((0.0, bad, 0.0, 1.0), (bad, 0.0, 0.0, 1.0),
                         (0.0, 1.0, bad, 1.0), (0.0, 1.0, 0.0, bad)):
        with pytest.raises(errors.InputError):
            chars.flow(model, t0, s, (x,), (xi,))
        with pytest.raises(errors.InputError):
            chars.flow_batch(model, t0, s, [[x]], [[xi]])


def test_flow_takes_one_start_point():
    # a batch of one is flow_batch's input, not flow's
    model = pots.zero_model(2)
    for x, xi in (([[0.0, 0.0]], [[1.0, 0.0]]), ([0.0, 0.0], [[1.0, 0.0]]),
                  ([0.0], [1.0]), ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])):
        with pytest.raises(errors.InputError):
            chars.flow(model, 0.0, 1.0, x, xi)
    end = chars.flow(model, 0.0, 1.0, [0.0, 0.0], [1.0, 0.0]).terminal
    assert end.x == pytest.approx((1.0, 0.0))
    bx, _ = chars.flow_batch(model, 0.0, 1.0, [0.0, 0.0], [1.0, 0.0])
    assert bx.shape == (1, 2)
    with pytest.raises(errors.InputError):  # four axes
        chars.flow_batch(model, 0.0, 1.0, np.zeros((1, 1, 1, 2)), np.ones((1, 1, 1, 2)))


def test_batch_flow_matches_single():
    model = pots.rotational_model(0.5, modulation="sin")
    X = np.array([[0.1, 0.0], [0.0, 0.2]])
    XI = np.array([[4.0, 0.0], [0.0, -3.0]])
    bx, bxi = chars.flow_batch(model, 0.5, 0.0, X, XI, 1e-10)
    for k in range(2):
        res = chars.flow(model, 0.5, 0.0, X[k], XI[k], 1e-10)
        assert np.max(np.abs(bx[k] - res.terminal.x)) <= 1e-8
        assert np.max(np.abs(bxi[k] - res.terminal.xi)) <= 1e-8


# ---------------------------------------------------------------------------
# the complex phase integral


def test_phase_integral_free():
    val = chars.phase_integral(pots.zero_model(2), 0.0, 2.0, (0.3, 0.0), (3.0, 4.0), 1e-10)
    assert val == pytest.approx(-2.0 * 25.0 / 2.0, abs=1e-9)


def test_phase_integral_divergence_free():
    val = chars.phase_integral(pots.constant_field_model(1.0), 0.0, 1.5,
                               (1.0, 0.0), (0.5, 1.0), 1e-10)
    assert abs(val.imag) <= 1e-10


def test_phase_integral_selfconvergence():
    model = pots.soft_power_model(2, 0.5, amplitude=(0.8, 0.5))
    args = ((0.4, -0.2), (1.5, 0.7))
    p8 = chars.phase_integral(model, 0.0, 1.0, *args, 1e-8)
    p10 = chars.phase_integral(model, 0.0, 1.0, *args, 1e-10)
    assert abs(p8 - p10) / abs(p10) <= 1e-7


def test_phase_integral_data_at_endpoint():
    # data given at t: integral from 0 to t equals minus the backward run
    model = pots.soft_power_model(1, 0.5)
    fwd = chars.flow(model, 1.0, 0.0, (0.3,), (2.0,), 1e-11)
    val = chars.phase_integral(model, 1.0, 1.0, (0.3,), (2.0,), 1e-11)
    assert val == pytest.approx(-fwd.psi_integral, abs=1e-9)


# ---------------------------------------------------------------------------
# ballistic sandwich bounds


def flow_bound_sweep(model, ladder=None):
    n = model.n
    e1 = np.eye(n)[0]
    ladder = ladder or [2.0 ** k for k in range(4, 13)]
    return chars.check_flow_bounds(
        model, 2.0, 0.5, ladder, 1.0,
        [np.zeros(n), 0.3 * e1],
        [0.5 * e1, e1, 2.0 * e1],
        tol=1e-9)


def test_flow_bounds_zero_model():
    report = flow_bound_sweep(pots.zero_model(1))
    assert report.ok
    assert np.isfinite(report.lambda_hat0)
    assert report.violations_above_2hat == 0


def test_flow_bounds_soft_power():
    report = flow_bound_sweep(pots.soft_power_model(1, 0.5))
    assert report.ok and np.isfinite(report.lambda_hat0)
    # both position and momentum ratios inside [1/2a, 2a] above lambda_hat0
    lo, hi = 1.0 / 4.0, 4.0
    for lam, entries in report.ratios.items():
        if lam >= report.lambda_hat0:
            for _, rx, rxi in entries:
                assert lo <= rx <= hi and lo <= rxi <= hi


def test_flow_bounds_rejects_bad_annulus():
    with pytest.raises(errors.InputError):
        chars.check_flow_bounds(pots.zero_model(1), 2.0, 0.5, [16.0], 1.0,
                                [np.zeros(1)], [np.array([5.0])])


# ---------------------------------------------------------------------------
# integral bound


def test_integral_bound_arctan_value():
    report = chars.check_integral_bound(
        pots.zero_model(1), 1.0, (0.0, 1.0), [((0.0,), (1.0,))],
        (1000.0,), tol=1e-12)
    val = report.values[1000.0][0]
    assert val * 2.0 == pytest.approx(np.arctan(1000.0), abs=1e-6)
    assert val <= 0.79


def test_integral_bound_degenerate_interval():
    report = chars.check_integral_bound(
        pots.zero_model(1), 0.5, (1.0, 1.0), [((0.0,), (1.0,))], (10.0,))
    assert report.values[10.0][0] == 0.0


def test_integral_bound_stability_soft_power():
    model = pots.soft_power_model(1, 0.5)
    report = chars.check_integral_bound(
        model, 0.5, (0.0, 1.0), [((0.0,), (1.0,)), ((0.3,), (1.0,))],
        (1.0, 10.0, 100.0, 1000.0, 10000.0), tol=1e-10)
    assert report.stable
    tail = [report.sup_ratio[lam] for lam in report.ladder[1:]]
    assert max(tail) / min(tail) < 2.0


def test_integral_bound_matches_solve_ivp():
    model = pots.soft_power_model(2, 0.5, amplitude=(0.8, 0.5), modulation="sin")
    samples = [((0.0, 0.0), (1.0, 0.0)), ((0.3, -0.2), (0.6, 0.8))]
    ladder = (1.0, 100.0)
    report = chars.check_integral_bound(model, 0.5, (0.2, 1.1), samples, ladder, tol=1e-10)

    def rhs(s, y):
        v, dxi = pots.flow_field(model, s, y[:2], y[2:4])
        weight = (1.0 + y[:2] @ y[:2]) ** 0.75
        return np.concatenate([v, dxi, [np.linalg.norm(y[2:4]) / weight]])

    for lam in ladder:
        for (x, xi), got in zip(samples, report.values[lam]):
            y0 = np.concatenate([x, lam * np.array(xi), [0.0]])
            sol = solve_ivp(rhs, (0.2, 1.1), y0, method="RK45", rtol=1e-10,
                            atol=1e-10 * np.maximum(1.0, np.abs(y0)))
            want = sol.y[-1, -1] / 1.9
            assert abs(got - want) <= 1e-12 * want


def test_integral_bound_delta_guard():
    with pytest.raises(errors.InputError):
        chars.check_integral_bound(pots.zero_model(1), 0.0, (0.0, 1.0), [])
    with pytest.raises(errors.InputError):  # samples of the wrong dimension
        chars.check_integral_bound(pots.zero_model(2), 0.5, (0.0, 1.0), [((0.0,), (1.0,))])


# ---------------------------------------------------------------------------
# one dilation-ladder rule


# repeated, decreasing, below one, not a number, text (not read digit by digit)
BAD_LADDERS = [[1, 10, 10], [10, 1], [0.5, 1], ["a"], "19"]
# every entry point that takes a ladder, called with one; the fit gets four
# more good rungs on top of a list, so its rung count is not what refuses it
LADDER_TAKERS = [
    lambda lam: det.decay_exponent(lam if isinstance(lam, str) else [*lam, 1e5, 1e6, 1e7, 1e8],
                                   np.ones(len(lam) + 4)),
    lambda lam: chars.check_flow_bounds(pots.zero_model(1), 2.0, 0.5, lam, 1.0,
                                        [np.zeros(1)], [np.ones(1)]),
    lambda lam: chars.check_integral_bound(pots.zero_model(1), 0.5, (0.0, 1.0),
                                           [((0.0,), (1.0,))], lam),
    lambda lam: chars.lower_bound_x0(pots.zero_model(1), 1.0, [np.zeros(1)],
                                     [np.ones(1)], lam),
]


@pytest.mark.parametrize("take", LADDER_TAKERS)
@pytest.mark.parametrize("ladder", BAD_LADDERS)
def test_every_ladder_taker_refuses_a_bad_ladder(take, ladder):
    with pytest.raises(errors.InputError, match="ladder"):
        take(ladder)


# ---------------------------------------------------------------------------
# linear growth of the backward-flowed position


def test_lower_bound_refuses_a_zero_gamma_sample():
    # each ratio divides by |xi|
    with pytest.raises(errors.InputError, match="nonzero"):
        chars.lower_bound_x0(pots.zero_model(1), 1.0, [np.zeros(1)],
                             [np.ones(1), np.zeros(1)], (1.0, 10.0))


def test_lower_bound_zero_model():
    report = chars.lower_bound_x0(
        pots.zero_model(1), 1.0, [np.zeros(1), np.array([0.5])],
        [np.array([1.0]), np.array([-1.0])],
        (10.0, 100.0, 1000.0, 10000.0), tol=1e-9)
    assert report.top_in_bracket
    for r in report.ratios[10000.0]:
        assert 0.9 <= r <= 1.1


@pytest.mark.parametrize("model", [
    pots.soft_power_model(2, 0.5, amplitude=(0.7, 0.7)),
    pots.rotational_model(0.5, modulation="sin"),
])
def test_lower_bound_conforming_models(model):
    e1, e2 = np.eye(2)
    report = chars.lower_bound_x0(model, 1.0, [np.zeros(2)],
                                  [e1, e2, (e1 + e2) / np.sqrt(2)],
                                  (100.0, 10000.0), tol=1e-9)
    assert report.top_in_bracket


# ---------------------------------------------------------------------------
# the grouped RK45 stepper


@st.composite
def grouped_flows(draw):
    family = draw(st.sampled_from(("zero", "soft-power", "rotational", "constant-field")))
    n = 2 if family in ("rotational", "constant-field") else draw(st.integers(1, 2))
    modulations = ("one",) if family == "constant-field" else ("one", "sin")
    model = pots.VectorPotentialModel(
        family, n, rho=0.5, amplitude=draw(st.floats(0.3, 2.0)),
        modulation=draw(st.sampled_from(modulations)))
    G, K = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    t0 = draw(st.floats(0.0, 1.0))
    span = draw(st.floats(0.2, 1.5)) * draw(st.sampled_from((-1.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.uniform(-3.0, 3.0, (G, K, n))
    xi = rng.uniform(-1.0, 1.0, (G, K, n)) * draw(st.sampled_from((1.0, 10.0)))
    return model, t0, t0 + span, x, xi, draw(st.sampled_from((1e-9, 1e-11)))


@settings(max_examples=25, deadline=None)
@given(grouped_flows())
def test_grouped_flow_matches_solve_ivp_per_group(case):
    model, t0, s1, X, XI, tol = case
    G, K, n = X.shape
    x, xi = chars.flow_batch(model, t0, s1, X, XI, tol)
    assert x.shape == xi.shape == (G, K, n)
    rhs = chars._groups_rhs(model, K)
    y0 = np.concatenate([X, XI], axis=-1).reshape(G, -1)
    _, nfev = chars._rk45_groups(rhs, t0, s1, y0, tol,
                                 tol * np.maximum(1.0, np.abs(y0)))
    for g in range(G):
        # each group against scipy's stepper on that group alone
        sol = solve_ivp(lambda s, y: rhs(np.array([s]), y[None])[0], (t0, s1),
                        y0[g], method="RK45", rtol=tol,
                        atol=tol * np.maximum(1.0, np.abs(y0[g])))
        want = sol.y[:, -1].reshape(K, 2 * n)
        got = np.concatenate([x[g], xi[g]], axis=-1)
        assert sol.nfev == nfev[g]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # and against itself flowed alone, as a (K, n) batch
        alone_x, alone_xi = chars.flow_batch(model, t0, s1, X[g], XI[g], tol)
        assert np.array_equal(alone_x, x[g]) and np.array_equal(alone_xi, xi[g])


def test_grouped_flow_names_the_failing_group(monkeypatch):
    # a is not finite for x > 5, where group 1 starts
    model = pots.soft_power_model(1, 0.5, 0.5)
    flow_field = chars.flow_field

    def nan_field(m, t, x, xi, out=None):
        v, dxi = flow_field(m, t, x, xi, out)
        if m is model:
            v[x > 5.0] = dxi[x > 5.0] = np.nan
        return v, dxi

    monkeypatch.setattr(chars, "flow_field", nan_field)
    X = np.array([[[0.0]], [[6.0]], [[-1.0]]])
    with pytest.raises(errors.StepUnderflowError, match="group 1"):
        chars.flow_batch(model, 1.0, 0.0, X, np.ones_like(X))
    with pytest.raises(errors.InputError):
        chars.flow_batch(model, 1.0, 0.0, X[None], np.ones_like(X)[None])


@settings(max_examples=25, deadline=None)
@given(grouped_flows(), st.sampled_from((np.inf, 0.05)))
def test_flow_matches_solve_ivp(case, max_step):
    model, t0, s1, X, XI, tol = case
    n = model.n
    x0, xi0 = X[0, 0], XI[0, 0]
    res = chars.flow(model, t0, s1, x0, xi0, tol, max_step=max_step)

    def rhs(s, y):
        v, dxi = pots.flow_field(model, s, y[:n], y[n:2 * n])
        return np.concatenate([v, dxi, chars._phase_rate(model, s, y[:n], v, dxi)])

    y0 = np.concatenate([x0, xi0, [0.0, 0.0]])
    sol = solve_ivp(rhs, (t0, s1), y0, method="RK45", rtol=tol, max_step=max_step,
                    atol=tol * max(1.0, np.max(np.abs(y0))), dense_output=True)
    assert res.stats["rhs_evaluations"] == sol.nfev
    assert res.stats["steps"] == len(sol.t) - 1 == len(res.states) - 1
    # A step whose local error is at round-off level gets an error estimate
    # that depends on the summation order of the stage sums, which differs
    # from scipy's; its successor's size may then move in the sixth digit.
    times = np.array([state.s for state in res.states])
    assert np.max(np.abs(times - sol.t)) <= 1e-4 * abs(s1 - t0)
    want = sol.y[:2 * n, -1]
    got = np.array(res.terminal.x + res.terminal.xi)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    psi = complex(*sol.y[2 * n:, -1])
    assert abs(res.psi_integral - psi) <= 1e-12 * abs(psi)
    for s in t0 + np.array([0.1, 0.5, 0.9]) * (s1 - t0):
        state, want = res.at(s), sol.sol(s)[:2 * n]
        got = np.array(state.x + state.xi)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("model", [
    pots.soft_power_model(2, 0.5, amplitude=(0.8, 0.5), modulation="sin"),
    pots.rotational_model(0.5, modulation="sin"),
])
def test_flow_reversibility(model):
    x0, xi0 = (0.4, -0.2), (1.5, 0.7)
    fwd = chars.flow(model, 1.0, 0.0, x0, xi0, 1e-10)
    back = chars.flow(model, 0.0, 1.0, fwd.terminal.x, fwd.terminal.xi, 1e-10)
    assert np.max(np.abs(np.array(back.terminal.x) - x0)) <= 1e-8
    assert np.max(np.abs(np.array(back.terminal.xi) - xi0)) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(grouped_flows())
def test_flow_reversibility_property(case):
    model, t0, s1, X, XI, _ = case
    x0, xi0 = X[0, 0], XI[0, 0]
    fwd = chars.flow(model, t0, s1, x0, xi0, 1e-10)
    back = chars.flow(model, s1, t0, fwd.terminal.x, fwd.terminal.xi, 1e-10)
    assert np.max(np.abs(np.array(back.terminal.x) - x0)) <= 1e-8
    assert np.max(np.abs(np.array(back.terminal.xi) - xi0)) <= 1e-8


def test_tableau_is_scipys_rk45():
    for ours, theirs in ((chars._A, RK45.A), (chars._B, RK45.B), (chars._C, RK45.C),
                         (chars._E, RK45.E), (chars._P, RK45.P)):
        assert np.array_equal(ours, theirs)
    assert chars._STAGES == RK45.n_stages
    assert chars._ERROR_EXPONENT == -1.0 / (RK45.error_estimator_order + 1)


def test_flow_bounds_read_each_flow_alone():
    model = pots.soft_power_model(1, 0.5, 0.5, "sin")
    ladder = (16.0, 64.0)
    report = chars.check_flow_bounds(model, 2.0, 0.5, ladder, 1.0, [np.zeros(1)],
                                     [np.ones(1)], tol=1e-9)
    # the grouped sweep reads each flow as `flow` integrates it alone
    for lam in ladder:
        alone = chars.flow(model, 1.0, 0.0, (0.0,), (lam,), 1e-9)
        want = []
        for off in np.geomspace(lam ** -0.5, 1.0, 4):
            state = alone.at(1.0 - off)
            want.append((off, np.linalg.norm(state.x) / (lam * off),
                         np.linalg.norm(state.xi) / lam))
        assert report.ratios[lam] == want
    integral = chars.check_integral_bound(model, 0.5, (0.0, 1.0), [((0.3,), (1.0,))],
                                          ladder, tol=1e-10)
    assert integral.stable and all(v > 0.0 for v in integral.sup_ratio.values())
