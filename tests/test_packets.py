import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mswf import errors, grid, packets
from mswf.packets import (DeltaSignal, GaussianBase, GaussianSignal,
                          GaussianWindow)

SPEC = grid.GridSpec(1, 256, 20.0)
FINE = grid.GridSpec(1, 512, 10.0)


def test_theorem_scaling_exponent():
    assert packets.theorem_scaling_exponent(0.0) == 0.125
    assert packets.theorem_scaling_exponent(0.5) == 0.0625
    assert packets.theorem_scaling_exponent(-3.0) == 0.125


def test_scaled_packet_lambda_one_is_base():
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 1.0, 0.125)
    expected = np.exp(-SPEC.axis(0) ** 2 / 2.0)
    assert np.max(np.abs(pk.values - expected)) < 1e-14


def test_scaled_packet_norm_invariance():
    base = GaussianBase(1.0)
    norms = [packets.make_scaled_packet(FINE, base, lam, 0.125).l2_norm()
             for lam in (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0)]
    assert max(abs(n - norms[0]) / norms[0] for n in norms) <= 1e-8


def test_scaled_packet_width_shrinks():
    base = GaussianBase(1.0)
    w1 = packets.measure_packet_width(packets.make_scaled_packet(FINE, base, 1.0, 0.125))
    w256 = packets.measure_packet_width(packets.make_scaled_packet(FINE, base, 256.0, 0.125))
    assert w1 / w256 == pytest.approx(256.0 ** 0.125, rel=0.01)  # factor 2


def test_scaled_packet_resolution_guard():
    with pytest.raises(errors.ResolutionError):
        packets.make_scaled_packet(SPEC, GaussianBase(1.0), 4096.0, 0.125)


def test_scaled_packet_custom_base():
    base = packets.make_scaled_packet(FINE, GaussianBase(1.0), 1.0, 0.125)
    scaled = packets.make_scaled_packet(FINE, base, 16.0, 0.125)
    analytic = packets.make_scaled_packet(FINE, GaussianBase(1.0), 16.0, 0.125)
    assert np.max(np.abs(scaled.values - analytic.values)) < 1e-5
    assert abs(scaled.l2_norm() - base.l2_norm()) / base.l2_norm() < 1e-5


def test_free_evolution_closed_form():
    g = grid.gaussian_data(SPEC)
    ev = packets.free_evolve_packet(g, 1.0)
    x = SPEC.axis(0)
    exact = (1 + 1j) ** (-0.5) * np.exp(-x ** 2 / (2 * (1 + 1j)))
    assert np.max(np.abs(ev.values - exact)) <= 1e-8


@pytest.mark.parametrize("t", [-2.0, -1.0, 1.0, 2.0])
def test_free_evolution_unitary(t):
    g = grid.gaussian_data(SPEC)
    ev = packets.free_evolve_packet(g, t)
    assert abs(ev.l2_norm() - g.l2_norm()) / g.l2_norm() <= 1e-10


def test_free_evolution_identity_and_group_law():
    g = grid.gaussian_data(SPEC)
    assert np.array_equal(packets.free_evolve_packet(g, 0.0).values, g.values)
    two = packets.free_evolve_packet(packets.free_evolve_packet(g, 0.4), 0.3)
    one = packets.free_evolve_packet(g, 0.7)
    assert np.max(np.abs(two.values - one.values)) <= 1e-9


def test_free_evolution_resolution_guard():
    narrow = grid.gaussian_data(grid.GridSpec(1, 256, 5.0), width=0.05)
    with pytest.raises(errors.ResolutionError):
        packets.free_evolve_packet(narrow, 10.0)


def test_gaussian_window_matches_spectral_evolution():
    win = GaussianWindow(1, 1.0, 16.0, 0.125, 0.0)
    spectral = packets.free_evolve_packet(win.grid_function(SPEC), 0.7)
    analytic = win.evolved(0.7).grid_function(SPEC)
    assert np.max(np.abs(spectral.values - analytic.values)) < 1e-12


# ---------------------------------------------------------------------------
# the transform


def test_wpt_gaussian_value():
    f = grid.gaussian_data(SPEC)
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 1.0, 0.125)
    value = packets.wpt(f, pk, ((0.0,), (0.0,)))
    assert value == pytest.approx(np.sqrt(np.pi), abs=1e-10)


def test_wpt_closed_form_lattice():
    f = grid.gaussian_data(SPEC)
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 1.0, 0.125)
    for x in np.linspace(-2, 2, 8):
        for xi in np.linspace(-2, 2, 8):
            q = abs(packets.wpt(f, pk, ((x,), (xi,))))
            closed = np.sqrt(np.pi) * np.exp(-x ** 2 / 4 - xi ** 2 / 4)
            assert q == pytest.approx(closed, abs=1e-8)


def test_wpt_delta_pairing():
    # the spike reduces the quadrature to conj(packet(-x)); the grid window
    # is translated spectrally, so compare with the analytic dilated gaussian
    d = grid.delta_spike(SPEC)
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 4.0, 0.125)
    win = GaussianWindow(1, 1.0, 4.0, 0.125, 0.0)
    for x in (0.0, 0.7, -1.3):
        got = packets.wpt(d, pk, ((x,), (2.0,)))
        want = complex(np.conj(win(np.array([-x]))))
        assert got == pytest.approx(want, abs=1e-10)
    got = packets.wpt(d, win, ((0.7,), (2.0,)))
    assert got == pytest.approx(complex(np.conj(win(np.array([-0.7])))), abs=1e-12)


def test_wpt_linearity():
    rng = np.random.default_rng(7)
    f = grid.GridFunction(SPEC, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    g = grid.GridFunction(SPEC, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 2.0, 0.125)
    a, b = 1.7 - 0.3j, -0.4 + 2.2j
    combo = grid.GridFunction(SPEC, a * f.values + b * g.values)
    p = ((0.5,), (1.0,))
    lhs = packets.wpt(combo, pk, p)
    rhs = a * packets.wpt(f, pk, p) + b * packets.wpt(g, pk, p)
    assert abs(lhs - rhs) / abs(lhs) <= 1e-12


def test_wpt_translation_covariance():
    f = grid.gaussian_data(SPEC, width=1.3)
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 1.0, 0.125)
    h, xi = 1.5, 0.8
    shifted = grid.spectral_shift(f, (h,))
    lhs = packets.wpt(shifted, pk, ((2.0,), (xi,)))
    rhs = np.exp(-1j * h * xi) * packets.wpt(f, pk, ((2.0 - h,), (xi,)))
    assert abs(lhs - rhs) <= 1e-10


def test_wpt_nyquist_guard():
    f = grid.gaussian_data(SPEC)
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 1.0, 0.125)
    with pytest.raises(errors.NyquistError):
        packets.wpt(f, pk, ((0.0,), (100.0,)))


def test_wpt_domain_guard_grid_window_only():
    f = grid.gaussian_data(SPEC)
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 1.0, 0.125)
    with pytest.raises(errors.DomainError):
        packets.wpt(f, pk, ((19.0,), (0.0,)))
    win = GaussianWindow(1)
    packets.wpt(f, win, ((50.0,), (0.0,)))  # analytic windows go anywhere


# one grid per dimension, fine enough that a unit Gaussian product is
# resolved and decays to round-off before the box edge
PAIR_GRIDS = {1: grid.GridSpec(1, 256, 8.0), 2: grid.GridSpec(2, 128, 8.0),
              3: grid.GridSpec(3, 64, 8.0)}


@st.composite
def pairing_cases(draw):
    n = draw(st.sampled_from((1, 2, 3)))
    window = GaussianWindow(n, width=draw(st.floats(0.8, 1.5)),
                            lam=draw(st.floats(1.0, 20.0)),
                            b=draw(st.floats(0.05, 0.13)),
                            t=draw(st.floats(0.1, 1.0)) * draw(st.sampled_from((-1, 1))))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return (PAIR_GRIDS[n], window, draw(st.integers(1, 6)),
            draw(st.sampled_from((1, 3))), np.random.default_rng(seed))


def _per_point_reference(spec, values, window, X, XI):
    """Each point and field on its own: conj(window) times the plane wave,
    contracted axis by axis with tensordot."""
    out = np.empty((len(X), len(values)), dtype=complex)
    for s in range(len(X)):
        for j, g in enumerate(values):
            for i in range(spec.n):
                y = spec.axis(i)
                vec = np.conj(np.exp(-0.5 * window.beta * (y - X[s, i]) ** 2)) \
                    * np.exp(-1j * y * XI[s, i])
                g = np.tensordot(vec, g, axes=(0, 0))
            out[s, j] = np.conj(window.amplitude) * spec.cell_volume * g
    return out


@settings(max_examples=30, deadline=None)
@given(pairing_cases())
def test_pair_many_matches_reference_oracle_and_guard(case):
    spec, window, S, B, rng = case
    n = spec.n
    X = rng.uniform(-2.0, 2.0, (S, n))
    XI = rng.uniform(-3.0, 3.0, (S, n))
    # random fields: the kernel against a per-point tensordot reference
    noise = [rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
             for _ in range(B)]
    got = packets.pair_many(spec, noise, window, X, XI)
    want = _per_point_reference(spec, noise, window, X, XI)
    assert got.shape == (S, B)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # Gaussian fields inside the guards: the kernel against the closed form,
    # to 1e-9 of the Cauchy-Schwarz bound |window| |signal|
    signals = [GaussianSignal(width=rng.uniform(0.5, 0.8),
                              center=tuple(rng.uniform(-0.5, 0.5, n)),
                              momentum=tuple(rng.uniform(-2.0, 2.0, n)))
               for _ in range(B)]
    fields = [grid.gaussian_data(spec, width=sig.width, center=sig.center,
                                 momentum=sig.momentum).values for sig in signals]
    got = packets.pair_many(spec, fields, window, X, XI)
    for j, sig in enumerate(signals):
        bound = window.l2_norm() * (np.sqrt(np.pi) * sig.width) ** (n / 2)
        for s in range(S):
            oracle = packets.gaussian_wpt_oracle(sig, window, (X[s], XI[s]))
            assert abs(got[s, j] - oracle) <= 1e-9 * bound
    # one out-of-band frequency anywhere in the batch trips the guard
    s, i = rng.integers(S), rng.integers(n)
    XI[s, i] = rng.choice((-1.0, 1.0)) * 1.01 * spec.nyquist()[i]
    with pytest.raises(errors.NyquistError):
        packets.pair_many(spec, noise, window, X, XI)


def test_pair_many_input_checks():
    spec = PAIR_GRIDS[2]
    win = GaussianWindow(2)
    values = [np.zeros(spec.shape, dtype=complex)]
    with pytest.raises(errors.InputError):
        packets.pair_many(spec, values, GaussianWindow(1), [(0.0, 0.0)], [(1.0, 0.0)])
    with pytest.raises(errors.InputError):
        packets.pair_many(spec, values, win, [(0.0, 0.0)], [(1.0,)])
    with pytest.raises(errors.InputError):
        packets.pair_many(spec, [values[0][0]], win, [(0.0, 0.0)], [(1.0, 0.0)])


def test_wpt_grid_reduces_to_pointwise():
    f = grid.gaussian_data(SPEC, width=1.1, momentum=0.4)
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 2.0, 0.125)
    xs = SPEC.axis(0)[100:103]
    xis = SPEC.freq_axis(0)[4:7]
    table = packets.wpt_grid(f, pk, (xs,), (xis,))
    for i, x in enumerate(xs):
        for j, xi in enumerate(xis):
            assert abs(table.values[i, j]
                       - packets.wpt(f, pk, ((x,), (xi,)))) <= 1e-10


def test_wpt_grid_single_point():
    f = grid.gaussian_data(SPEC)
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 1.0, 0.125)
    xi = SPEC.freq_axis(0)[3]
    table = packets.wpt_grid(f, pk, (np.array([0.5]),), (np.array([xi]),))
    assert table.values.shape == (1, 1)
    assert abs(table.values[0, 0] - packets.wpt(f, pk, ((0.5,), (xi,)))) <= 1e-12


def test_wpt_grid_rejects_off_lattice_frequency():
    f = grid.gaussian_data(SPEC)
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 1.0, 0.125)
    with pytest.raises(errors.NyquistError):
        packets.wpt_grid(f, pk, None, (np.array([0.123456]),))


def test_wpt_grid_oracle_agreement():
    f = grid.gaussian_data(SPEC)
    win = GaussianWindow(1)
    xs = np.linspace(-1.5, 1.5, 8)
    xis = SPEC.freq_axis(0)[[1, 2, 3, 250, 251, 253, 254, 255]]
    table = packets.wpt_grid(f, win, (xs,), (xis,))
    worst = 0.0
    for i, x in enumerate(xs):
        for j, xi in enumerate(xis):
            oracle = packets.gaussian_wpt_oracle(GaussianSignal(), win, ((x,), (xi,)))
            worst = max(worst, abs(table.values[i, j] - oracle))
    assert worst <= 1e-8


def test_parseval_mass_identity():
    f = grid.gaussian_data(SPEC, width=1.2, momentum=0.7)
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 1.0, 0.125)
    table = packets.wpt_grid(f, pk)
    dxi = np.pi / SPEC.halfwidths[0]
    mass = np.sum(np.abs(table.values) ** 2) * SPEC.cell_volume * dxi / (2 * np.pi)
    target = pk.l2_norm() ** 2 * f.l2_norm() ** 2
    assert abs(mass - target) / target <= 0.01


# ---------------------------------------------------------------------------
# inversion


def test_inverse_wpt_zero_table():
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 1.0, 0.125)
    table = packets.wpt_grid(grid.GridFunction(SPEC, np.zeros(256)), pk)
    out = packets.inverse_wpt(table, pk)
    assert np.all(out.values == 0)


def test_inverse_wpt_roundtrip_gaussian():
    f = grid.gaussian_data(SPEC)
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 1.0, 0.125)
    back = packets.inverse_wpt(packets.wpt_grid(f, pk), pk)
    err = np.sqrt(np.sum(np.abs(back.values - f.values) ** 2) * SPEC.cell_volume)
    assert err / f.l2_norm() <= 1e-6


def test_inverse_wpt_roundtrip_band_limited():
    rng = np.random.default_rng(0)
    coef = np.zeros(256, dtype=complex)
    coef[:64] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    coef[-64:] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    f = grid.GridFunction(SPEC, np.fft.ifft(coef))
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 1.0, 0.125)
    back = packets.inverse_wpt(packets.wpt_grid(f, pk), pk)
    err = np.sqrt(np.sum(np.abs(back.values - f.values) ** 2) * SPEC.cell_volume)
    assert err / f.l2_norm() <= 1e-4


def test_inverse_wpt_guards():
    f = grid.gaussian_data(SPEC)
    pk = packets.make_scaled_packet(SPEC, GaussianBase(1.0), 1.0, 0.125)
    full = packets.wpt_grid(f, pk)
    half_band = packets.WptTable(SPEC, full.x_axes,
                                 (SPEC.freq_axis(0)[:128],),
                                 full.values[:, :128])
    with pytest.raises(errors.UndersampledError):
        packets.inverse_wpt(half_band, pk)
    coarse = packets.WptTable(SPEC, (SPEC.axis(0)[::32],), full.xi_axes,
                              full.values[::32])
    with pytest.raises(errors.UndersampledError):
        packets.inverse_wpt(coarse, pk)


# ---------------------------------------------------------------------------
# closed forms


def test_oracle_delta_no_evolution():
    win = GaussianWindow(1, 1.0, 1.0, 0.125, 0.0)
    for x in (0.0, 0.5, 2.0):
        val = packets.gaussian_wpt_oracle(DeltaSignal(), win, ((x,), (1.0,)))
        assert abs(val) == pytest.approx(np.exp(-x ** 2 / 2), rel=1e-12)


def test_oracle_evolved_delta_magnitude():
    # |window(-t0)(0)| = lam^(-n b/2) |Lam|^(-n/2) with Lam = lam^(-2b) - i t0
    lam, b, t0 = 16.0, 0.125, 1.0
    win = GaussianWindow(1, 1.0, lam, b, -t0)
    val = abs(packets.gaussian_wpt_oracle(DeltaSignal(), win, ((0.0,), (1.0,))))
    Lam = lam ** (-2 * b) - 1j * t0
    assert val == pytest.approx(lam ** (-b / 2) * abs(Lam) ** (-0.5), rel=1e-12)


def test_envelope_shape_and_normalization():
    # the cross-plot envelope C_n lam^(-nb/2) |Lam|^(n/2) exp(-x^2/(2|Lam|))
    lam, b, t0 = 16.0, 0.125, 1.0
    Lam = lam ** (-2 * b) - 1j * t0
    c1 = (1 + t0 ** 2) ** (-0.5)
    want = c1 * lam ** (-b / 2) * abs(Lam) ** 0.5
    assert packets.fundamental_solution_envelope(lam, b, t0, 0.0, 1) == \
        pytest.approx(want, rel=1e-12)
    # normalized to the exact magnitude at lam = 1
    exact_at_one = abs(packets.gaussian_wpt_oracle(
        DeltaSignal(), GaussianWindow(1, 1.0, 1.0, b, -t0), ((0.0,), (1.0,))))
    assert packets.fundamental_solution_envelope(1.0, b, t0, 0.0, 1) == \
        pytest.approx(exact_at_one, rel=1e-12)


def test_oracle_agrees_with_quadrature_when_evolved():
    f = grid.gaussian_data(SPEC, width=0.8)
    win = GaussianWindow(1, 1.0, 4.0, 0.125, -0.5)
    for p in (((0.3,), (1.0,)), ((-1.0,), (2.5,)), ((0.0,), (0.0,))):
        quad = packets.wpt(f, win, p)
        oracle = packets.gaussian_wpt_oracle(GaussianSignal(width=0.8), win, p)
        assert abs(quad - oracle) <= 1e-8


def test_oracle_rejects_unsupported_signal():
    with pytest.raises(errors.InputError):
        packets.gaussian_wpt_oracle("not-a-signal", GaussianWindow(1), ((0.0,), (1.0,)))


# ---------------------------------------------------------------------------
# commutation under free evolution


COMM_SPEC = grid.GridSpec(1, 512, 20.0)
COMM_PACKET = packets.make_scaled_packet(COMM_SPEC, GaussianBase(1.0), 1.0, 0.125)


def test_commutator_zero_time():
    assert packets.commutator_check(COMM_PACKET, 0.0, (1,), (1,)) == 0.0


def test_commutator_position_weight():
    assert packets.commutator_check(COMM_PACKET, 1.0, (1,), (0,)) <= 1e-8


def test_commutator_pure_derivative():
    assert packets.commutator_check(COMM_PACKET, 0.5, (0,), (1,)) <= 1e-10


@pytest.mark.parametrize("alpha,beta", [((2,), (0,)), ((1,), (1,)), ((0,), (2,))])
def test_commutator_second_order(alpha, beta):
    assert packets.commutator_check(COMM_PACKET, 1.0, alpha, beta) <= 1e-8


def test_commutator_order_guard():
    with pytest.raises(errors.InputError):
        packets.commutator_check(COMM_PACKET, 1.0, (2,), (1,))


def test_packet_spec_validation():
    with pytest.raises(errors.InputError):
        packets.PacketSpec(GaussianBase(1.0), b=1.5)
    with pytest.raises(errors.InputError):
        packets.PacketSpec(GaussianBase(1.0), lam=0.5)
    with pytest.raises(errors.InputError):
        GaussianWindow(1, width=-1.0)
