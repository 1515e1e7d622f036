import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mswf import errors, grid, packets
from mswf.packets import DeltaSignal, GaussianSignal, GaussianWindow

SPEC = grid.GridSpec(1, 256, 20.0)
FINE = grid.GridSpec(1, 512, 10.0)


def test_theorem_scaling_exponent():
    assert packets.theorem_scaling_exponent(0.0) == 0.125
    assert packets.theorem_scaling_exponent(0.5) == 0.0625
    assert packets.theorem_scaling_exponent(-3.0) == 0.125


def test_scaled_packet_lambda_one_is_base():
    pk = GaussianWindow(1, 1.0, 1.0, 0.125).grid_function(SPEC)
    expected = np.exp(-SPEC.axis() ** 2 / 2.0)
    assert np.max(np.abs(pk.values - expected)) < 1e-14


def test_scaled_packet_norm_invariance():
    norms = [GaussianWindow(1, 1.0, lam, 0.125).grid_function(FINE).l2_norm()
             for lam in (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0)]
    assert max(abs(n - norms[0]) / norms[0] for n in norms) <= 1e-8


def test_scaled_packet_width_shrinks():
    # lam^b = 2 halves the width; lam^(nb/2) = 2^0.5 keeps the norm
    pk = GaussianWindow(1, 1.0, 256.0, 0.125).grid_function(FINE)
    expected = 2.0 ** 0.5 * np.exp(-(2.0 * FINE.axis()) ** 2 / 2.0)
    assert np.max(np.abs(pk.values - expected)) < 1e-14


@pytest.mark.parametrize("lam", [256.0, 4096.0, 2.0 ** 16])
def test_scaled_packet_keeps_its_norm_at_under_four_steps_per_width(lam):
    # the dilated width 1 / lam^b spans 3.2, 2.26 and 1.6 grid steps, and
    # the sampled window still carries the continuum norm
    window = GaussianWindow(1, 1.0, lam, 0.125)
    assert abs(window.grid_function(SPEC).l2_norm() - window.l2_norm()) <= 1e-10


def test_free_evolution_closed_form():
    g = grid.gaussian_data(SPEC)
    ev = packets.free_evolve_packet(g, 1.0)
    x = SPEC.axis()
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
    pk = GaussianWindow(1, 1.0, 1.0, 0.125)
    value = packets.wpt(f, pk, ((0.0,), (0.0,)))
    assert value == pytest.approx(np.sqrt(np.pi), abs=1e-10)


def test_wpt_closed_form_lattice():
    f = grid.gaussian_data(SPEC)
    pk = GaussianWindow(1, 1.0, 1.0, 0.125)
    for x in np.linspace(-2, 2, 8):
        for xi in np.linspace(-2, 2, 8):
            q = abs(packets.wpt(f, pk, ((x,), (xi,))))
            closed = np.sqrt(np.pi) * np.exp(-x ** 2 / 4 - xi ** 2 / 4)
            assert q == pytest.approx(closed, abs=1e-8)


def test_wpt_delta_pairing():
    # the spike reduces the quadrature to conj(window(-x))
    d = grid.delta_spike(SPEC)
    win = GaussianWindow(1, 1.0, 4.0, 0.125)
    for x in (0.0, 0.7, -1.3):
        got = packets.wpt(d, win, ((x,), (2.0,)))
        assert got == pytest.approx(complex(np.conj(win(np.array([-x])))), abs=1e-12)


def test_wpt_linearity():
    rng = np.random.default_rng(7)
    f = grid.GridFunction(SPEC, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    g = grid.GridFunction(SPEC, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    pk = GaussianWindow(1, 1.0, 2.0, 0.125)
    a, b = 1.7 - 0.3j, -0.4 + 2.2j
    combo = grid.GridFunction(SPEC, a * f.values + b * g.values)
    p = ((0.5,), (1.0,))
    lhs = packets.wpt(combo, pk, p)
    rhs = a * packets.wpt(f, pk, p) + b * packets.wpt(g, pk, p)
    assert abs(lhs - rhs) / abs(lhs) <= 1e-12


def test_wpt_translation_covariance():
    f = grid.gaussian_data(SPEC, width=1.3)
    pk = GaussianWindow(1, 1.0, 1.0, 0.125)
    h, xi = 1.5, 0.8
    shifted = grid.gaussian_data(SPEC, width=1.3, center=h)
    lhs = packets.wpt(shifted, pk, ((2.0,), (xi,)))
    rhs = np.exp(-1j * h * xi) * packets.wpt(f, pk, ((2.0 - h,), (xi,)))
    assert abs(lhs - rhs) <= 1e-10


def test_wpt_nyquist_guard():
    f = grid.gaussian_data(SPEC)
    pk = GaussianWindow(1, 1.0, 1.0, 0.125)
    with pytest.raises(errors.NyquistError):
        packets.wpt(f, pk, ((0.0,), (100.0,)))


def test_wpt_window_centers_anywhere():
    f = grid.gaussian_data(SPEC)
    win = GaussianWindow(1)
    packets.wpt(f, win, ((50.0,), (0.0,)))  # analytic windows go anywhere


def test_transforms_take_only_a_gaussian_window():
    f = grid.gaussian_data(SPEC)
    sample = GaussianWindow(1, 1.0, 1.0, 0.125).grid_function(SPEC)
    with pytest.raises(errors.InputError):
        packets.wpt(f, sample, ((0.0,), (0.0,)))
    with pytest.raises(errors.InputError):
        packets.wpt_grid(f, sample)
    table = packets.wpt_grid(f, GaussianWindow(1))
    with pytest.raises(errors.InputError):
        packets.inverse_wpt(SPEC, table, sample)
    with pytest.raises(errors.InputError):
        packets.inverse_wpt(SPEC, table, GaussianWindow(2))


# one grid per dimension, fine enough that a unit Gaussian product is
# resolved and decays to round-off before the box edge
PAIR_GRIDS = {1: grid.GridSpec(1, 256, 8.0), 2: grid.GridSpec(2, 128, 8.0)}


@st.composite
def pairing_cases(draw):
    n = draw(st.sampled_from((1, 2)))
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
                y = spec.axis()
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
    XI[s, i] = rng.choice((-1.0, 1.0)) * 1.01 * np.pi / spec.dx
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


@pytest.mark.parametrize("X, XI", [([[np.nan]], [[1.0]]), ([[0.0]], [[np.nan]]),
                                   ([[np.inf]], [[1.0]])], ids=["x-nan", "xi-nan", "x-inf"])
def test_pair_many_rejects_non_finite_points(X, XI):
    # unchecked, a nan x pairs to nan+nanj and a nan xi fails the Nyquist guard
    g = grid.gaussian_data(SPEC)
    with pytest.raises(errors.InputError, match="finite"):
        packets.pair_many(SPEC, [g.values], GaussianWindow(1), X, XI)


# small grids for the pairing over a field's nonzero box
BOX_GRIDS = {1: grid.GridSpec(1, 64, 4.0), 2: grid.GridSpec(2, 32, 4.0)}


def _full_grid_pairing(spec, values, window, X, XI):
    """The kernel's contraction written over the whole grid: the same
    per-axis vectors, tensordot over the first axis, einsum over each later
    one.  Also returns the Cauchy-Schwarz bound |window| |field| of each
    (point, field)."""
    half_betabar = -0.5 * np.conj(window.beta)
    vecs = []
    for i in range(spec.n):
        y = spec.axis()
        d2 = (y - X[:, i, None]) ** 2
        vec = np.empty(d2.shape, dtype=complex)
        vec.real = d2 * half_betabar.real
        vec.imag = d2 * half_betabar.imag - XI[:, i, None] * y
        vecs.append(np.exp(vec))
    out = np.empty((len(X), len(values)), dtype=complex)
    for j, g in enumerate(values):
        g = np.tensordot(vecs[0], g, axes=(1, 0))
        for vec in vecs[1:]:
            g = np.einsum("sk,sk...->s...", vec, g)
        out[:, j] = g
    scale = abs(window.amplitude) * spec.cell_volume
    window_norms = np.prod([np.linalg.norm(v, axis=1) for v in vecs], axis=0)
    field_norms = np.array([np.linalg.norm(g) for g in values])
    return (np.conj(window.amplitude) * spec.cell_volume * out,
            scale * window_norms[:, None] * field_norms[None, :])


def _box_points(spec, S, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, (S, spec.n)), rng.uniform(-3.0, 3.0, (S, spec.n))


@pytest.mark.parametrize("spec", [grid.GridSpec(1, 4096, 20.0), grid.GridSpec(2, 256, 5.0)],
                         ids=["1d", "2d"])
def test_pair_many_point_mass_closed_form(spec):
    # one node y0 of height 1/dV: conj(amp) dV (1/dV) exp(-conj(beta) |y0 - x|^2 / 2 - i y0.xi)
    X, XI = _box_points(spec, 45, 3)
    y0 = spec.axis()[list(spec.origin_index)]
    window = GaussianWindow(spec.n, 0.5, 16.0, 0.125, -1.0)
    got = packets.pair_many(spec, [grid.delta_spike(spec).values], window, X, XI)[:, 0]
    closed = (np.conj(window.amplitude) * spec.cell_volume * (1.0 / spec.cell_volume)
              * np.exp(-0.5 * np.conj(window.beta) * np.sum((y0 - X) ** 2, axis=1)
                       - 1j * XI @ y0))
    assert np.max(np.abs(got - closed) / np.abs(closed)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2])
def test_pair_many_box_keeps_the_full_grid_bits(n):
    # a point mass pairs over its one node, a dense field over the full
    # grid; both give the full-grid contraction's bits
    spec = BOX_GRIDS[n]
    X, XI = _box_points(spec, 7, 4)
    window = GaussianWindow(n, 1.0, 4.0, 0.125, 0.5)
    fields = [grid.delta_spike(spec).values, grid.gaussian_data(spec, momentum=(1.0,) * n).values]
    want, _ = _full_grid_pairing(spec, fields, window, X, XI)
    assert np.array_equal(packets.pair_many(spec, fields, window, X, XI), want)


@st.composite
def sparse_fields(draw, spec):
    """A field that is zero outside a box: one node, a box inside the grid,
    a box that touches the grid's edges, or no nonzero node at all."""
    kind = draw(st.sampled_from(("one", "box", "edge", "zero")))
    values = np.zeros(spec.shape, dtype=complex)
    if kind == "zero":
        return values
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    box = []
    for m in spec.shape:
        if kind == "one":
            lo = draw(st.integers(0, m - 1))
            hi = lo + 1
        else:
            lo, hi = sorted(draw(st.lists(st.integers(0, m), min_size=2, max_size=2,
                                          unique=True)))
            if kind == "edge":
                lo, hi = draw(st.sampled_from(((0, hi), (lo, m), (0, m))))
        box.append(slice(lo, hi))
    shape = values[tuple(box)].shape
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values[tuple(box)] = block * (rng.random(shape) < 0.6)
    return values


@st.composite
def sparse_batches(draw):
    spec = BOX_GRIDS[draw(st.sampled_from((1, 2)))]
    fields = draw(st.lists(sparse_fields(spec), min_size=1, max_size=3))
    window = GaussianWindow(spec.n, lam=draw(st.floats(1.0, 20.0)),
                            t=draw(st.floats(-1.0, 1.0)))
    return spec, fields, window, draw(st.integers(1, 5)), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(sparse_batches())
def test_pair_many_sparse_fields_match_the_full_grid(case):
    spec, fields, window, S, seed = case
    X, XI = _box_points(spec, S, seed)
    got = packets.pair_many(spec, fields, window, X, XI)
    want, bound = _full_grid_pairing(spec, fields, window, X, XI)
    assert np.all(np.abs(got - want) <= 1e-13 * bound)


def test_pair_many_sparse_field_same_bits_alone_and_in_a_batch():
    spec = BOX_GRIDS[2]
    X, XI = _box_points(spec, 9, 5)
    window = GaussianWindow(2, 1.0, 8.0, 0.125, -0.5)
    rng = np.random.default_rng(6)
    sparse = np.zeros(spec.shape, dtype=complex)
    sparse[5:9, 20:22] = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    other = np.zeros(spec.shape, dtype=complex)
    other[12, 3] = 2.0
    dense = grid.gaussian_data(spec, momentum=(1.0, -0.5)).values
    alone = packets.pair_many(spec, [sparse], window, X, XI)[:, 0]
    for batch, j in (([dense, sparse], 1), ([sparse, other], 0), ([other, dense, sparse], 2)):
        assert np.array_equal(packets.pair_many(spec, batch, window, X, XI)[:, j], alone)


def _per_row_pairing(spec, values, window, X, XI):
    """The kernel with its frequency phase subtracted one sample row at a
    time; otherwise the same boxes, vectors and contraction."""
    if len(X) == 1:
        return _per_row_pairing(spec, values, window, np.repeat(X, 2, axis=0),
                                np.repeat(XI, 2, axis=0))[:1]
    boxes = [packets._nonzero_box(g) for g in values]
    live = [box for box in boxes if box is not None]
    union = [slice(min(box[i].start for box in live), max(box[i].stop for box in live))
             for i in range(spec.n)]
    half_betabar = -0.5 * np.conj(window.beta)
    vecs = []
    for i, cols in enumerate(union):
        y = spec.axis()[cols]
        vec = np.empty((len(X), len(y)), dtype=complex)
        np.subtract(y, X[:, i, None], out=vec.real)
        np.square(vec.real, out=vec.real)
        np.multiply(vec.real, half_betabar.imag, out=vec.imag)
        vec.real *= half_betabar.real
        for row, xi in zip(vec.imag, XI[:, i]):
            row -= xi * y
        vecs.append(np.exp(vec))
    out = np.zeros((len(X), len(values)), dtype=complex)
    for j, (g, box) in enumerate(zip(values, boxes)):
        own = [vec[:, b.start - u.start:b.stop - u.start] for vec, b, u in zip(vecs, box, union)]
        g = g[box]
        g = np.einsum("sk,k...->s...", own[0], g) if len(g) == 1 \
            else np.tensordot(own[0], g, axes=(1, 0))
        for vec in own[1:]:
            g = np.einsum("sk,sk...->s...", vec, g)
        out[:, j] = g
    return np.conj(window.amplitude) * spec.cell_volume * out


@pytest.mark.parametrize("S", [1, 45])
@pytest.mark.parametrize("spec", [grid.GridSpec(1, 4096, 20.0), grid.GridSpec(2, 256, 5.0)],
                         ids=["1d", "2d"])
def test_pair_many_keeps_the_per_row_phase_bits(spec, S):
    # a point mass, a Gaussian and a sparse field, alone and in one batch
    X, XI = _box_points(spec, S, 8)
    window = GaussianWindow(spec.n, 0.5, 16.0, 0.125, -1.0)
    sparse = np.zeros(spec.shape, dtype=complex)
    sparse[(slice(100, 140),) * spec.n] = 1.5 - 0.5j
    fields = [grid.delta_spike(spec).values,
              grid.gaussian_data(spec, width=0.7, momentum=(1.0,) * spec.n).values, sparse]
    for batch in ([g] for g in fields):
        np.testing.assert_array_equal(packets.pair_many(spec, batch, window, X, XI),
                                      _per_row_pairing(spec, batch, window, X, XI))
    np.testing.assert_array_equal(packets.pair_many(spec, fields, window, X, XI),
                                  _per_row_pairing(spec, fields, window, X, XI))


def test_wpt_grid_reduces_to_pointwise():
    f = grid.gaussian_data(SPEC, width=1.1, momentum=0.4)
    pk = GaussianWindow(1, 1.0, 2.0, 0.125)
    table = packets.wpt_grid(f, pk)
    for i in range(100, 103):
        for j in range(4, 7):
            p = ((SPEC.axis()[i],), (SPEC.freq_axis()[j],))
            assert abs(table[i, j] - packets.wpt(f, pk, p)) <= 1e-10


def test_wpt_grid_single_point():
    """The table holds every grid position against every FFT frequency."""
    f = grid.gaussian_data(SPEC)
    pk = GaussianWindow(1, 1.0, 1.0, 0.125)
    table = packets.wpt_grid(f, pk)
    assert table.shape == (256, 256)
    i = SPEC.origin_index[0] + 3
    p = ((SPEC.axis()[i],), (SPEC.freq_axis()[3],))
    assert abs(table[i, 3] - packets.wpt(f, pk, p)) <= 1e-12


def test_wpt_grid_oracle_agreement():
    f = grid.gaussian_data(SPEC)
    win = GaussianWindow(1)
    rows = SPEC.origin_index[0] + np.arange(-9, 10, 3)
    cols = [1, 2, 3, 250, 251, 253, 254, 255]
    table = packets.wpt_grid(f, win)
    worst = 0.0
    for i in rows:
        for j in cols:
            p = ((SPEC.axis()[i],), (SPEC.freq_axis()[j],))
            oracle = packets.gaussian_wpt_oracle(GaussianSignal(), win, p)
            worst = max(worst, abs(table[i, j] - oracle))
    assert worst <= 1e-8


def test_parseval_mass_identity():
    f = grid.gaussian_data(SPEC, width=1.2, momentum=0.7)
    pk = GaussianWindow(1, 1.0, 1.0, 0.125)
    table = packets.wpt_grid(f, pk)
    dxi = np.pi / SPEC.halfwidth
    mass = np.sum(np.abs(table) ** 2) * SPEC.cell_volume * dxi / (2 * np.pi)
    target = pk.l2_norm() ** 2 * f.l2_norm() ** 2
    assert abs(mass - target) / target <= 0.01


# ---------------------------------------------------------------------------
# inversion


def test_inverse_wpt_zero_table():
    pk = GaussianWindow(1, 1.0, 1.0, 0.125)
    table = packets.wpt_grid(grid.GridFunction(SPEC, np.zeros(256)), pk)
    out = packets.inverse_wpt(SPEC, table, pk)
    assert np.all(out.values == 0)


def test_inverse_wpt_roundtrip_gaussian():
    f = grid.gaussian_data(SPEC)
    pk = GaussianWindow(1, 1.0, 1.0, 0.125)
    back = packets.inverse_wpt(SPEC, packets.wpt_grid(f, pk), pk)
    err = np.sqrt(np.sum(np.abs(back.values - f.values) ** 2) * SPEC.cell_volume)
    assert err / f.l2_norm() <= 1e-12


def test_inverse_wpt_roundtrip_band_limited():
    rng = np.random.default_rng(0)
    coef = np.zeros(256, dtype=complex)
    coef[:64] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    coef[-64:] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    f = grid.GridFunction(SPEC, np.fft.ifft(coef))
    pk = GaussianWindow(1, 1.0, 1.0, 0.125)
    back = packets.inverse_wpt(SPEC, packets.wpt_grid(f, pk), pk)
    err = np.sqrt(np.sum(np.abs(back.values - f.values) ** 2) * SPEC.cell_volume)
    assert err / f.l2_norm() <= 1e-12


def test_inverse_wpt_roundtrip_2d():
    # every lattice position samples the window at its nearest image on
    # each axis, so the full-lattice round trip is an identity near the
    # edges of the box as well
    spec = grid.GridSpec(2, 32, 4.0)
    f = grid.gaussian_data(spec)
    pk = GaussianWindow(2, 1.0, 1.0, 0.125)
    back = packets.inverse_wpt(spec, packets.wpt_grid(f, pk), pk)
    err = np.sqrt(np.sum(np.abs(back.values - f.values) ** 2) * spec.cell_volume)
    assert err / f.l2_norm() <= 1e-12


def test_inverse_wpt_refuses_a_table_of_another_shape():
    f = grid.gaussian_data(SPEC)
    pk = GaussianWindow(1, 1.0, 1.0, 0.125)
    full = packets.wpt_grid(f, pk)
    with pytest.raises(errors.InputError):
        packets.inverse_wpt(SPEC, full[:, :128], pk)
    with pytest.raises(errors.InputError):
        packets.inverse_wpt(grid.GridSpec(2, 16, 20.0), full, GaussianWindow(2))


def test_inverse_wpt_roundtrip_narrow_window():
    """A window far narrower than the grid step still inverts exactly:
    its samples about every node are grid shifts of one sample."""
    spec = grid.GridSpec(1, 256, 10.0)
    f = grid.gaussian_data(spec)
    pk = GaussianWindow(1, 0.2, 4096.0, 0.5)
    assert np.sqrt(2.0 / pk.beta.real) < spec.dx / 16
    back = packets.inverse_wpt(spec, packets.wpt_grid(f, pk), pk)
    err = np.sqrt(np.sum(np.abs(back.values - f.values) ** 2) * spec.cell_volume)
    assert err / f.l2_norm() <= 1e-12


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


def test_oracle_agrees_with_quadrature_when_evolved():
    f = grid.gaussian_data(SPEC, width=0.8)
    win = GaussianWindow(1, 1.0, 4.0, 0.125, -0.5)
    for p in (((0.3,), (1.0,)), ((-1.0,), (2.5,)), ((0.0,), (0.0,))):
        quad = packets.wpt(f, win, p)
        oracle = packets.gaussian_wpt_oracle(GaussianSignal(width=0.8), win, p)
        assert abs(quad - oracle) <= 1e-8


@pytest.mark.parametrize("signal", [
    "not-a-signal",
    GaussianSignal(center=(0.5, 0.0, 9.0)),  # was cut to (0.5, 0.0)
    GaussianSignal(center=(0.5,)),  # was stretched to (0.5, 0.5)
    GaussianSignal(momentum=(1.0, 2.0, 3.0)),
    DeltaSignal(center=(0.5,)),
    DeltaSignal(center=(0.5, 0.0, 9.0)),
    DeltaSignal(center=(0.5, np.nan)),
], ids=["not-a-signal", "gaussian-center-3", "gaussian-center-1", "gaussian-momentum-3",
        "delta-center-1", "delta-center-3", "delta-center-nan"])
def test_oracle_rejects_unsupported_signal(signal):
    with pytest.raises(errors.InputError):
        packets.gaussian_wpt_oracle(signal, GaussianWindow(2), ((0.0, 0.0), (1.0, 0.0)))


@pytest.mark.parametrize("n", [1, 2])
def test_oracle_default_center_and_momentum_are_the_origin(n):
    win, p = GaussianWindow(n), ((0.3,) * n, (1.0,) * n)
    zero = (0.0,) * n
    assert packets.gaussian_wpt_oracle(GaussianSignal(), win, p) \
        == packets.gaussian_wpt_oracle(GaussianSignal(center=zero, momentum=zero), win, p)
    assert packets.gaussian_wpt_oracle(DeltaSignal(), win, p) \
        == packets.gaussian_wpt_oracle(DeltaSignal(center=zero), win, p)


# ---------------------------------------------------------------------------
# commutation under free evolution


COMM_SPEC = grid.GridSpec(1, 512, 20.0)
COMM_PACKET = GaussianWindow(1, 1.0, 1.0, 0.125).grid_function(COMM_SPEC)


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
    for alpha, beta in (((1, 0), (0,)), ((0,), (0, 1))):
        with pytest.raises(errors.InputError, match="multi-index length"):
            packets.commutator_check(COMM_PACKET, 1.0, alpha, beta)


def test_packet_spec_validation():
    with pytest.raises(errors.InputError):
        GaussianWindow(1, 1.0, 1.0, 1.5)
    with pytest.raises(errors.InputError):
        GaussianWindow(1, 1.0, 0.5, 0.125)
    with pytest.raises(errors.InputError):
        GaussianWindow(1, width=-1.0)
    for key in ("width", "lam", "t"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(errors.InputError, match=key):
                GaussianWindow(1, **{key: value})
