import numpy as np
import pytest

from mswf import errors, grid


def test_gridspec_validation():
    spec = grid.GridSpec(2, (256, 128), (10.0, 5.0))
    assert spec.dx == (2 * 10.0 / 256, 2 * 5.0 / 128)
    assert spec.axis(0)[spec.origin_index[0]] == 0.0
    with pytest.raises(errors.InputError):
        grid.GridSpec(1, 100, 10.0)  # not a power of two
    with pytest.raises(errors.InputError):
        grid.GridSpec(1, 4, 10.0)  # too small
    with pytest.raises(errors.InputError):
        grid.GridSpec(1, 256, -1.0)
    for n in (3, 4):
        with pytest.raises(errors.InputError, match=f"dimension must be 1 or 2, got {n}"):
            grid.GridSpec(n, 64, 8.0)
    for points in (4096.5, "abc"):  # refused, not truncated
        with pytest.raises(errors.InputError, match="points"):
            grid.GridSpec(1, points, 10.0)
    assert grid.GridSpec(1, 256.0, 10.0).points == (256,)
    with pytest.raises(errors.InputError, match="'n'"):
        grid.GridSpec(1.5, 256, 10.0)
    assert grid.GridSpec(2.0, 16, 5.0).shape == (16, 16)
    for points, halfwidths, key in ((None, 5.0, "points"), (64, None, "halfwidths")):
        with pytest.raises(errors.InputError, match=key):  # no bare TypeError
            grid.GridSpec(1, points, halfwidths)


def test_gridfunction_shape_and_norm():
    spec = grid.GridSpec(1, 256, 10.0)
    f = grid.gaussian_data(spec)
    # continuum norm of exp(-x^2/2) is pi^(1/4)
    assert f.l2_norm() == pytest.approx(np.pi ** 0.25, rel=1e-12)
    with pytest.raises(errors.InputError):
        grid.GridFunction(spec, np.zeros(128))


def test_phase_point():
    x, xi = grid.phase_points((1.0, 2.0), (0, -1))
    assert x.dtype == xi.dtype == float and x.shape == xi.shape == (2,)
    assert xi.tolist() == [0.0, -1.0]
    # a number is a point of dimension 1; missing axes are leading ones
    assert grid.phase_points(0.5, 1.0, n=1)[0].shape == (1,)
    assert grid.phase_points((0.0, 1.0), (1.0, 0.0), 2, ndim=(2, 2))[1].shape == (1, 2)
    bad = [((1.0,), (1.0, 2.0), {}),                      # shapes differ
           ([(0.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)], {}),  # point counts differ
           ((1.0, 2.0), (0.0, 1.0), {"n": 3}),            # wrong n
           ([(1.0, 2.0)], [(0.0, 1.0)], {"ndim": (1, 1)}),  # a batch where one point is due
           ((np.nan,), (1.0,), {}),
           ((0.0,), (np.inf,), {}),
           (("x",), (1.0,), {}),
           ([(0.0,), (0.0, 1.0)], [(1.0,), (1.0, 0.0)], {})]  # ragged
    for x, xi, kwargs in bad:
        with pytest.raises(errors.InputError):
            grid.phase_points(x, xi, **kwargs)


def test_delta_spike_pairing():
    spec = grid.GridSpec(1, 256, 10.0)
    d = grid.delta_spike(spec)
    g = grid.gaussian_data(spec)
    # sum(delta * g) dx = g(0)
    paired = np.sum(d.values * g.values) * spec.cell_volume
    assert paired == pytest.approx(1.0, abs=1e-14)


def test_spectral_derivative():
    spec = grid.GridSpec(1, 256, 10.0)
    f = grid.gaussian_data(spec)
    df = grid.spectral_derivative(f, 0)
    x = spec.axis(0)
    assert np.max(np.abs(df.values - (-x) * f.values)) < 1e-11


def test_kinetic_is_unitary():
    spec = grid.GridSpec(1, 256, 10.0)
    f = grid.gaussian_data(spec)
    ev = grid.apply_kinetic(f, 0.7)
    assert abs(ev.l2_norm() - f.l2_norm()) < 1e-12


@pytest.mark.parametrize("spec", [
    grid.GridSpec(1, 256, 10.0), grid.GridSpec(2, 64, 5.0),
    grid.GridSpec(2, (64, 128), (3.0, 7.0))], ids=["1d", "2d-square", "2d-anisotropic"])
def test_boundary_mass_fraction(spec):
    width = [0.05 * L for L in spec.halfwidths]
    narrow = grid.gaussian_data(spec, width=width).values
    edge = grid.gaussian_data(spec, width=width, center=[0.95 * L for L in spec.halfwidths]).values
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    blown_up = narrow.copy()
    blown_up[(7,) * spec.n] = np.inf
    batch = np.stack([narrow, edge, noise, np.zeros_like(narrow), blown_up])
    frac = grid.boundary_mass_fraction(spec, batch)
    # the band as defined: nodes with |x_i| >= (1 - EDGE_MARGIN) L_i on some axis
    band = np.zeros(spec.shape, dtype=bool)
    for x, L in zip(spec.meshgrid(), spec.halfwidths):
        band |= np.abs(x) >= (1.0 - grid.EDGE_MARGIN) * L
    mass = np.abs(batch[:3]) ** 2
    np.testing.assert_allclose(frac[:3], [m[band].sum() / m.sum() for m in mass], rtol=1e-12)
    assert frac.shape == (5,)
    assert 0.0 < frac[0] < 1e-12  # a small fraction keeps its digits
    assert frac[1] > 0.5
    assert frac[3] == 0.0  # no mass, none of it at the edge
    assert np.isnan(frac[4])  # a non-finite field has no fraction


def test_builtin_data_rejects_unknown_name():
    with pytest.raises(errors.InputError):
        grid.builtin_data("chirp", grid.GridSpec(1, 64, 5.0))


@pytest.mark.parametrize("build, n, width", [
    (grid.gaussian_data, 1, -1.0), (grid.gaussian_data, 1, 0.0),
    (grid.gaussian_data, 2, (1.0, -1.0)), (grid.jump_data, 1, -1.0)],
    ids=["negative", "zero", "2d-one-axis", "jump"])
def test_gaussian_width_must_be_positive(build, n, width):
    # w and -w give the same exp(-y^2 / (2 w^2)), so a sign slip would pass unseen
    with pytest.raises(errors.InputError, match="'width' must be positive"):
        build(grid.GridSpec(n, 64, 5.0), width=width)


@pytest.mark.parametrize("axis", [1.0, 0.5, "1", None, 2, -1])
def test_jump_data_refuses_an_axis_that_is_not_a_grid_axis(axis):
    with pytest.raises(errors.InputError, match="jump axis"):
        grid.jump_data(grid.GridSpec(2, 16, 5.0), axis=axis)


def test_jump_data_takes_a_numpy_integer_axis():
    spec = grid.GridSpec(2, 16, 5.0)
    assert np.array_equal(grid.jump_data(spec, axis=np.int64(1)).values,
                          grid.jump_data(spec, axis=1).values)


def test_jump_data_mollified():
    spec = grid.GridSpec(1, 256, 10.0)
    hard = grid.jump_data(spec)
    soft = grid.jump_data(spec, steepness=0.25)
    x = spec.axis(0)
    i = np.argmin(np.abs(x - 3.0))
    envelope = np.exp(-x[i] ** 2 / 2.0)
    assert hard.values[i].real == pytest.approx(envelope, rel=1e-12)
    assert soft.values[i].real == pytest.approx(
        np.tanh(x[i] / 0.25) * envelope, rel=1e-9)
    assert hard.values[np.argmin(np.abs(x + 3.0))].real < 0
