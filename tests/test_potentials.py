import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import broadcast_reference as ref
from mswf import errors, potentials as pots


def central_difference_jacobian(model, t, x, h=1e-5):
    """Independent 2nd-order stencil used as the oracle for analytic Jacobians."""
    n = model.n
    J = np.empty((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        J[:, k] = (pots.eval_a(model, t, x + e) - pots.eval_a(model, t, x - e)) / (2 * h)
    return J


@st.composite
def point_batches(draw):
    """(..., n) float arrays, n in {1, 2}, contiguous or strided."""
    n = draw(st.sampled_from([1, 2]))
    batch = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1))
    # axis-major storage gives the strided views the flows pass in
    axis_major = draw(st.booleans())
    shape = (n, *batch) if axis_major else (*batch, n)
    x = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e150, 1e150)))
    return np.moveaxis(x, 0, -1) if axis_major else x


@settings(max_examples=60, deadline=None)
@given(point_batches())
@example(np.array([1e-8, 1e-8, 1.0]))  # (a + b) + c differs from a + (b + c)
def test_squared_norm_is_the_axis_sum_bit_for_bit(x):
    expected = np.sum(x * x, axis=-1)
    assert np.asarray(pots.squared_norm(x)).tobytes() == np.asarray(expected).tobytes()


def test_zero_family():
    model = pots.zero_model(2)
    x = np.array([1.0, -2.0])
    assert np.all(pots.eval_a(model, 0.3, x) == 0)
    assert np.all(pots.jacobian_a(model, 0.3, x) == 0)
    assert np.all(pots.magnetic_field(model, 0.3, x) == 0)


def test_soft_power_at_origin():
    model = pots.soft_power_model(2, 0.5)
    # <0> = 1, so every component equals the modulation value
    np.testing.assert_allclose(pots.eval_a(model, 0.0, np.zeros(2)), [1.0, 1.0])


def test_constant_field_gauge():
    model = pots.constant_field_model(1.0)
    np.testing.assert_allclose(pots.eval_a(model, 0.0, np.array([1.0, 0.0])),
                               [0.0, 0.5])
    J = pots.jacobian_a(model, 0.0, np.array([2.0, -3.0]))
    np.testing.assert_allclose(J, [[0.0, -0.5], [0.5, 0.0]])
    B = pots.magnetic_field(model, 0.0, np.array([7.0, 1.0]))
    np.testing.assert_allclose(B, [[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("model", [
    pots.soft_power_model(2, 0.5),
    pots.soft_power_model(2, 0.5, amplitude=(0.7, 1.3), modulation="sin"),
    pots.rotational_model(0.5, modulation="sin"),
    pots.constant_field_model(2.0),
])
def test_jacobian_matches_central_difference(model):
    for x in (np.array([1.0, 2.0]), np.array([-0.3, 0.1]), np.array([5.0, -4.0])):
        J = pots.jacobian_a(model, 0.7, x)
        J_fd = central_difference_jacobian(model, 0.7, x)
        assert np.max(np.abs(J - J_fd)) <= 1e-7


def test_jacobian_rows_are_component_gradients():
    # relative agreement with finite differences over |x| <= 100
    model = pots.soft_power_model(2, 0.5, amplitude=(1.0, 0.5))
    for r in (1.0, 10.0, 100.0):
        x = r * np.array([0.6, -0.8])
        J = pots.jacobian_a(model, 0.2, x)
        J_fd = central_difference_jacobian(model, 0.2, x, h=1e-5 * max(1.0, r))
        scale = max(np.max(np.abs(J)), 1e-12)
        assert np.max(np.abs(J - J_fd)) / scale <= 1e-6


@pytest.mark.parametrize("case", ref.cases(), ids=lambda c: "-".join(map(str, c)))
def test_values_and_jacobians_keep_the_broadcast_bits(case):
    # each component and entry over the whole batch, as the broadcasts give it
    model, t, x, _ = ref.draw(*case)
    for evaluate, reference in ((pots.eval_a, ref.eval_a), (pots.jacobian_a, ref.jacobian_a)):
        got, want = evaluate(model, t, x), reference(model, t, x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes(order="C") == want.tobytes(order="C")


def test_magnetic_field_antisymmetry():
    for model in (pots.rotational_model(0.5), pots.constant_field_model(1.5),
                  pots.soft_power_model(2, 0.3)):
        for x in (np.array([0.1, 0.2]), np.array([3.0, -1.0])):
            B = pots.magnetic_field(model, 0.4, x)
            assert np.max(np.abs(B + B.T)) == 0.0


def test_rotational_field_decays():
    model = pots.rotational_model(0.5, modulation="sin")
    t = 0.5
    b10 = np.abs(pots.magnetic_field(model, t, np.array([10.0, 0.0]))[0, 1])
    b100 = np.abs(pots.magnetic_field(model, t, np.array([100.0, 0.0]))[0, 1])
    expected = (pots.bracket(np.array([100.0, 0.0])) /
                pots.bracket(np.array([10.0, 0.0]))) ** (0.5 - 1.0)
    assert b100 / b10 == pytest.approx(expected, rel=0.25)


def test_divergence_closed_forms():
    x = np.array([0.7, -1.2])
    soft = pots.soft_power_model(2, 0.5, amplitude=(1.0, 2.0))
    h = 1e-6
    num = sum((pots.eval_a(soft, 0.0, x + h * e)[i] -
               pots.eval_a(soft, 0.0, x - h * e)[i]) / (2 * h)
              for i, e in enumerate(np.eye(2)))
    assert pots.divergence_a(soft, 0.0, x) == pytest.approx(num, abs=1e-8)
    assert pots.divergence_a(pots.rotational_model(0.5), 0.0, x) == 0.0
    assert pots.divergence_a(pots.constant_field_model(1.0), 0.0, x) == 0.0


def test_conforming_flags():
    assert pots.soft_power_model(1, 0.5).conforming
    assert pots.rotational_model(0.0).conforming
    assert not pots.constant_field_model(1.0).conforming
    with pytest.raises(errors.InputError):
        pots.soft_power_model(1, 1.0)  # rho < 1 required


def test_dimension_mismatch_rejected():
    with pytest.raises(errors.InputError):
        pots.eval_a(pots.zero_model(2), 0.0, np.zeros(3))
    for family in ("rotational", "constant-field"):
        with pytest.raises(errors.InputError, match="two-dimensional"):
            pots.VectorPotentialModel(family, 1)


@pytest.mark.parametrize("make", [lambda n: pots.soft_power_model(n, 0.5), pots.zero_model],
                         ids=["soft-power", "zero"])
def test_models_have_dimension_one_or_two(make):
    for n in (0, 3):
        with pytest.raises(errors.InputError, match=f"dimension must be 1 or 2, got {n}"):
            make(n)
    # an integral number is the integer, as in GridSpec; anything else names 'n'
    assert make(2.0).n == 2 and type(make(2.0).n) is int
    for bad in (1.5, "x", None):
        with pytest.raises(errors.InputError, match="'n'"):
            make(bad)


def test_time_factors_are_one_and_sin():
    assert sorted(pots.MODULATIONS) == ["one", "sin"]
    with pytest.raises(errors.InputError, match="modulation"):
        pots.soft_power_model(1, 0.5, modulation="cosbump")


@st.composite
def builtin_models(draw):
    """A model of any family under any modulation it takes."""
    family = draw(st.sampled_from(pots.FAMILIES))
    n = 2 if family in ("rotational", "constant-field") else draw(st.sampled_from([1, 2]))
    count = 1 if family == "rotational" else n
    modulations = ["one"] if family == "constant-field" else sorted(pots.MODULATIONS)
    return pots.VectorPotentialModel(
        family, n, rho=draw(st.floats(-3.0, 0.99)),
        amplitude=draw(st.lists(st.floats(-5.0, 5.0), min_size=count, max_size=count)),
        modulation=draw(st.sampled_from(modulations)),
        b0=draw(st.floats(-5.0, 5.0)))


@settings(max_examples=80, deadline=None)
@given(builtin_models(), st.integers(1, 4), st.integers(1, 5), st.data())
def test_per_group_times_equal_scalar_time_calls_bit_for_bit(model, groups, points, data):
    # the grouped flow evaluates its (G, K, n) points at times of shape (G, 1)
    t = data.draw(hnp.arrays(np.float64, (groups, 1), elements=st.floats(-10.0, 10.0)))
    x = data.draw(hnp.arrays(np.float64, (groups, points, model.n),
                             elements=st.floats(-1e3, 1e3)))
    for evaluate in (pots.eval_a, pots.jacobian_a, pots.divergence_a):
        got = evaluate(model, t, x)
        want = np.stack([evaluate(model, float(tg[0]), xg) for tg, xg in zip(t, x)])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family,n,modulation", [
    (family, n, modulation)
    for modulation in ("one", "sin")
    for family, n in (("zero", 2), ("soft-power", 1), ("soft-power", 2),
                      ("rotational", 2), ("constant-field", 2))
    if family != "constant-field" or modulation == "one"])
def test_time_array_equals_scalar_time_calls(family, n, modulation):
    # one time per group of points, as the grouped flow evaluates them
    model = pots.VectorPotentialModel(family, n, rho=0.4, amplitude=1.3,
                                      modulation=modulation)
    rng = np.random.default_rng(7)
    t = rng.uniform(-3.0, 3.0, (4, 1))
    x = rng.uniform(-5.0, 5.0, (4, 6, n))
    for evaluate in (pots.eval_a, pots.jacobian_a, pots.divergence_a):
        got = evaluate(model, t, x)
        want = np.stack([evaluate(model, float(tg[0]), xg) for tg, xg in zip(t, x)])
        assert got.shape == want.shape
        assert np.array_equal(got, want)
