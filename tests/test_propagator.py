import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage, sparse
from scipy.special import hyp2f1

from mswf import errors, grid, packets, potentials as pots, propagator as prop
from mswf.packets import GaussianWindow

from spectral_reference import reference_evolve

SPEC = grid.GridSpec(1, 512, 20.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_evolve_rejects_non_finite_times_and_step(value):
    u0 = grid.gaussian_data(SPEC)
    model, cfg = pots.zero_model(1), prop.EvolveConfig(dt=1e-2)
    with pytest.raises(errors.InputError):
        prop.EvolveConfig(dt=value)
    for t0, t1 in ((0.0, value), (value, 0.1)):
        with pytest.raises(errors.InputError):
            prop.evolve(model, None, u0, t0, t1, cfg)


@pytest.mark.parametrize("dt", [0.0, -1e-3])
def test_evolve_config_refuses_a_step_that_is_not_positive(dt):
    with pytest.raises(errors.InputError, match="'dt' must be a finite number > 0"):
        prop.EvolveConfig(dt=dt)


def test_evolve_refuses_a_model_of_another_dimension():
    with pytest.raises(errors.InputError, match="model dimension"):
        prop.evolve(pots.zero_model(2), None, grid.gaussian_data(SPEC), 0.0, 0.1,
                    prop.EvolveConfig(dt=1e-2))


@pytest.mark.parametrize("model", [pots.zero_model(1), pots.soft_power_model(1, 0.5)],
                         ids=["free", "transport"])
def test_evolve_refuses_a_step_count_that_is_not_finite(model, monkeypatch):
    # (t1 - t0) / dt overflows to inf: refused before the first step
    calls = []
    monkeypatch.setattr(prop, "boundary_mass_fraction", lambda *args: calls.append("guard"))
    with pytest.raises(errors.InputError, match="finite step count"):
        prop.evolve(model, None, grid.gaussian_data(SPEC), 0.0, 1e308,
                    prop.EvolveConfig(dt=1e-3))
    assert calls == []


@pytest.mark.parametrize("model", [pots.zero_model(1), pots.soft_power_model(1, 0.5)],
                         ids=["free", "transport"])
def test_evolve_refuses_a_finite_step_count_above_the_limit(model, monkeypatch):
    # 1e300 / 1e-3 is finite, but the guard's midpoint array cannot hold it
    # and the free loop would not end: refused before the first step
    calls = []
    monkeypatch.setattr(prop, "boundary_mass_fraction", lambda *args: calls.append("guard"))
    with pytest.raises(errors.InputError, match="steps, more than"):
        prop.evolve(model, None, grid.gaussian_data(SPEC), 0.0, 1e300,
                    prop.EvolveConfig(dt=1e-3))
    assert calls == []


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "backward"])
def test_step_count_limit_is_inclusive_in_either_direction(sign):
    cfg = prop.EvolveConfig(dt=1.0)
    assert prop._step_count(0.0, sign * prop._MAX_STEPS, cfg) == prop._MAX_STEPS
    with pytest.raises(errors.InputError, match="steps, more than"):
        prop._step_count(0.0, sign * (prop._MAX_STEPS + 1), cfg)


def test_scalar_potential_families():
    x = np.array([[1.0], [3.0]])
    V = prop.ScalarPotentialModel("soft-power", mu=1.0, amplitude=0.3)
    np.testing.assert_allclose(V(x), 0.3 * np.sqrt(1 + x[:, 0] ** 2))
    with pytest.raises(errors.InputError):
        prop.ScalarPotentialModel("soft-power", mu=2.0)


def test_free_gaussian_closed_form():
    u0 = grid.gaussian_data(SPEC)
    u1 = prop.evolve(pots.zero_model(1), None, u0, 0.0, 1.0,
                     prop.EvolveConfig(dt=1e-3))
    x = SPEC.axis()
    exact = (1 + 1j) ** (-0.5) * np.exp(-x ** 2 / (2 * (1 + 1j)))
    assert np.max(np.abs(u1.values - exact)) <= 1e-6


def test_free_evolution_equals_packet_evolution():
    u0 = grid.gaussian_data(SPEC, width=1.3, momentum=0.5)
    via_solver = prop.evolve(pots.zero_model(1), None, u0, 0.0, 0.7,
                             prop.EvolveConfig(dt=1e-2))
    via_packets = packets.free_evolve_packet(u0, 0.7)
    assert np.max(np.abs(via_solver.values - via_packets.values)) <= 1e-10


def test_uniform_potential_gauge_identity():
    # a = const c: u(t) = exp(icx) * free_evolve(exp(-icy) u0)
    c = 0.8
    model = pots.soft_power_model(1, 0.0, amplitude=c)  # <x>^0 = 1 exactly
    u0 = grid.gaussian_data(SPEC)
    t = 0.5
    u1 = prop.evolve(model, None, u0, 0.0, t, prop.EvolveConfig(dt=1e-3))
    x = SPEC.axis()
    w0 = grid.GridFunction(SPEC, u0.values * np.exp(-1j * c * x))
    exact = np.exp(1j * c * x) * packets.free_evolve_packet(w0, t).values
    assert np.max(np.abs(u1.values - exact)) <= 1e-6


def gauge_solution(u0, A0, t):
    """exp(i A0) exp(i t Lap / 2) (exp(-i A0) u0), the exact solution for a
    = grad A0 with no time factor and no scalar term.  The free multiplier
    is applied directly: packets.free_evolve_packet's aliasing guard is
    meant for wave packets and refuses the 2-d case."""
    gauge = np.exp(1j * A0)
    return gauge * grid.apply_kinetic(u0.with_values(u0.values / gauge), t).values


def test_gauge_solution_1d_soft_power():
    # in 1-d every potential is a gradient: A0 = int_0^x <s>^rho ds
    spec = grid.GridSpec(1, 1024, 20.0)
    rho, t = 0.5, 0.5
    model = pots.soft_power_model(1, rho, amplitude=1.0)
    x = spec.axis()
    A0 = x * hyp2f1(-0.5 * rho, 0.5, 1.5, -x * x)
    u0 = grid.gaussian_data(spec)
    u1 = prop.evolve(model, None, u0, 0.0, t, prop.EvolveConfig(dt=5e-3))
    assert np.max(np.abs(u1.values - gauge_solution(u0, A0, t))) <= 1e-5


def test_gauge_solution_2d_radial(monkeypatch):
    # a = c <x>^(rho - 1) x = grad A0 with A0 = c <x>^(rho + 1) / (rho + 1),
    # put in place of a static soft-power model's a and div a
    spec = grid.GridSpec(2, 128, 5.0)
    c, rho, t = 0.7, 0.5, 0.5
    model = pots.soft_power_model(2, rho, amplitude=c)

    def eval_a(m, t, x):
        return c * pots.bracket(x)[..., None] ** (rho - 1.0) * x

    def divergence_a(m, t, x):
        b = pots.bracket(x)
        return c * (2.0 * b ** (rho - 1.0) + (rho - 1.0) * b ** (rho - 3.0) * pots.squared_norm(x))

    monkeypatch.setattr(prop, "eval_a", eval_a)
    monkeypatch.setattr(prop, "divergence_a", divergence_a)
    A0 = c * pots.bracket(np.stack(spec.meshgrid(), axis=-1)) ** (rho + 1.0) / (rho + 1.0)
    u0 = grid.gaussian_data(spec, width=0.7)
    u1 = prop.evolve(model, None, u0, 0.0, t, prop.EvolveConfig(dt=1e-2))
    assert np.max(np.abs(u1.values - gauge_solution(u0, A0, t))) <= 5e-5


L2_CASES = [
    ("zero", pots.zero_model(1), SPEC, 1e-3),
    ("soft-power", pots.soft_power_model(1, 0.5), SPEC, 5e-3),
    ("rotational", pots.rotational_model(0.5), grid.GridSpec(2, 256, 6.0), 1e-2),
    ("constant-field", pots.constant_field_model(1.0), grid.GridSpec(2, 256, 6.0), 1e-2),
]


@pytest.mark.parametrize("name,model,spec,dt", L2_CASES, ids=[c[0] for c in L2_CASES])
def test_l2_conservation(name, model, spec, dt):
    u0 = grid.gaussian_data(spec)
    u1 = prop.evolve(model, None, u0, 0.0, 1.0, prop.EvolveConfig(dt=dt))
    assert abs(u1.l2_norm() - u0.l2_norm()) / u0.l2_norm() <= 1e-6


@st.composite
def split_step_cases(draw):
    family = draw(st.sampled_from(("zero", "soft-power", "rotational")))
    n = 2 if family == "rotational" else draw(st.sampled_from((1, 2)))
    model = pots.VectorPotentialModel(
        family, n, rho=draw(st.floats(0.0, 0.75)),
        modulation=draw(st.sampled_from(("one", "sin"))))
    spec = SPEC if n == 1 else grid.GridSpec(2, 128, 6.0)
    return model, spec, draw(st.sampled_from((1e-2, 5e-3)))


@settings(max_examples=25, deadline=None)
@given(split_step_cases())
def test_split_step_unitarity_property(case):
    model, spec, dt = case
    u0 = grid.gaussian_data(spec)
    u1 = prop.evolve(model, None, u0, 0.0, 0.5, prop.EvolveConfig(dt=dt))
    assert abs(u1.l2_norm() - u0.l2_norm()) / u0.l2_norm() <= 1e-5


def test_l2_conservation_with_scalar():
    u0 = grid.gaussian_data(SPEC)
    V = prop.ScalarPotentialModel("soft-power", mu=1.0, amplitude=0.3)
    u1 = prop.evolve(pots.zero_model(1), V, u0, 0.0, 1.0, prop.EvolveConfig(dt=1e-3))
    assert abs(u1.l2_norm() - u0.l2_norm()) / u0.l2_norm() <= 1e-6


def test_free_steps_share_one_scalar_phase(monkeypatch):
    """V has no time factor, so a free evolve evaluates it once, before the
    first step, however many steps it takes."""
    calls = []
    call = prop.ScalarPotentialModel.__call__
    monkeypatch.setattr(prop.ScalarPotentialModel, "__call__",
                        lambda self, x: calls.append(x.shape) or call(self, x))
    V = prop.ScalarPotentialModel("soft-power", mu=1.0, amplitude=0.3)
    prop.evolve(pots.zero_model(1), V, grid.gaussian_data(SPEC), 0.0, 0.5,
                prop.EvolveConfig(dt=0.125))
    assert calls == [SPEC.shape + (1,)]


def test_order_two_selfconvergence():
    spec = grid.GridSpec(1, 1024, 20.0)
    u0 = grid.gaussian_data(spec)
    model = pots.soft_power_model(1, 0.5, amplitude=1.0)
    T = 0.5

    def run(dt):
        return prop.evolve(model, None, u0, 0.0, T, prop.EvolveConfig(dt=dt))

    ref = run(T / 128)  # dt/8 reference
    e1 = np.max(np.abs(run(T / 16).values - ref.values))
    e2 = np.max(np.abs(run(T / 32).values - ref.values))
    assert 3.0 <= e1 / e2 <= 5.5


SOFT_SIN = pots.soft_power_model(1, 0.5, amplitude=0.5, modulation="sin")
SPEC_128 = grid.GridSpec(1, 128, 12.0)
SPEC_64_2D = grid.GridSpec(2, 64, 6.0)
REFERENCE_CASES = {
    # model, scalar term, datum, t, dt, bound on the gap relative to the peak
    "1d-sin": (SOFT_SIN, None, grid.gaussian_data(SPEC_128), 0.4, 1e-3, 1e-4),
    "1d-sin-V": (SOFT_SIN, prop.ScalarPotentialModel("soft-power", mu=1.0, amplitude=0.3),
                 grid.gaussian_data(SPEC_128), 0.4, 1e-3, 1e-4),
    # the a = 0 evolve is off by 1.26 here, the flipped field (-a) by 1.15
    "2d-rotational": (pots.rotational_model(0.5, amplitude=2.0), None,
                      grid.gaussian_data(SPEC_64_2D, width=0.6, center=(0.8, -0.4),
                                         momentum=(1.0, 0.5)), 0.5, 2.5e-3, 1e-3),
    # the same under a = sin(t) a0: the time-reversed evolve field is off by 0.48
    "2d-rotational-sin": (pots.rotational_model(0.5, amplitude=2.0, modulation="sin"), None,
                          grid.gaussian_data(SPEC_64_2D, width=0.6, center=(0.8, -0.4),
                                             momentum=(1.0, 0.5)), 0.5, 2.5e-3, 1e-3),
}


def reference_gap(case) -> tuple:
    """(gap, drift) on a reference case: the split-step evolve's largest
    distance to the spectral reference relative to the reference's peak,
    and the reference's L2-norm drift from the datum's."""
    model, V, u0, t, dt, _ = REFERENCE_CASES[case]
    split = prop.evolve(model, V, u0, 0.0, t, prop.EvolveConfig(dt=dt))
    ref = reference_evolve(model, V, u0, 0.0, t, dt)
    gap = np.max(np.abs(split.values - ref.values)) / np.max(np.abs(ref.values))
    return float(gap), abs(ref.l2_norm() - u0.l2_norm())


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_reference_solver_agrees(case):
    gap, drift = reference_gap(case)
    assert gap <= REFERENCE_CASES[case][-1]
    assert drift <= 1e-10


def test_reference_solver_keeps_a_landau_state():
    # the reference's own exact answer: in the constant field B0 = 1 the
    # translated ground state psi_c, c = (1, -0.5), only turns its phase,
    # u(t) = exp(-i t / 2) psi_c; a box this wide holds it to round-off
    spec = grid.GridSpec(2, 64, 12.0)
    x1, x2 = spec.meshgrid()
    psi = np.exp(-((x1 - 1.0) ** 2 + (x2 + 0.5) ** 2) / 4.0 + 0.5j * (x2 + 0.5 * x1))
    u1 = reference_evolve(pots.constant_field_model(1.0), None, grid.GridFunction(spec, psi),
                          0.0, 1.0, 1.0)
    assert np.max(np.abs(u1.values - np.exp(-0.5j) * psi)) <= 1e-10


def test_cfl_guard():
    u0 = grid.gaussian_data(grid.GridSpec(2, 256, 6.0))
    model = pots.constant_field_model(10.0)  # |a| up to ~42 near the corner
    with pytest.raises(errors.CflError):
        prop.evolve(model, None, u0, 0.0, 0.5, prop.EvolveConfig(dt=0.1))


def test_cfl_guard_checks_every_step_before_the_first(monkeypatch):
    # sin is about 0 at t0, (t0 + t1) / 2 and t1, but the displacement
    # 0.63 |sin t| passes 4 dx = 0.31 from step 52 on
    model = pots.soft_power_model(1, 0.5, 10.0, "sin")
    u0 = grid.gaussian_data(grid.GridSpec(1, 1024, 40.0))
    calls = []
    monkeypatch.setattr(prop, "bspline_sampler", lambda *args: calls.append("sample"))
    monkeypatch.setattr(prop, "boundary_mass_fraction", lambda *args: calls.append("guard"))
    with pytest.raises(errors.CflError, match="in step 52 of 629"):
        prop.evolve(model, None, u0, 0.0, 2 * np.pi, prop.EvolveConfig(dt=0.01))
    assert calls == []


def test_cfl_guard_reads_past_its_first_chunk_of_steps(monkeypatch):
    # sin t is about t over [0, 1/8]: the displacement passes 4 dx at
    # t = 0.104, in step 108833 of 2^17, past the first chunk of midpoints;
    # the reference takes every midpoint in one array
    spec = grid.GridSpec(1, 1024, 40.0)
    model = pots.soft_power_model(1, 0.5, 5e5, "sin")
    n_steps, tau = 2 ** 17, 2.0 ** -20
    a_max = np.max(np.abs(pots.eval_a(pots.soft_power_model(1, 0.5, 5e5), 0.0,
                                      prop._coordinate_stack(spec))))
    shift = np.abs(np.sin(np.arange(n_steps) * tau + 0.5 * tau)) * a_max * tau
    step = int(np.flatnonzero(shift > 4.0 * spec.dx)[0])
    assert step > prop._CFL_CHUNK
    calls = []
    monkeypatch.setattr(prop, "bspline_sampler", lambda *args: calls.append("sample"))
    with pytest.raises(errors.CflError) as exc_info:
        prop.evolve(model, None, grid.gaussian_data(spec), 0.0, n_steps * tau,
                    prop.EvolveConfig(dt=tau))
    assert f"in step {step} of {n_steps} (t = {step * tau:.4g})" in str(exc_info.value)
    assert f"= {shift[step]:.3g} exceeds" in str(exc_info.value)
    assert calls == []


def test_boundary_mass_guard():
    spec = grid.GridSpec(1, 256, 5.0)
    u0 = grid.gaussian_data(spec, width=0.1)  # spreads past the box quickly
    with pytest.raises(errors.BoundaryMassError):
        prop.evolve(pots.zero_model(1), None, u0, 0.0, 2.0,
                    prop.EvolveConfig(dt=1e-2))


def guard_time(exc_info):
    return float(str(exc_info.value).rsplit("t = ", 1)[1])


def test_boundary_mass_guard_fires_during_a_transport_run():
    # the narrow packet reaches the edge band long before t1: a guard that
    # only looked at the result would report t1
    spec = grid.GridSpec(1, 256, 5.0)
    u0 = grid.gaussian_data(spec, width=0.1)
    with pytest.raises(errors.BoundaryMassError) as exc_info:
        prop.evolve(pots.soft_power_model(1, 0.5), None, u0, 0.0, 2.0,
                    prop.EvolveConfig(dt=1e-2))
    assert guard_time(exc_info) < 1.0


def test_boundary_mass_guard_checks_the_result_of_a_transport_run():
    # one step: after the transport substep 2e-8 of the mass sits in the
    # edge band, after the closing half kinetic step 7e-3
    spec = grid.GridSpec(1, 256, 5.0)
    u0 = grid.gaussian_data(spec, width=0.2, center=3.0, momentum=6.0)
    with pytest.raises(errors.BoundaryMassError):
        prop.evolve(pots.soft_power_model(1, 0.5, amplitude=0.1), None, u0,
                    0.0, 0.1, prop.EvolveConfig(dt=0.1))


def test_numeric_guard_fires_during_a_transport_run(monkeypatch):
    # a uniform a whose divergence turns NaN after t = 0.05
    model = pots.soft_power_model(1, 0.0, amplitude=0.8)
    divergence_a = prop.divergence_a
    monkeypatch.setattr(prop, "divergence_a", lambda m, t, x: divergence_a(m, t, x)
                        + (np.nan if m is model and t > 0.05 else 0.0))
    with pytest.raises(errors.NumericError, match="non-finite") as exc_info:
        prop.evolve(model, None, grid.gaussian_data(SPEC), 0.0, 0.2,
                    prop.EvolveConfig(dt=1e-2))
    assert guard_time(exc_info) < 0.2


# ---------------------------------------------------------------------------
# batched transport: prefilter, spline kernel, batches


def random_field(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def spline_filter_complex(values):
    return (ndimage.spline_filter(values.real, order=3, mode="grid-wrap")
            + 1j * ndimage.spline_filter(values.imag, order=3, mode="grid-wrap"))


@pytest.mark.parametrize("spec", [grid.GridSpec(1, 64, 3.0),
                                  grid.GridSpec(2, 32, 4.0)],
                         ids=["1d", "2d"])
def test_prefilter_multiplier_matches_spline_filter(spec):
    f = random_field(np.random.default_rng(0), spec.shape)
    folded = np.fft.ifftn(prop.bspline_prefilter(spec) * np.fft.fftn(f))
    expected = spline_filter_complex(f)
    assert np.max(np.abs(folded - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("shape", [(64,), (64, 32)], ids=["1d", "2d"])
def test_spline_kernel_matches_map_coordinates(shape):
    rng = np.random.default_rng(1)
    fields = random_field(rng, shape + (3,))
    # more points than one slab, many outside the box to exercise the wrap
    points = rng.uniform(-0.5, 1.5, (len(shape), 2 * prop.SPLINE_BLOCK + 17)) \
        * np.array(shape)[:, None]
    factor = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, points.shape[1]))
    coeffs = np.stack([spline_filter_complex(fields[..., b]) for b in range(3)], -1)
    # the factor is applied outside the kernel, as evolve does
    out = prop.bspline_sampler(shape)(coeffs, points) * factor[:, None]
    for b in range(3):
        f = fields[..., b]
        expected = (ndimage.map_coordinates(f.real, points, order=3, mode="grid-wrap")
                    + 1j * ndimage.map_coordinates(f.imag, points, order=3,
                                                   mode="grid-wrap"))
        assert np.max(np.abs(out[:, b] - factor * expected)) \
            <= 1e-13 * np.max(np.abs(expected))


def csr_spline_sample(coeffs, points):
    """The kernel as one point-major CSR product per block, summing each
    point's 4^n taps in tap order."""
    shape = coeffs.shape[:-1]
    n, size = len(shape), int(np.prod(shape))
    columns = coeffs.reshape(size, -1).view(np.float64)
    out = np.empty((points.shape[1], coeffs.shape[-1]), complex)
    strides = np.cumprod((1,) + shape[:0:-1])[::-1].astype(np.int32)
    for start in range(0, points.shape[1], prop.SPLINE_BLOCK):
        x = points[:, start:start + prop.SPLINE_BLOCK]
        m = x.shape[1]
        base = np.floor(x)
        t = x - base
        s = 1.0 - t
        w = np.stack([s * s * s, t * t * (t - 2.0) * 3.0 + 4.0,
                      s * s * (s - 2.0) * 3.0 + 4.0, t * t * t], axis=1)
        w /= 6.0
        cols = base.astype(np.int32)[:, None, :] + np.arange(-1, 3, dtype=np.int32)[:, None]
        cols &= np.array(shape, dtype=np.int32)[:, None, None] - 1
        cols *= strides[:, None, None]
        weights, flat = w[0], cols[0]
        for k in range(1, n):
            weights = (weights[:, None, :] * w[k]).reshape(-1, m)
            flat = (flat[:, None, :] + cols[k]).reshape(-1, m)
        block = sparse.csr_array((weights.T.ravel(), flat.T.ravel(),
                                  np.arange(0, (m + 1) * 4 ** n, 4 ** n)),
                                 shape=(m, size))
        out.view(np.float64)[start:start + m] = block @ columns
    return out


@pytest.mark.parametrize("shape", [(64,), (64, 32)], ids=["1d", "2d"])
def test_spline_kernel_matches_csr_order(shape):
    """Same bits as a point-major CSR product: the benchmark's N_hat gate
    rests on this summation order.  One sampler serves two calls, as one
    serves every step of an evolve: its kept matrix is refilled."""
    rng = np.random.default_rng(2)
    sample = prop.bspline_sampler(shape)
    for _ in range(2):
        coeffs = random_field(rng, shape + (3,))
        # in one matrix, against the reference's two full blocks and a partial one
        points = rng.uniform(-0.5, 1.5, (len(shape), 2 * prop.SPLINE_BLOCK + 17)) \
            * np.array(shape)[:, None]
        assert np.array_equal(sample(coeffs, points), csr_spline_sample(coeffs, points))


def test_spline_kernel_rejects_grids_it_cannot_wrap():
    with pytest.raises(errors.InputError):
        prop.bspline_sampler((48,))


def rotational_batch():
    spec = grid.GridSpec(2, 64, 5.0)
    return spec, [grid.gaussian_data(spec, width=0.7),
                  grid.gaussian_data(spec, width=0.5, label="narrow"),
                  grid.gaussian_data(spec, width=0.6, center=(-0.5, 0.0),
                                     momentum=(2.0, 0.0), label="moving")]


def test_batched_evolve_bit_identical_without_transport():
    data = [grid.gaussian_data(SPEC), grid.gaussian_data(SPEC, width=0.3, center=1.0),
            grid.builtin_data("jump", SPEC)]
    V = prop.ScalarPotentialModel("soft-power", mu=1.0, amplitude=0.3)
    cfg = prop.EvolveConfig(dt=1e-2)
    batch = prop.evolve(pots.zero_model(1), V, data, 0.0, 0.2, cfg)
    for u0, u1 in zip(data, batch):
        single = prop.evolve(pots.zero_model(1), V, u0, 0.0, 0.2, cfg)
        np.testing.assert_array_equal(u1.values, single.values)
        assert u1.label == u0.label


def test_batched_evolve_matches_single_with_transport():
    _, data = rotational_batch()
    model = pots.rotational_model(0.5, modulation="sin")
    cfg = prop.EvolveConfig(dt=1e-2)
    batch = prop.evolve(model, None, data, 0.0, 0.2, cfg)
    assert isinstance(batch, list) and len(batch) == 3
    for u0, u1 in zip(data, batch):
        single = prop.evolve(model, None, u0, 0.0, 0.2, cfg)
        assert isinstance(single, grid.GridFunction)
        np.testing.assert_array_equal(u1.values, single.values)
        assert u1.label == u0.label


@pytest.mark.parametrize("model", [pots.rotational_model(0.5, modulation="sin"),
                                   pots.soft_power_model(2, 0.5, (0.7, 0.3), "sin")],
                         ids=["rotational", "soft-power"])
def test_transport_bits_do_not_depend_on_the_slab(model, monkeypatch):
    # 128^2 points: four slabs of 32 rows against one slab of the whole grid
    spec = grid.GridSpec(2, 128, 5.0)
    data = [grid.gaussian_data(spec, width=0.7),
            grid.gaussian_data(spec, width=0.6, center=(-0.5, 0.0), momentum=(2.0, 0.0))]
    V = prop.ScalarPotentialModel("soft-power", mu=1.0, amplitude=0.3)
    cfg = prop.EvolveConfig(dt=1e-2)
    slabs = prop.evolve(model, V, data, 0.0, 0.05, cfg)
    monkeypatch.setattr(prop, "SPLINE_BLOCK", spec.size)
    whole = prop.evolve(model, V, data, 0.0, 0.05, cfg)
    for a, b in zip(slabs, whole):
        np.testing.assert_array_equal(a.values, b.values)


def test_transport_step_working_set():
    """A 256^2 batch of three fields steps within 12 MB of traced memory.
    The floor is about 10.5 MB: two field buffers (6.3 MB), the two
    spectral multipliers (2.1 MB), a0 on the grid (1 MB) and one spline
    matrix (1 MB); grid-sized geometry per step would add 4.5 MB."""
    spec = grid.GridSpec(2, 256, 5.0)
    data = [grid.gaussian_data(spec, width=w) for w in (0.7, 0.5, 0.6)]
    model = pots.rotational_model(0.5, modulation="sin")
    tracemalloc.start()
    try:
        prop.evolve(model, None, data, 0.0, 0.01, prop.EvolveConfig(dt=2.5e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


@pytest.mark.parametrize("model", [pots.zero_model(1), pots.soft_power_model(1, 0.5)],
                         ids=["zero", "soft-power"])
def test_boundary_mass_guard_checks_every_field_of_a_batch(model):
    spec = grid.GridSpec(1, 256, 5.0)
    data = [grid.gaussian_data(spec), grid.gaussian_data(spec, width=0.1)]
    with pytest.raises(errors.BoundaryMassError, match="field 1"):
        prop.evolve(model, None, data, 0.0, 2.0, prop.EvolveConfig(dt=1e-2))


def test_batch_validation():
    _, data = rotational_batch()
    with pytest.raises(errors.InputError):
        prop.evolve(pots.zero_model(2), None, [], 0.0, 0.1, prop.EvolveConfig(dt=0.05))
    other = grid.gaussian_data(grid.GridSpec(2, 32, 5.0))
    with pytest.raises(errors.InputError):
        prop.evolve(pots.zero_model(2), None, data + [other], 0.0, 0.1,
                    prop.EvolveConfig(dt=0.05))


# ---------------------------------------------------------------------------
# transport identity, leading term


def test_leading_term_time_zero_reduces_to_wpt():
    u0 = grid.gaussian_data(SPEC)
    ps = GaussianWindow(1, 1.0, 4.0, 0.125)
    p = ((0.5,), (1.2,))
    lhs = prop.evolved_wpt_leading(pots.zero_model(1), u0, ps, 0.0, p)
    rhs = packets.wpt(u0, ps, p)
    assert abs(lhs - rhs) <= 1e-12


def test_leading_term_exact_for_free_motion():
    u0 = grid.gaussian_data(SPEC)
    model = pots.zero_model(1)
    t = 1.0
    u1 = prop.evolve(model, None, u0, 0.0, t, prop.EvolveConfig(dt=1e-3))
    ps = GaussianWindow(1, 1.0, 4.0, 0.125)
    p = ((0.5,), (1.2,))
    lhs = packets.wpt(u1, ps.evolved(t), p)
    rhs = prop.evolved_wpt_leading(model, u0, ps, t, p)
    assert abs(lhs - rhs) <= 1e-6


def test_leading_term_exact_for_gradient_free_potential():
    # remainder carries potential derivatives, so a uniform a(t) is exact
    model = pots.soft_power_model(1, 0.0, 0.8, "sin")  # a = 0.8 sin(t)
    u0 = grid.gaussian_data(SPEC)
    t = 0.4
    u1 = prop.evolve(model, None, u0, 0.0, t, prop.EvolveConfig(dt=2.5e-4))
    ps = GaussianWindow(1, 1.0, 4.0, 0.125)
    p = ((0.3,), (1.1,))
    lhs = packets.wpt(u1, ps.evolved(t), p)
    rhs = prop.evolved_wpt_leading(model, u0, ps, t, p, tol=1e-12)
    assert abs(lhs - rhs) <= 1e-6


def test_leading_term_discrepancy_shrinks_along_scaled_points():
    # the remainder is lower order along escaping scaled phase points
    spec = grid.GridSpec(1, 1024, 20.0)
    u0 = grid.gaussian_data(spec, width=0.2)
    model = pots.soft_power_model(1, 0.5, amplitude=0.5)
    b = packets.theorem_scaling_exponent(0.5)
    t = 0.5
    u1 = prop.evolve(model, None, u0, 0.0, t, prop.EvolveConfig(dt=5e-4))
    disc = []
    for lam in (16.0, 64.0, 256.0):
        ps = GaussianWindow(1, 1.0, lam, b)
        p = ((0.0,), (lam * 0.1,))
        lhs = packets.wpt(u1, ps.evolved(t), p)
        rhs = prop.evolved_wpt_leading(model, u0, ps, t, p, tol=1e-11)
        disc.append(abs(lhs - rhs))
    assert disc[0] > disc[1] > disc[2]


def test_leading_term_relative_remainder_bounded_at_fixed_frequency():
    # at a fixed frequency the remainder does not vanish with the dilation,
    # but it stays a small bounded fraction of the transform
    spec = grid.GridSpec(1, 1024, 20.0)
    u0 = grid.gaussian_data(spec)
    model = pots.soft_power_model(1, 0.5, amplitude=0.5)
    t = 0.25
    u1 = prop.evolve(model, None, u0, 0.0, t, prop.EvolveConfig(dt=5e-4))
    for lam in (16.0, 256.0):
        ps = GaussianWindow(1, 1.0, lam, 0.0625)
        p = ((0.3,), (1.2,))
        lhs = packets.wpt(u1, ps.evolved(t), p)
        rhs = prop.evolved_wpt_leading(model, u0, ps, t, p, tol=1e-11)
        assert abs(lhs - rhs) / abs(lhs) <= 0.02
