"""Unitary split-step solver for the magnetic Schrodinger equation.

With D = grad - i a(t, x), the equation i u_t + (1/2) D^2 u = V u expands
into kinetic, transport, and multiplicative parts:

    u_t = (i/2) Lap u + (a . grad + (1/2) div a) u - i (V + |a|^2 / 2) u.

Each part generates a unitary group: a Fourier multiplier, transport along
the flow of a carrying a half-density factor, and a pure phase.  One step
of size tau applies them in Strang order (half kinetic, transport, phase,
half kinetic), so the scheme is second order in tau and conserves the L2
norm up to interpolation error of the semi-Lagrangian substep.

`evolve` steps a batch of fields on one grid, stored as (B, *grid) so that
FFTs run along contiguous lines.  The periodic cubic B-spline prefilter
1 / (2/3 + cos(eta dx) / 3) per axis is folded into the leading half
kinetic step.  The transport substep takes its geometry (foot points,
half-density, phase) once for the batch, one slab of SPLINE_BLOCK points
at a time, and samples the coefficients there with a tap-major sparse
kernel whose matrix is built once per evolve: a step's working set is two
field buffers, two spectral multipliers, a0 on the grid and that matrix.
The spectrum is carried from step to step, and the guards check the
physical field that the transport substep leaves, so a transport step
costs two FFTs.  That kernel is the package's only use of scipy:
importing `mswf` loads no scipy module.

`evolved_wpt_leading` evaluates the transport identity that moves a wave
packet transform backward along the flow with the accumulated phase.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .characteristics import flow
from .errors import (BoundaryMassError, CflError, InputError, NumericError,
                     number, one_of)
from .grid import GridFunction, GridSpec, boundary_mass_fraction, field_batch
from .packets import GaussianWindow, wpt
from .potentials import VectorPotentialModel, divergence_a, eval_a, squared_norm

SCALAR_FAMILIES = ("zero", "soft-power")


@dataclass(frozen=True)
class ScalarPotentialModel:
    """Scalar term V(x), constant in time: zero or amp <x>^mu (mu < 2)."""

    family: str = "zero"
    mu: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        one_of(self.family, SCALAR_FAMILIES, "scalar family")
        mu_below = 2.0 if self.family == "soft-power" else np.inf
        object.__setattr__(self, "mu", number(self.mu, "mu", below=mu_below))
        object.__setattr__(self, "amplitude", number(self.amplitude, "amplitude"))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.family == "zero":
            return np.zeros(x.shape[:-1])
        b2 = squared_norm(x)
        b2 += 1.0
        return self.amplitude * b2 ** (0.5 * self.mu)


@dataclass(frozen=True)
class EvolveConfig:
    """Step size of the time stepper."""

    dt: float

    def __post_init__(self):
        object.__setattr__(self, "dt", number(self.dt, "dt", above=0.0))


_MAX_STEPS = 10 ** 7  # the most steps one evolve takes
_CFL_CHUNK = 2 ** 16  # step midpoints the CFL guard holds at once


def _step_count(t0: float, t1: float, cfg: EvolveConfig) -> int:
    """Steps of at most cfg.dt from t0 to t1, at least one; InputError when
    that count is not finite or exceeds _MAX_STEPS."""
    steps = np.ceil(abs(t1 - t0) / cfg.dt)
    if not np.isfinite(steps):
        raise InputError(f"{t1 - t0!r} in steps of dt = {cfg.dt!r} is not a finite "
                         "step count")
    if steps > _MAX_STEPS:
        raise InputError(f"{t1 - t0!r} in steps of dt = {cfg.dt!r} takes {steps:.3g} "
                         f"steps, more than {_MAX_STEPS}")
    return max(1, int(steps))


ZERO_SCALAR = ScalarPotentialModel("zero")

SPLINE_BLOCK = 4096  # grid points per slab of the transport substep
BOUNDARY_MASS_LIMIT = 1e-6  # largest share of |u|^2 allowed in the edge band


def _coordinate_stack(spec: GridSpec) -> np.ndarray:
    return np.stack(spec.meshgrid(), axis=-1)


def bspline_prefilter(spec: GridSpec) -> np.ndarray:
    """Fourier multiplier from samples to periodic cubic B-spline coefficients.

    Sampling the cubic B-spline at the integers gives the stencil
    (1, 4, 1) / 6, whose symbol is 2/3 + cos(eta dx) / 3 per axis; the
    prefilter is its reciprocal (Unser, "Splines: a perfect fit", 1999).
    """
    out, symbol = np.ones(spec.shape), 2.0 / 3.0 + np.cos(spec.freq_axis() * spec.dx) / 3.0
    for i in range(spec.n):
        out = out / spec.along(i, symbol)
    return out


def bspline_sampler(grid_shape: tuple):
    """Sampler `sample(coeffs, points)` of periodic cubic splines on a 1-D
    or 2-D grid of power-of-two sizes; InputError for other sizes.

    Samples B fields, from their B-spline coefficients (*grid_shape, B), at
    points (n, P) in grid-index units, and returns them (P, B); equals
    map_coordinates(order=3, mode="grid-wrap") on the prefiltered samples.
    Entry k P + p of the tap-major COO matrix is tap k of point p, so each
    point's 4^n taps are summed in tap order, as in a point-major CSR
    matrix.  The sampler keeps one matrix per point count: one per evolve.
    """
    # imported here, its only use: `import mswf` then loads no scipy module
    from scipy import sparse

    if any(m & (m - 1) for m in grid_shape):
        raise InputError("spline grids need power-of-two sizes")
    size, n = int(np.prod(grid_shape)), len(grid_shape)
    taps = 4 ** n
    strides = np.cumprod((1,) + grid_shape[:0:-1])[::-1].astype(np.int32)
    wrap = np.array(grid_shape, dtype=np.int32)[:, None, None] - 1
    shifts = np.arange(-1, 3, dtype=np.int32)[:, None]
    matrices = {}  # point count -> matrix; its row indices never change

    def sample(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
        # a strided view here would make every per-point array strided and slow
        x = np.ascontiguousarray(points, dtype=float)
        m = x.shape[1]
        if m not in matrices:
            point = np.tile(np.arange(m, dtype=np.int32), taps)
            matrices[m] = sparse.coo_array((np.zeros(taps * m), (point, np.zeros_like(point))),
                                           shape=(m, size))
        base = np.floor(x)
        t = x - base
        s = 1.0 - t
        # per-axis weights (n, 4, m), tap-major so every product runs along m:
        # s^3, 3 t^2 (t - 2) + 4, 3 s^2 (s - 2) + 4, t^3, written in place
        w = np.empty((n, 4, m))
        for k, v in enumerate((s, t, s, t)):
            np.multiply(v, v, out=w[:, k])
            w[:, k] *= v if k in (0, 3) else v - 2.0
        w[:, 1:3] *= 3.0
        w[:, 1:3] += 4.0
        w /= 6.0
        cols = base.astype(np.int32)[:, None, :] + shifts
        cols &= wrap  # periodic wrap: the sizes are powers of two
        cols *= strides[:, None, None]
        # the last axis writes straight into the matrix, times the first in 2-D
        head_w, head_c = (w[0][:, None, :], cols[0][:, None, :]) if n == 2 else (1.0, 0)
        np.multiply(head_w, w[-1], out=matrices[m].data.reshape(-1, 4, m))
        np.add(head_c, cols[-1], out=matrices[m].col.reshape(-1, 4, m))
        # complex fields as interleaved real columns: one real sparse product
        return (matrices[m] @ coeffs.reshape(size, -1).view(np.float64)).view(complex)

    return sample


def evolve(model: VectorPotentialModel, scalar, u0, t0: float, t1: float,
           cfg: EvolveConfig):
    """Propagate u0 from t0 to t1.

    `u0` is one GridFunction or a sequence of them on one grid; the result
    is a GridFunction or a list of them, with labels kept.  A sequence is
    stepped as one batch, and each field gets the bits it would get alone.
    Raises InputError before the first step when the step count
    (t1 - t0) / dt is not finite or above ten million, and CflError when,
    at some step's midpoint, the transport displacement max|a| dt would
    exceed the stencil reach 4 dx.  Raises NumericError when a field stops
    being finite, and BoundaryMassError when, for any field, more than
    BOUNDARY_MASS_LIMIT of the squared norm sits within 10 percent of the
    box edge; these two are checked in every step and on the result.
    """
    fields, single = field_batch(u0)
    spec = fields[0].spec
    if model.n != spec.n:
        raise InputError("model dimension does not match the field")
    t0, t1 = number(t0, "t0"), number(t1, "t1")

    values = np.stack([f.values for f in fields])
    if t1 != t0:
        scalar = scalar if scalar is not None else ZERO_SCALAR
        # rebinding frees the input buffer when the result is in the other one
        values = _evolve_split(model, scalar, spec, values, t0, t1, cfg)
    out = [GridFunction(spec, values[b], f.label) for b, f in enumerate(fields)]
    return out[0] if single else out


def _evolve_split(model, scalar, spec, u, t0, t1, cfg):
    """Strang steps of the batch u (B, *grid), overwritten in place.

    With transport, the leading half kinetic step also applies the spline
    prefilter, and the spectrum is carried into the next step: two FFTs
    per step, one before the first and one for the result (four per step
    without transport).  The inverse FFT writes the coefficients into the
    other buffer as rows of B values, and each slab's samples times its
    factor go straight back into u, batch-first.  The CFL guard checks
    every step's midpoint, a chunk at a time, before the first step; the
    field guards check the physical field in hand: after the transport
    substep, at the end of a free step, and the result.
    """
    n_steps = _step_count(t0, t1, cfg)
    tau = (t1 - t0) / n_steps
    shape, axes = spec.shape, tuple(range(1, spec.n + 1))  # FFTs skip a shape lookup
    grid_axes = np.meshgrid(*[spec.axis()] * spec.n, indexing="ij", sparse=True)
    reach = 4.0 * spec.dx
    has_transport = model.family != "zero"
    has_scalar = scalar.family != "zero"
    if has_transport:
        # every family is a = g(t) a0(x), so the profile a0 is evaluated once
        profile = eval_a(replace(model, modulation="one"), 0.0, _coordinate_stack(spec))
        # guard-first: the displacement at every step's midpoint, as the loop
        # takes it, against the stencil reach before the first step
        a_max = float(np.max(np.abs(profile)))
        for first in range(0, n_steps, _CFL_CHUNK):
            steps = np.arange(first, min(first + _CFL_CHUNK, n_steps))
            shift = np.abs(model.g(t0 + steps * tau + 0.5 * tau)) * a_max * abs(tau)
            over = np.flatnonzero(shift > reach)
            if over.size:
                step = steps[over[0]]
                raise CflError(f"transport displacement max|a|*dt = {shift[over[0]]:.3g} "
                               f"exceeds 4*dx = {reach:.3g} in step {step} of {n_steps} "
                               f"(t = {t0 + step * tau:.4g})")
    elif has_scalar:  # V has no time factor: every free step takes one phase
        fixed_phase = np.exp(-1j * tau * scalar(_coordinate_stack(spec)))

    kinetic_half = np.exp(-0.25j * tau * spec.freq_squared())

    def half_kinetic(v):
        np.fft.fftn(v, shape, axes, out=v)
        # multiplier first, as in kinetic_half * fftn(v): numpy's complex
        # product is not bit-symmetric in its operands
        np.multiply(kinetic_half, v, out=v)
        np.fft.ifftn(v, shape, axes, out=v)

    if has_transport:
        sample = bspline_sampler(shape)
        row = spec.size // shape[0]  # points per row of the first axis
        slab_rows = max(1, SPLINE_BLOCK // row)
        prefiltered_half = kinetic_half * bspline_prefilter(spec)
        other = np.empty_like(u)
        coeffs = other.reshape(-1).reshape(spec.shape + (len(u),))  # kernel input
        flat = u.reshape(len(u), -1)  # samples times factor, batch-first
        np.fft.fftn(u, shape, axes, out=u)  # the carried spectrum

    def guard(field, t):
        frac = boundary_mass_fraction(spec, field)
        if (frac <= BOUNDARY_MASS_LIMIT).all():  # nan fails this test
            return
        if np.isnan(frac).any():
            raise NumericError(f"field became non-finite at t = {t:.6g}")
        over = np.flatnonzero(frac > BOUNDARY_MASS_LIMIT)
        if over.size:
            raise BoundaryMassError(
                f"{frac[over[0]]:.2e} of the L2 mass of field {over[0]} within 10% "
                f"of the edge at t = {t:.6g}")

    for step in range(n_steps):
        t, t_end = t0 + step * tau, t0 + (step + 1) * tau
        last = step == n_steps - 1
        if has_transport:
            np.multiply(u, prefiltered_half, out=u)
            # spline coefficients, written into the other buffer as rows of B values
            np.fft.ifftn(u, shape, axes, out=np.moveaxis(coeffs, -1, 0))
            # slab by slab into u, at the characteristic midpoint: foot points,
            # the samples there times the factor exp(tau div a / 2 - i tau phase);
            # transport and phase form one non-commuting group, and taking the
            # phase at the midpoint keeps the step second order
            t_mid = t + 0.5 * tau
            half_shift = 0.5 * tau * float(model.g(t_mid))
            for r in range(0, shape[0], slab_rows):
                xs = [grid_axes[0][r:r + slab_rows], *grid_axes[1:]]
                y_mid = profile[r:r + slab_rows] * half_shift
                for i, x in enumerate(xs):
                    y_mid[..., i] += x
                a_y = eval_a(model, t_mid, y_mid)
                phase = 0.5 * np.einsum("...i,...i->...", a_y, a_y)
                if has_scalar:
                    phase += scalar(y_mid)
                phase *= -tau
                factor = np.empty(phase.shape, dtype=complex)
                np.cos(phase, out=factor.real)
                np.sin(phase, out=factor.imag)
                if model.family not in ("rotational", "constant-field"):  # else div a = 0
                    factor *= np.exp(0.5 * tau * divergence_a(model, t_mid, y_mid))
                foot = np.empty((spec.n,) + phase.shape)
                for i, x in enumerate(xs):
                    np.multiply(a_y[..., i], tau, out=foot[i])
                    foot[i] += x
                    foot[i] += spec.halfwidth
                    foot[i] /= spec.dx
                # samples first: the complex product is not bit-symmetric
                np.multiply(sample(coeffs, foot.reshape(spec.n, -1)).T, factor.reshape(-1),
                            out=flat[:, r * row:(r + slab_rows) * row])
            guard(u, t_end)
            np.fft.fftn(u, shape, axes, out=u)
            np.multiply(kinetic_half, u, out=u)
            if last:
                field = np.fft.ifftn(u, shape, axes, out=other)
        else:
            half_kinetic(u)
            if has_scalar:
                u *= fixed_phase
            half_kinetic(u)
            field = u
        if last or not has_transport:
            guard(field, t_end)
    return field


# ---------------------------------------------------------------------------
# transport identity, leading term


def evolved_wpt_leading(model: VectorPotentialModel, u0: GridFunction,
                        window: GaussianWindow, t: float, p,
                        tol: float = 1e-10) -> complex:
    """Leading term of the packet transform of the solution at time t.

    Flows the phase point backward to time 0, accumulates the complex
    phase integral along the way, and pairs the initial datum with the
    scaled Gaussian `window` at the flowed point:

        exp(i Int_0^t Psi ds) * W[u0](x(0), xi(0)).

    Exact (up to solver error) for a spatially uniform a(t), the tested
    case (`test_leading_term_exact_for_gradient_free_potential`); a field
    with vanishing second derivatives is not enough, as the constant field
    measures 1-2% off.  Otherwise correct to a remainder that is lower
    order in the dilation.
    """
    res = flow(model, t, 0.0, *p, tol)
    int_0_t = -res.psi_integral  # flow accumulated t -> 0
    value = wpt(u0, window, (res.terminal.x, res.terminal.xi))
    return complex(np.exp(1j * int_0_t) * value)
