"""Unitary split-step solver for the magnetic Schrodinger equation.

With D = grad - i a(t, x), the equation i u_t + (1/2) D^2 u = V u expands
into kinetic, transport, and multiplicative parts:

    u_t = (i/2) Lap u + (a . grad + (1/2) div a) u - i (V + |a|^2 / 2) u.

Each part generates a unitary group: a Fourier multiplier, transport along
the flow of a carrying a half-density factor, and a pure phase.  One step
of size tau applies them in Strang order (half kinetic, transport, phase,
half kinetic), so the scheme is second order in tau and conserves the L2
norm up to interpolation error of the semi-Lagrangian substep.

`evolve` steps one field or a batch of fields on one grid, stored as
(*grid, B).  The transport geometry of a step (foot points, half-density
and phase) does not depend on the field, so it is computed once and shared
by the batch.  The semi-Lagrangian substep interpolates with periodic cubic
B-splines.  Their prefilter is the diagonal Fourier multiplier
1 / (2/3 + cos(eta dx) / 3) per axis, folded into the leading half kinetic
step, so that step's inverse FFT returns spline coefficients directly; the
coefficients are then sampled at the foot points by a blocked sparse
kernel.  The spectrum after the trailing half step is carried into the
next step, so a transport step costs three FFTs.  Without transport the
FFT sequence is the plain one, and a batch reproduces single-field
results bit for bit.

A dense reference solver (Hermitian eigensolve of the full generator on
small grids) provides an independent discretization for cross-checks, and
`evolved_wpt_leading` evaluates the transport identity that moves a wave
packet transform backward along the flow with the accumulated phase.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .characteristics import flow
from .errors import (BoundaryMassError, CflError, GuardError, InputError,
                     NumericError)
from .grid import GridFunction, GridSpec, as_phase_point, \
    boundary_mass_fraction, field_batch
from .packets import GaussianBase, PacketSpec, wpt
from .potentials import (MODULATIONS, VectorPotentialModel,
                         bracket_power_derivative, divergence_a, eval_a)

SCALAR_FAMILIES = ("zero", "soft-power", "quadratic-test")


@dataclass(frozen=True)
class ScalarPotentialModel:
    """Scalar term V(t, x): zero, amp * g(t) <x>^mu (mu < 2), or |x|^2 / 2."""

    family: str = "zero"
    mu: float = 0.0
    amplitude: float = 1.0
    modulation: str = "one"

    def __post_init__(self):
        if self.family not in SCALAR_FAMILIES:
            raise InputError(f"unknown scalar family '{self.family}'")
        if self.family == "soft-power" and not self.mu < 2.0:
            raise InputError("soft-power scalar potentials require mu < 2")
        if self.modulation not in MODULATIONS:
            raise InputError(f"unknown modulation '{self.modulation}'")

    @property
    def conforming(self) -> bool:
        """Sub-quadratic growth; the quadratic test family is solver-only."""
        return self.family in ("zero", "soft-power")

    def g(self, t):
        return MODULATIONS[self.modulation](t)

    def __call__(self, t: float, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.family == "zero":
            return np.zeros(x.shape[:-1])
        if self.family == "quadratic-test":
            return 0.5 * np.sum(x * x, axis=-1)
        b2 = 1.0 + np.sum(x * x, axis=-1)
        return self.amplitude * self.g(t) * b2 ** (0.5 * self.mu)

    def derivative(self, t: float, x, alpha) -> np.ndarray:
        """d^alpha V for |alpha| <= 3 (used by decay verification)."""
        x = np.asarray(x, dtype=float)
        order = sum(alpha)
        if self.family == "zero":
            return np.zeros(x.shape[:-1])
        if self.family == "quadratic-test":
            if order == 0:
                return 0.5 * np.sum(x * x, axis=-1)
            if order == 1:
                return x[..., alpha.index(1)]
            if order == 2 and max(alpha) == 2:  # d^2/dx_i^2 = 1, mixed = 0
                return np.ones(x.shape[:-1])
            return np.zeros(x.shape[:-1])
        return self.amplitude * self.g(t) * bracket_power_derivative(self.mu, x, alpha)


def scalar_from_json(source) -> ScalarPotentialModel:
    import json
    from pathlib import Path

    if isinstance(source, (str, Path)):
        text = str(source)
        obj = json.loads(text) if text.lstrip().startswith("{") else \
            json.loads(Path(text).read_text())
    else:
        obj = dict(source)
    kwargs = {k: obj[k] for k in ("mu", "amplitude", "modulation") if k in obj}
    return ScalarPotentialModel(obj.get("family", "zero"), **kwargs)


@dataclass(frozen=True)
class EvolveConfig:
    """Step size and method for the time stepper."""

    dt: float
    method: str = "strang-split"
    boundary_mass_limit: float = 1e-6

    def __post_init__(self):
        if self.dt <= 0:
            raise InputError("dt must be positive")
        if self.method not in ("strang-split", "reference-midpoint"):
            raise InputError(f"unknown method '{self.method}'")


ZERO_SCALAR = ScalarPotentialModel("zero")

SPLINE_BLOCK = 4096  # grid points per block of interpolation weights


def _coordinate_stack(spec: GridSpec) -> np.ndarray:
    return np.stack(spec.meshgrid(), axis=-1)


def bspline_prefilter(spec: GridSpec) -> np.ndarray:
    """Fourier multiplier from samples to periodic cubic B-spline coefficients.

    Sampling the cubic B-spline at the integers gives the stencil
    (1, 4, 1) / 6, whose symbol is 2/3 + cos(eta dx) / 3 per axis; the
    prefilter is its reciprocal (Unser, "Splines: a perfect fit", 1999).
    """
    out = np.ones(spec.shape)
    for i in range(spec.n):
        shape = [1] * spec.n
        shape[i] = spec.points[i]
        symbol = 2.0 / 3.0 + np.cos(spec.freq_axis(i) * spec.dx[i]) / 3.0
        out = out / symbol.reshape(shape)
    return out


def bspline_sample(coeffs: np.ndarray, points: np.ndarray, out: np.ndarray,
                   factor: np.ndarray | None = None) -> np.ndarray:
    """Evaluate periodic cubic splines at grid-index coordinates, blockwise.

    `coeffs` holds the B-spline coefficients of B fields, shape (*grid, B),
    on a grid of power-of-two sizes; `points` has shape (n, P), in units of
    grid indices like the coordinates of map_coordinates.  Each block of
    SPLINE_BLOCK points becomes one sparse row block holding the 4^n tensor
    weights and wrapped column indices of its points.  It is applied to
    all B fields at once and written into `out` (P, B), times `factor` (P,)
    if given.  Equals map_coordinates(order=3, mode="grid-wrap") on the
    prefiltered samples.
    """
    # a strided view here would make every per-block array strided and slow
    points = np.ascontiguousarray(points, dtype=float)
    grid_shape = coeffs.shape[:-1]
    if any(m & (m - 1) for m in grid_shape):
        raise InputError("spline grids need power-of-two sizes")
    size = int(np.prod(grid_shape))
    n = len(grid_shape)
    # complex fields as interleaved real columns: one real sparse product
    columns = coeffs.reshape(size, -1).view(np.float64)
    rows = out.view(np.float64)
    taps = 4 ** n
    strides = np.cumprod((1,) + grid_shape[:0:-1])[::-1].astype(np.int32)
    wrap = np.array(grid_shape, dtype=np.int32)[:, None, None] - 1
    shifts = np.arange(-1, 3, dtype=np.int32)[:, None]
    indptr = np.arange(0, (SPLINE_BLOCK + 1) * taps, taps, dtype=np.int32)
    for start in range(0, points.shape[1], SPLINE_BLOCK):
        x = points[:, start:start + SPLINE_BLOCK]
        m = x.shape[1]
        base = np.floor(x)
        t = x - base
        s = 1.0 - t
        # per-axis weights (n, 4, m), tap-major so every product runs along m
        w = np.stack([s * s * s, t * t * (t - 2.0) * 3.0 + 4.0,
                      s * s * (s - 2.0) * 3.0 + 4.0, t * t * t], axis=1)
        w /= 6.0
        cols = base.astype(np.int32)[:, None, :] + shifts
        cols &= wrap  # periodic wrap: the sizes are powers of two
        cols *= strides[:, None, None]
        weights, flat = w[0], cols[0]
        for k in range(1, n):
            weights = (weights[:, None, :] * w[k]).reshape(-1, m)
            flat = (flat[:, None, :] + cols[k]).reshape(-1, m)
        block = sparse.csr_array((weights.T.ravel(), flat.T.ravel(),
                                  indptr[:m + 1]), shape=(m, size))
        rows[start:start + m] = block @ columns
        if factor is not None:
            out[start:start + m] *= factor[start:start + m, None]
    return out


def _grid_potential(model: VectorPotentialModel, coords: np.ndarray):
    """t -> (a0, g) with a(t, .) = g * a0 on the grid.

    The built-in families with a time factor are a = g(t) a0(x), so their
    profile a0 is evaluated once; the others are evaluated at each t.
    """
    if model.family not in ("soft-power", "rotational"):
        return lambda t: (eval_a(model, t, coords), 1.0)
    profile = eval_a(replace(model, modulation="one"), 0.0, coords)
    return lambda t: (profile, float(model.g(t)))


def evolve(model: VectorPotentialModel, scalar, u0, t0: float, t1: float,
           cfg: EvolveConfig, probe=None):
    """Propagate u0 from t0 to t1.

    `u0` is one GridFunction or a sequence of them on one grid; the result
    is a GridFunction or a list of them, with labels kept.  A sequence is
    stepped as one batch, so the transport geometry of each step is
    computed once for all of its fields.  `probe`, if given, is called as
    probe(t, fields) after every accepted step, with `fields` in the form
    of `u0` (used for norm monitoring and CSV probes).  Raises CflError when the transport
    displacement would exceed the interpolation stencil reach, and
    BoundaryMassError when, for any field, more than `boundary_mass_limit`
    of the squared norm sits within 10 percent of the box edge.
    """
    fields, single = field_batch(u0)
    spec = fields[0].spec
    if model.n != spec.n:
        raise InputError("model dimension does not match the field")

    def unpack(values):
        out = [GridFunction(spec, np.ascontiguousarray(values[..., b]), f.label)
               for b, f in enumerate(fields)]
        return out[0] if single else out

    step_probe = None if probe is None else \
        (lambda t, values: probe(t, unpack(values.copy())))
    values = np.stack([f.values for f in fields], axis=-1)
    if t1 != t0:
        scalar = scalar if scalar is not None else ZERO_SCALAR
        solver = _evolve_reference if cfg.method == "reference-midpoint" else _evolve_split
        # rebinding frees the solver's second buffer before unpacking
        values = solver(model, scalar, spec, values, t0, t1, cfg, step_probe)
    return unpack(values)


def _evolve_split(model, scalar, spec, u, t0, t1, cfg, probe):
    """Strang steps of the batch u (*grid, B), overwritten in place.

    With transport, the leading half kinetic step also carries the spline
    prefilter, so its inverse FFT yields B-spline coefficients, and the
    spectrum after the trailing half step is carried into the next step:
    three FFTs per step.  Without transport the FFT sequence is the plain
    one, four per step.
    """
    n_steps = max(1, int(np.ceil(abs(t1 - t0) / cfg.dt)))
    tau = (t1 - t0) / n_steps
    axes = tuple(range(spec.n))
    grid_axes = np.meshgrid(*spec.axes(), indexing="ij", sparse=True)
    reach = 4.0 * min(spec.dx)
    has_transport = model.family != "zero"
    has_scalar = scalar.family != "zero"
    if has_transport:
        a_grid = _grid_potential(model, _coordinate_stack(spec))
    elif has_scalar:
        coords = _coordinate_stack(spec)

    def displacement(a0, g):
        return abs(g) * float(np.max(np.abs(a0))) * abs(tau)

    def geometry(t):
        """Foot points (n, N) in grid-index units and the half-density times
        phase factor exp(tau div a / 2 - i tau phase) (N,) of the step from
        t, both taken at the characteristic midpoint."""
        # transport and phase form one non-commuting group; sampling the
        # phase at the characteristic midpoint keeps the step second order
        t_mid = t + 0.5 * tau
        a0, g = a_grid(t_mid)
        if displacement(a0, g) > reach:
            raise CflError(
                f"transport displacement grew past the stencil reach at t = {t:.4g}")
        y_mid = a0 * (0.5 * tau * g)
        for i, x in enumerate(grid_axes):
            y_mid[..., i] += x
        a_y = eval_a(model, t_mid, y_mid)
        phase = 0.5 * np.einsum("...i,...i->...", a_y, a_y)
        if has_scalar:
            phase += scalar(t_mid, y_mid)
        phase *= -tau
        factor = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=factor.real)
        np.sin(phase, out=factor.imag)
        factor *= np.exp(0.5 * tau * divergence_a(model, t_mid, y_mid))
        foot = np.empty((spec.n,) + spec.shape)
        for i, x in enumerate(grid_axes):
            np.multiply(a_y[..., i], tau, out=foot[i])
            foot[i] += x
            foot[i] += spec.halfwidths[i]
            foot[i] /= spec.dx[i]
        return foot.reshape(spec.n, -1), factor.reshape(-1)

    def transport(t, coeffs, out):
        """Transport and phase of the step from t: spline coefficients -> out.

        The geometry's temporaries are freed before the kernel runs."""
        foot, factor = geometry(t)
        bspline_sample(coeffs, foot, out.reshape(-1, out.shape[-1]), factor)

    kinetic_half = np.exp(-0.25j * tau * spec.freq_squared())[..., None]

    def half_kinetic(v):
        np.fft.fftn(v, axes=axes, out=v)
        # multiplier first, as in kinetic_half * fftn(v): numpy's complex
        # product is not bit-symmetric in its operands
        np.multiply(kinetic_half, v, out=v)
        np.fft.ifftn(v, axes=axes, out=v)

    if has_transport:
        # guard-first: check the displacement bound before any stepping
        for t_probe in (t0, 0.5 * (t0 + t1), t1):
            shift = displacement(*a_grid(t_probe))
            if shift > reach:
                raise CflError(f"transport displacement max|a|*dt = {shift:.3g} "
                               f"exceeds 4*dx = {reach:.3g}")
        prefiltered_half = kinetic_half * bspline_prefilter(spec)[..., None]
        other = np.empty_like(u)
        np.fft.fftn(u, axes=axes, out=u)  # the carried spectrum
    t = t0
    for step in range(n_steps):
        if has_transport:
            np.multiply(u, prefiltered_half, out=other)
            np.fft.ifftn(other, axes=axes, out=other)  # spline coefficients
            transport(t, other, u)
            np.fft.fftn(u, axes=axes, out=u)
            np.multiply(kinetic_half, u, out=u)
            field = np.fft.ifftn(u, axes=axes, out=other)
        else:
            half_kinetic(u)
            if has_scalar:
                t_mid = t + 0.5 * tau
                u *= np.exp(-1j * tau * scalar(t_mid, coords))[..., None]
            half_kinetic(u)
            field = u
        t = t0 + (step + 1) * tau
        if not np.all(np.isfinite(field)):
            raise NumericError(f"field became non-finite at t = {t:.6g}")
        for b in range(field.shape[-1]):
            frac = boundary_mass_fraction(GridFunction(spec, field[..., b]))
            if frac > cfg.boundary_mass_limit:
                raise BoundaryMassError(
                    f"{frac:.2e} of the L2 mass of field {b} within 10% of the "
                    f"edge at t = {t:.6g}")
        if probe is not None:
            probe(t, field)
    return field


# ---------------------------------------------------------------------------
# dense reference solver


def _dense_generator(model, scalar, spec: GridSpec, t: float) -> np.ndarray:
    """Full matrix of the Hermitian generator H with u_t = -i H u."""
    N = spec.size
    eye = np.eye(N, dtype=np.complex128)
    shape = spec.shape
    coords = _coordinate_stack(spec)
    a = eval_a(model, t, coords)
    div = divergence_a(model, t, coords)
    pot = scalar(t, coords) + 0.5 * np.sum(a * a, axis=-1)

    cols = np.empty((N, N), dtype=np.complex128)
    for j in range(N):
        f = eye[:, j].reshape(shape)
        fhat = np.fft.fftn(f)
        kin = np.fft.ifftn(0.5 * spec.freq_squared() * fhat)
        grad = [np.fft.ifftn(1j * spec.freq_axis(i).reshape(
            [spec.points[i] if k == i else 1 for k in range(spec.n)]) * fhat)
            for i in range(spec.n)]
        adotgrad = sum(a[..., i] * grad[i] for i in range(spec.n))
        cols[:, j] = (kin + 1j * (adotgrad + 0.5 * div * f) + pot * f).reshape(-1)
    return 0.5 * (cols + cols.conj().T)


def _evolve_reference(model, scalar, spec, u, t0, t1, cfg, probe):
    """Exponential midpoint with a dense Hermitian eigensolve per step."""
    if spec.size > 512:
        raise GuardError("reference solver is limited to grids with <= 512 nodes")
    n_steps = max(1, int(np.ceil(abs(t1 - t0) / cfg.dt)))
    tau = (t1 - t0) / n_steps
    u = u.reshape(spec.size, -1)
    time_dependent = model.modulation != "one" or scalar.modulation != "one"
    H = None
    for step in range(n_steps):
        t_mid = t0 + (step + 0.5) * tau
        if H is None or time_dependent:
            H = _dense_generator(model, scalar, spec, t_mid)
            w, Q = np.linalg.eigh(H)
        u = Q @ (np.exp(-1j * tau * w)[:, None] * (Q.conj().T @ u))
        if probe is not None:
            probe(t0 + (step + 1) * tau, u.reshape(spec.shape + (-1,)))
    return u.reshape(spec.shape + (-1,))


# ---------------------------------------------------------------------------
# transport identity, leading term


def evolved_wpt_leading(model: VectorPotentialModel, u0: GridFunction,
                        packet: PacketSpec, t: float, p,
                        tol: float = 1e-10) -> complex:
    """Leading term of the packet transform of the solution at time t.

    Flows the phase point backward to time 0, accumulates the complex
    phase integral along the way, and pairs the initial datum with the
    unevolved scaled window at the flowed point:

        exp(i Int_0^t Psi ds) * W[u0](x(0), xi(0)).

    Exact (up to solver error) whenever every second derivative of the
    potential vanishes; otherwise correct to a remainder that is lower
    order in the dilation.
    """
    point = as_phase_point(p, u0.spec.n)
    res = flow(model, t, 0.0, point.x, point.xi, tol)
    int_0_t = -res.psi_integral  # flow accumulated t -> 0
    if isinstance(packet.base, GaussianBase):
        window = packet.window(u0.spec.n)
    else:
        window = packet.realize(u0.spec)
    value = wpt(u0, window, (res.terminal.x, res.terminal.xi))
    return complex(np.exp(1j * int_0_t) * value)
