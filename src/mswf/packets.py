"""Wave packet transform, scaled Gaussian windows, and their closed forms.

The transform of a field f against a window phi at a phase-space point
(x, xi) is the quadrature of conj(phi(y - x)) f(y) exp(-i y.xi) over the
grid.  There is one window type, the analytic `GaussianWindow` (dilated by
lambda^b and freely evolved in closed form).  The pointwise transform
evaluates it anywhere, so its center may sit far outside the box, which
is what the wave-front detector needs along flowed phase points.  The
lattice transform `wpt_grid` is the full table, every grid position
against every FFT frequency; it samples the window periodically on the
grid about each position, at the nearest-image displacement on each
axis.  Each sample is a grid shift of the one about the origin, so
`inverse_wpt` divides the adjoint by that one squared norm, and the round
trip is an identity up to round-off.

The Gaussian quadrature is written once, in `pair_many`: it pairs B
fields with one window at S phase points through one (S, M) vector per
axis, shared by every field, and `wpt` is its one-point case.  Each field
is contracted only over the box that bounds its nonzero nodes, which
keeps the bits of the full-grid sum for a field that fills the grid or
has one nonzero node, and pairs a point mass in O(S).  The detector
makes one such call per ladder rung.

Scaled windows follow phi_lam(y) = lam^(n b / 2) phi(lam^b y), which keeps
the L2 norm independent of lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NyquistError, ResolutionError, integer, number
from .grid import (GridFunction, GridSpec, apply_kinetic, phase_points, point_array,
                   spectral_derivative, spectral_support_edge)

NYQUIST_TOL = 1.0 + 1e-12


def theorem_scaling_exponent(rho: float) -> float:
    """Dilation exponent used for decay tests under a potential of growth rho."""
    return min(1.0 / 8.0, (1.0 - rho) / 8.0)


@dataclass(frozen=True)
class GaussianWindow:
    """Closed-form scaled and freely evolved Gaussian window.

    With alpha = lam^(2b) / w^2 and z = 1 + i alpha t, the window is

        lam^(n b / 2) z^(-n/2) exp(-alpha |y|^2 / (2 z)).

    At t = 0 this is the plain scaled packet; for any t it is its exact
    free evolution, so it can be evaluated anywhere without a grid.
    """

    n: int
    width: float = 1.0
    lam: float = 1.0
    b: float = 1.0 / 8.0
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", integer(self.n, "n"))
        if self.n not in (1, 2):
            raise InputError(f"dimension must be 1 or 2, got {self.n}")
        for key, limits in (("width", {"above": 0.0}), ("lam", {"at_least": 1.0}),
                            ("b", {"above": 0.0, "below": 1.0}), ("t", {})):
            object.__setattr__(self, key, number(getattr(self, key), key, **limits))
        try:
            alpha = self.alpha
        except (OverflowError, ZeroDivisionError):
            alpha = np.inf
        if not 0.0 < alpha < np.inf:
            raise InputError(f"width {self.width!r} at lam = {self.lam!r} gives a window "
                             "curvature lam^(2b) / width^2 that is not a finite positive float")

    @property
    def alpha(self) -> float:
        return self.lam ** (2.0 * self.b) / self.width ** 2

    @property
    def z(self) -> complex:
        return 1.0 + 1j * self.alpha * self.t

    @property
    def beta(self) -> complex:
        """Complex curvature: window = amplitude * exp(-beta |y|^2 / 2)."""
        return self.alpha / self.z

    @property
    def amplitude(self) -> complex:
        return self.lam ** (self.n * self.b / 2.0) * self.z ** (-self.n / 2.0)

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        r2 = np.sum(pts * pts, axis=-1)
        return self.amplitude * np.exp(-0.5 * self.beta * r2)

    def evolved(self, t: float) -> "GaussianWindow":
        return GaussianWindow(self.n, self.width, self.lam, self.b, self.t + t)

    def l2_norm(self) -> float:
        """Exact continuum norm, independent of lam and t."""
        return (np.sqrt(np.pi) * self.width) ** (self.n / 2.0)

    def grid_function(self, spec: GridSpec, center=None) -> GridFunction:
        """The window about `center` (default the origin) sampled on the
        periodic grid, at the nearest-image displacement on each axis."""
        _check_window(self, spec.n)
        values = np.full(spec.shape, self.amplitude, dtype=np.complex128)
        L = spec.halfwidth
        for i in range(spec.n):
            y = spec.axis()
            if center is not None:
                y = (y - center[i] + L) % (2.0 * L) - L
            values = values * spec.along(i, np.exp(-0.5 * self.beta * y ** 2))
        return GridFunction(spec, values, label="gaussian-window")


def _check_window(window, n: int) -> None:
    """Raise InputError unless `window` is a GaussianWindow of dimension n."""
    if not isinstance(window, GaussianWindow) or window.n != n:
        raise InputError("window must be a GaussianWindow of the field's dimension")


# ---------------------------------------------------------------------------
# packet evolution


def free_evolve_packet(packet: GridFunction, t: float) -> GridFunction:
    """Spectral application of the free-evolution multiplier exp(-i t |eta|^2/2).

    Guards against phase aliasing: across one frequency-lattice cell near the
    packet's spectral support the multiplier phase must change by less than pi,
    which also keeps the spatially spreading packet inside the box.
    """
    if number(t, "t") == 0.0:
        return packet.with_values(packet.values.copy())
    reach = abs(t) * spectral_support_edge(packet)
    if reach > packet.spec.halfwidth:
        raise ResolutionError(
            f"free evolution under-resolved: |t| * eta_max = {reach:.3g} exceeds "
            f"the half-width {packet.spec.halfwidth:.3g}")
    return apply_kinetic(packet, t)


# ---------------------------------------------------------------------------
# the transform


def in_band(spec: GridSpec, XI) -> np.ndarray:
    """Which entries of the (S, n) frequencies XI lie in the grid band |xi| dx <= pi."""
    return np.abs(XI) * spec.dx <= np.pi * NYQUIST_TOL


def _check_nyquist(spec: GridSpec, XI) -> None:
    """Raise NyquistError if any frequency row of XI leaves the grid band."""
    XI = np.atleast_2d(XI)
    over = ~in_band(spec, XI)
    if over.any():
        s, i = np.argwhere(over)[0]
        raise NyquistError(
            f"|xi_{i}| = {abs(XI[s, i]):.4g} exceeds the grid band pi/dx = "
            f"{np.pi / spec.dx:.4g}")


def _nonzero_box(g: np.ndarray):
    """Per-axis slices that bound the nonzero nodes of g, or None if it has none.

    A field with a nonzero node on both end planes of every axis, as every
    evolved field and Gaussian datum has, keeps the full grid without a
    scan; any other field is compared with zero node by node, so a caller
    that pairs one field many times (the detector, once per rung) finds
    its box once and hands it to `_pair_in_boxes`."""
    full = tuple(slice(0, m) for m in g.shape)
    if all(g[full[:i] + (end,)].any() for i in range(g.ndim) for end in (0, -1)):
        return full
    nonzero = g != 0
    box = []
    for i in range(g.ndim):
        line = np.flatnonzero(nonzero.any(axis=tuple(j for j in range(g.ndim) if j != i)))
        if not line.size:
            return None
        box.append(slice(int(line[0]), int(line[-1]) + 1))
    return tuple(box)


def pair_many(spec: GridSpec, values, window: GaussianWindow,
              X, XI) -> np.ndarray:
    """Transforms of B fields against a Gaussian window at S phase points.

    `values` is a sequence of B arrays of the grid's shape; X and XI are
    (S, n).  Returns the (S, B) array of transforms.  The separable window
    gives one (S, M) vector per axis, exp(-conj(beta) (y - x_i)^2 / 2
    - i y xi_i), built in place in the real and imaginary parts of one
    complex buffer, and every field shares them.  Each field is contracted
    on its own, the first axis with a matrix product (one node with an
    elementwise product) and each later one with a per-sample einsum, and
    only over the box that bounds its nonzero nodes, since every product
    outside it is an exact zero.  The vectors are elementwise, so built
    once on the union of the boxes they give each field its own columns
    with the bits it would get alone: a field's transforms do not depend
    on the rest of the batch (a one-column product would take BLAS's
    matrix-vector path) and no field is copied.  A field that fills the grid keeps the bits of the
    full-grid sum, and so does a point mass, which costs O(S): its
    transform is the conjugate window sample at its node.  Any other box
    sums in another order, within round-off, and a zero field pairs to
    exact zeros.  Each call finds the boxes anew (`_nonzero_box`); the
    detector finds them once per scan and calls `_pair_in_boxes` once per
    rung, on the samples of all its cells, with the same bits.  A sample
    row gets the same bits in any batch, a lone row too.  Raises
    NyquistError if any frequency leaves the grid band.
    """
    _check_window(window, spec.n)
    X, XI = phase_points(X, XI, spec.n, ndim=(2, 2))
    if any(np.shape(v) != spec.shape for v in values):
        raise InputError("each field must have the grid's shape")
    _check_nyquist(spec, XI)
    values = [np.asarray(g) for g in values]
    return _pair_in_boxes(spec, values, [_nonzero_box(g) for g in values], window, X, XI)


def _pair_in_boxes(spec: GridSpec, values: list, boxes: list, window: GaussianWindow,
                   X: np.ndarray, XI: np.ndarray) -> np.ndarray:
    """The kernel of `pair_many`, on checked inputs: the (S, n) arrays X
    and XI inside the grid band, arrays `values` of the grid's shape, and
    boxes[j] = _nonzero_box(values[j])."""
    if len(X) == 1:  # alone, a row would take BLAS's dot path; pair it as two
        return _pair_in_boxes(spec, values, boxes, window, np.repeat(X, 2, axis=0),
                              np.repeat(XI, 2, axis=0))[:1]
    live = [box for box in boxes if box is not None]
    out = np.zeros((len(X), len(values)), dtype=np.complex128)
    if not live:
        return out
    union = [slice(min(box[i].start for box in live), max(box[i].stop for box in live))
             for i in range(spec.n)]
    half_betabar = -0.5 * np.conj(window.beta)
    vecs, axis = [], spec.axis()
    for i, cols in enumerate(union):
        y = axis[cols]
        vec = np.empty((len(X), len(y)), dtype=np.complex128)
        np.subtract(y, X[:, i, None], out=vec.real)
        np.square(vec.real, out=vec.real)
        np.multiply(vec.real, half_betabar.imag, out=vec.imag)
        vec.real *= half_betabar.real
        vec.imag -= XI[:, i, None] * y
        vecs.append(np.exp(vec, out=vec))
    for j, (g, box) in enumerate(zip(values, boxes)):
        if box is None:
            continue
        own = [vec[:, b.start - u.start:b.stop - u.start]
               for vec, b, u in zip(vecs, box, union)]
        g = g[box]
        # on one node, BLAS's axpy would round a complex row by its place in S
        g = np.einsum("sk,k...->s...", own[0], g) if len(g) == 1 \
            else np.tensordot(own[0], g, axes=(1, 0))
        for vec in own[1:]:
            g = np.einsum("sk,sk...->s...", vec, g)
        out[:, j] = g
    return np.conj(window.amplitude) * spec.cell_volume * out


def wpt(f: GridFunction, window: GaussianWindow, p) -> complex:
    """Wave packet transform of f at one phase-space point, any center."""
    x, xi = phase_points(*p, f.spec.n, ndim=(1, 1))
    return complex(pair_many(f.spec, [f.values], window, x, xi)[0, 0])


def _origin_phase(spec: GridSpec) -> np.ndarray:
    """exp(i L.xi) on the FFT lattice, the phase that corrects the FFT for
    the grid origin at -L."""
    shift = np.exp(1j * spec.halfwidth * spec.freq_axis())
    phase = np.ones((1,) * spec.n, dtype=np.complex128)
    for i in range(spec.n):
        phase = phase * spec.along(i, shift)
    return phase


def wpt_grid(f: GridFunction, window: GaussianWindow) -> np.ndarray:
    """The transform on the full lattice, one FFT per grid position.

    Returns the complex array of shape spec.shape + spec.shape: the
    position's grid index first, then the frequency's index in FFT order
    (`GridSpec.freq_axis`).  At each position the window is sampled
    periodically on the grid (`GaussianWindow.grid_function`).  Agrees
    with `wpt` wherever the window is negligible half a box away; `wpt`
    and `pair_many` take any other phase-space point.
    """
    spec = f.spec
    _check_window(window, spec.n)
    phase = _origin_phase(spec) * spec.cell_volume
    axis = spec.axis()
    table = np.empty(spec.shape * 2, dtype=np.complex128)
    for pos in np.ndindex(spec.shape):
        win_conj = np.conj(window.grid_function(spec, axis[list(pos)]).values)
        table[pos] = np.fft.fftn(win_conj * f.values) * phase
    return table


def inverse_wpt(spec: GridSpec, table, window: GaussianWindow) -> GridFunction:
    """Inverse of `wpt_grid`: the adjoint divided by the window's squared
    grid norm.

    The window is sampled periodically about each grid position, as in
    `wpt_grid`, so every sample is a grid shift of the one about the
    origin and carries its squared norm; the round trip is an identity
    up to round-off for any window width.  Raises InputError for a table
    of another shape than `wpt_grid` returns on this grid.
    """
    _check_window(window, spec.n)
    table = np.asarray(table)
    if table.shape != spec.shape * 2:
        raise InputError(f"table has shape {table.shape}, the grid's full lattice is "
                         f"{spec.shape * 2}")
    phase = np.conj(_origin_phase(spec))
    axis = spec.axis()
    out = np.zeros(spec.shape, dtype=np.complex128)
    for pos in np.ndindex(spec.shape):
        window_at = window.grid_function(spec, axis[list(pos)]).values
        out += window_at * np.fft.ifftn(table[pos] * phase)
    return GridFunction(spec, out / window.grid_function(spec).l2_norm() ** 2,
                        label="inverse-wpt")


# ---------------------------------------------------------------------------
# Gaussian closed forms


@dataclass(frozen=True)
class GaussianSignal:
    """Test field amplitude * exp(-|y-c|^2/(2 u^2)) * exp(i k.y); c, k = 0 if omitted."""

    width: float = 1.0
    center: tuple | None = None
    momentum: tuple | None = None
    amplitude: complex = 1.0


@dataclass(frozen=True)
class DeltaSignal:
    """Point mass at `center`, the origin if omitted (on a grid: a one-node spike)."""

    center: tuple | None = None
    amplitude: complex = 1.0


def gaussian_wpt_oracle(signal, window: GaussianWindow, p) -> complex:
    """Exact transform of a Gaussian or point-mass field against the window.

    Independent of any grid: a complete-the-square evaluation used to
    cross-check every quadrature path.  The signal's centre and momentum
    must have the window's dimension; InputError otherwise.
    """
    n = window.n
    x, xi = phase_points(*p, n, ndim=(1, 1))
    if not isinstance(signal, (GaussianSignal, DeltaSignal)):
        raise InputError("oracle supports GaussianSignal and DeltaSignal only")
    momentum = signal.momentum if isinstance(signal, GaussianSignal) else None
    c, k = (np.zeros(n) if v is None else point_array(v, n, (1, 1), key)
            for v, key in ((signal.center, "center"), (momentum, "momentum")))
    if isinstance(signal, DeltaSignal):
        value = np.conj(window(c - x))
        return complex(signal.amplitude * value * np.exp(-1j * np.dot(c, xi)))
    gamma = 1.0 / signal.width ** 2
    betabar = np.conj(window.beta)
    A = betabar + gamma
    out = np.conj(window.amplitude) * signal.amplitude
    for i in range(n):
        B = betabar * x[i] + gamma * c[i] + 1j * (k[i] - xi[i])
        out = out * np.sqrt(2.0 * np.pi / A) * np.exp(
            B * B / (2.0 * A) - 0.5 * (betabar * x[i] ** 2 + gamma * c[i] ** 2))
    return complex(out)


# ---------------------------------------------------------------------------
# free-evolution commutation check


def _apply_position_derivative(f: GridFunction, alpha, beta, t: float) -> GridFunction:
    """(x - i t grad)^alpha d^beta f, all derivatives spectral."""
    out = f
    for axis, count in enumerate(beta):
        for _ in range(int(count)):
            out = spectral_derivative(out, axis)
    coords = f.spec.meshgrid()
    for axis, count in enumerate(alpha):
        for _ in range(int(count)):
            shifted = spectral_derivative(out, axis)
            out = out.with_values(coords[axis] * out.values - 1j * t * shifted.values)
    return out


def commutator_check(packet: GridFunction, t: float, alpha, beta) -> float:
    """Max-abs mismatch of x^alpha d^beta after vs before free evolution.

    Compares x^alpha d^beta exp(i t Lap / 2) f with
    exp(i t Lap / 2) (x - i t grad)^alpha d^beta f; the two agree
    identically for smooth decaying fields, so the returned number is a
    pure discretization defect.
    """
    alpha = tuple(int(c) for c in alpha)
    beta = tuple(int(c) for c in beta)
    if len(alpha) != packet.spec.n or len(beta) != packet.spec.n:
        raise InputError("multi-index length must equal the grid dimension")
    if sum(alpha) + sum(beta) > 2:
        raise InputError("commutation check implemented for |alpha|+|beta| <= 2")
    evolved = free_evolve_packet(packet, t)
    lhs = _apply_position_derivative(evolved, alpha, beta, 0.0)
    rhs_inner = _apply_position_derivative(packet, alpha, beta, t)
    rhs = free_evolve_packet(rhs_inner, t) if t != 0.0 else rhs_inner
    return float(np.max(np.abs(lhs.values - rhs.values)))
