"""Wave packet transform, scaled window packets, and Gaussian closed forms.

The transform of a field f against a window phi at a phase-space point
(x, xi) is the quadrature of conj(phi(y - x)) f(y) exp(-i y.xi) over the
grid.  There is one window type, the analytic `GaussianWindow` (dilated by
lambda^b and freely evolved in closed form).  The pointwise transform
evaluates it anywhere, so its center may sit far outside the box, which
is what the wave-front detector needs along flowed phase points.  The
lattice transform and its inverse sample it periodically on the grid
about each lattice position, with the nearest-image displacement on each
axis, which makes the discrete forward/inverse pair an exact frame
identity on the periodic grid.

The Gaussian quadrature is written once, in `pair_many`: it pairs B
fields with one window at S phase points through one (S, M_i) vector per
axis, shared by every field, and `wpt` is its one-point case.  Each field
is contracted only over the box that bounds its nonzero nodes, which
keeps the bits of the full-grid sum for a field that fills the grid or
has one nonzero node, and pairs a point mass in O(S).  The detector
makes one such call per ladder rung.

Scaled packets follow phi_lam(y) = lam^(n b / 2) phi(lam^b y), which keeps
the L2 norm independent of lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InputError, NyquistError, ResolutionError, UndersampledError,
                     integer, number)
from .grid import (GridFunction, GridSpec, apply_kinetic, phase_points,
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
        for key in ("width", "lam", "b", "t"):
            object.__setattr__(self, key, number(getattr(self, key), key))
        if self.lam < 1.0:
            raise InputError("dilation lambda must be >= 1")
        if not 0.0 < self.b < 1.0:
            raise InputError("scaling exponent b must lie in (0, 1)")
        if self.width <= 0:
            raise InputError("width must be positive")
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
        for i in range(spec.n):
            y = spec.axis(i)
            if center is not None:
                L = spec.halfwidths[i]
                y = (y - center[i] + L) % (2.0 * L) - L
            values = values * spec.along(i, np.exp(-0.5 * self.beta * y ** 2))
        return GridFunction(spec, values, label="gaussian-window")


def _check_window(window, n: int) -> None:
    """Raise InputError unless `window` is a GaussianWindow of dimension n."""
    if not isinstance(window, GaussianWindow) or window.n != n:
        raise InputError("window must be a GaussianWindow of the field's dimension")


# ---------------------------------------------------------------------------
# packet construction and evolution


def make_scaled_packet(spec: GridSpec, width: float, lam: float,
                       b: float) -> GridFunction:
    """The Gaussian window of this width dilated by lam^b, sampled on the grid."""
    window = GaussianWindow(spec.n, width, lam, b)
    scale = lam ** b
    for d in spec.dx:
        if scale * d > width / 4.0:
            raise ResolutionError(
                f"dilated packet under-resolved: lam^b*dx = {scale * d:.3g} "
                f"> width/4 = {width / 4.0:.3g} "
                "(fewer than 8 samples across the 1/e width)")
    return window.grid_function(spec)


def free_evolve_packet(packet: GridFunction, t: float) -> GridFunction:
    """Spectral application of the free-evolution multiplier exp(-i t |eta|^2/2).

    Guards against phase aliasing: across one frequency-lattice cell near the
    packet's spectral support the multiplier phase must change by less than pi,
    which also keeps the spatially spreading packet inside the box.
    """
    if number(t, "t") == 0.0:
        return packet.with_values(packet.values.copy())
    edges = spectral_support_edge(packet)
    for i, edge in enumerate(edges):
        if abs(t) * edge > packet.spec.halfwidths[i]:
            raise ResolutionError(
                f"free evolution under-resolved on axis {i}: |t| * eta_max = "
                f"{abs(t) * edge:.3g} exceeds the half-width "
                f"{packet.spec.halfwidths[i]:.3g}")
    return apply_kinetic(packet, t)


# ---------------------------------------------------------------------------
# the transform


def in_band(spec: GridSpec, XI) -> np.ndarray:
    """Which entries of the (S, n) frequencies XI lie in the grid band |xi| dx <= pi."""
    return np.abs(XI) * np.asarray(spec.dx) <= np.pi * NYQUIST_TOL


def _check_nyquist(spec: GridSpec, XI) -> None:
    """Raise NyquistError if any frequency row of XI leaves the grid band."""
    XI = np.atleast_2d(XI)
    over = ~in_band(spec, XI)
    if over.any():
        s, i = np.argwhere(over)[0]
        raise NyquistError(
            f"|xi_{i}| = {abs(XI[s, i]):.4g} exceeds the grid band pi/dx = "
            f"{np.pi / spec.dx[i]:.4g}")


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
    gives one (S, M_i) vector per axis, exp(-conj(beta) (y - x_i)^2 / 2
    - i y xi_i), built in place in the real and imaginary parts of one
    complex buffer, and every field shares them.  Each field is contracted
    on its own, the first axis with a matrix product and each later one
    with a per-sample einsum, and only over the box that bounds its
    nonzero nodes, since every product outside it is an exact zero.  The
    vectors are elementwise, so built once on the union of the boxes they
    give each field its own columns with the bits it would get alone: a
    field's transforms do not depend on the rest of the batch (a
    one-column product would take BLAS's matrix-vector path) and no field
    is copied.  A field that fills the grid keeps the bits of the
    full-grid sum, and so does a point mass, which costs O(S): its
    transform is the conjugate window sample at its node.  Any other box
    sums in another order, within round-off, and a zero field pairs to
    exact zeros.  Each call finds the boxes anew (`_nonzero_box`); the
    detector finds them once per scan and calls `_pair_in_boxes` once per
    rung, on the samples of all its cells, with the same bits.  A sample
    row gets the same bits in any batch of two or more rows (a lone row
    takes BLAS's dot-product path; a one-node first axis of a field that
    is not real rounds by the row's place in the batch).  Raises
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
    live = [box for box in boxes if box is not None]
    out = np.zeros((len(X), len(values)), dtype=np.complex128)
    if not live:
        return out
    union = [slice(min(box[i].start for box in live), max(box[i].stop for box in live))
             for i in range(spec.n)]
    half_betabar = -0.5 * np.conj(window.beta)
    vecs = []
    for i, cols in enumerate(union):
        y = spec.axis(i)[cols]
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
        g = np.tensordot(own[0], g[box], axes=(1, 0))
        for vec in own[1:]:
            g = np.einsum("sk,sk...->s...", vec, g)
        out[:, j] = g
    return np.conj(window.amplitude) * spec.cell_volume * out


def wpt(f: GridFunction, window: GaussianWindow, p) -> complex:
    """Wave packet transform of f at one phase-space point, any center."""
    x, xi = phase_points(*p, f.spec.n, ndim=(1, 1))
    return complex(pair_many(f.spec, [f.values], window, x, xi)[0, 0])


@dataclass
class WptTable:
    """Transform values on a tensor lattice of positions and frequencies."""

    spec: GridSpec
    x_axes: tuple
    xi_axes: tuple
    values: np.ndarray


def _lattice_frequencies(spec: GridSpec, xi_axes) -> tuple:
    """Indices of the requested frequencies inside the FFT lattice, or raise,
    and exp(i L.xi) on their tensor lattice, the phase that corrects the
    FFT for the grid origin at -L."""
    freq_idx = []
    phase = np.ones(tuple(len(a) for a in xi_axes), dtype=np.complex128)
    for i, requested in enumerate(xi_axes):
        lattice = spec.freq_axis(i)
        tol = 1e-9 * np.pi / spec.dx[i]
        idx = []
        for xi in requested:
            hits = np.nonzero(np.abs(lattice - xi) <= tol)[0]
            if len(hits) == 0:
                raise NyquistError(
                    f"frequency {xi:.6g} on axis {i} is not grid-representable")
            idx.append(int(hits[0]))
        freq_idx.append(np.asarray(idx))
        phase = phase * spec.along(i, np.exp(1j * spec.halfwidths[i] * lattice[idx]))
    return freq_idx, phase


def wpt_grid(f: GridFunction, window: GaussianWindow, x_axes=None,
             xi_axes=None) -> WptTable:
    """Batched transform via one FFT per window position.

    At each position the window is sampled periodically on the grid
    (`GaussianWindow.grid_function`), so positions may sit anywhere;
    frequencies must lie on the FFT lattice of the grid.  Agrees with
    `wpt` pointwise wherever the window is negligible half a box away.
    """
    spec = f.spec
    _check_window(window, spec.n)
    if x_axes is None:
        x_axes = tuple(spec.axes())
    else:
        x_axes = tuple(np.atleast_1d(np.asarray(a, dtype=float)) for a in x_axes)
    if xi_axes is None:
        xi_axes = tuple(spec.freq_axes())
    else:
        xi_axes = tuple(np.atleast_1d(np.asarray(a, dtype=float)) for a in xi_axes)
    if len(x_axes) != spec.n or len(xi_axes) != spec.n:
        raise InputError("x_axes and xi_axes need one array per grid axis")
    freq_idx, phase = _lattice_frequencies(spec, xi_axes)
    phase = phase * spec.cell_volume
    x_shape = tuple(len(a) for a in x_axes)
    table = np.empty(x_shape + phase.shape, dtype=np.complex128)
    for pos_idx in np.ndindex(x_shape):
        x = [x_axes[i][pos_idx[i]] for i in range(spec.n)]
        win_conj = np.conj(window.grid_function(spec, x).values)
        table[pos_idx] = np.fft.fftn(win_conj * f.values)[np.ix_(*freq_idx)] * phase
    return WptTable(spec, x_axes, xi_axes, table)


def inverse_wpt(table: WptTable, window: GaussianWindow) -> GridFunction:
    """Adjoint transform divided by the window's squared norm.

    The window is sampled periodically about each lattice position, as in
    `wpt_grid`, and its squared norm is that of its sample at the origin.
    Needs the full FFT frequency band and a position lattice no coarser
    than a quarter of the window's 1/e half-width sqrt(2 / Re beta); with
    the full grid as position lattice the discrete round trip is an
    identity up to round-off.
    """
    spec = table.spec
    _check_window(window, spec.n)
    freq_idx, phase = _lattice_frequencies(spec, table.xi_axes)
    x_shape = tuple(len(a) for a in table.x_axes)
    if np.shape(table.values) != x_shape + phase.shape:
        raise InputError(f"table values have shape {np.shape(table.values)}, "
                         f"its axes give {x_shape + phase.shape}")
    if not all(np.array_equal(np.sort(idx), np.arange(m))
               for idx, m in zip(freq_idx, spec.points)):
        raise UndersampledError("inverse transform needs the full frequency band per axis")
    width = np.sqrt(2.0 / window.beta.real)
    spacings = []
    for ax in table.x_axes:
        if len(ax) < 2:
            raise UndersampledError("position lattice needs at least 2 points per axis")
        steps = np.diff(ax)
        if not np.allclose(steps, steps[0]):
            raise InputError("position lattice must be uniform")
        if steps[0] > width / 4.0 + 1e-12:
            raise UndersampledError(
                f"position spacing {steps[0]:.3g} coarser than width/4 = "
                f"{width / 4.0:.3g}")
        spacings.append(float(steps[0]))
    phase = np.conj(phase)
    out = np.zeros(spec.shape, dtype=np.complex128)
    for pos_idx in np.ndindex(x_shape):
        F = np.zeros(spec.shape, dtype=np.complex128)  # the block on the full lattice
        F[np.ix_(*freq_idx)] = table.values[pos_idx] * phase
        y = [table.x_axes[i][pos_idx[i]] for i in range(spec.n)]
        out += window.grid_function(spec, y).values * np.fft.ifftn(F)
    scale = np.prod(spacings) / (spec.cell_volume * window.grid_function(spec).l2_norm() ** 2)
    return GridFunction(spec, out * scale, label="inverse-wpt")


# ---------------------------------------------------------------------------
# Gaussian closed forms


@dataclass(frozen=True)
class GaussianSignal:
    """Test field amplitude * exp(-|y-c|^2/(2 u^2)) * exp(i k.y)."""

    width: float = 1.0
    center: tuple = (0.0,)
    momentum: tuple = (0.0,)
    amplitude: complex = 1.0


@dataclass(frozen=True)
class DeltaSignal:
    """Point mass at `center` (the grid version is a single-node spike)."""

    center: tuple = (0.0,)
    amplitude: complex = 1.0


def gaussian_wpt_oracle(signal, window: GaussianWindow, p) -> complex:
    """Exact transform of a Gaussian or point-mass field against the window.

    Independent of any grid: a complete-the-square evaluation used to
    cross-check every quadrature path.
    """
    n = window.n
    x, xi = phase_points(*p, n, ndim=(1, 1))
    if isinstance(signal, DeltaSignal):
        c = np.resize(np.asarray(signal.center, dtype=float), n)
        value = np.conj(window(c - x))
        return complex(signal.amplitude * value * np.exp(-1j * np.dot(c, xi)))
    if not isinstance(signal, GaussianSignal):
        raise InputError("oracle supports GaussianSignal and DeltaSignal only")
    gamma = 1.0 / signal.width ** 2
    betabar = np.conj(window.beta)
    A = betabar + gamma
    c = np.resize(np.asarray(signal.center, dtype=float), n)
    k = np.resize(np.asarray(signal.momentum, dtype=float), n)
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
