"""Wave packet transform, scaled window packets, and Gaussian closed forms.

The transform of a field f against a window phi at a phase-space point
(x, xi) is the quadrature of conj(phi(y - x)) f(y) exp(-i y.xi) over the
grid.  Windows come in two flavors:

* a `GridFunction` window, translated by band-limited (spectral phase
  shift) interpolation, which makes the discrete forward/inverse pair an
  exact frame identity on the periodic grid; or
* an analytic `GaussianWindow` (dilated by lambda^b and freely evolved in
  closed form), which can be centered arbitrarily far outside the box and
  is what the wave-front detector uses along flowed phase points.

The Gaussian quadrature is written once, in `pair_many`: it pairs B
fields with one window at S phase points through one (S, M_i) vector per
axis, shared by every field, and `wpt` with a Gaussian window is its
one-point case.  The detector makes one such call per ladder rung.

Scaled packets follow phi_lam(y) = lam^(n b / 2) phi(lam^b y), which keeps
the L2 norm independent of lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import (DomainError, InputError, NyquistError, ResolutionError,
                     UndersampledError)
from .grid import (GridFunction, GridSpec, apply_kinetic, as_phase_point,
                   spectral_shift, spectral_support_edge)

NYQUIST_TOL = 1.0 + 1e-12


def theorem_scaling_exponent(rho: float) -> float:
    """Dilation exponent used for decay tests under a potential of growth rho."""
    return min(1.0 / 8.0, (1.0 - rho) / 8.0)


@dataclass(frozen=True)
class GaussianBase:
    """Unit-amplitude Gaussian base window exp(-|y|^2 / (2 w^2))."""

    width: float = 1.0

    def __post_init__(self):
        if self.width <= 0:
            raise InputError("gaussian width must be positive")


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
        if self.lam < 1.0:
            raise InputError("dilation lambda must be >= 1")
        if not 0.0 < self.b < 1.0:
            raise InputError("scaling exponent b must lie in (0, 1)")
        if self.width <= 0:
            raise InputError("width must be positive")

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

    def spectral_std(self) -> float:
        """Standard deviation of the window's frequency content."""
        return self.lam ** self.b / self.width

    def grid_function(self, spec: GridSpec) -> GridFunction:
        if spec.n != self.n:
            raise InputError("grid dimension does not match window dimension")
        values = np.full(spec.shape, self.amplitude, dtype=np.complex128)
        for i in range(spec.n):
            y = spec.axis(i)
            shape = [1] * spec.n
            shape[i] = spec.points[i]
            values = values * np.exp(-0.5 * self.beta * y ** 2).reshape(shape)
        return GridFunction(spec, values, label="gaussian-window")


@dataclass(frozen=True)
class PacketSpec:
    """Base window, scaling exponent b, dilation lam, free-evolution time t."""

    base: object = GaussianBase()
    b: float = 1.0 / 8.0
    lam: float = 1.0
    t: float = 0.0

    def __post_init__(self):
        if self.lam < 1.0:
            raise InputError("dilation lambda must be >= 1")
        if not 0.0 < self.b < 1.0:
            raise InputError("scaling exponent b must lie in (0, 1)")
        if not isinstance(self.base, (GaussianBase, GridFunction)):
            raise InputError("base must be a GaussianBase or a GridFunction")

    def window(self, n: int) -> GaussianWindow:
        if not isinstance(self.base, GaussianBase):
            raise InputError("analytic windows exist only for gaussian bases")
        return GaussianWindow(n, self.base.width, self.lam, self.b, self.t)

    def realize(self, spec: GridSpec) -> GridFunction:
        packet = make_scaled_packet(spec, self.base, self.lam, self.b)
        if self.t != 0.0:
            packet = free_evolve_packet(packet, self.t)
        return packet


# ---------------------------------------------------------------------------
# packet construction and evolution


def measure_packet_width(packet: GridFunction, axis: int = 0) -> float:
    """1/e half-width of |packet| along an axis line through the origin node."""
    idx = list(packet.spec.origin_index)
    sl = tuple(slice(None) if i == axis else idx[i] for i in range(packet.spec.n))
    profile = np.abs(packet.values[sl])
    x = packet.spec.axis(axis)
    peak_idx = int(np.argmax(profile))
    thr = profile[peak_idx] / np.e
    above = np.nonzero(profile >= thr)[0]
    right = int(above.max())
    if right >= len(profile) - 1:
        return float(packet.spec.halfwidths[axis])
    frac = (profile[right] - thr) / (profile[right] - profile[right + 1])
    return float(x[right] + frac * (x[right + 1] - x[right]) - x[peak_idx])


def make_scaled_packet(spec: GridSpec, base, lam: float, b: float) -> GridFunction:
    """Dilated window lam^(n b / 2) phi(lam^b y) sampled on the grid."""
    if lam < 1.0:
        raise InputError("dilation lambda must be >= 1")
    if not 0.0 < b < 1.0:
        raise InputError("scaling exponent b must lie in (0, 1)")
    scale = lam ** b
    if isinstance(base, GaussianBase):
        for d in spec.dx:
            if scale * d > base.width / 4.0:
                raise ResolutionError(
                    f"dilated packet under-resolved: lam^b*dx = {scale * d:.3g} "
                    f"> width/4 = {base.width / 4.0:.3g} "
                    "(fewer than 8 samples across the 1/e width)")
        return GaussianWindow(spec.n, base.width, lam, b, 0.0).grid_function(spec)
    if isinstance(base, GridFunction):
        if base.spec.n != spec.n:
            raise InputError("base packet dimension does not match the grid")
        if lam == 1.0:
            return GridFunction(spec, base.values.copy(), base.label)
        width = measure_packet_width(base)
        if 2.0 * width / scale < 8.0 * max(spec.dx):
            raise ResolutionError(
                "dilated packet under-resolved (fewer than 8 samples across "
                "the 1/e width)")
        # cubic interpolation of the base samples at the dilated coordinates
        coords = np.meshgrid(*[(scale * spec.axis(i) + base.spec.halfwidths[i])
                               / base.spec.dx[i] for i in range(spec.n)],
                             indexing="ij")
        coords = np.stack(coords)
        re = ndimage.map_coordinates(base.values.real, coords, order=3,
                                     mode="constant", cval=0.0)
        im = ndimage.map_coordinates(base.values.imag, coords, order=3,
                                     mode="constant", cval=0.0)
        return GridFunction(spec, lam ** (spec.n * b / 2.0) * (re + 1j * im))
    raise InputError("base must be a GaussianBase or a GridFunction")


def free_evolve_packet(packet: GridFunction, t: float) -> GridFunction:
    """Spectral application of the free-evolution multiplier exp(-i t |eta|^2/2).

    Guards against phase aliasing: across one frequency-lattice cell near the
    packet's spectral support the multiplier phase must change by less than pi,
    which also keeps the spatially spreading packet inside the box.
    """
    if t == 0.0:
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


def _check_nyquist(spec: GridSpec, XI) -> None:
    """Raise NyquistError if any frequency row of XI leaves the grid band."""
    XI = np.atleast_2d(XI)
    over = np.abs(XI) * np.asarray(spec.dx) > np.pi * NYQUIST_TOL
    if over.any():
        s, i = np.argwhere(over)[0]
        raise NyquistError(
            f"|xi_{i}| = {abs(XI[s, i]):.4g} exceeds the grid band pi/dx = "
            f"{np.pi / spec.dx[i]:.4g}")


def pair_many(spec: GridSpec, values, window: GaussianWindow,
              X, XI) -> np.ndarray:
    """Transforms of B fields against a Gaussian window at S phase points.

    `values` is a sequence of B arrays of the grid's shape; X and XI are
    (S, n).  Returns the (S, B) array of transforms.  The separable window
    gives one (S, M_i) vector per axis, exp(-conj(beta) (y - x_i)^2 / 2
    - i y xi_i), built in place in the real and imaginary parts of one
    complex buffer, and every field shares them.  Each field is contracted
    on its own, the first axis with a matrix product and each later one
    with a per-sample einsum, so a field's transforms do not depend on the
    rest of the batch (a one-column product would take BLAS's
    matrix-vector path) and no field is copied.  Raises NyquistError if
    any frequency leaves the grid band.
    """
    if window.n != spec.n:
        raise InputError("window dimension does not match the field")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    XI = np.atleast_2d(np.asarray(XI, dtype=float))
    if X.shape != XI.shape or X.shape[1] != spec.n:
        raise InputError("phase points must be (S, n) for both x and xi")
    if any(np.shape(v) != spec.shape for v in values):
        raise InputError("each field must have the grid's shape")
    _check_nyquist(spec, XI)
    half_betabar = -0.5 * np.conj(window.beta)
    vecs = []
    for i in range(spec.n):
        y = spec.axis(i)
        vec = np.empty((len(X), len(y)), dtype=np.complex128)
        np.subtract(y, X[:, i, None], out=vec.real)
        np.square(vec.real, out=vec.real)
        np.multiply(vec.real, half_betabar.imag, out=vec.imag)
        vec.real *= half_betabar.real
        for row, xi in zip(vec.imag, XI[:, i]):
            row -= xi * y
        vecs.append(np.exp(vec, out=vec))
    out = np.empty((len(X), len(values)), dtype=np.complex128)
    for j, g in enumerate(values):
        g = np.tensordot(vecs[0], g, axes=(1, 0))
        for vec in vecs[1:]:
            g = np.einsum("sk,sk...->s...", vec, g)
        out[:, j] = g
    return np.conj(window.amplitude) * spec.cell_volume * out


def _contract(values: np.ndarray, axis_vectors: list) -> complex:
    out = values
    for vec in axis_vectors:
        out = np.tensordot(vec, out, axes=(0, 0))
    return complex(out)


def wpt(f: GridFunction, packet, p) -> complex:
    """Wave packet transform of f at one phase-space point.

    `packet` is either a GridFunction window (translated spectrally, so the
    center x must stay inside the box by the window's effective support) or
    a GaussianWindow (evaluated analytically, any center allowed).
    """
    point = as_phase_point(p, f.spec.n)
    _check_nyquist(f.spec, point.xi)
    spec = f.spec
    if isinstance(packet, GaussianWindow):
        return complex(pair_many(spec, [f.values], packet, point.x,
                                 point.xi)[0, 0])
    if isinstance(packet, GridFunction):
        if packet.spec != spec:
            raise InputError("packet and field must live on the same grid")
        support = 3.0 * measure_packet_width(packet)
        for i in range(spec.n):
            if abs(point.x[i]) + support > spec.halfwidths[i]:
                raise DomainError(
                    f"center x_{i} = {point.x[i]:.4g} closer than the packet "
                    f"support {support:.3g} to the boundary")
        win = spectral_shift(packet, point.x)
        g = np.conj(win.values) * f.values
        vecs = [np.exp(-1j * spec.axis(i) * point.xi[i]) for i in range(spec.n)]
        return complex(spec.cell_volume * _contract(g, vecs))
    raise InputError("packet must be a GridFunction or a GaussianWindow")


@dataclass
class WptTable:
    """Transform values on a tensor lattice of positions and frequencies."""

    spec: GridSpec
    x_axes: tuple
    xi_axes: tuple
    values: np.ndarray


def _match_freq_indices(spec: GridSpec, xi_axes) -> list:
    """Indices of requested frequencies inside the FFT lattice, or raise."""
    out = []
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
        out.append(np.asarray(idx))
    return out


def wpt_grid(f: GridFunction, packet, x_axes=None, xi_axes=None) -> WptTable:
    """Batched transform via one FFT per window position.

    Positions may sit anywhere (periodic translation); frequencies must lie
    on the FFT lattice of the grid.  Agrees with `wpt` pointwise.
    """
    spec = f.spec
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
    freq_idx = _match_freq_indices(spec, xi_axes)
    # phase factor exp(+i L xi) per axis corrects for the grid origin at -L
    phases = [np.exp(1j * spec.halfwidths[i] * spec.freq_axis(i)[freq_idx[i]])
              for i in range(spec.n)]
    x_shape = tuple(len(a) for a in x_axes)
    xi_shape = tuple(len(a) for a in xi_axes)
    table = np.empty(x_shape + xi_shape, dtype=np.complex128)
    dV = spec.cell_volume
    for pos_idx in np.ndindex(x_shape):
        x = [x_axes[i][pos_idx[i]] for i in range(spec.n)]
        if isinstance(packet, GaussianWindow):
            win_conj = np.conj(packet(np.stack(
                np.meshgrid(*[spec.axis(i) - x[i] for i in range(spec.n)],
                            indexing="ij"), axis=-1)))
        else:
            win_conj = np.conj(spectral_shift(packet, x).values)
        G = np.fft.fftn(win_conj * f.values) * dV
        block = G[np.ix_(*freq_idx)]
        for i in range(spec.n):
            shape = [1] * spec.n
            shape[i] = len(freq_idx[i])
            block = block * phases[i].reshape(shape)
        table[pos_idx] = block
    return WptTable(spec, x_axes, xi_axes, table)


def inverse_wpt(table: WptTable, packet) -> GridFunction:
    """Adjoint transform divided by the window's squared norm.

    Needs the full FFT frequency band and a position lattice no coarser than
    a quarter of the window width; with the full grid as position lattice the
    discrete round trip is an identity up to round-off.
    """
    spec = table.spec
    if isinstance(packet, GaussianWindow):
        packet = packet.grid_function(spec)
    if not isinstance(packet, GridFunction) or packet.spec != spec:
        raise InputError("packet must live on the table's grid")
    for i in range(spec.n):
        lattice = np.sort(spec.freq_axis(i))
        requested = np.sort(np.asarray(table.xi_axes[i]))
        if len(requested) != len(lattice) or not np.allclose(requested, lattice):
            raise UndersampledError(
                "inverse transform needs the full frequency band per axis")
    width = measure_packet_width(packet)
    spacings = []
    for i, ax in enumerate(table.x_axes):
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
    dy_volume = float(np.prod(spacings))
    freq_idx = _match_freq_indices(spec, table.xi_axes)
    # reorder the xi block into native FFT order once
    inv_order = [np.argsort(idx) for idx in freq_idx]
    phases = [np.exp(-1j * spec.halfwidths[i] * spec.freq_axis(i))
              for i in range(spec.n)]
    norm_sq = packet.l2_norm() ** 2
    x_shape = tuple(len(a) for a in table.x_axes)
    n = spec.n
    out = np.zeros(spec.shape, dtype=np.complex128)
    dV = spec.cell_volume
    for pos_idx in np.ndindex(x_shape):
        block = table.values[pos_idx]
        # scatter the block onto the full fft lattice
        F = np.zeros(spec.shape, dtype=np.complex128)
        F[np.ix_(*freq_idx)] = block
        for i in range(n):
            shape = [1] * n
            shape[i] = spec.points[i]
            F = F * phases[i].reshape(shape)
        inner = np.fft.ifftn(F) / dV
        y = np.array([table.x_axes[i][pos_idx[i]] for i in range(n)])
        win = spectral_shift(packet, y).values
        out += win * inner * dy_volume
    return GridFunction(spec, out / norm_sq, label="inverse-wpt")


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
    point = as_phase_point(p, window.n)
    n = window.n
    if isinstance(signal, DeltaSignal):
        c = np.resize(np.asarray(signal.center, dtype=float), n)
        value = np.conj(window(c - np.asarray(point.x)))
        return complex(signal.amplitude * value * np.exp(-1j * np.dot(c, point.xi)))
    if not isinstance(signal, GaussianSignal):
        raise InputError("oracle supports GaussianSignal and DeltaSignal only")
    gamma = 1.0 / signal.width ** 2
    betabar = np.conj(window.beta)
    A = betabar + gamma
    c = np.resize(np.asarray(signal.center, dtype=float), n)
    k = np.resize(np.asarray(signal.momentum, dtype=float), n)
    out = np.conj(window.amplitude) * signal.amplitude
    for i in range(n):
        B = betabar * point.x[i] + gamma * c[i] + 1j * (k[i] - point.xi[i])
        out = out * np.sqrt(2.0 * np.pi / A) * np.exp(
            B * B / (2.0 * A) - 0.5 * (betabar * point.x[i] ** 2 + gamma * c[i] ** 2))
    return complex(out)


def fundamental_solution_envelope(lam: float, b: float, t0: float,
                                  x_norm: float, n: int) -> float:
    """Qualitative magnitude envelope for the evolved point-mass transform.

    Shape C_n lam^(-n b / 2) |Lam|^(n/2) exp(-|x|^2 / (2 |Lam|)) with
    Lam = lam^(-2b) - i t0, normalized so the lam = 1, x = 0 value matches
    the exact window magnitude.  Used for cross-plotting only; the exact
    closed form lives in `gaussian_wpt_oracle`.
    """
    Lam = lam ** (-2.0 * b) - 1j * t0
    cn = (1.0 + t0 ** 2) ** (-n / 2.0)
    return float(cn * lam ** (-n * b / 2.0) * abs(Lam) ** (n / 2.0)
                 * np.exp(-x_norm ** 2 / (2.0 * abs(Lam))))


# ---------------------------------------------------------------------------
# free-evolution commutation check


def _apply_position_derivative(f: GridFunction, alpha, beta, t: float) -> GridFunction:
    """(x - i t grad)^alpha d^beta f, all derivatives spectral."""
    from .grid import spectral_derivative

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
