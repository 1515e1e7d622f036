"""Uniform periodic grids, complex grid functions, and spectral helpers.

All fields live on tensor-product grids covering [-L, L) per axis with a
power-of-two number of points, so FFT-based operators are exact for
band-limited data and spectrally accurate for smooth decaying fields.
The trapezoidal rule on such a grid coincides with the plain Riemann sum,
which is what every quadrature here uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, integer, number, one_of

SUPPORT_FLOOR = 1e-10  # spectral mass that counts as support, relative to the peak
EDGE_MARGIN = 0.1  # the edge band, as a fraction of each half-width


def _per_axis(value, n: int, name: str) -> tuple:
    """Broadcast a scalar to an n-tuple, or validate an n-sequence."""
    if np.isscalar(value):
        return (value,) * n
    out = tuple(value) if np.iterable(value) else ()
    if len(out) != n:
        raise InputError(f"{name} must be a scalar or length-{n} sequence, got {value!r}")
    return out


@dataclass(frozen=True)
class GridSpec:
    """Dimension, per-axis point count M and half-width L of a periodic box."""

    n: int
    points: tuple
    halfwidths: tuple

    def __init__(self, n: int, points, halfwidths):
        n = integer(n, "n")
        if n not in (1, 2):
            raise InputError(f"grid dimension must be 1 or 2, got {n}")
        points = tuple(integer(m, "points") for m in _per_axis(points, n, "points"))
        halfwidths = tuple(number(w, "halfwidth") for w in _per_axis(halfwidths, n, "halfwidths"))
        for m in points:
            if m < 8 or (m & (m - 1)) != 0:
                raise InputError(f"point count must be a power of two >= 8, got {m}")
        for w in halfwidths:
            if w <= 0:
                raise InputError(f"half-width must be positive, got {w}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "halfwidths", halfwidths)

    @property
    def shape(self) -> tuple:
        return self.points

    @property
    def dx(self) -> tuple:
        return tuple(2.0 * L / M for M, L in zip(self.points, self.halfwidths))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    @property
    def size(self) -> int:
        return int(np.prod(self.points))

    def axis(self, i: int) -> np.ndarray:
        """Physical coordinates along axis i: -L, -L+dx, ..., L-dx."""
        M, L = self.points[i], self.halfwidths[i]
        return -L + (2.0 * L / M) * np.arange(M)

    def axes(self) -> list:
        return [self.axis(i) for i in range(self.n)]

    def freq_axis(self, i: int) -> np.ndarray:
        """Angular frequencies of the FFT basis along axis i (fft order)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points[i], d=self.dx[i])

    def freq_axes(self) -> list:
        return [self.freq_axis(i) for i in range(self.n)]

    def nyquist(self) -> tuple:
        """Largest representable |frequency| per axis, pi/dx."""
        return tuple(np.pi / d for d in self.dx)

    def freq_squared(self) -> np.ndarray:
        """|eta|^2 on the full frequency lattice, broadcast to grid shape."""
        out = np.zeros(self.shape)
        for i in range(self.n):
            out = out + self.along(i, self.freq_axis(i) ** 2)
        return out

    def along(self, i: int, values) -> np.ndarray:
        """A 1-d array shaped to broadcast along axis i of the grid."""
        shape = [1] * self.n
        shape[i] = -1
        return np.reshape(values, shape)

    def meshgrid(self) -> list:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    @property
    def origin_index(self) -> tuple:
        """Lattice index of the point x = 0 (exact by construction)."""
        return tuple(M // 2 for M in self.points)


@dataclass
class GridFunction:
    """Complex samples of a field on a GridSpec, treated as immutable."""

    spec: GridSpec
    values: np.ndarray
    label: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.spec.shape:
            raise InputError(
                f"sample shape {self.values.shape} != grid shape {self.spec.shape}"
            )

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.spec.cell_volume))

    def with_values(self, values: np.ndarray, label: str | None = None) -> "GridFunction":
        return GridFunction(self.spec, values, label if label is not None else self.label)


def field_batch(f) -> tuple:
    """(fields, single) for one GridFunction or a sequence of them on one grid.

    `single` says whether f was one GridFunction, so a batched routine can
    return its result in the form it was given.
    """
    single = isinstance(f, GridFunction)
    fields = [f] if single else list(f)
    if not fields:
        raise InputError("a batch needs at least one field")
    if any(g.spec != fields[0].spec for g in fields):
        raise InputError("batched fields must share one grid")
    return fields, single


def point_array(v, n: int | None = None, ndim=(1, np.inf), key: str = "x") -> np.ndarray:
    """v as a finite float array of shape (..., n) with ndim[0] to ndim[1]
    axes; InputError naming `key` otherwise.  n defaults to the length of
    the last axis, and missing axes are leading ones of length 1 (a number
    is one point of dimension 1)."""
    try:
        v = np.array(v, dtype=float, ndmin=ndim[0])
    except (TypeError, ValueError):
        raise InputError(f"{key} must be an array of numbers, got {v!r}") from None
    if v.ndim > ndim[1] or v.shape[-1] != (n or v.shape[-1]):
        raise InputError(f"{key} has shape {v.shape}, not (..., {n or 'n'}) "
                         f"with {ndim[0]} to {ndim[1]} axes")
    if not np.isfinite(v).all():
        raise InputError(f"{key} must be finite")
    return v


def phase_points(x, xi, n: int | None = None, ndim=(1, np.inf)) -> tuple:
    """Phase-space points (x, xi) of one shape, each checked by `point_array`."""
    x, xi = point_array(x, n, ndim, "x"), point_array(xi, n, ndim, "xi")
    if x.shape != xi.shape:
        raise InputError(f"x and xi must have one shape, got {x.shape} and {xi.shape}")
    return x, xi


# ---------------------------------------------------------------------------
# spectral operators


def apply_kinetic(f: GridFunction, t: float) -> GridFunction:
    """Apply the free-evolution Fourier multiplier exp(-i t |eta|^2 / 2)."""
    mult = np.exp(-0.5j * t * f.spec.freq_squared())
    return f.with_values(np.fft.ifftn(mult * np.fft.fftn(f.values)))


def spectral_derivative(f: GridFunction, axis: int) -> GridFunction:
    mult = f.spec.along(axis, 1j * f.spec.freq_axis(axis))
    return f.with_values(np.fft.ifftn(mult * np.fft.fftn(f.values)))


def spectral_support_edge(f: GridFunction) -> tuple:
    """Per-axis largest |frequency| carrying spectral mass above SUPPORT_FLOOR."""
    fhat = np.abs(np.fft.fftn(f.values))
    top = fhat.max()
    if top == 0.0:
        return (0.0,) * f.spec.n
    mask = fhat >= SUPPORT_FLOOR * top
    edges = []
    for i in range(f.spec.n):
        eta = np.abs(f.spec.freq_axis(i))
        other = tuple(j for j in range(f.spec.n) if j != i)
        line = mask.any(axis=other) if other else mask
        edges.append(float(eta[line].max()))
    return tuple(edges)


@lru_cache(maxsize=16)
def _edge_blocks(spec: GridSpec) -> tuple:
    """Index tuples of the 2n disjoint slabs that tile the nodes within
    EDGE_MARGIN of the box edge: axis i outside its interior range, the
    axes before it inside theirs.  They index a (B, *grid) complex batch
    viewed as float64, so the last axis counts real and imaginary parts."""
    inner = []
    for i in range(spec.n):
        interior = np.flatnonzero(np.abs(spec.axis(i)) < (1.0 - EDGE_MARGIN) * spec.halfwidths[i])
        inner.append((int(interior[0]), int(interior[-1]) + 1))
    blocks = []
    for i, (lo, hi) in enumerate(inner):
        k = 2 if i == spec.n - 1 else 1  # real and imaginary parts interleave
        head = (slice(None),) + tuple(slice(a, b) for a, b in inner[:i])
        blocks += [head + (slice(0, k * lo),), head + (slice(k * hi, None),)]
    return tuple(blocks)


def boundary_mass_fraction(spec: GridSpec, batch: np.ndarray) -> np.ndarray:
    """Per-field fraction of squared L2 mass within EDGE_MARGIN of the box
    edge, for a batch (B, *grid) of values: 0 where a field's mass is 0,
    nan where it is not finite.  The edge is summed slab by slab, not
    taken as total minus interior, so a small fraction keeps its digits."""
    v = np.ascontiguousarray(batch, dtype=np.complex128).view(np.float64)
    flat = v.reshape(len(v), -1)
    with np.errstate(all="ignore"):  # squares that overflow, inf / inf
        total = np.vecdot(flat, flat)  # one dot product per field
        edge = sum(np.vecdot(v[s], v[s]).reshape(len(v), -1).sum(axis=1)
                   for s in _edge_blocks(spec))
        frac = np.divide(edge, total, out=np.zeros(len(v)), where=total != 0.0)
    frac[~np.isfinite(total)] = np.nan
    return frac


# ---------------------------------------------------------------------------
# built-in initial data


def gaussian_data(spec: GridSpec, width=1.0, center=0.0, momentum=0.0,
                  amplitude: complex = 1.0, label="gaussian") -> GridFunction:
    """amplitude * exp(-|y-c|^2/(2 w^2)) * exp(i y.k), axis-wise widths allowed."""
    width = tuple(number(w, "width") for w in _per_axis(width, spec.n, "width"))
    if min(width) <= 0:
        raise InputError(f"'width' must be positive, got {min(width)}")
    center = _per_axis(center, spec.n, "center")
    momentum = _per_axis(momentum, spec.n, "momentum")
    values = np.full(spec.shape, complex(amplitude), dtype=np.complex128)
    for i in range(spec.n):
        y = spec.axis(i) - center[i]
        axis_vals = np.exp(-(y ** 2) / (2.0 * width[i] ** 2) + 1j * momentum[i] * spec.axis(i))
        values = values * spec.along(i, axis_vals)
    return GridFunction(spec, values, label)


def delta_spike(spec: GridSpec, label="delta") -> GridFunction:
    """Discrete point mass at the origin node: height 1/dV so sums pair exactly."""
    values = np.zeros(spec.shape, dtype=np.complex128)
    values[spec.origin_index] = 1.0 / spec.cell_volume
    return GridFunction(spec, values, label)


def jump_data(spec: GridSpec, width=1.0, axis: int = 0, steepness: float = 0.0,
              label="jump") -> GridFunction:
    """A Gaussian with a sign flip across the hyperplane y_axis = 0.

    steepness > 0 mollifies the flip to tanh(y/steepness); a hard sign
    radiates mass at all frequencies and cannot be propagated on a finite
    box without tripping the boundary monitor.
    """
    if not isinstance(axis, (int, np.integer)) or axis not in range(spec.n):
        raise InputError(f"jump axis must be one of {list(range(spec.n))}, got {axis!r}")
    g = gaussian_data(spec, width=width)
    y = spec.axis(axis)
    flip = np.sign(y) if steepness == 0.0 else np.tanh(y / steepness)
    return GridFunction(spec, g.values * spec.along(axis, flip), label)


BUILTIN_DATA = {
    "gaussian": gaussian_data,
    "delta": delta_spike,
    "jump": jump_data,
}


def builtin_data(datum: str, spec: GridSpec, **kwargs) -> GridFunction:
    return BUILTIN_DATA[one_of(datum, BUILTIN_DATA, "built-in datum")](spec, **kwargs)

