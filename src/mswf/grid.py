"""Uniform periodic grids, complex grid functions, and spectral helpers.

All fields live on tensor-product grids covering [-L, L) per axis with a
power-of-two number of points, so FFT-based operators are exact for
band-limited data and spectrally accurate for smooth decaying fields.
The trapezoidal rule on such a grid coincides with the plain Riemann sum,
which is what every quadrature here uses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InputError

WFGF_MAGIC = b"WFGF"
WFGF_VERSION = 1


def _per_axis(value, n: int, name: str) -> tuple:
    """Broadcast a scalar to an n-tuple, or validate an n-sequence."""
    if np.isscalar(value):
        return (value,) * n
    out = tuple(value)
    if len(out) != n:
        raise InputError(f"{name} must be a scalar or length-{n} sequence")
    return out


@dataclass(frozen=True)
class GridSpec:
    """Dimension, per-axis point count M and half-width L of a periodic box."""

    n: int
    points: tuple
    halfwidths: tuple

    def __init__(self, n: int, points, halfwidths):
        if n not in (1, 2, 3):
            raise InputError(f"grid dimension must be 1, 2 or 3, got {n}")
        points = tuple(int(m) for m in _per_axis(points, n, "points"))
        halfwidths = tuple(float(w) for w in _per_axis(halfwidths, n, "halfwidths"))
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
            eta = self.freq_axis(i) ** 2
            shape = [1] * self.n
            shape[i] = self.points[i]
            out = out + eta.reshape(shape)
        return out

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


@dataclass(frozen=True)
class PhasePoint:
    """A position/frequency pair (x, xi) in phase space."""

    x: tuple
    xi: tuple

    def __init__(self, x, xi):
        x = tuple(float(v) for v in np.atleast_1d(x))
        xi = tuple(float(v) for v in np.atleast_1d(xi))
        if len(x) != len(xi):
            raise InputError("x and xi must have the same dimension")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xi))):
            raise InputError("phase point entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)

    @property
    def n(self) -> int:
        return len(self.x)


def as_phase_point(p, n: int) -> PhasePoint:
    if isinstance(p, PhasePoint):
        pt = p
    else:
        pt = PhasePoint(*p)
    if pt.n != n:
        raise InputError(f"phase point has dimension {pt.n}, expected {n}")
    return pt


# ---------------------------------------------------------------------------
# spectral operators


def apply_kinetic(f: GridFunction, t: float) -> GridFunction:
    """Apply the free-evolution Fourier multiplier exp(-i t |eta|^2 / 2)."""
    mult = np.exp(-0.5j * t * f.spec.freq_squared())
    return f.with_values(np.fft.ifftn(mult * np.fft.fftn(f.values)))


def spectral_shift(f: GridFunction, shift) -> GridFunction:
    """Band-limited translate: returns g with g(y) = f(y - shift), periodic."""
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    if shift.shape != (f.spec.n,):
        raise InputError("shift must have one entry per axis")
    fhat = np.fft.fftn(f.values)
    for i in range(f.spec.n):
        eta = f.spec.freq_axis(i)
        shape = [1] * f.spec.n
        shape[i] = f.spec.points[i]
        fhat = fhat * np.exp(-1j * eta * shift[i]).reshape(shape)
    return f.with_values(np.fft.ifftn(fhat))


def spectral_derivative(f: GridFunction, axis: int) -> GridFunction:
    mult = 1j * f.spec.freq_axis(axis)
    shape = [1] * f.spec.n
    shape[axis] = f.spec.points[axis]
    return f.with_values(np.fft.ifftn(mult.reshape(shape) * np.fft.fftn(f.values)))


def spectral_support_edge(f: GridFunction, rel_floor: float = 1e-10) -> tuple:
    """Per-axis largest |frequency| carrying spectral mass above rel_floor."""
    fhat = np.abs(np.fft.fftn(f.values))
    top = fhat.max()
    if top == 0.0:
        return (0.0,) * f.spec.n
    mask = fhat >= rel_floor * top
    edges = []
    for i in range(f.spec.n):
        eta = np.abs(f.spec.freq_axis(i))
        other = tuple(j for j in range(f.spec.n) if j != i)
        line = mask.any(axis=other) if other else mask
        edges.append(float(eta[line].max()))
    return tuple(edges)


@lru_cache(maxsize=16)
def _edge_mask(spec: GridSpec, margin: float) -> np.ndarray:
    """Read-only mask of the nodes within `margin` of the box edge."""
    mask = np.zeros(spec.shape, dtype=bool)
    for i in range(spec.n):
        x = np.abs(spec.axis(i))
        edge = x >= (1.0 - margin) * spec.halfwidths[i]
        shape = [1] * spec.n
        shape[i] = spec.points[i]
        mask |= edge.reshape(shape)
    mask.flags.writeable = False
    return mask


def boundary_mass_fraction(f: GridFunction, margin: float = 0.1) -> float:
    """Fraction of squared L2 mass within `margin` of the box edge."""
    w = np.abs(f.values) ** 2
    total = w.sum()
    if total == 0.0:
        return 0.0
    return float(w[_edge_mask(f.spec, margin)].sum() / total)


# ---------------------------------------------------------------------------
# built-in initial data


def gaussian_data(spec: GridSpec, width=1.0, center=0.0, momentum=0.0,
                  amplitude: complex = 1.0, label="gaussian") -> GridFunction:
    """amplitude * exp(-|y-c|^2/(2 w^2)) * exp(i y.k), axis-wise widths allowed."""
    width = _per_axis(width, spec.n, "width")
    center = _per_axis(center, spec.n, "center")
    momentum = _per_axis(momentum, spec.n, "momentum")
    values = np.full(spec.shape, complex(amplitude), dtype=np.complex128)
    for i in range(spec.n):
        y = spec.axis(i) - center[i]
        axis_vals = np.exp(-(y ** 2) / (2.0 * width[i] ** 2) + 1j * momentum[i] * spec.axis(i))
        shape = [1] * spec.n
        shape[i] = spec.points[i]
        values = values * axis_vals.reshape(shape)
    return GridFunction(spec, values, label)


def delta_spike(spec: GridSpec, label="delta") -> GridFunction:
    """Discrete point mass at the origin node: height 1/dV so sums pair exactly."""
    values = np.zeros(spec.shape, dtype=np.complex128)
    values[spec.origin_index] = 1.0 / spec.cell_volume
    return GridFunction(spec, values, label)


def jump_data(spec: GridSpec, width=1.0, axis: int = 0, steepness: float = 0.0,
              label="jump") -> GridFunction:
    """Gaussian envelope with a sign flip across the hyperplane y_axis = 0.

    steepness > 0 mollifies the flip to tanh(y/steepness); a hard sign
    radiates mass at all frequencies and cannot be propagated on a finite
    box without tripping the boundary monitor.
    """
    g = gaussian_data(spec, width=width)
    y = spec.axis(axis)
    flip = np.sign(y) if steepness == 0.0 else np.tanh(y / steepness)
    shape = [1] * spec.n
    shape[axis] = spec.points[axis]
    return GridFunction(spec, g.values * flip.reshape(shape), label)


BUILTIN_DATA = {
    "gaussian": gaussian_data,
    "delta": delta_spike,
    "jump": jump_data,
}


def builtin_data(name: str, spec: GridSpec, **kwargs) -> GridFunction:
    if name not in BUILTIN_DATA:
        raise InputError(f"unknown built-in datum '{name}' (have {sorted(BUILTIN_DATA)})")
    return BUILTIN_DATA[name](spec, **kwargs)


# ---------------------------------------------------------------------------
# file formats


def save_wfgf(f: GridFunction, path) -> None:
    """Binary field file: magic, version, n, per-axis (M, L), then re/im pairs."""
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(WFGF_MAGIC)
        fh.write(struct.pack("<HH", WFGF_VERSION, f.spec.n))
        for M, L in zip(f.spec.points, f.spec.halfwidths):
            fh.write(struct.pack("<Qd", M, L))
        interleaved = np.empty(f.spec.size * 2, dtype="<f8")
        flat = f.values.reshape(-1)
        interleaved[0::2] = flat.real
        interleaved[1::2] = flat.imag
        fh.write(interleaved.tobytes())


def load_wfgf(path) -> GridFunction:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != WFGF_MAGIC:
        raise InputError(f"{path}: not a WFGF file")
    version, n = struct.unpack_from("<HH", raw, 4)
    if version != WFGF_VERSION:
        raise InputError(f"{path}: unsupported WFGF version {version}")
    offset = 8
    points, halfwidths = [], []
    for _ in range(n):
        M, L = struct.unpack_from("<Qd", raw, offset)
        offset += 16
        points.append(int(M))
        halfwidths.append(float(L))
    spec = GridSpec(n, tuple(points), tuple(halfwidths))
    flat = np.frombuffer(raw, dtype="<f8", count=spec.size * 2, offset=offset)
    values = (flat[0::2] + 1j * flat[1::2]).reshape(spec.shape)
    return GridFunction(spec, values)


def gridfunction_to_csv(f: GridFunction, path) -> None:
    """Plain-text export with one row per node: indices, coordinates, re, im."""
    path = Path(path)
    axes = f.spec.axes()
    idx_cols = ",".join(f"i{k}" for k in range(f.spec.n))
    x_cols = ",".join(f"x{k}" for k in range(f.spec.n))
    lines = [f"{idx_cols},{x_cols},re,im"]
    for idx in np.ndindex(f.spec.shape):
        coords = ",".join(repr(float(axes[k][idx[k]])) for k in range(f.spec.n))
        v = f.values[idx]
        lines.append(f"{','.join(str(i) for i in idx)},{coords},"
                     f"{float(v.real)!r},{float(v.imag)!r}")
    path.write_text("\n".join(lines) + "\n")
