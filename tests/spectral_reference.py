"""Matrix-free spectral reference solver for the split-step propagator's tests.

An independent discretization of i u_t + (1/2) D^2 u = V u on the periodic
grid, in any dimension: the Hermitian generator

    H v = -(1/2) Lap v + (i/2) sum_i (a_i d_i v + d_i (a_i v)) + (|a|^2 / 2 + V) v

applied with spectral derivatives, with no interpolation and no splitting.
exp(-i tau H) is expanded in Chebyshev polynomials of H mapped onto
[-1, 1] (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967, 1984), cut where
the Bessel weight |J_k(tau r)| falls below 1e-14.  A potential with a time
factor takes one exponential-midpoint step per dt; without one, H is
constant and one expansion spans the whole interval.
"""

from dataclasses import replace

import numpy as np
from scipy.special import jv

from mswf.grid import GridFunction
from mswf.potentials import eval_a
from mswf.propagator import ZERO_SCALAR

CUTOFF = 1e-14  # smallest Bessel weight kept in an expansion


def chebyshev_step(u: np.ndarray, a: np.ndarray, V: np.ndarray, spec,
                   tau: float) -> np.ndarray:
    """exp(-i tau H) u for the generator of the potential a (*grid, n) and V.

    H = (P - a)^2 / 2 + V with P = -i grad, so its spectrum lies in
    [min V, sum_i (pi / dx + max |a_i|)^2 / 2 + max V].
    """
    kinetic = 0.5 * spec.freq_squared()
    derivative = [1j * spec.along(i, spec.freq_axis()) for i in range(spec.n)]
    diagonal = 0.5 * np.sum(a * a, axis=-1) + V
    low = float(V.min())
    high = 0.5 * sum((np.pi / spec.dx + np.abs(a[..., i]).max()) ** 2
                     for i in range(spec.n)) + float(V.max())
    center, r = 0.5 * (high + low), 0.5 * (high - low)

    def scaled(v):
        """(H - center) v / r."""
        vhat = np.fft.fftn(v)
        out = np.fft.ifftn(kinetic * vhat) + (diagonal - center) * v
        for i, d in enumerate(derivative):
            a_i = a[..., i]
            out += 0.5j * (a_i * np.fft.ifftn(d * vhat) + np.fft.ifftn(d * np.fft.fftn(a_i * v)))
        return out / r

    z = tau * r
    prev, cur = u, scaled(u)
    out = jv(0, z) * prev + 2.0 * (-1j) * jv(1, z) * cur
    k = 1
    while k <= abs(z) or abs(jv(k, z)) >= CUTOFF:
        k += 1
        prev, cur = cur, 2.0 * scaled(cur) - prev
        out += 2.0 * (-1j) ** k * jv(k, z) * cur
    return np.exp(-1j * tau * center) * out


def reference_evolve(model, scalar, u0: GridFunction, t0: float, t1: float,
                     dt: float) -> GridFunction:
    """u0 propagated from t0 to t1: one expansion under modulation "one",
    else exponential-midpoint steps of at most dt, each with a = g a0 at
    the step's midpoint."""
    spec = u0.spec
    coords = np.stack(spec.meshgrid(), axis=-1)
    V = (ZERO_SCALAR if scalar is None else scalar)(coords)
    a0 = eval_a(replace(model, modulation="one"), 0.0, coords)
    n_steps = 1 if model.modulation == "one" else max(1, int(np.ceil(abs(t1 - t0) / dt)))
    tau = (t1 - t0) / n_steps
    u = u0.values
    for step in range(n_steps):
        g = float(model.g(t0 + (step + 0.5) * tau))
        u = chebyshev_step(u, g * a0, V, spec, tau)
    return GridFunction(spec, u, u0.label)
