"""Dense reference solver for the split-step propagator's tests.

An independent discretization of i u_t + (1/2) D^2 u = V u on small grids:
the full Hermitian generator, built column by column with spectral
derivatives, and one exponential-midpoint step per dt through its
eigendecomposition.  It covers what the exact gauge solution cannot: a
time-modulated potential, and a scalar term together with transport.
"""

from dataclasses import replace

import numpy as np

from mswf.grid import GridFunction
from mswf.potentials import divergence_a, eval_a
from mswf.propagator import ZERO_SCALAR


def dense_parts(model, spec) -> tuple:
    """Matrices (K, T, P) of the generator H(t) = K + g T + g^2 P + V.

    The potential is a(t) = g(t) a0(x), as in the built-in families with a
    time factor: K is the kinetic term, T = i (a0 . grad + div a0 / 2) and
    P = |a0|^2 / 2, all built once.  The scalar term V(x) is diagonal.
    """
    N = spec.size
    coords = np.stack(spec.meshgrid(), axis=-1)
    a0 = eval_a(replace(model, modulation="one"), 0.0, coords)
    div0 = divergence_a(replace(model, modulation="one"), 0.0, coords)
    K = np.empty((N, N), dtype=np.complex128)
    T = np.empty((N, N), dtype=np.complex128)
    for j in range(N):
        f = np.zeros(N, dtype=np.complex128)
        f[j] = 1.0
        fhat = np.fft.fftn(f.reshape(spec.shape))
        K[:, j] = np.fft.ifftn(0.5 * spec.freq_squared() * fhat).reshape(-1)
        adotgrad = sum(a0[..., i] * np.fft.ifftn(1j * spec.along(i, spec.freq_axis(i)) * fhat)
                       for i in range(spec.n))
        T[:, j] = (1j * (adotgrad + 0.5 * div0 * f.reshape(spec.shape))).reshape(-1)
    return K, T, np.diag(0.5 * np.sum(a0 * a0, axis=-1).reshape(-1))


def dense_evolve(model, scalar, u0: GridFunction, t0: float, t1: float,
                 dt: float) -> GridFunction:
    """u0 propagated from t0 to t1 in exponential-midpoint steps of at most
    dt.  The generator's parts are built once; each step costs a dense
    eigensolve of size u0.spec.size when the potential has a time factor,
    so keep grids to a few hundred points."""
    spec = u0.spec
    scalar = ZERO_SCALAR if scalar is None else scalar
    V = np.diag(scalar(np.stack(spec.meshgrid(), axis=-1)).reshape(-1))
    K, T, P = dense_parts(model, spec)
    n_steps = max(1, int(np.ceil(abs(t1 - t0) / dt)))
    tau = (t1 - t0) / n_steps
    u = u0.values.reshape(-1)
    w = None
    for step in range(n_steps):
        if w is None or model.modulation != "one":
            g = float(model.g(t0 + (step + 0.5) * tau))
            H = K + g * T + g * g * P + V
            w, Q = np.linalg.eigh(0.5 * (H + H.conj().T))
        u = Q @ (np.exp(-1j * tau * w) * (Q.conj().T @ u))
    return GridFunction(spec, u.reshape(spec.shape), u0.label)
