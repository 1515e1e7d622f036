"""Dense reference solver for the split-step propagator's tests.

An independent discretization of i u_t + (1/2) D^2 u = V u on small grids:
the full Hermitian generator, built column by column with spectral
derivatives, and one exponential-midpoint step per dt through its
eigendecomposition.  It covers what the exact gauge solution cannot: a
time-modulated potential, and a scalar term together with transport.
"""

import numpy as np

from mswf.grid import GridFunction
from mswf.potentials import divergence_a, eval_a
from mswf.propagator import ZERO_SCALAR


def dense_generator(model, scalar, spec, t: float) -> np.ndarray:
    """Full matrix of the Hermitian generator H with u_t = -i H u."""
    N = spec.size
    eye = np.eye(N, dtype=np.complex128)
    coords = np.stack(spec.meshgrid(), axis=-1)
    a = eval_a(model, t, coords)
    div = divergence_a(model, t, coords)
    pot = scalar(t, coords) + 0.5 * np.sum(a * a, axis=-1)

    cols = np.empty((N, N), dtype=np.complex128)
    for j in range(N):
        f = eye[:, j].reshape(spec.shape)
        fhat = np.fft.fftn(f)
        kin = np.fft.ifftn(0.5 * spec.freq_squared() * fhat)
        grad = [np.fft.ifftn(1j * spec.along(i, spec.freq_axis(i)) * fhat)
                for i in range(spec.n)]
        adotgrad = sum(a[..., i] * grad[i] for i in range(spec.n))
        cols[:, j] = (kin + 1j * (adotgrad + 0.5 * div * f) + pot * f).reshape(-1)
    return 0.5 * (cols + cols.conj().T)


def dense_evolve(model, scalar, u0: GridFunction, t0: float, t1: float,
                 dt: float) -> GridFunction:
    """u0 propagated from t0 to t1 in exponential-midpoint steps of at most
    dt.  Each step costs a dense eigensolve of size u0.spec.size when the
    potential has a time factor, so keep grids to a few hundred points."""
    spec = u0.spec
    scalar = ZERO_SCALAR if scalar is None else scalar
    n_steps = max(1, int(np.ceil(abs(t1 - t0) / dt)))
    tau = (t1 - t0) / n_steps
    u = u0.values.reshape(-1)
    time_dependent = model.modulation != "one" or scalar.modulation != "one"
    w = None
    for step in range(n_steps):
        if w is None or time_dependent:
            w, Q = np.linalg.eigh(dense_generator(model, scalar, spec,
                                                  t0 + (step + 0.5) * tau))
        u = Q @ (np.exp(-1j * tau * w) * (Q.conj().T @ u))
    return GridFunction(spec, u.reshape(spec.shape), u0.label)
