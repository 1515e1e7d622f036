"""Bicharacteristic flow for h(t, x, xi) = |xi - a(t, x)|^2 / 2.

The flow solves

    dx/ds  = xi - a(s, x)
    dxi/ds = (grad_x a)^T (s, x) (xi - a(s, x))

with an adaptive embedded Runge-Kutta 5(4) pair (scipy's RK45) and dense
output.  A complex phase density

    Psi = -h + grad_x(h) . x + (i/2) div a

is accumulated as two extra quadrature components sharing the stepper's
error control, so phase integrals converge at the same rate as the state.

The module also provides empirical sweeps for the ballistic sandwich
bounds |x(s - t0)| ~ lambda |s - t0|, the momentum-over-position integral
bound, and the linear growth rate of |x(0)| in lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import InputError, NumericError, StepUnderflowError
from .potentials import (VectorPotentialModel, divergence_a, eval_a,
                         jacobian_a)

TOL_RANGE = (1e-13, 1e-3)


def _vector_field(model: VectorPotentialModel, s: float, x, xi):
    """(dx/ds, dxi/ds) = (xi - a, (grad_x a)^T (xi - a)), batched over leading axes."""
    v = xi - eval_a(model, s, x)
    return v, np.einsum("...kj,...k->...j", jacobian_a(model, s, x), v)


def _phase_rate(model: VectorPotentialModel, s: float, x, v, dxi) -> tuple:
    """Real and imaginary parts of Psi, given the vector field (v, dxi) at (s, x)."""
    re = -0.5 * np.sum(v * v, axis=-1) - np.sum(dxi * x, axis=-1)
    return re, 0.5 * divergence_a(model, s, x)


def _canonical_pair(x, xi) -> tuple:
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if x.shape != xi.shape:
        raise InputError("x and xi must have matching shapes")
    return x, xi


def hamiltonian(model: VectorPotentialModel, t: float, x, xi) -> float:
    """Kinetic energy |xi - a(t, x)|^2 / 2 of the canonical pair."""
    v, _ = _vector_field(model, t, *_canonical_pair(x, xi))
    return 0.5 * np.sum(v * v, axis=-1)


def grad_x_h(model: VectorPotentialModel, t: float, x, xi) -> np.ndarray:
    """Spatial gradient of h; equals -(grad_x a)^T (xi - a)."""
    return -_vector_field(model, t, *_canonical_pair(x, xi))[1]


def phase_density(model: VectorPotentialModel, s: float, x, xi) -> complex:
    """Complex integrand accumulated along the flow."""
    x, xi = _canonical_pair(x, xi)
    return complex(*_phase_rate(model, s, x, *_vector_field(model, s, x, xi)))


@dataclass(frozen=True)
class FlowState:
    s: float
    x: tuple
    xi: tuple


@dataclass
class FlowResult:
    """Terminal state, accepted-step trajectory, phase integral, and stats."""

    terminal: FlowState
    states: list
    psi_integral: complex
    stats: dict
    _sol: object = field(default=None, repr=False)

    def at(self, s: float) -> FlowState:
        """Dense-output evaluation at any time inside the integration span."""
        if self._sol is None:
            return self.terminal
        y = self._sol(s)
        n = (len(y) - 2) // 2
        return FlowState(float(s), tuple(map(float, y[:n])),
                         tuple(map(float, y[n:2 * n])))


def _validate_tol(tol: float) -> float:
    if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        raise InputError(f"tolerance must lie in [{TOL_RANGE[0]}, {TOL_RANGE[1]}]")
    return float(tol)


def flow(model: VectorPotentialModel, t0: float, s_target: float,
         x0, xi0, tol: float = 1e-10, max_step: float = np.inf) -> FlowResult:
    """Integrate the flow from data (x0, xi0) at time t0 to s_target.

    Backward spans are integrated directly with negative steps (the
    potential is time dependent, so no time-reversal trick is used).
    `max_step` caps the step size, which pins the stepper to a fixed step
    for convergence-order measurements.
    """
    tol = _validate_tol(tol)
    n = model.n
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    if x0.shape != (n,) or xi0.shape != (n,):
        raise InputError("initial x and xi must match the model dimension")
    if s_target == t0:
        state = FlowState(t0, tuple(map(float, x0)), tuple(map(float, xi0)))
        return FlowResult(state, [state], 0.0 + 0.0j,
                          {"steps": 0, "rhs_evaluations": 0, "tol": tol})

    def rhs(s, y):
        x = y[:n]
        v, dxi = _vector_field(model, s, x, y[n:2 * n])
        return np.concatenate([v, dxi, _phase_rate(model, s, x, v, dxi)])

    y0 = np.concatenate([x0, xi0, [0.0, 0.0]])
    scale = max(1.0, float(np.max(np.abs(y0))))
    sol = solve_ivp(rhs, (t0, s_target), y0, method="RK45",
                    rtol=tol, atol=tol * scale, dense_output=True,
                    max_step=max_step)
    if not sol.success:
        raise StepUnderflowError(f"flow integration failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        raise NumericError("flow produced non-finite state")
    states = [FlowState(float(s), tuple(map(float, y[:n])),
                        tuple(map(float, y[n:2 * n])))
              for s, y in zip(sol.t, sol.y.T)]
    yT = sol.y[:, -1]
    terminal = FlowState(float(sol.t[-1]), tuple(map(float, yT[:n])),
                         tuple(map(float, yT[n:2 * n])))
    psi = complex(yT[2 * n], yT[2 * n + 1])
    stats = {"steps": len(sol.t) - 1, "rhs_evaluations": int(sol.nfev), "tol": tol}
    return FlowResult(terminal, states, psi, stats, _sol=sol.sol)


def flow_batch(model: VectorPotentialModel, t0: float, s_target: float,
               x0: np.ndarray, xi0: np.ndarray, tol: float = 1e-9):
    """Terminal states of many trajectories integrated as one stacked system."""
    tol = _validate_tol(tol)
    n = model.n
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    xi0 = np.atleast_2d(np.asarray(xi0, dtype=float))
    if x0.shape != xi0.shape or x0.shape[1] != n:
        raise InputError("batch shapes must be (K, n) for both x and xi")
    K = x0.shape[0]
    if s_target == t0:
        return x0.copy(), xi0.copy()

    def rhs(s, y):
        state = y.reshape(K, 2 * n)
        v, dxi = _vector_field(model, s, state[:, :n], state[:, n:])
        return np.concatenate([v, dxi], axis=1).reshape(-1)

    y0 = np.concatenate([x0, xi0], axis=1).reshape(-1)
    scale = np.maximum(1.0, np.abs(y0))
    sol = solve_ivp(rhs, (t0, s_target), y0, method="RK45",
                    rtol=tol, atol=tol * scale)
    if not sol.success:
        raise StepUnderflowError(f"batched flow failed: {sol.message}")
    if not np.all(np.isfinite(sol.y[:, -1])):
        raise NumericError("batched flow produced non-finite state")
    out = sol.y[:, -1].reshape(K, 2 * n)
    return out[:, :n].copy(), out[:, n:].copy()


def phase_integral(model: VectorPotentialModel, t0: float, t: float,
                   x0, xi0, tol: float = 1e-10) -> complex:
    """Integral of the phase density from 0 to t along the flow with data at t0.

    The imaginary part equals half the accumulated divergence of a.
    """
    def accumulated(s):
        if s == t0:
            return 0.0 + 0.0j
        return flow(model, t0, s, x0, xi0, tol).psi_integral

    return accumulated(t) - accumulated(0.0)


# ---------------------------------------------------------------------------
# empirical bound sweeps


@dataclass
class FlowBoundReport:
    """Sandwich-ratio sweep over a lambda ladder.

    ratios[lam] is a list of (s_star, |x|/(lam |s_star|), |xi|/lam) triples;
    lambda_hat0 is the first rung from which every later rung stays inside
    [1/(2a), 2a] for both ratios.
    """

    a_param: float
    ladder: tuple
    ratios: dict
    lambda_hat0: float
    violations_above_2hat: int
    ok: bool


def check_flow_bounds(model: VectorPotentialModel, a_param: float, p: float,
                      lam_ladder, t0: float, k_samples, gamma_samples,
                      s_count: int = 4, tol: float = 1e-9) -> FlowBoundReport:
    """Sweep the two-sided ballistic bounds along backward flows from t0.

    For each ladder rung the flow starts at (x, lam xi) at time t0 and the
    position/momentum ratios are recorded at offsets lam^(p-1) <= |s - t0|
    <= t0.  Samples must satisfy 1/a <= |xi| <= a.
    """
    if a_param < 1.0:
        raise InputError("annulus parameter a must be >= 1")
    if not 0.0 < p < 1.0:
        raise InputError("window exponent p must lie in (0, 1)")
    if t0 <= 0.0:
        raise InputError("t0 must be positive")
    k_samples = [np.atleast_1d(np.asarray(x, dtype=float)) for x in k_samples]
    gamma_samples = [np.atleast_1d(np.asarray(v, dtype=float)) for v in gamma_samples]
    for xi in gamma_samples:
        m = float(np.linalg.norm(xi))
        if not (1.0 / a_param - 1e-12 <= m <= a_param + 1e-12):
            raise InputError(f"|xi| = {m:.4g} outside the annulus [1/a, a]")
    ladder = tuple(sorted(float(l) for l in lam_ladder))
    lo, hi = 1.0 / (2.0 * a_param), 2.0 * a_param
    ratios = {}
    rung_ok = []
    for lam in ladder:
        offsets = np.geomspace(lam ** (p - 1.0), t0, s_count)
        entries = []
        good = True
        for x in k_samples:
            for xi in gamma_samples:
                res = flow(model, t0, 0.0, x, lam * xi, tol)
                for off in offsets:
                    st = res.at(t0 - off)
                    rx = float(np.linalg.norm(st.x)) / (lam * off)
                    rxi = float(np.linalg.norm(st.xi)) / lam
                    entries.append((float(off), rx, rxi))
                    if not (lo <= rx <= hi and lo <= rxi <= hi):
                        good = False
        ratios[lam] = entries
        rung_ok.append(good)
    lambda_hat0 = np.inf
    for i in range(len(ladder)):
        if all(rung_ok[i:]):
            lambda_hat0 = ladder[i]
            break
    violations = 0
    if np.isfinite(lambda_hat0):
        for lam, good in zip(ladder, rung_ok):
            if lam >= 2.0 * lambda_hat0 and not good:
                violations += 1
    return FlowBoundReport(a_param=a_param, ladder=ladder, ratios=ratios,
                           lambda_hat0=float(lambda_hat0),
                           violations_above_2hat=violations,
                           ok=np.isfinite(lambda_hat0) and violations == 0)


@dataclass
class IntegralBoundReport:
    """Momentum-over-position integral divided by (1 + interval length)."""

    delta: float
    interval: tuple
    ladder: tuple
    sup_ratio: dict          # lam -> sup over samples
    values: dict             # lam -> list per sample
    stable: bool             # sup varies by < 2x beyond the first rung


def check_integral_bound(model: VectorPotentialModel, delta: float, interval,
                         samples, lam_ladder=(1.0, 10.0, 100.0, 1000.0, 10000.0),
                         tol: float = 1e-10) -> IntegralBoundReport:
    """Quadrature of |xi| / <x>^(1+delta) along flows over a fixed interval.

    The integrand rides the stepper as an extra component, so the sharp
    peak a fast trajectory sweeps through is resolved adaptively.  Samples
    are (x, xi_hat) pairs with data posed at the interval's left endpoint;
    each ladder rung scales the momentum by lam.
    """
    if delta <= 0:
        raise InputError("delta must be positive")
    a, b = float(interval[0]), float(interval[1])
    if b < a:
        raise InputError("interval must satisfy a <= b")
    tol = _validate_tol(tol)
    n = model.n
    ladder = tuple(float(l) for l in lam_ladder)
    denom = 1.0 + (b - a)
    values = {}
    sup_ratio = {}

    def rhs(s, y):
        x, xi = y[:n], y[n:2 * n]
        v, dxi = _vector_field(model, s, x, xi)
        weight = (1.0 + float(x @ x)) ** (0.5 * (1.0 + delta))
        return np.concatenate([v, dxi, [float(np.linalg.norm(xi)) / weight]])

    for lam in ladder:
        vals = []
        for x0, xi_hat in samples:
            x0 = np.atleast_1d(np.asarray(x0, dtype=float))
            xi0 = lam * np.atleast_1d(np.asarray(xi_hat, dtype=float))
            if b == a:
                vals.append(0.0)
                continue
            y0 = np.concatenate([x0, xi0, [0.0]])
            scale = np.maximum(1.0, np.abs(y0))
            sol = solve_ivp(rhs, (a, b), y0, method="RK45",
                            rtol=tol, atol=tol * scale)
            if not sol.success:
                raise StepUnderflowError(f"integral-bound flow failed: {sol.message}")
            vals.append(float(sol.y[-1, -1]) / denom)
        values[lam] = vals
        sup_ratio[lam] = max(vals) if vals else 0.0
    # boundedness is judged beyond the first rung: a unit-momentum flow
    # barely moves, so its small integral is not evidence about the limit
    tail = [sup_ratio[lam] for lam in ladder[1:] if sup_ratio[lam] > 0.0] \
        if len(ladder) > 2 else [s for s in sup_ratio.values() if s > 0.0]
    stable = bool(tail) and max(tail) / min(tail) < 2.0
    return IntegralBoundReport(delta=delta, interval=(a, b), ladder=ladder,
                               sup_ratio=sup_ratio, values=values, stable=stable)


@dataclass
class LowerBoundReport:
    """Ratios |x(0)| / (lam t0 |xi|) over a ladder; 1 means pure ballistics."""

    ladder: tuple
    ratios: dict             # lam -> list over samples
    x0_norms: dict           # lam -> flowed |x(0)| per sample
    top_in_bracket: bool     # all top-rung ratios within 10 percent of 1


def lower_bound_x0(model: VectorPotentialModel, t0: float, k_samples,
                   gamma_samples, lam_ladder, tol: float = 1e-9) -> LowerBoundReport:
    """Growth of the backward-flowed position: |x(0)| should scale like lam t0 |xi|.

    Samples run over positions, then directions; each rung flows all of
    them once, as one `flow_batch`.
    """
    if t0 <= 0:
        raise InputError("t0 must be positive")
    ladder = tuple(sorted(float(l) for l in lam_ladder))
    xs = np.array([np.atleast_1d(np.asarray(x, dtype=float))
                   for x in k_samples for _ in gamma_samples])
    xi_hats = np.array([np.atleast_1d(np.asarray(xi, dtype=float))
                        for _ in k_samples for xi in gamma_samples])
    xi_norms = np.linalg.norm(xi_hats, axis=-1)
    ratios, x0_norms = {}, {}
    for lam in ladder:
        x_end, _ = flow_batch(model, t0, 0.0, xs, lam * xi_hats, tol)
        norms = np.linalg.norm(x_end, axis=-1)
        x0_norms[lam] = [float(v) for v in norms]
        ratios[lam] = [float(v) for v in norms / (lam * t0 * xi_norms)]
    top = ratios[ladder[-1]]
    top_in_bracket = all(0.9 <= r <= 1.1 for r in top)
    return LowerBoundReport(ladder=ladder, ratios=ratios, x0_norms=x0_norms,
                            top_in_bracket=top_in_bracket)
