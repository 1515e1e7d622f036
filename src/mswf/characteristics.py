"""Bicharacteristic flow for h(t, x, xi) = |xi - a(t, x)|^2 / 2.

The flow solves

    dx/ds  = xi - a(s, x)
    dxi/ds = (grad_x a)^T (s, x) (xi - a(s, x))

with the adaptive Dormand-Prince 5(4) pair and the step control of scipy's
RK45, in one grouped stepper, `_rk45_groups`.  Its right-hand side takes
the vector field from `potentials.flow_field`, one fused pass per family
that writes v and dxi straight into the derivative's state layout.
`flow` integrates one trajectory with dense output.  A complex phase density

    Psi = -h + grad_x(h) . x + (i/2) div a

is accumulated as two extra quadrature components sharing the stepper's
error control, so phase integrals converge at the same rate as the state.

`flow_batch` integrates groups of trajectories, `(K, n)` for one group or
`(G, K, n)` for G, and returns terminal states only.  The stepper advances
all groups in lockstep, one vectorised attempt per pass, while each group
keeps its own time, step size and accept/reject state.  Each group
therefore takes the steps scipy's RK45 solver takes on it alone, and
its result is the same bits alone or in a batch.

The module also provides empirical sweeps, each one grouped call, for the
ballistic sandwich bounds |x(s - t0)| ~ lambda |s - t0|, the
momentum-over-position integral bound, and the linear growth rate of
|x(0)| in lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError, StepUnderflowError, dilations, number
from .grid import phase_points, point_array
from .potentials import (VectorPotentialModel, divergence_a, eval_a, flow_field,
                         squared_norm)
# no right-hand side calls jacobian_a; the name stays because
# perfbench/layers.py wraps mswf.characteristics.jacobian_a in its traced run
from .potentials import jacobian_a  # noqa: F401

SWEEP_OFFSETS = 4  # offsets per flow at which check_flow_bounds reads the ratios


def _phase_rate(model: VectorPotentialModel, s, x, v, dxi) -> tuple:
    """Real and imaginary parts of Psi, given the vector field (v, dxi) at (s, x).

    `s` is a time, or one time per row of x, as in `flow_field`.  The sums
    over the n components run in axis order, as in `squared_norm`.
    """
    dot = dxi[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        dot += dxi[..., i] * x[..., i]
    return -0.5 * squared_norm(v) - dot, 0.5 * divergence_a(model, s, x)


def hamiltonian(model: VectorPotentialModel, t: float, x, xi) -> float:
    """Kinetic energy |xi - a(t, x)|^2 / 2 of the canonical pair."""
    x, xi = phase_points(x, xi, model.n)
    v = xi - eval_a(model, t, x)
    return 0.5 * squared_norm(v)


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
    _segments: list = field(default_factory=list, repr=False)

    def at(self, s: float) -> FlowState:
        """Dense-output evaluation at any time inside the integration span."""
        if not self._segments:
            return self.terminal
        return _state(s, _dense(self._segments, s), len(self.terminal.x))


def _state(s, y, n: int) -> FlowState:
    return FlowState(float(s), tuple(map(float, y[:n])), tuple(map(float, y[n:2 * n])))


def _validate_tol(tol: float) -> float:
    return number(tol, "tol", at_least=1e-13, at_most=1e-3)


def flow(model: VectorPotentialModel, t0: float, s_target: float,
         x0, xi0, tol: float = 1e-10, max_step: float = np.inf) -> FlowResult:
    """Integrate the flow from data (x0, xi0) at time t0 to s_target.

    The trajectory and its phase channels are one group of `_rk45_groups`
    with rtol = tol and atol = tol * max(1, max |y0|), so it takes the steps
    scipy's RK45 solver takes.  Backward spans are integrated directly
    with negative steps (the potential is time dependent, so no
    time-reversal trick is used).  `max_step` caps the step size, which pins
    the stepper to a fixed step for convergence-order measurements.
    """
    tol = _validate_tol(tol)
    t0, s_target = number(t0, "t0"), number(s_target, "s_target")
    if not max_step > 0:  # inf, the default, means no cap
        raise InputError(f"'max_step' must be > 0, got {max_step!r}")
    n = model.n
    x0, xi0 = phase_points(x0, xi0, n, ndim=(1, 1))  # one start point, not a batch of one
    if s_target == t0:
        state = _state(t0, np.concatenate([x0, xi0]), n)
        return FlowResult(state, [state], 0.0 + 0.0j, {"steps": 0, "rhs_evaluations": 0})
    end, nfev, (segments,) = _phase_flows(model, t0, s_target, x0[None], xi0[None], tol, max_step)
    states = [_state(seg[0], seg[2], n) for seg in segments] + [_state(s_target, end[0], n)]
    stats = {"steps": len(segments), "rhs_evaluations": int(nfev[0])}
    return FlowResult(states[-1], states, complex(*end[0, 2 * n:]), stats, segments)


def _phase_flows(model: VectorPotentialModel, t0: float, s_target: float,
                 x0: np.ndarray, xi0: np.ndarray, tol: float, max_step: float = np.inf):
    """`_rk45_groups` on G trajectories, x0 and xi0 (G, n), each one group
    with its phase channels and atol = tol * max(1, max |y0|)."""
    y0 = np.concatenate([x0, xi0, np.zeros((len(x0), 2))], axis=-1)
    atol = tol * np.maximum(1.0, np.max(np.abs(y0), axis=-1, keepdims=True))
    segments = [[] for _ in y0]
    rhs = _groups_rhs(model, 1, lambda s, x, xi, v, dxi: _phase_rate(model, s, x, v, dxi))
    end, nfev = _rk45_groups(rhs, float(t0), float(s_target), y0, tol, atol,
                             max_step, segments)
    return end, nfev, segments


def _dense(segments: list, s: float) -> np.ndarray:
    """A group's dense output at time s, from the segment scipy's OdeSolution picks."""
    sign = np.sign(segments[0][1] - segments[0][0])
    ends = sign * np.array([seg[1] for seg in segments])
    t_old, t_new, y_old, Q = segments[min(int(np.searchsorted(ends, sign * s)),
                                          len(segments) - 1)]
    h = t_new - t_old
    return y_old + h * (Q @ np.cumprod(np.full(Q.shape[1], (s - t_old) / h)))


# Dormand-Prince 5(4) with Shampine's dense output, and the step control of
# scipy's RK45 solver
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0], [1/5, 0, 0, 0, 0], [3/40, 9/40, 0, 0, 0], [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_STAGES, _ERROR_EXPONENT = 6, -1.0 / 5  # error estimator of order 4
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _rms(z):
    """scipy's RMS error norm, one per group (row)."""
    return np.sqrt(np.sum(z * z, axis=-1)) / z.shape[-1] ** 0.5


def _initial_step(fun, t, y, f, direction, span, rtol, atol):
    """scipy's initial step rule (Hairer, Norsett, Wanner II.4), one per group."""
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), span)
    f1 = fun(t + h0 * direction, y + (h0 * direction)[:, None] * f)
    d2 = _rms((f1 - f) / scale) / h0
    with np.errstate(divide="ignore"):
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (-_ERROR_EXPONENT))
    return np.minimum(np.minimum(100 * h0, h1), span)


def _rk45_groups(fun, t0: float, t_bound: float, y0: np.ndarray, rtol: float,
                 atol: np.ndarray, max_step: float = np.inf, segments=None) -> tuple:
    """Integrate G independent systems from t0 to t_bound in lockstep.

    y0 has shape (G, N) and atol (G, N) or (G, 1); fun maps times (G,)
    and states (G, N) to derivatives (G, N).  Each group keeps its own time,
    step size and accept/reject state, and each lockstep pass makes one
    RK45 attempt for every unfinished group, so a group takes the steps
    scipy's RK45 solver (with the same max_step) takes on it alone.  All
    arithmetic is elementwise or per group, so a group's result is the same
    bits alone or in a batch.  If `segments` holds one list per group, each
    accepted step appends its dense-output segment (t_old, t_new, y_old,
    Q = K^T P) to its group's list.  Returns the (G, N) end states and the
    per-group RHS evaluation counts; raises StepUnderflowError naming the
    first group whose step underflows, and NumericError naming a group whose
    end state is not finite.
    """
    direction = 1.0 if t_bound > t0 else -1.0
    G = y0.shape[0]
    end, nfev = np.empty_like(y0), np.full(G, 2)
    group = np.arange(G)
    t, y = np.full(G, t0), y0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, direction, abs(t_bound - t0), rtol, atol)
    rejected = np.zeros(G, dtype=bool)
    K = [f] * (_STAGES + 1)
    while group.size:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        stuck = rejected & ~(h_abs >= min_step)
        if stuck.any():
            raise StepUnderflowError(
                f"step size underflow in group {group[np.argmax(stuck)]} at s = "
                f"{t[np.argmax(stuck)]:.6g}")
        # a fresh step, the first one included, is clamped as scipy clamps it
        h_abs = np.where(rejected, h_abs, np.minimum(np.maximum(h_abs, min_step), max_step))
        t_new = t + h_abs * direction
        t_new = np.where(direction * (t_new - t_bound) > 0, t_bound, t_new)
        h = t_new - t
        hc = h[:, None]
        K[0] = f
        for s in range(1, _STAGES):
            dy = K[0] * _A[s, 0]
            for j in range(1, s):
                dy = dy + K[j] * _A[s, j]
            K[s] = fun(t + _C[s] * h, y + dy * hc)
        y_new = y + hc * sum(K[j] * _B[j] for j in range(_STAGES))
        K[-1] = fun(t + h, y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error = sum(K[j] * _E[j] for j in range(_STAGES + 1))
        error_norm = _rms(error * hc / scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            grow = _SAFETY * error_norm ** _ERROR_EXPONENT
        accept = error_norm < 1
        factor = np.where(accept, np.minimum(_MAX_FACTOR, grow),
                          np.fmax(_MIN_FACTOR, grow))
        factor = np.where(accept & rejected, np.minimum(1.0, factor), factor)
        h_abs = np.abs(h) * factor
        rejected = ~accept
        nfev[group] += _STAGES
        if segments is not None and accept.any():
            Q = np.stack(K, axis=-1)[accept] @ _P
            for g, a, b, y_old, q in zip(group[accept], t[accept], t_new[accept],
                                         y[accept], Q):
                segments[g].append((float(a), float(b), y_old, q))
        t = np.where(accept, t_new, t)
        y = np.where(accept[:, None], y_new, y)
        f = np.where(accept[:, None], K[-1], f)
        done = accept & (direction * (t - t_bound) >= 0)
        if done.any():
            end[group[done]] = y[done]
            keep = ~done
            group, t, y, f, h_abs, rejected, atol = (
                v[keep] for v in (group, t, y, f, h_abs, rejected, atol))
    bad = ~np.all(np.isfinite(end), axis=-1)
    if bad.any():
        raise NumericError(f"flow produced a non-finite state in group {np.argmax(bad)}")
    return end, nfev


def _groups_rhs(model: VectorPotentialModel, K: int,
                extra=lambda s, x, xi, v, dxi: ()):
    """Right-hand side of groups of K trajectories, for `_rk45_groups`.

    Each group's state is flattened per trajectory as (x, xi, *channels),
    (x_1, xi_1, ..., x_K, xi_K) without extra channels.  `extra(s, x, xi,
    v, dxi)`, given the vector field (v, dxi), returns the rates of the
    extra channels, one array of shape (G, K) each; by default there are
    none.  The derivative is written in the same layout, in place:
    `flow_field` fills its v and dxi columns, and each rate its own column.
    """
    n = model.n

    def rhs(s, y):
        state = y.reshape(len(y), K, -1)
        x, xi, s = state[..., :n], state[..., n:2 * n], s[:, None]
        out = np.empty(state.shape)
        v, dxi = flow_field(model, s, x, xi, out=(out[..., :n], out[..., n:2 * n]))
        for c, rate in enumerate(extra(s, x, xi, v, dxi), 2 * n):
            out[..., c] = rate
        return out.reshape(len(y), -1)

    return rhs


def flow_batch(model: VectorPotentialModel, t0: float, s_target: float,
               x0: np.ndarray, xi0: np.ndarray, tol: float = 1e-9):
    """Terminal states of groups of trajectories, each group one RK45 system.

    x0 and xi0 are (K, n), one group of K trajectories, or (G, K, n), G
    groups; the result has the same shape.  All groups advance in lockstep
    through `_rk45_groups`, each with its own step control (rtol = tol,
    atol = tol * max(1, |y0|) per component, RMS error over the group), so
    a group's terminal states are the same bits alone or in a batch and
    match scipy's RK45 solver on that group to round-off.  A group
    whose step underflows or whose end state is not finite raises
    StepUnderflowError or NumericError naming it.
    """
    tol = _validate_tol(tol)
    t0, s_target = number(t0, "t0"), number(s_target, "s_target")
    n = model.n
    x0, xi0 = phase_points(x0, xi0, n, ndim=(2, 3))
    if s_target == t0 or x0.size == 0:
        return x0.copy(), xi0.copy()
    y0 = np.concatenate([x0, xi0], axis=-1).reshape(-1, x0.shape[-2] * 2 * n)
    end, _ = _rk45_groups(_groups_rhs(model, x0.shape[-2]), float(t0), float(s_target),
                          y0, tol, tol * np.maximum(1.0, np.abs(y0)))
    end = end.reshape(x0.shape[:-1] + (2 * n,))
    return end[..., :n].copy(), end[..., n:].copy()


def phase_integral(model: VectorPotentialModel, t0: float, t: float,
                   x0, xi0, tol: float = 1e-10) -> complex:
    """Integral of the phase density from 0 to t along the flow with data at t0.

    The imaginary part equals half the accumulated divergence of a.
    """
    return (flow(model, t0, t, x0, xi0, tol).psi_integral
            - flow(model, t0, 0.0, x0, xi0, tol).psi_integral)


# ---------------------------------------------------------------------------
# empirical bound sweeps


@dataclass
class FlowBoundReport:
    """Sandwich-ratio sweep over a lambda ladder.

    ratios[lam] is a list of (s_star, |x|/(lam |s_star|), |xi|/lam) triples;
    lambda_hat0 is the first rung from which every later rung stays inside
    [1/(2a), 2a] for both ratios, and ok says that such a rung exists.
    """

    ladder: tuple
    ratios: dict
    lambda_hat0: float
    ok: bool


def check_flow_bounds(model: VectorPotentialModel, a_param: float, p: float,
                      lam_ladder, t0: float, k_samples, gamma_samples,
                      tol: float = 1e-9) -> FlowBoundReport:
    """Sweep the two-sided ballistic bounds along backward flows from t0.

    For each ladder rung the flow starts at (x, lam xi) at time t0 and the
    position/momentum ratios are recorded at 4 geometric offsets
    lam^(p-1) <= |s - t0| <= t0.  Samples must satisfy 1/a <= |xi| <= a.
    All rung x position x direction flows are one grouped call, each group
    flowed as `flow` flows it, and read at the offsets through its dense
    output.
    """
    a_param = number(a_param, "a_param", at_least=1.0)
    p = number(p, "p", above=0.0, below=1.0)
    t0 = number(t0, "t0", above=0.0)
    n = model.n
    k_samples = point_array(k_samples, n, (2, 2), "k_samples")
    gamma_samples = point_array(gamma_samples, n, (2, 2), "gamma_samples")
    for xi in gamma_samples:
        m = float(np.linalg.norm(xi))
        if not (1.0 / a_param - 1e-12 <= m <= a_param + 1e-12):
            raise InputError(f"|xi| = {m:.4g} outside the annulus [1/a, a]")
    ladder = dilations(lam_ladder, "lam_ladder")
    lo, hi = 1.0 / (2.0 * a_param), 2.0 * a_param
    pairs = [(x, xi) for x in k_samples for xi in gamma_samples]
    _, _, segments = _phase_flows(
        model, t0, 0.0, np.array([x for _ in ladder for x, _ in pairs]).reshape(-1, n),
        np.array([lam * xi for lam in ladder for _, xi in pairs]).reshape(-1, n),
        _validate_tol(tol))
    ratios = {}
    rung_ok = []
    for i, lam in enumerate(ladder):
        entries = []
        for segs in segments[i * len(pairs):(i + 1) * len(pairs)]:
            for off in np.geomspace(lam ** (p - 1.0), t0, SWEEP_OFFSETS):
                y = _dense(segs, t0 - off)
                entries.append((float(off), float(np.linalg.norm(y[:n])) / (lam * off),
                                float(np.linalg.norm(y[n:2 * n])) / lam))
        ratios[lam] = entries
        rung_ok.append(all(lo <= rx <= hi and lo <= rxi <= hi for _, rx, rxi in entries))
    lambda_hat0 = next((lam for i, lam in enumerate(ladder) if all(rung_ok[i:])), np.inf)
    return FlowBoundReport(ladder=ladder, ratios=ratios, lambda_hat0=float(lambda_hat0),
                           ok=bool(np.isfinite(lambda_hat0)))


@dataclass
class IntegralBoundReport:
    """Momentum-over-position integral divided by (1 + interval length)."""

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
    each ladder rung scales the momentum by lam.  All rung x sample flows
    are one grouped call, each group with atol = tol * max(1, |y0|) per
    component.
    """
    delta = number(delta, "delta", above=0.0)
    a = number(interval[0], "interval start")
    b = number(interval[1], "interval end", at_least=a)
    tol = _validate_tol(tol)
    n = model.n
    ladder = dilations(lam_ladder, "lam_ladder")

    def integrand(s, x, xi, v, dxi):
        weight = (1.0 + squared_norm(x)) ** (0.5 * (1.0 + delta))
        return (np.sqrt(squared_norm(xi)) / weight,)

    pairs = list(zip(*phase_points([x for x, _ in samples], [xi for _, xi in samples],
                                   n, ndim=(2, 2))))
    y0 = np.array([np.concatenate([x, lam * xi, [0.0]])
                   for lam in ladder for x, xi in pairs]).reshape(-1, 2 * n + 1)
    quad = np.zeros(len(y0))
    if b > a and len(y0):
        quad = _rk45_groups(_groups_rhs(model, 1, integrand), a, b, y0, tol,
                            tol * np.maximum(1.0, np.abs(y0)))[0][:, -1]
    per_rung = (quad / (1.0 + (b - a))).reshape(len(ladder), len(pairs))
    values = {lam: [float(v) for v in rung] for lam, rung in zip(ladder, per_rung)}
    sup_ratio = {lam: max(vals) if vals else 0.0 for lam, vals in values.items()}
    # boundedness is judged beyond the first rung: a unit-momentum flow
    # barely moves, so its small integral is not evidence about the limit
    tail = [sup_ratio[lam] for lam in ladder[1:] if sup_ratio[lam] > 0.0] \
        if len(ladder) > 2 else [s for s in sup_ratio.values() if s > 0.0]
    stable = bool(tail) and max(tail) / min(tail) < 2.0
    return IntegralBoundReport(ladder=ladder, sup_ratio=sup_ratio, values=values,
                               stable=stable)


@dataclass
class LowerBoundReport:
    """Ratios |x(0)| / (lam t0 |xi|) over a ladder; 1 means pure ballistics."""

    ladder: tuple
    ratios: dict             # lam -> list over samples
    top_in_bracket: bool     # all top-rung ratios within 10 percent of 1


def lower_bound_x0(model: VectorPotentialModel, t0: float, k_samples,
                   gamma_samples, lam_ladder, tol: float = 1e-9) -> LowerBoundReport:
    """Growth of the backward-flowed position: |x(0)| should scale like lam t0 |xi|.

    Samples run over positions, then directions; one grouped `flow_batch`
    flows all of them once per rung, one group per rung.
    """
    t0 = number(t0, "t0", above=0.0)
    ladder = dilations(lam_ladder, "lam_ladder")
    k_samples = point_array(k_samples, model.n, (2, 2), "k_samples")
    gamma_samples = point_array(gamma_samples, model.n, (2, 2), "gamma_samples")
    if not np.linalg.norm(gamma_samples, axis=-1).all():  # a ratio divides by |xi|
        raise InputError("every gamma sample must be nonzero")
    xs = np.repeat(k_samples, len(gamma_samples), axis=0)
    xi_hats = np.tile(gamma_samples, (len(k_samples), 1))
    xi_norms = np.linalg.norm(xi_hats, axis=-1)
    x_end, _ = flow_batch(model, t0, 0.0, np.array([xs] * len(ladder)),
                          np.array([lam * xi_hats for lam in ladder]), tol)
    ratios = {lam: [float(v) for v in np.linalg.norm(x_rung, axis=-1)
                    / (lam * t0 * xi_norms)]
              for lam, x_rung in zip(ladder, x_end)}
    return LowerBoundReport(ladder=ladder, ratios=ratios, top_in_bracket=all(
        0.9 <= r <= 1.1 for r in ratios[ladder[-1]]))
