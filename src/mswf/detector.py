"""Wave-front-set membership tests via decay-exponent regression.

A phase-space point is probed by pairing the field with dilated Gaussian
windows over a geometric ladder of dilations lambda and reading off how
fast |W(x, lambda xi)| falls.  A log-log least-squares fit produces the
exponent estimate N_hat; super-polynomial collapse (steepening local
slopes, or magnitudes crashing through the relative floor) is flagged
separately.  Verdicts:

  not-in-WF     every sample decays at least like lambda^(-N_threshold)
                with a trustworthy fit, or super-polynomially;
  in-WF         some sample decays no faster than lambda^(-N_low);
  inconclusive  anything else, including Nyquist-truncated ladders.

The static test probes a field directly.  The dynamic test never touches
the evolved field: it flows each phase point backward along the magnetic
bicharacteristics, evolves the window freely by -t0 in closed form, and
pairs it with the initial datum at the flowed point.

The probe is batched.  Both tests and `wf_scan` take one field or a
sequence of fields on one grid.  Each rung pairs all conic samples with
all fields in one `packets.pair_many` call, and a dynamic test flows each
rung once, as one `flow_batch` over the samples, for every datum; the
backward flows depend on the model, t0, the samples and tol, never on
the datum.  Rungs and cells are never stacked into one flow, because the
adaptive steps of a stacked state would move the flowed points at the
size of tol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .characteristics import flow_batch
from .errors import InputError, MswfError
from .grid import field_batch
# nothing here calls wpt; the name stays because perfbench/layers.py
# wraps mswf.detector.wpt in its traced run
from .packets import GaussianWindow, pair_many, wpt  # noqa: F401
from .potentials import VectorPotentialModel

FLOOR_REL = 1e-14
STEEPEN_STEP = 0.5
COLLAPSE_EXPONENT = 12.0  # implied exponent that counts as super-polynomial
MIN_RUNGS = 5


@dataclass(frozen=True)
class Thresholds:
    """Decision constants, reported alongside every verdict."""

    n_high: float = 6.0
    n_low: float = 1.0
    r2_min: float = 0.95


@dataclass(frozen=True)
class ConicSample:
    """Sampling pattern around a phase-space point (x0, xi0 != 0).

    Positions form a per-axis lattice of 3 offsets inside a ball of radius
    k_radius; directions fan out to half_angle around xi0; moduli run
    geometrically through [1/a, a].  The verdict of a test is the worst
    case over all combinations.
    """

    x0: tuple
    xi0: tuple
    k_radius: float = 0.25
    half_angle: float = 0.2
    a: float = 1.0
    positions_per_axis: int = 3
    n_directions: int = 5
    n_moduli: int = 3

    def __post_init__(self):
        x0 = tuple(float(v) for v in np.atleast_1d(self.x0))
        xi0 = tuple(float(v) for v in np.atleast_1d(self.xi0))
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "xi0", xi0)
        if len(x0) != len(xi0):
            raise InputError("x0 and xi0 must have the same dimension")
        if float(np.linalg.norm(xi0)) == 0.0:
            raise InputError("xi0 must be nonzero")
        if self.a < 1.0:
            raise InputError("annulus parameter a must be >= 1")
        if self.k_radius < 0 or self.half_angle < 0:
            raise InputError("k_radius and half_angle must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.x0)

    def positions(self) -> np.ndarray:
        offs = [np.array([0.0]) if self.k_radius == 0.0 else
                np.linspace(-self.k_radius, self.k_radius, self.positions_per_axis)
                for _ in range(self.n)]
        mesh = np.meshgrid(*offs, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        return np.asarray(self.x0) + pts

    def directions(self) -> np.ndarray:
        unit = np.asarray(self.xi0) / np.linalg.norm(self.xi0)
        if self.n == 1:
            return unit[None, :]
        if self.n == 2:
            base = np.arctan2(unit[1], unit[0])
            angles = base + np.linspace(-self.half_angle, self.half_angle,
                                        self.n_directions)
            dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        else:
            # axis direction plus a rim of directions at the half angle
            helper = np.array([1.0, 0.0, 0.0])
            if abs(np.dot(helper, unit)) > 0.9:
                helper = np.array([0.0, 1.0, 0.0])
            v = np.cross(unit, helper)
            v /= np.linalg.norm(v)
            w = np.cross(unit, v)
            rim = []
            for j in range(max(self.n_directions - 1, 0)):
                phi = 2.0 * np.pi * j / max(self.n_directions - 1, 1)
                rim.append(np.cos(self.half_angle) * unit
                           + np.sin(self.half_angle) * (np.cos(phi) * v + np.sin(phi) * w))
            dirs = np.stack([unit] + rim, axis=0)
        # dedupe (a zero half angle collapses the fan)
        keep = []
        for d in dirs:
            if not any(np.allclose(d, k, atol=1e-12) for k in keep):
                keep.append(d)
        return np.stack(keep, axis=0)

    def moduli(self) -> np.ndarray:
        if self.a == 1.0:
            return np.array([1.0])
        return np.geomspace(1.0 / self.a, self.a, self.n_moduli)

    def phase_samples(self):
        """All (position, xi) pairs as arrays of shape (S, n)."""
        pos = self.positions()
        dirs = self.directions()
        mods = self.moduli()
        xs, xis = [], []
        for p in pos:
            for d in dirs:
                for m in mods:
                    xs.append(p)
                    xis.append(m * d)
        return np.asarray(xs), np.asarray(xis)


# ---------------------------------------------------------------------------
# exponent regression


def decay_exponent(ladder, magnitudes, floor_abs: float = 0.0):
    """Fitted decay exponent of magnitudes over a geometric ladder.

    Returns (n_hat, r_squared, flags).  Entries at or below the censoring
    floor, the larger of 1e-14 * max and `floor_abs` (the caller's estimate
    of quadrature/solver noise), are dropped from the fit; if everything is
    censored the sentinel n_hat = +inf with a super-polynomial flag is
    returned.  The super-polynomial flag is also set when successive
    3-point local slopes steepen by more than 0.5 per rung, or when the
    magnitudes collapse through the relative floor fast enough that the
    implied exponent exceeds 12.
    """
    lam = np.asarray(ladder, dtype=float)
    mag = np.asarray(magnitudes, dtype=float)
    if lam.ndim != 1 or lam.shape != mag.shape:
        raise InputError("ladder and magnitudes must be 1-d and equal length")
    if len(lam) < MIN_RUNGS:
        raise InputError(f"ladder must have at least {MIN_RUNGS} rungs")
    if np.any(np.diff(lam) <= 0):
        raise InputError("ladder must be strictly increasing")
    if np.any(mag < 0):
        raise InputError("magnitudes must be nonnegative")
    flags: list = []
    top = mag.max()
    floor = max(FLOOR_REL * top, floor_abs)
    keep = mag > floor
    n_keep = int(np.count_nonzero(keep))
    if n_keep < len(lam):
        flags.append("censored")
    if top == 0.0 or n_keep < 2:
        flags.append("all-censored" if n_keep == 0 else "censored-to-one")
        flags.append("super-polynomial")
        return float("inf"), 1.0, flags
    x = np.log(lam[keep])
    y = np.log(mag[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-28 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    n_hat = -float(slope)
    # steepening local slopes over consecutive uncensored triples
    if n_keep >= 4:
        local = []
        for i in range(n_keep - 2):
            s, _ = np.polyfit(x[i:i + 3], y[i:i + 3], 1)
            local.append(s)
        if all(b - a < -STEEPEN_STEP for a, b in zip(local, local[1:])):
            flags.append("super-polynomial")
    # collapse through the floor inside the ladder
    if n_keep < len(lam) and keep[0]:
        first_censored = int(np.argmin(keep))
        span = np.log10(lam[first_censored]) - np.log10(lam[0])
        if span > 0 and (-np.log10(FLOOR_REL)) / span >= COLLAPSE_EXPONENT:
            if "super-polynomial" not in flags:
                flags.append("super-polynomial")
    return n_hat, r2, flags


@dataclass
class DecayReport:
    """Ladder magnitudes, per-sample fits, and the aggregated verdict."""

    ladder: tuple                 # rungs actually used
    ladder_requested: tuple
    sample_x: np.ndarray          # (S, n)
    sample_xi: np.ndarray         # (S, n)
    magnitudes: np.ndarray        # (S, R)
    per_sample: list              # dicts with n_hat, r2, flags
    n_hat: float                  # min over samples (super-polynomial = +inf)
    r2: float
    flags: list
    verdict: str
    censored: int
    thresholds: Thresholds
    metadata: dict = field(default_factory=dict)

    @property
    def binding_index(self) -> int:
        vals = [s["n_hat"] for s in self.per_sample]
        return int(np.argmin(vals)) if vals else 0

    def to_json_dict(self) -> dict:
        i = self.binding_index if self.per_sample else 0
        mag = self.magnitudes[i].tolist() if self.magnitudes.size else []

        def _f(v):
            return None if not np.isfinite(v) else float(v)

        return {
            "lambda": list(self.ladder),
            "lambda_requested": list(self.ladder_requested),
            "mag": mag,
            "Nhat": _f(self.n_hat),
            "R2": _f(self.r2),
            "flags": list(self.flags),
            "verdict": self.verdict,
            "censored": self.censored,
            "thresholds": {"N": self.thresholds.n_high,
                           "Nlow": self.thresholds.n_low,
                           "R2": self.thresholds.r2_min},
            "metadata": self.metadata,
        }


def _aggregate(ladder, ladder_requested, xs, xis, mags, thresholds,
               metadata, floor_abs: float = 0.0) -> DecayReport:
    per_sample = []
    censored_total = 0
    for s in range(mags.shape[0]):
        n_hat, r2, flags = decay_exponent(ladder, mags[s], floor_abs)
        censored_total += flags.count("censored")
        per_sample.append({"n_hat": n_hat, "r2": r2, "flags": flags})
    ok_decay = []
    has_slow = False
    for entry in per_sample:
        superp = "super-polynomial" in entry["flags"]
        ok_decay.append(superp or (entry["n_hat"] >= thresholds.n_high
                                   and entry["r2"] >= thresholds.r2_min))
        if not superp and entry["n_hat"] <= thresholds.n_low:
            has_slow = True
    if per_sample and all(ok_decay):
        verdict = "not-in-WF"
    elif has_slow:
        verdict = "in-WF"
    else:
        verdict = "inconclusive"
    finite = [e["n_hat"] for e in per_sample]
    n_hat = float(np.min(finite)) if finite else float("nan")
    i_min = int(np.argmin(finite)) if finite else 0
    r2 = per_sample[i_min]["r2"] if per_sample else float("nan")
    flags = sorted({f for e in per_sample for f in e["flags"]})
    return DecayReport(ladder=tuple(ladder), ladder_requested=tuple(ladder_requested),
                       sample_x=xs, sample_xi=xis, magnitudes=mags,
                       per_sample=per_sample, n_hat=n_hat, r2=r2, flags=flags,
                       verdict=verdict, censored=censored_total,
                       thresholds=thresholds, metadata=metadata)


def _truncated_report(ladder_used, ladder_requested, xs, xis, thresholds,
                      metadata, reason) -> DecayReport:
    return DecayReport(ladder=tuple(ladder_used), ladder_requested=tuple(ladder_requested),
                       sample_x=xs, sample_xi=xis,
                       magnitudes=np.zeros((0, len(ladder_used))),
                       per_sample=[], n_hat=float("nan"), r2=float("nan"),
                       flags=["ladder-truncated", reason], verdict="inconclusive",
                       censored=0, thresholds=thresholds, metadata=metadata)


# ---------------------------------------------------------------------------
# static and dynamic membership tests


def default_ladder(kmin: int = 3, kmax: int = 12) -> tuple:
    return tuple(float(2 ** k) for k in range(kmin, kmax + 1))


def _ladder_test(fields: list, xs, xis, ladder: tuple, points: list, t: float,
                 thresholds: Thresholds, width: float, b: float, noise_rel: float,
                 reason: str, metadata: dict) -> list:
    """Pair every field with windows evolved freely by t over the ladder.

    (xs, xis) are the conic samples; points[r] holds the (S, n) pairing
    positions and frequencies of rung r, shared by all fields.  Each rung
    is one `pair_many` call over all samples and fields.  Rungs whose
    frequencies leave the band are dropped; fewer than 5 surviving rungs
    yield inconclusive reports flagged with `reason`.  Returns one report
    per field.
    """
    n = xs.shape[1]
    spec = fields[0].spec
    nyq = spec.nyquist()
    used, pairs = [], []
    for lam, (X, XI) in zip(ladder, points):
        if all(np.max(np.abs(XI[:, i])) <= nyq[i] * (1 + 1e-12) for i in range(n)):
            used.append(lam)
            pairs.append((X, XI))
    if len(used) < MIN_RUNGS:
        return [_truncated_report(used, ladder, xs, xis, thresholds, dict(metadata),
                                  reason) for _ in fields]
    values = [f.values for f in fields]
    mags = np.empty((len(fields), len(xs), len(used)))
    for r, (lam, (X, XI)) in enumerate(zip(used, pairs)):
        window = GaussianWindow(n, width, lam, b, t)
        mags[..., r] = np.abs(pair_many(spec, values, window, X, XI)).T
    window_norm = GaussianWindow(n, width, 1.0, b, 0.0).l2_norm()
    return [_aggregate(used, ladder, xs, xis, m, thresholds, dict(metadata),
                       noise_rel * f.l2_norm() * window_norm)
            for f, m in zip(fields, mags)]


def wf_test_static(f, sample: ConicSample, ladder=None,
                   thresholds: Thresholds = Thresholds(),
                   width: float = 1.0, b: float = 1.0 / 8.0,
                   noise_rel: float = 1e-12):
    """Probe membership of (x0, xi0) relative to the field f itself.

    `f` is one GridFunction or a sequence of them on one grid; the result
    is a DecayReport or a list of them, one per field.  Rungs whose top
    frequency lambda |xi| would leave the grid band are dropped; fewer
    than 5 surviving rungs yield an inconclusive verdict instead of a fit
    on aliased data.  `noise_rel` scales the absolute censoring floor
    noise_rel * |f|_L2 * |window|_L2 of each field; raise it when f itself
    carries solver error.
    """
    fields, single = field_batch(f)
    ladder = default_ladder() if ladder is None else tuple(float(l) for l in ladder)
    xs, xis = sample.phase_samples()
    metadata = {"mode": "static", "width": width, "b": b,
                "a": sample.a, "n": sample.n, "noise_rel": noise_rel}
    reports = _ladder_test(fields, xs, xis, ladder,
                           [(xs, lam * xis) for lam in ladder], 0.0, thresholds,
                           width, b, noise_rel, "nyquist-guard", metadata)
    return reports[0] if single else reports


def wf_test_dynamic(u0, model: VectorPotentialModel, t0: float,
                    sample: ConicSample, ladder=None,
                    thresholds: Thresholds = Thresholds(),
                    width: float = 1.0, b: float = 1.0 / 8.0,
                    scalar=None, tol: float = 1e-9,
                    noise_rel: float = 1e-12):
    """Probe membership of (x0, xi0) relative to the solution at time t0,
    using only the initial datum.

    Per rung: flow (x, lambda xi) backward from t0 to 0, evolve the scaled
    window freely by -t0 in closed form, and measure the pairing with u0
    at the flowed phase point.  `u0` is one GridFunction or a sequence of
    them on one grid, and the result a DecayReport or a list of them; each
    rung is flowed once and paired with every datum.  A scalar potential
    never enters the flow, so it is accepted only to be recorded.  Rungs
    whose flowed frequency leaves the band of u0's grid are dropped.
    """
    fields, single = field_batch(u0)
    if model.n != fields[0].spec.n:
        raise InputError("model dimension does not match the datum")
    ladder = default_ladder() if ladder is None else tuple(float(l) for l in ladder)
    if t0 == 0.0:
        reports = wf_test_static(fields, sample, ladder, thresholds, width, b,
                                 noise_rel)
        for report in reports:
            report.metadata.update({"mode": "dynamic", "t0": 0.0})
    else:
        xs, xis = sample.phase_samples()
        metadata = {"mode": "dynamic", "t0": t0, "width": width, "b": b,
                    "a": sample.a, "n": sample.n, "noise_rel": noise_rel,
                    "scalar": getattr(scalar, "family", None)}
        flowed = [flow_batch(model, t0, 0.0, xs, lam * xis, tol) for lam in ladder]
        reports = _ladder_test(fields, xs, xis, ladder, flowed, -t0, thresholds,
                               width, b, noise_rel, "flowed-nyquist-guard",
                               metadata)
    return reports[0] if single else reports


# ---------------------------------------------------------------------------
# batched scans


@dataclass
class ScanCell:
    x0: tuple
    xi0: tuple
    report: object = None
    error: str | None = None

    @property
    def verdict(self) -> str:
        return self.report.verdict if self.report is not None else "error"


def direction_fan(n: int, count: int) -> np.ndarray:
    """Deterministic unit directions: signs (n=1), a circle (n=2), a spiral (n=3)."""
    if n == 1:
        return np.array([[1.0], [-1.0]])[:min(count, 2)]
    if n == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    from .potentials import shell_points

    return shell_points(3, 1.0, count)


def wf_scan(mode: str, field_or_datum, positions, directions,
            ladder=None, thresholds: Thresholds = Thresholds(),
            width: float = 1.0, b: float = 1.0 / 8.0,
            model: VectorPotentialModel = None, t0: float = 0.0,
            scalar=None, k_radius: float = 0.25, half_angle: float = 0.2,
            a: float = 1.0, tol: float = 1e-9,
            noise_rel: float = 1e-12) -> list:
    """Run a membership test over a lattice of cells; errors stay in-row.

    Each cell is (position, direction).  `field_or_datum` is one
    GridFunction or a sequence of them on one grid; the result is one flat
    list of ScanCell, datum-major (all cells of the first field, then the
    next), each field's cells in input order.  Every cell is tested once
    for all fields together, so a dynamic scan flows each (cell, rung)
    once.  A package error (MswfError: a guard, input or numeric failure)
    is recorded in its cell, for every field, and the scan goes on; any
    other exception is a programming error and propagates.
    """
    if mode not in ("static", "dynamic"):
        raise InputError("mode must be 'static' or 'dynamic'")
    fields, _ = field_batch(field_or_datum)
    lattice = [(tuple(float(v) for v in np.atleast_1d(pos)),
                tuple(float(v) for v in np.atleast_1d(d)))
               for pos in positions for d in directions]
    rows = [[ScanCell(x0, xi0) for x0, xi0 in lattice] for _ in fields]
    for c, (x0, xi0) in enumerate(lattice):
        try:
            sample = ConicSample(x0, xi0, k_radius=k_radius,
                                 half_angle=half_angle, a=a)
            if mode == "static":
                reports = wf_test_static(fields, sample, ladder, thresholds,
                                         width, b, noise_rel)
            else:
                reports = wf_test_dynamic(fields, model, t0, sample, ladder,
                                          thresholds, width, b, scalar=scalar,
                                          tol=tol, noise_rel=noise_rel)
        except MswfError as exc:  # recorded per cell, scan continues; bugs propagate
            for row in rows:
                row[c].error = f"{type(exc).__name__}: {exc}"
            continue
        for row, report in zip(rows, reports):
            row[c].report = report
    return [cell for row in rows for cell in row]
