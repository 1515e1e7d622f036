"""Wave-front-set membership tests via decay-exponent regression.

A phase-space point is probed by pairing the field with dilated Gaussian
windows over a geometric ladder of dilations lambda and reading off how
fast |W(x, lambda xi)| falls.  A log-log least-squares fit produces the
exponent estimate N_hat; super-polynomial collapse (steepening local
slopes, or magnitudes crashing through the relative floor) is flagged
separately.  One masked, closed-form pass fits all conic samples of a
report at once, and the verdict reduces the per-sample arrays.  Verdicts:

  not-in-WF     every sample decays at least like lambda^(-N_threshold)
                with a trustworthy fit, or super-polynomially;
  in-WF         some sample decays no faster than lambda^(-N_low);
  inconclusive  anything else, including Nyquist-truncated ladders.

The static test probes a field directly.  The dynamic test never touches
the evolved field: it flows each phase point backward along the magnetic
bicharacteristics, evolves the window freely by -t0 in closed form, and
pairs it with the initial datum at the flowed point.

Both tests run through one entry point, `wf_scan`.  It takes one field
or a sequence of fields on one grid and a lattice of cells, and writes
each cell's reports, or its package error, into that cell; one cell is
probed as a one-cell scan.  The backward flows depend on the model,
t0 and the samples, never on the datum, so each (cell, rung) is flowed
once for every datum at FLOW_TOL = 1e-9, all cells' rungs in one
`flow_batch` call, one group per (cell, rung).  Each group keeps its own
RK45 step control, so a flowed point is the same bits whether its
(cell, rung) is flowed alone or with others.  Then one ladder step
serves all cells: each rung pairs the samples of every cell that keeps
it in band with all fields in one call of `packets.pair_many`'s kernel,
on nonzero boxes found once per field, and the cells that keep the same
rungs are fitted in one `decay_exponent` call.  A sample's fit and its
pairing (see `pair_many`) do not depend on the other rows, so a cell
gets the same bits in a scan as alone.  If a joint flow or step raises
a package error, the cells are run one by one, so only the failing cell
gets the error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .characteristics import flow_batch
from .errors import InputError, MswfError, dilations, number, one_of
from .grid import GridSpec, field_batch, phase_points
from .packets import GaussianWindow, _nonzero_box, _pair_in_boxes, in_band
# nothing here calls wpt; the name stays because perfbench/layers.py
# wraps mswf.detector.wpt in its traced run
from .packets import wpt  # noqa: F401
from .potentials import VectorPotentialModel

FLOOR_REL = 1e-14
STEEPEN_STEP = 0.5
COLLAPSE_EXPONENT = 12.0  # implied exponent that counts as super-polynomial
MIN_RUNGS = 5
# the verdicts' decision constants; a transport summary reports them
N_HIGH, N_LOW, R2_MIN = 6.0, 1.0, 0.95
FLOW_TOL = 1e-9  # RK45 tolerance of the scans' and the point-mass ratio flows
# conic sampling: offsets per position axis, fan directions, moduli
POSITIONS_PER_AXIS, N_DIRECTIONS, N_MODULI = 3, 5, 3


@dataclass(frozen=True)
class ConicSample:
    """Sampling pattern around a phase-space point (x0, xi0 != 0).

    Positions form a cube lattice about x0 with offsets -k_radius, 0,
    k_radius per axis: 3^n points, the corners k_radius sqrt(n) away; 5
    directions fan out to half_angle around xi0; 3 moduli run
    geometrically through [1/a, a].  The verdict of a test is the worst
    case over all combinations.
    """

    x0: tuple
    xi0: tuple
    k_radius: float = 0.25
    half_angle: float = 0.2
    a: float = 1.0

    def __post_init__(self):
        x0, xi0 = phase_points(self.x0, self.xi0, ndim=(1, 1))
        if len(x0) not in (1, 2):
            raise InputError(f"conic samples have dimension 1 or 2, got {len(x0)}")
        object.__setattr__(self, "x0", tuple(x0.tolist()))
        object.__setattr__(self, "xi0", tuple(xi0.tolist()))
        if float(np.linalg.norm(xi0)) == 0.0:
            raise InputError("xi0 must be nonzero")
        for key, low in (("k_radius", 0.0), ("half_angle", 0.0), ("a", 1.0)):
            object.__setattr__(self, key, number(getattr(self, key), key, at_least=low))

    @property
    def n(self) -> int:
        return len(self.x0)

    def positions(self) -> np.ndarray:
        offs = [np.array([0.0]) if self.k_radius == 0.0 else
                np.linspace(-self.k_radius, self.k_radius, POSITIONS_PER_AXIS)
                for _ in range(self.n)]
        mesh = np.meshgrid(*offs, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        return np.asarray(self.x0) + pts

    def directions(self) -> np.ndarray:
        """xi0's unit direction and the fan around it; a zero half angle
        leaves xi0's direction alone, as a = 1 leaves one modulus."""
        unit = np.asarray(self.xi0) / np.linalg.norm(self.xi0)
        if self.n == 1 or self.half_angle == 0.0:
            return unit[None, :]
        base = np.arctan2(unit[1], unit[0])
        angles = base + np.linspace(-self.half_angle, self.half_angle, N_DIRECTIONS)
        return np.stack([np.cos(angles), np.sin(angles)], axis=-1)

    def moduli(self) -> np.ndarray:
        if self.a == 1.0:
            return np.array([1.0])
        return np.geomspace(1.0 / self.a, self.a, N_MODULI)

    def phase_samples(self):
        """All (position, xi) pairs as arrays of shape (S, n), position-,
        then direction-, then modulus-major."""
        pos, dirs, mods = self.positions(), self.directions(), self.moduli()
        xis = (mods[None, :, None] * dirs[:, None, :]).reshape(-1, self.n)
        return np.repeat(pos, len(xis), axis=0), np.tile(xis, (len(pos), 1))


# ---------------------------------------------------------------------------
# exponent regression


class DecayFit(NamedTuple):
    """Per-sample fit results, arrays over the leading axes of the magnitudes."""

    n_hat: np.ndarray             # decay exponent; +inf when fewer than 2 rungs are kept
    r2: np.ndarray
    kept: np.ndarray              # rungs above the censoring floor
    super_polynomial: np.ndarray

    def flags(self, rungs: int) -> list:
        """Sorted union of the samples' flags on a ladder of `rungs` rungs."""
        hits = {"all-censored": self.kept == 0, "censored": self.kept < rungs,
                "censored-to-one": self.kept == 1,
                "super-polynomial": self.super_polynomial}
        return sorted(f for f, hit in hits.items() if np.any(hit))


def decay_exponent(ladder, magnitudes, floor_abs=0.0) -> DecayFit:
    """Decay fits of magnitudes (..., R) over a geometric ladder of R rungs.

    Every sample, one row along the last axis, is fitted in one masked,
    closed-form least-squares pass of log|W| against log lambda, and the
    result holds arrays over the leading axes (0-d for a 1-d input).
    Entries at or below the censoring floor, the larger of 1e-14 * max and
    `floor_abs` (the caller's estimate of quadrature/solver noise, finite and
    >= 0; a number, or an array against (..., 1) such as a (B, 1, 1) floor
    per field), are dropped from a sample's fit; with fewer than 2 kept
    rungs it gets the sentinel n_hat = +inf, R^2 = 1 and the
    super-polynomial flag.
    R^2 is 1 when the kept magnitudes are constant.  The super-polynomial
    flag is also set when the local slopes of consecutive kept triples
    steepen by more than 0.5 per rung, or when the magnitudes collapse
    through the relative floor fast enough that the implied exponent
    exceeds 12.
    """
    lam = np.array(dilations(ladder, "ladder", MIN_RUNGS))
    mag = np.asarray(magnitudes, dtype=float)
    if mag.ndim < 1 or mag.shape[-1] != len(lam):
        raise InputError("the magnitudes' last axis must be as long as the ladder")
    floor = np.asarray(floor_abs, dtype=float)
    for key, v in (("magnitudes", mag), ("floor_abs", floor)):
        if not np.all(np.isfinite(v) & (v >= 0)):
            raise InputError(f"{key} must be finite and nonnegative")
    keep = mag > np.maximum(FLOOR_REL * mag.max(-1, keepdims=True), floor)
    kept = np.count_nonzero(keep, axis=-1)
    x, y = np.log(lam), np.log(np.where(keep, mag, 1.0))
    order = np.argsort(~keep, axis=-1, kind="stable")  # kept rungs first, in order
    xw = sliding_window_view(x[order], 3, axis=-1)
    yw = sliding_window_view(np.take_along_axis(y, order, -1), 3, axis=-1)
    xw, yw = xw - xw.mean(-1, keepdims=True), yw - yw.mean(-1, keepdims=True)
    local = np.sum(xw * yw, -1) / np.sum(xw * xw, -1)
    # a triple pair j is real when its second triple ends on a kept rung
    real = np.arange(len(lam) - 3) < (kept - 3)[..., None]
    steepening = (kept >= 4) & np.all((np.diff(local, axis=-1) < -STEEPEN_STEP) | ~real, -1)
    span = np.log10(lam)[np.argmin(keep, axis=-1)] - np.log10(lam[0])
    with np.errstate(divide="ignore", invalid="ignore"):  # fewer than 2 kept rungs
        # deviations from the means over the kept rungs, 0 where censored
        dx, dy = (np.where(keep, v - np.sum(keep * v, -1, keepdims=True) / kept[..., None], 0)
                  for v in (x, y))
        slope = np.sum(dx * dy, -1) / np.sum(dx * dx, -1)
        ss_tot = np.sum(dy * dy, -1)
        r2 = np.where(ss_tot < 1e-28, 1.0,
                      1.0 - np.sum((dy - slope[..., None] * dx) ** 2, -1) / ss_tot)
        collapse = ((kept < len(lam)) & keep[..., 0] & (span > 0)
                    & (-np.log10(FLOOR_REL) / span >= COLLAPSE_EXPONENT))
    sentinel = kept < 2
    return DecayFit(np.where(sentinel, np.inf, -slope), np.where(sentinel, 1.0, r2),
                    kept, sentinel | steepening | collapse)


@dataclass
class DecayReport:
    """Ladder magnitudes, per-sample fits, and the aggregated verdict."""

    ladder: tuple                 # rungs actually used
    ladder_requested: tuple
    sample_x: np.ndarray          # (S, n)
    sample_xi: np.ndarray         # (S, n)
    magnitudes: np.ndarray        # (S, R)
    fit: DecayFit                 # per-sample arrays of shape (S,)
    binding_index: int            # the sample of least n_hat (0 without samples)
    n_hat: float                  # the binding sample's (super-polynomial = +inf)
    r2: float
    flags: list
    verdict: str


def _report(ladder, ladder_requested, xs, xis, mags, fit: DecayFit,
            flags: list) -> DecayReport:
    """The report of one field's (S, R) magnitudes from their fit, whose
    arrays are over the S samples: the verdict and the binding sample.  A
    ladder that the Nyquist guard cut below 5 rungs is not fitted: its
    report has no samples, an empty fit and is inconclusive."""
    superp = fit.super_polynomial
    ok = superp | ((fit.n_hat >= N_HIGH) & (fit.r2 >= R2_MIN))
    if ok.size and ok.all():
        verdict = "not-in-WF"
    elif np.any(~superp & (fit.n_hat <= N_LOW)):
        verdict = "in-WF"
    else:
        verdict = "inconclusive"
    i = int(np.argmin(fit.n_hat)) if len(mags) else 0
    n_hat, r2 = (float(fit.n_hat[i]), float(fit.r2[i])) if len(mags) else (np.nan, np.nan)
    return DecayReport(ladder=tuple(ladder), ladder_requested=tuple(ladder_requested),
                       sample_x=xs, sample_xi=xis, magnitudes=mags, fit=fit,
                       binding_index=i, n_hat=n_hat, r2=r2, flags=flags, verdict=verdict)


# ---------------------------------------------------------------------------
# static and dynamic membership tests


def default_ladder(kmin: int = 3, kmax: int = 12) -> tuple:
    return tuple(float(2 ** k) for k in range(kmin, kmax + 1))


def parse_ladder(ladder=None) -> tuple:
    """The default ladder for None, else a sequence of dilations that passes
    `errors.dilations` with MIN_RUNGS rungs, as many as a fit needs."""
    return default_ladder() if ladder is None else dilations(ladder, "ladder", MIN_RUNGS)


class _Data(NamedTuple):
    """What the pairings need of a probe's fields, found once per probe."""

    spec: GridSpec
    values: list
    boxes: list   # each field's nonzero box, `packets._nonzero_box`
    norms: list   # each field's L2 norm, which scales its censoring floor

    @classmethod
    def of(cls, fields: list) -> "_Data":
        values = [f.values for f in fields]
        return cls(fields[0].spec, values, [_nonzero_box(v) for v in values],
                   [f.l2_norm() for f in fields])


def _ladder_step(data: _Data, phases: dict, points: dict, ladder: tuple, t: float,
                 width: float, b: float, noise_rel: float, reason: str) -> dict:
    """Every cell's reports, {c: [one DecayReport per field]}, for the cells of `points`.

    phases[c] holds cell c's (S, n) samples (xs, xis), points[c] its
    [(X, XI) per rung].  A cell keeps its rungs inside the grid band; with
    fewer than 5 it is not paired, and its reports are inconclusive and
    flagged with `reason`.  Each rung pairs the concatenated samples of
    every cell that keeps it in one call of `pair_many`'s kernel, with
    windows evolved freely by t, and the cells that keep the same rungs
    are fitted in one `decay_exponent` call over (B, sum S, R).
    """
    spec, B = data.spec, len(data.values)
    keeps = {c: tuple(r for r, (_, XI) in enumerate(rungs) if in_band(spec, XI).all())
             for c, rungs in points.items()}
    no_fit = DecayFit(np.empty(0), np.empty(0), np.empty(0, int), np.empty(0, bool))
    reports = {c: [_report([ladder[r] for r in keep], ladder, *phases[c],
                           np.zeros((0, len(keep))), no_fit, ["ladder-truncated", reason])
                   for _ in range(B)]
               for c, keep in keeps.items() if len(keep) < MIN_RUNGS}
    paired = [c for c in points if c not in reports]
    mags = {c: np.empty((B, len(phases[c][0]), len(keeps[c]))) for c in paired}
    for r, lam in enumerate(ladder):
        live = [c for c in paired if r in keeps[c]]
        if not live:
            continue
        X, XI = (np.concatenate([points[c][r][i] for c in live]) for i in (0, 1))
        window = GaussianWindow(spec.n, width, lam, b, t)
        W = np.abs(_pair_in_boxes(spec, data.values, data.boxes, window, X, XI)).T
        cuts = np.cumsum([len(phases[c][0]) for c in live])[:-1]
        for c, m in zip(live, np.split(W, cuts, axis=1)):
            mags[c][..., keeps[c].index(r)] = m
    window_norm = GaussianWindow(spec.n, width, 1.0, b, 0.0).l2_norm()
    floor = np.array([noise_rel * norm * window_norm for norm in data.norms])[:, None, None]
    groups = {}
    for c in paired:
        groups.setdefault(keeps[c], []).append(c)
    for keep, group in groups.items():
        used = [ladder[r] for r in keep]
        fit = decay_exponent(used, np.concatenate([mags[c] for c in group], axis=1), floor)
        cuts = np.cumsum([len(phases[c][0]) for c in group])[:-1]
        for c, *parts in zip(group, *(np.split(v, cuts, axis=1) for v in fit)):
            fits = [DecayFit(*(v[j] for v in parts)) for j in range(B)]
            reports[c] = [_report(used, ladder, *phases[c], m, f, f.flags(len(used)))
                          for m, f in zip(mags[c], fits)]
    return reports


def _rung_points(model: VectorPotentialModel, t0: float, phases: dict,
                 ladder: tuple) -> dict:
    """Every cell's pairing points or error, {c: [(X, XI) per rung] or MswfError}.

    phases[c] holds cell c's (S, n) samples (xs, xis).  At t0 = 0 rung
    lambda pairs at (xs, lambda xis).  Otherwise the points are flowed
    backward from t0 to 0 in one grouped `flow_batch` call, group i * R + r
    for the i-th cell at rung r, or cell by cell if it fails (`_each_cell`).
    """
    if t0 == 0.0:
        return {c: [(xs, lam * xis) for lam in ladder] for c, (xs, xis) in phases.items()}

    def flow(cells):
        X, XI = flow_batch(model, t0, 0.0,
                           np.array([phases[c][0] for c in cells for _ in ladder]),
                           np.array([lam * phases[c][1] for c in cells for lam in ladder]),
                           FLOW_TOL)
        R = len(ladder)
        return {c: list(zip(X[i * R:(i + 1) * R], XI[i * R:(i + 1) * R]))
                for i, c in enumerate(cells)}

    return _each_cell(flow, list(phases))


def _each_cell(step, cells: list) -> dict:
    """step(cells), a dict {c: value}, for all cells in one call, or, if that
    raises a package error, for each cell on its own, so a failing cell
    gets its error as its value; a single cell is stepped once."""
    if len(cells) > 1:
        try:
            return step(cells)
        except MswfError:
            pass
    values = {}
    for c in cells:
        try:
            values.update(step([c]))
        except MswfError as exc:
            values[c] = exc
    return values


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
    """`count` >= 1 deterministic unit directions: the signs +1, -1 (n=1,
    at most 2), a circle (n=2)."""
    if count < 1:
        raise InputError(f"a direction fan needs at least 1 direction, got {count}")
    if n == 1:
        return np.array([[1.0], [-1.0]])[:count]
    angles = 2.0 * np.pi * np.arange(count) / count
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def wf_scan(mode: str, field_or_datum, positions, directions,
            ladder=None, width: float = 1.0, b: float = 1.0 / 8.0,
            model: VectorPotentialModel = None, t0: float = 0.0,
            k_radius: float = ConicSample.k_radius,
            half_angle: float = ConicSample.half_angle,
            a: float = ConicSample.a, noise_rel: float = 1e-12) -> list:
    """Run a membership test over a lattice of cells; errors stay in-row.

    Each cell is (position, direction), checked once, by its ConicSample.
    `field_or_datum` is one GridFunction or a sequence of them on one grid;
    the result is one flat list of ScanCell, datum-major (all cells of the
    first field, then the next), each field's cells in input order.  A
    dynamic scan at t0 = 0 flows nothing and pairs as the static one does.
    A cell keeps the rungs whose paired frequency stays inside the grid
    band; with fewer than 5 it is inconclusive.  `noise_rel`, a finite
    number >= 0, scales each field's censoring floor noise_rel * |f|_L2 *
    |window|_L2; raise it when f carries solver error.

    The cells are probed once for all finite fields together.  A field that
    is not finite gets an InputError in each of its cells and is not
    paired, so the others keep their bits.  A package error (MswfError: a
    guard, input or numeric failure, such as a position or direction that
    is not a phase point, a cell of another dimension than the grid's, a
    failed flow, or a dynamic scan without `model`) is written into its
    cell, for every finite field, and a refused cell keeps its input as
    (x0, xi0); any other exception is a programming error and propagates.
    """
    one_of(mode, ("static", "dynamic"), "mode")
    noise_rel = number(noise_rel, "noise_rel", at_least=0.0)
    fields, _ = field_batch(field_or_datum)
    ladder, n = parse_ladder(ladder), fields[0].spec.n
    unmodelled = mode == "dynamic" and (model is None or model.n != n)
    lattice, phases, results = [], {}, {}
    for c, (pos, d) in enumerate(product(positions, directions)):
        try:
            sample = ConicSample(pos, d, k_radius=k_radius, half_angle=half_angle, a=a)
        except MswfError as exc:
            lattice.append((pos, d))
            results[c] = exc
            continue
        lattice.append((sample.x0, sample.xi0))
        if unmodelled:
            results[c] = InputError("a dynamic probe needs a model of the datum's dimension")
        elif sample.n != n:
            results[c] = InputError(f"cell has n = {sample.n}, the grid has n = {n}")
        else:
            phases[c] = sample.phase_samples()
    finite = [bool(np.isfinite(f.values).all()) for f in fields]
    probed = [f for f, ok in zip(fields, finite) if ok]
    if probed:
        data, flowed = _Data.of(probed), mode == "dynamic" and t0 != 0.0
        results.update(_rung_points(model, t0 if flowed else 0.0, phases, ladder))
        points = {c: rungs for c, rungs in results.items() if not isinstance(rungs, MswfError)}
        t, reason = (-t0, "flowed-nyquist-guard") if flowed else (0.0, "nyquist-guard")
        results.update(_each_cell(lambda cells: _ladder_step(
            data, phases, {c: points[c] for c in cells}, ladder, t, width, b, noise_rel,
            reason), list(points)))
    cells, j = [], 0  # j indexes the probed fields
    for ok in finite:
        for c, (x0, xi0) in enumerate(lattice):
            result = results[c] if ok else InputError("field values must be finite")
            if isinstance(result, MswfError):
                cells.append(ScanCell(x0, xi0, error=f"{type(result).__name__}: {result}"))
            else:
                cells.append(ScanCell(x0, xi0, report=result[j]))
        j += ok
    return cells
