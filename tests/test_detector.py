import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mswf import (characteristics as chars, detector as det, errors, grid, packets,
                  potentials as pots)

FINE = grid.GridSpec(1, 32768, 10.0)
LADDER = det.default_ladder(3, 11)


def test_parse_ladder_forms():
    # None is the default ladder, and any other ladder a sequence of dilations;
    # the {"kmin", "kmax"} form belongs to the config parser
    assert det.parse_ladder() == det.default_ladder()
    assert det.parse_ladder([4, 8, 16, 32, 64]) == det.parse_ladder((4.0, 8, 16, 32, 64)) \
        == (4.0, 8.0, 16.0, 32.0, 64.0)
    for bad in ([4, "x"], [32, 16, 8, 4, 2], [0.5, 1, 2, 4, 8], [4, 4, 8], [4, "nan"],
                [4, float("inf")], [4, 8, 16], [], {"kmin": 2, "kmax": 6}, 7,
                "2:6", "4,8,16,32,64", "12345", b"12345"):
        with pytest.raises(errors.InputError, match="ladder"):
            det.parse_ladder(bad)


# ---------------------------------------------------------------------------
# exponent regression


def test_decay_exponent_pure_power_law():
    ladder = [2.0 ** k for k in range(1, 11)]
    mags = [lam ** -3.0 for lam in ladder]
    fit = det.decay_exponent(ladder, mags)
    assert fit.n_hat.shape == ()
    assert fit.n_hat == pytest.approx(3.0, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert not fit.super_polynomial


def test_decay_exponent_constant():
    ladder = [2.0 ** k for k in range(1, 8)]
    fit = det.decay_exponent(ladder, [0.7] * len(ladder))
    assert fit.n_hat == pytest.approx(0.0, abs=1e-12)
    assert fit.r2 == 1.0


def test_decay_exponent_exponential_collapse():
    ladder = [2.0 ** k for k in range(1, 11)]
    mags = [np.exp(-lam) for lam in ladder]
    fit = det.decay_exponent(ladder, mags)
    assert fit.super_polynomial


def test_decay_exponent_all_censored():
    ladder = [2.0 ** k for k in range(1, 7)]
    fit = det.decay_exponent(ladder, [0.0] * len(ladder))
    assert fit.n_hat == np.inf
    flags = fit.flags(len(ladder))
    assert "all-censored" in flags and "super-polynomial" in flags


def test_decay_exponent_absolute_floor():
    # a noise plateau below the caller's floor must not pollute the fit
    ladder = [2.0 ** k for k in range(1, 9)]
    mags = [1e-2, 1e-6, 3e-16, 1e-16, 2e-16, 1.5e-16, 2.5e-16, 1e-16]
    fit = det.decay_exponent(ladder, mags, floor_abs=1e-13)
    assert fit.super_polynomial


def test_decay_exponent_validation():
    with pytest.raises(errors.InputError):
        det.decay_exponent([1.0, 2.0, 4.0], [1.0, 1.0, 1.0])  # too short
    with pytest.raises(errors.InputError):
        det.decay_exponent([1, 2, 3, 2, 5], [1] * 5)  # not increasing
    with pytest.raises(errors.InputError):
        det.decay_exponent([1, 2, 4, 8, 16], [1, 1, -1, 1, 1])
    for bad in (np.nan, np.inf):  # not censored, as a tiny magnitude would be
        with pytest.raises(errors.InputError):
            det.decay_exponent([1, 2, 4, 8, 16], [1, 1, bad, 1, 1])
    with pytest.raises(errors.InputError):
        det.decay_exponent([1, 2, 4, 8, 16], np.ones((3, 6)))  # rung count


@pytest.mark.parametrize("floor_abs", [np.nan, np.inf, -1.0, np.array([[1e-3], [np.nan]])],
                         ids=["nan", "inf", "negative", "array-with-nan"])
def test_decay_exponent_refuses_a_floor_that_is_not_finite_and_nonnegative(floor_abs):
    # a nan floor censored every rung, so a constant read as super-polynomial
    with pytest.raises(errors.InputError, match="floor_abs must be finite and nonnegative"):
        det.decay_exponent(det.default_ladder(2, 6), np.ones((2, 5)), floor_abs=floor_abs)


def test_decay_exponent_scaling_invariance():
    ladder = [2.0 ** k for k in range(1, 9)]
    rng = np.random.default_rng(3)
    mags = np.exp(-1.7 * np.log(ladder)) * np.exp(0.05 * rng.standard_normal(8))
    base = det.decay_exponent(ladder, mags).n_hat
    scaled = det.decay_exponent(ladder, 137.0 * mags).n_hat
    assert scaled == pytest.approx(base, abs=1e-12)


def _polyfit_reference(lam, mag, floor_abs):
    """One sample's (n_hat, r2, flags) by per-sample np.polyfit fits."""
    flags = set()
    keep = mag > max(det.FLOOR_REL * mag.max(), floor_abs)
    n_keep = int(np.count_nonzero(keep))
    if n_keep < len(lam):
        flags.add("censored")
    if n_keep < 2:
        flags |= {"all-censored" if n_keep == 0 else "censored-to-one", "super-polynomial"}
        return np.inf, 1.0, flags
    x, y = np.log(lam[keep]), np.log(mag[keep])
    slope, intercept = np.polyfit(x, y, 1)
    ss_tot = np.sum((y - y.mean()) ** 2)
    ss_res = np.sum((y - (slope * x + intercept)) ** 2)
    r2 = 1.0 if ss_tot < 1e-28 else 1.0 - ss_res / ss_tot
    local = [np.polyfit(x[i:i + 3], y[i:i + 3], 1)[0] for i in range(n_keep - 2)]
    if n_keep >= 4 and all(b - a < -det.STEEPEN_STEP for a, b in zip(local, local[1:])):
        flags.add("super-polynomial")
    if n_keep < len(lam) and keep[0]:
        span = np.log10(lam[np.argmin(keep)]) - np.log10(lam[0])
        if span > 0 and -np.log10(det.FLOOR_REL) / span >= det.COLLAPSE_EXPONENT:
            flags.add("super-polynomial")
    return -slope, r2, flags


def _random_rows(rng, samples, lam):
    """Rows of every kind the fit treats apart: all zero, one rung kept,
    constant, pure power law, exponential collapse, a power law with a dip
    below the floor mid-ladder, and log-normal noise."""
    rows = []
    for _ in range(samples):
        kind = rng.integers(7)
        scale = 10.0 ** rng.uniform(-6, 3)
        if kind == 0:
            row = np.zeros(len(lam))
        elif kind == 1:
            row = np.zeros(len(lam))
            row[rng.integers(len(lam))] = scale
        elif kind == 2:
            row = np.full(len(lam), scale)
        elif kind == 3:
            row = scale * lam ** -rng.choice([rng.uniform(-1, 12), rng.integers(0, 12)])
        elif kind == 4:
            row = scale * np.exp(-rng.uniform(0.05, 2.0) * lam)
        elif kind == 5:
            row = scale * lam ** -rng.uniform(0, 6)
            row[rng.integers(1, len(lam) - 1)] = 0.0
        else:
            row = scale * np.exp(rng.normal(-2.0 * np.log(lam), rng.uniform(0, 3)))
        rows.append(row)
    return np.array(rows)


@given(seed=st.integers(0, 2 ** 32 - 1), rungs=st.integers(5, 10),
       samples=st.integers(1, 12), floor_exp=st.one_of(st.none(), st.floats(-16, 0)))
@settings(max_examples=150, deadline=None)
def test_decay_exponent_matches_per_sample_polyfit(seed, rungs, samples, floor_exp):
    rng = np.random.default_rng(seed)
    lam = np.geomspace(1.0, 10.0 ** rng.uniform(1, 4), rungs)
    mags = _random_rows(rng, samples, lam)
    floor_abs = 0.0 if floor_exp is None else 10.0 ** floor_exp
    fit = det.decay_exponent(lam, mags, floor_abs)
    assert fit.n_hat.shape == fit.r2.shape == fit.kept.shape == (samples,)
    for s in range(samples):
        n_hat, r2, flags = _polyfit_reference(lam, mags[s], floor_abs)
        assert det.DecayFit(*(v[s] for v in fit)).flags(rungs) == sorted(flags)
        assert fit.n_hat[s] == pytest.approx(n_hat, abs=1e-12, rel=0)
        assert fit.r2[s] == pytest.approx(r2, abs=1e-12, rel=0)


# the verdict rule on decays of known order: magnitudes A (lam/4)^(-N) on
# the 2^2..2^6 ladder with the static floor at unit norms, 1e-7; then
# longer ladders, a lower floor and seeded log-normal noise
CALIBRATION_LADDER = det.default_ladder(2, 6)
CALIBRATION_FLOOR = 1e-7
ITEM_3 = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: the collapse rule reads a tail that the floor censors by "
    "lam = 32 as super-polynomial, however slowly it fell"))


def _power(order, amplitude, rungs=5, noise=0.0):
    """A (lam/4)^(-N) on the ladder 2^2..2^(rungs+1), times exp(noise z)
    for standard normal z drawn with seed 0."""
    lam = np.array(det.default_ladder(2, rungs + 1))
    z = np.random.default_rng(0).standard_normal(rungs)
    return amplitude * (lam / 4.0) ** -order * np.exp(noise * z)


def _calibration_table():
    """(id, ladder, samples, floor, the verdicts the rule is meant to give,
    whether the rule gets it wrong) per row."""
    # order N_LOW itself is a tie: "no faster than lam^-1" reads in-WF, and
    # the fit's last bit (n_hat = 1 + 4e-16) reads inconclusive
    meant = {0.5: ("in-WF",), 1.0: ("in-WF", "inconclusive"), 2.0: ("inconclusive",),
             4.0: ("inconclusive",), 8.0: ("not-in-WF",)}
    table = []

    def row(name, samples, verdicts, floor=CALIBRATION_FLOOR, wrong=False):
        ladder = det.default_ladder(2, len(samples[0]) + 1)
        table.append((name, ladder, np.array(samples), floor, verdicts, wrong))

    for order, verdicts in meant.items():
        for amp in (1e-2, 1e-4, 1e-5, 1e-6):
            row(f"N{order:g}-A{amp:g}", [_power(order, amp)], verdicts,
                wrong=(order == 2.0 and amp <= 1e-6) or (order == 4.0 and amp <= 1e-4))
    lam = np.array(CALIBRATION_LADDER)
    # super-polynomial: exp(-lam^2 / 256) falls to 1.1e-7 by lam = 64
    row("gaussian-decay", [np.exp(-lam ** 2 / 256.0)], ("not-in-WF",))
    # a cell is not-in-WF only when every sample is
    row("slow-and-fast", [_power(0.5, 1e-2), _power(8.0, 1e-2)], ("in-WF",))
    row("middling-and-fast", [_power(2.0, 1e-2), _power(8.0, 1e-2)], ("inconclusive",))
    # longer ladders: the floor still censors an order-4 tail from 1e-4 to
    # 3 kept rungs, whatever the ladder's length
    for rungs in (7, 9):
        for order, verdicts in meant.items():
            for amp in (1e-2, 1e-4):
                row(f"N{order:g}-A{amp:g}-R{rungs}", [_power(order, amp, rungs)], verdicts,
                    wrong=order == 4.0 and amp == 1e-4)
    # a floor 100 times lower keeps the tails that item 3 misreads
    for order in (2.0, 4.0):
        for amp in (1e-4, 1e-5):
            row(f"N{order:g}-A{amp:g}-F1e-9", [_power(order, amp)], meant[order], floor=1e-9)
    # seeded log-normal noise of 5% and 30% per rung leaves the verdicts
    for rungs in (5, 9):
        for noise in (0.05, 0.3):
            for order in (0.5, 2.0, 8.0):
                row(f"N{order:g}-A0.01-R{rungs}-noise{noise:g}",
                    [_power(order, 1e-2, rungs, noise)], meant[order])
    return table


@pytest.mark.parametrize("ladder,samples,floor,verdicts", [
    pytest.param(*cols, id=name, marks=[ITEM_3] if wrong else [])
    for name, *cols, wrong in _calibration_table()])
def test_verdict_rule_on_decays_of_known_order(ladder, samples, floor, verdicts):
    fit = det.decay_exponent(ladder, samples, floor)
    report = det._report(ladder, ladder, np.zeros((len(samples), 1)),
                         np.ones((len(samples), 1)), samples, fit, fit.flags(len(ladder)))
    assert report.verdict in verdicts, (report.verdict, report.n_hat, report.flags)


def test_calibration_table_fits_in_one_call_per_ladder_with_its_bits():
    # the table's samples of one ladder, stacked, with each row's floor as
    # an array: the fit of each row is the bits of its own call, as a
    # detector scan needs of the cells it fits together
    ladders = {}
    for _, ladder, samples, floor, _, _ in _calibration_table():
        ladders.setdefault(ladder, []).append((samples, floor))
    assert sorted(len(ladder) for ladder in ladders) == [5, 7, 9]
    for ladder, rows in ladders.items():
        mags = np.concatenate([samples for samples, _ in rows])
        floors = np.concatenate([np.full((len(samples), 1), floor) for samples, floor in rows])
        fit = det.decay_exponent(ladder, mags, floors)
        start = 0
        for samples, floor in rows:
            alone = det.decay_exponent(ladder, samples, floor)
            for got, want in zip(fit, alone):
                assert np.array_equal(got[start:start + len(samples)], want)
            start += len(samples)
        assert start == len(mags)


# ---------------------------------------------------------------------------
# sampling geometry


@pytest.mark.parametrize("count", [1, 2, 3, 5, 8])
def test_direction_fan(count):
    k = np.arange(count)
    signs = det.direction_fan(1, count)
    assert signs.tolist() == [[1.0], [-1.0]][:count]
    circle = det.direction_fan(2, count)
    assert circle.shape == (count, 2)
    np.testing.assert_allclose(np.linalg.norm(circle, axis=-1), 1.0, rtol=0, atol=1e-15)
    angles = np.mod(np.arctan2(circle[:, 1], circle[:, 0]), 2.0 * np.pi)
    np.testing.assert_allclose(angles, 2.0 * np.pi * k / count, rtol=0, atol=1e-14)


def test_conic_sample_annulus():
    s = det.ConicSample((0.0, 0.0), (1.0, 0.0), a=2.0)
    xs, xis = s.phase_samples()
    mods = np.linalg.norm(xis, axis=-1)
    assert np.all(mods >= 0.5 - 1e-12) and np.all(mods <= 2.0 + 1e-12)
    unit = xis / mods[:, None]
    angles = np.arccos(np.clip(unit @ np.array([1.0, 0.0]), -1, 1))
    assert np.max(angles) <= s.half_angle + 1e-12


def test_conic_sample_position_lattice():
    s = det.ConicSample((1.0, -1.0), (0.0, 1.0), k_radius=0.3)
    pos = s.positions()
    assert pos.shape == (9, 2)
    assert np.max(np.abs(pos - np.array([1.0, -1.0]))) <= 0.3 + 1e-12


def test_conic_sample_one_dimensional_degeneracy():
    s = det.ConicSample((0.0,), (-2.0,), a=1.0)
    dirs = s.directions()
    assert dirs.shape == (1, 1) and dirs[0, 0] == -1.0
    assert list(s.moduli()) == [1.0]


@pytest.mark.parametrize("xi0", [(1.0, 0.0), (0.3, -2.0)])
def test_fan_collapses_at_a_zero_half_angle_and_keeps_its_rim(xi0):
    x0 = (0.0,) * len(xi0)
    assert det.ConicSample(x0, xi0, half_angle=0.0).directions().shape == (1, len(xi0))
    dirs = det.ConicSample(x0, xi0, half_angle=0.2).directions()
    assert dirs.shape == (det.N_DIRECTIONS, len(xi0))


@pytest.mark.parametrize("sample", [
    det.ConicSample((0.5,), (-2.0,), a=1.5),
    det.ConicSample((1.0, -1.0), (0.3, 1.0), k_radius=0.3, a=2.0),
])
def test_conic_sample_phase_samples_order(sample):
    # position-major, then direction, then modulus
    xs, xis = [], []
    for p in sample.positions():
        for d in sample.directions():
            for m in sample.moduli():
                xs.append(p)
                xis.append(m * d)
    got_xs, got_xis = sample.phase_samples()
    assert np.array_equal(got_xs, np.asarray(xs))
    assert np.array_equal(got_xis, np.asarray(xis))


def test_conic_sample_rejects_zero_direction():
    with pytest.raises(errors.InputError):
        det.ConicSample((0.0,), (0.0,))


@pytest.mark.parametrize("x0, xi0", [((np.nan,), (1.0,)), ((0.0,), (np.inf,)),
                                     ((0.0, np.inf), (1.0, 0.0))])
def test_conic_sample_rejects_non_finite_points(x0, xi0):
    with pytest.raises(errors.InputError):
        det.ConicSample(x0, xi0)


@pytest.mark.parametrize("make, key, value", [
    (lambda: det.ConicSample((0.0,), (1.0,), k_radius="0.5"), "k_radius", 0.5),
    (lambda: det.ConicSample((0.0,), (1.0,), a="2"), "a", 2.0),
    (lambda: packets.GaussianWindow(1, width="1"), "width", 1.0),
    (lambda: packets.GaussianWindow(1, lam="2"), "lam", 2.0),
    (lambda: packets.GaussianWindow(1, b="x"), "b", None),
    (lambda: packets.GaussianWindow(1, b=None), "b", None),
    (lambda: packets.GaussianWindow("1"), "n", 1),
    (lambda: packets.GaussianWindow(2.0), "n", 2),
    (lambda: packets.GaussianWindow(None), "n", None),
    (lambda: packets.GaussianWindow(1.5), "n", None),
], ids=["conic-k-radius-text", "conic-a-text", "window-width-text", "window-lam-text",
        "window-b-text", "window-b-none", "window-n-text", "window-n-float",
        "window-n-none", "window-n-fraction"])
def test_sample_and_window_keep_the_numbers_they_checked(make, key, value):
    # numeric text is kept as the float it reads as, so the range checks
    # compare numbers; anything else is an InputError, not a bare TypeError
    if value is None:
        with pytest.raises(errors.InputError, match=f"'{key}'"):
            make()
    else:
        got = getattr(make(), key)
        assert type(got) is type(value) and got == value


def test_conic_sample_has_dimension_one_or_two():
    with pytest.raises(errors.InputError, match="dimension 1 or 2, got 3"):
        det.ConicSample((0.0,) * 3, (1.0, 0.0, 0.0))


def test_window_has_dimension_one_or_two():
    for n in (0, 3):
        with pytest.raises(errors.InputError, match=f"dimension must be 1 or 2, got {n}"):
            packets.GaussianWindow(n)


@pytest.mark.parametrize("width,lam", [(1e308, 1.0), (1e-300, 1.0), (1e-154, 2.0 ** 40)],
                         ids=["overflow", "zero-division", "infinite-quotient"])
def test_window_refuses_a_curvature_that_is_not_finite(width, lam):
    # alpha = lam^(2b) / width^2 is the curvature every pairing takes
    with pytest.raises(errors.InputError, match="curvature"):
        packets.GaussianWindow(1, width, lam)


@pytest.mark.parametrize("key", ["k_radius", "half_angle", "a"])
def test_conic_sample_rejects_non_finite_pattern(key):
    for bad in (np.nan, np.inf):
        with pytest.raises(errors.InputError, match=key):
            det.ConicSample((0.0,), (1.0,), **{key: bad})


# ---------------------------------------------------------------------------
# static ground truths


def test_static_delta_origin_in_wf():
    d = grid.delta_spike(FINE)
    rep = det.wf_scan("static", d, [(0.0,)], [(1.0,)], LADDER, a=1.5)[0].report
    assert rep.verdict == "in-WF"
    assert rep.n_hat == pytest.approx(-0.0625, abs=0.05)
    assert rep.r2 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("noise_rel", [np.nan, np.inf, -1.0])
def test_scan_refuses_a_noise_floor_that_is_not_finite_and_nonnegative(noise_rel):
    # a nan or inf floor censored every rung, so the singular cell read "not-in-WF"
    args = ("static", grid.delta_spike(grid.GridSpec(1, 4096, 30.0)), [(0.0,)], [(1.0,)],
            det.default_ladder(2, 6))
    assert det.wf_scan(*args, noise_rel=1e-12)[0].verdict == "in-WF"
    with pytest.raises(errors.InputError, match="'noise_rel' must be a finite number >= 0"):
        det.wf_scan(*args, noise_rel=noise_rel)


def test_static_delta_elsewhere_not_in_wf():
    d = grid.delta_spike(FINE)
    for cell in det.wf_scan("static", d, [(5.0,), (-5.0,)], [(1.0,)], LADDER, a=1.5):
        assert cell.verdict == "not-in-WF"
        assert "super-polynomial" in cell.report.flags


def test_static_gaussian_everywhere_smooth():
    g = grid.gaussian_data(FINE)
    for cell in det.wf_scan("static", g, [(0.0,), (5.0,)], [(1.0,)], LADDER, a=1.5):
        assert cell.verdict == "not-in-WF"
        assert "super-polynomial" in cell.report.flags


def test_static_ladder_truncation_inconclusive():
    coarse = grid.GridSpec(1, 256, 20.0)  # band ~20, ladder tops out instantly
    g = grid.gaussian_data(coarse)
    rep = det.wf_scan("static", g, [(0.0,)], [(1.0,)], LADDER)[0].report
    assert rep.verdict == "inconclusive"
    assert "ladder-truncated" in rep.flags


def test_static_width_robustness():
    # verdicts agree across base widths on cells where they are conclusive
    d = grid.delta_spike(FINE)
    g = grid.gaussian_data(FINE)
    for f, x0 in ((d, 0.0), (d, 5.0), (g, 0.0)):
        verdicts = {det.wf_scan("static", f, [(x0,)], [(1.0,)], LADDER, width=w,
                                a=1.5)[0].verdict for w in (0.5, 1.0, 2.0)}
        conclusive = verdicts - {"inconclusive"}
        assert len(conclusive) == 1, verdicts


def test_static_monotone_censoring():
    # enlarging the ladder never flips not-in-WF to in-WF on oracle inputs
    d = grid.delta_spike(FINE)
    g = grid.gaussian_data(FINE)
    for ladder in (det.default_ladder(3, 8), det.default_ladder(3, 11)):
        # datum-major: the point mass at 0 and 5, then the Gaussian at 0 and 5
        cells = det.wf_scan("static", [d, g], [(0.0,), (5.0,)], [(1.0,)], ladder, a=1.5)
        assert [c.verdict for c in cells[1:]] == ["not-in-WF"] * 3


# ---------------------------------------------------------------------------
# dynamic test


def test_dynamic_time_zero_reduces_to_static():
    d = grid.delta_spike(FINE)
    stat, dyn = (det.wf_scan(mode, d, [(0.0,)], [(1.0,)], LADDER, model=pots.zero_model(1),
                             a=1.5)[0].report for mode in ("static", "dynamic"))
    assert dyn.verdict == stat.verdict
    assert np.array_equal(dyn.magnitudes, stat.magnitudes)


def test_dynamic_free_point_mass_smooths():
    spec = grid.GridSpec(1, 4096, 30.0)
    d = grid.delta_spike(spec)
    ladder = det.default_ladder(2, 6)
    rep = det.wf_scan("dynamic", d, [(1.0,)], [(1.0,)], ladder, model=pots.zero_model(1),
                      t0=1.0)[0].report
    assert rep.verdict == "not-in-WF"
    # the flowed-point magnitude follows the evolved-window closed form
    from mswf.packets import DeltaSignal, GaussianWindow, gaussian_wpt_oracle
    lam = rep.ladder[0]
    win = GaussianWindow(1, 1.0, lam, 0.125, -1.0)
    x0 = np.array([1.0 - 1.0 * lam * 1.0])  # x - t0 lam xi
    want = abs(gaussian_wpt_oracle(DeltaSignal(), win, (tuple(x0), (lam,))))
    sample = np.argmax([np.allclose(rep.sample_x[i], [1.0])
                        and np.allclose(rep.sample_xi[i], [1.0])
                        for i in range(len(rep.sample_x))])
    assert rep.magnitudes[sample, 0] == pytest.approx(want, rel=1e-10)


def test_dynamic_gaussian_smooth_everywhere():
    spec = grid.GridSpec(1, 4096, 30.0)
    g = grid.gaussian_data(spec, momentum=1.0)
    ladder = det.default_ladder(2, 6)
    rep = det.wf_scan("dynamic", g, [(0.0,)], [(1.0,)], ladder, model=pots.zero_model(1),
                      t0=1.0)[0].report
    assert rep.verdict == "not-in-WF"


def test_dynamic_flowed_band_guard():
    # a tiny grid cannot hold the flowed frequencies; the report says so
    spec = grid.GridSpec(1, 64, 8.0)
    d = grid.delta_spike(spec)
    rep = det.wf_scan("dynamic", d, [(0.0,)], [(1.0,)], det.default_ladder(3, 12),
                      model=pots.zero_model(1), t0=1.0)[0].report
    assert rep.verdict == "inconclusive"
    assert "ladder-truncated" in rep.flags


# ---------------------------------------------------------------------------
# scans


def test_scan_delta_in_wf_only_near_origin():
    d = grid.delta_spike(FINE)
    cells = det.wf_scan("static", d, [(-5.0,), (0.0,), (5.0,)],
                        det.direction_fan(1, 2), LADDER, a=1.5)
    verdicts = {(c.x0[0], c.xi0[0]): c.verdict for c in cells}
    for (x0, _), v in verdicts.items():
        assert v == ("in-WF" if x0 == 0.0 else "not-in-WF")


def test_scan_gaussian_all_smooth():
    g = grid.gaussian_data(FINE)
    cells = det.wf_scan("static", g, [(-5.0,), (0.0,), (5.0,)],
                        det.direction_fan(1, 2), LADDER, a=1.5)
    assert all(c.verdict == "not-in-WF" for c in cells)


def test_scan_empty_lattice():
    g = grid.gaussian_data(FINE)
    assert det.wf_scan("static", g, [], det.direction_fan(1, 2), LADDER) == []


def test_scan_records_errors_in_row():
    g = grid.gaussian_data(FINE)
    cells = det.wf_scan("static", g, [(0.0,)], [(0.0,)], LADDER)  # zero direction
    assert cells[0].verdict == "error"
    assert "InputError" in cells[0].error


def test_scan_records_a_malformed_cell_in_its_row():
    # a position with two axes, or one whose dimension differs from its
    # direction's, is not a phase point: an InputError in that cell only
    g = grid.gaussian_data(FINE)
    ladder = det.default_ladder(2, 6)
    cells = det.wf_scan("static", g, [(0.0,), [[0.0, 1.0]], (0.0, 1.0)], [(1.0,)], ladder)
    assert cells[0].verdict == "not-in-WF" and cells[0].x0 == (0.0,)
    for cell in cells[1:]:
        assert cell.verdict == "error" and cell.error.startswith("InputError")
    alone, = det.wf_scan("static", g, [(0.0,)], [(1.0,)], ladder)
    assert np.array_equal(cells[0].report.magnitudes, alone.report.magnitudes)


def test_a_cell_of_another_dimension_gets_no_verdict():
    # a 1-d cell on a 2-d grid is refused, in its own row, before any pairing
    g = grid.gaussian_data(grid.GridSpec(2, 128, 5.0))
    ladder = det.default_ladder(2, 6)
    flowed, = det.wf_scan("dynamic", g, [(0.0,)], [(1.0,)], ladder, model=pots.zero_model(2),
                          t0=1.0)
    assert flowed.error == "InputError: cell has n = 1, the grid has n = 2"
    cells = det.wf_scan("static", g, [(0.0,), (0.0, 0.0)], [(1.0,), (1.0, 0.0)], ladder)
    assert cells[0].error == "InputError: cell has n = 1, the grid has n = 2"
    assert [c.verdict == "error" for c in cells] == [True, True, True, False]
    alone, = det.wf_scan("static", g, [(0.0, 0.0)], [(1.0, 0.0)], ladder)
    assert np.array_equal(cells[3].report.magnitudes, alone.report.magnitudes)


def test_non_finite_input_gets_no_verdict():
    # a NaN node makes NaN magnitudes, which must not pass as censored ones
    spec = grid.GridSpec(1, 4096, 30.0)
    values = grid.gaussian_data(spec).values
    values[10] = np.nan
    f = grid.GridFunction(spec, values)
    ladder = det.default_ladder(2, 6)
    cells = det.wf_scan("static", grid.gaussian_data(spec), [(0.0,), (np.nan,)],
                        [(1.0,)], ladder)
    assert cells[0].verdict == "not-in-WF"
    assert cells[1].verdict == "error" and "InputError" in cells[1].error
    nan_cell, = det.wf_scan("static", f, [(0.0,)], [(1.0,)], ladder)
    assert nan_cell.verdict == "error"
    assert nan_cell.error == "InputError: field values must be finite"


@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_non_finite_datum_voids_only_its_own_cells(mode):
    spec = grid.GridSpec(1, 4096, 20.0)
    g = grid.gaussian_data(spec)
    values = g.values.copy()
    values[10] = np.nan
    g_nan = grid.GridFunction(spec, values)

    def scan(data):
        return det.wf_scan(mode, data, [(0.0,), (1.0,)], [(1.0,)],
                           det.default_ladder(2, 6), model=pots.zero_model(1),
                           t0=1.0 if mode == "dynamic" else 0.0)

    cells, alone = scan([g, g_nan]), scan(g)
    assert [c.verdict for c in cells] == ["not-in-WF"] * 2 + ["error"] * 2
    assert all(c.error == "InputError: field values must be finite" for c in cells[2:])
    for got, want in zip(cells[:2], alone):
        assert got.report.n_hat == want.report.n_hat
        assert np.array_equal(got.report.magnitudes, want.report.magnitudes)


@pytest.mark.parametrize("name,failures", [
    ("ConicSample", [TypeError]),
    ("_ladder_step", [TypeError]),                     # in the scan's step
    ("_ladder_step", [errors.NumericError, TypeError]),  # in the first lone cell's
    ("flow_batch", [TypeError]),                       # in the grouped flow
    ("flow_batch", [errors.NumericError, TypeError]),  # in the first lone cell's
], ids=["conic-sample", "ladder-step", "lone-ladder-step", "grouped-flow", "lone-flow"])
def test_scan_propagates_programming_errors(monkeypatch, name, failures):
    # a call past the listed failures raises StopIteration, not TypeError
    calls = iter(failures)

    def broken(*args, **kwargs):
        raise next(calls)("not a package error")

    monkeypatch.setattr(det, name, broken)
    g = grid.gaussian_data(MULTI_SPEC)
    with pytest.raises(TypeError, match="not a package error"):
        det.wf_scan("dynamic", g, MULTI_POSITIONS, det.direction_fan(1, 2), MULTI_LADDER,
                    model=pots.zero_model(1), t0=1.0)


def test_non_finite_field_and_malformed_cell_keep_their_own_errors():
    # the field error covers every cell of its field; in the finite field
    # the malformed cell reads its own error and keeps its input
    g = grid.gaussian_data(MULTI_SPEC)
    values = g.values.copy()
    values[10] = np.nan
    bad = [[0.0, 1.0]]
    cells = det.wf_scan("static", [g, grid.GridFunction(MULTI_SPEC, values)],
                        [(0.0,), bad], [(1.0,)], MULTI_LADDER)
    assert [c.verdict for c in cells] == ["not-in-WF"] + ["error"] * 3
    assert cells[1].x0 is bad and cells[1].xi0 == (1.0,)
    assert cells[1].error.startswith("InputError") and "finite" not in cells[1].error
    assert all(c.error == "InputError: field values must be finite" for c in cells[2:])


# ---------------------------------------------------------------------------
# multi-datum scans

MULTI_SPEC = grid.GridSpec(1, 4096, 30.0)
MULTI_LADDER = det.default_ladder(2, 6)
MULTI_POSITIONS = [(-1.0,), (0.0,), (1.0,)]


def _multi_data():
    return [grid.delta_spike(MULTI_SPEC),
            grid.gaussian_data(MULTI_SPEC, momentum=1.0),
            grid.gaussian_data(MULTI_SPEC, width=0.5, center=0.5)]


def _scan(mode, data, directions):
    # the experiments' static noise level, where each datum's censoring
    # floor binds
    model = pots.soft_power_model(1, 0.5, 0.7)
    return det.wf_scan(mode, data, MULTI_POSITIONS, directions, MULTI_LADDER,
                       model=model, t0=1.0 if mode == "dynamic" else 0.0,
                       noise_rel=1e-7)


@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_scan_over_data_equals_one_scan_per_datum(mode):
    # the zero direction makes one error cell per position, for every datum
    directions = [(1.0,), (-1.0,), (0.0,)]
    data = _multi_data()
    batched = _scan(mode, data, directions)
    singles = [cell for f in data for cell in _scan(mode, f, directions)]
    assert len(batched) == len(singles) == len(data) * 3 * 3
    for got, want in zip(batched, singles):  # flat and datum-major
        assert isinstance(got, det.ScanCell)
        assert (got.x0, got.xi0, got.verdict, got.error) == \
            (want.x0, want.xi0, want.verdict, want.error)
        if want.report is None:
            assert got.report is None and "InputError" in got.error
            continue
        assert got.report.flags == want.report.flags
        np.testing.assert_allclose(got.report.n_hat, want.report.n_hat,
                                   rtol=0, atol=1e-12)
    assert {c.verdict for c in batched} >= {"not-in-WF", "error"}


def test_dynamic_scan_flows_each_cell_and_rung_once(monkeypatch):
    calls = []
    flow_batch = det.flow_batch

    def counted(*args, **kwargs):
        calls.append(args)
        return flow_batch(*args, **kwargs)

    monkeypatch.setattr(det, "flow_batch", counted)
    directions = det.direction_fan(1, 2)
    cells = _scan("dynamic", _multi_data(), directions)
    assert len(cells) == 3 * len(MULTI_POSITIONS) * len(directions)
    # one grouped call: a group of S samples per (cell, rung), for all data
    (args,) = calls
    samples = len(det.ConicSample((0.0,), (1.0,)).phase_samples()[0])
    groups = len(MULTI_POSITIONS) * len(directions) * len(MULTI_LADDER)
    assert args[3].shape == args[4].shape == (groups, samples, 1)


def test_dynamic_scan_finds_each_box_once_and_pairs_with_pair_many_bits(monkeypatch):
    boxed, pairings = [], []
    find, kernel = det._nonzero_box, det._pair_in_boxes

    def counted(g):
        boxed.append(g)
        return find(g)

    def checked(spec, values, boxes, window, X, XI):
        got = kernel(spec, values, boxes, window, X, XI)
        pairings.append(np.array_equal(got, packets.pair_many(spec, values, window, X, XI)))
        return got

    monkeypatch.setattr(det, "_nonzero_box", counted)
    monkeypatch.setattr(det, "_pair_in_boxes", checked)
    data = _multi_data()  # a point mass first
    cells = _scan("dynamic", data, det.direction_fan(1, 2))
    assert all(c.report is not None for c in cells)
    assert len(boxed) == len(data) and all(g is f.values for g, f in zip(boxed, data))
    # one pairing per rung, of every cell's samples, each the bits of pair_many's
    assert len(pairings) == len(MULTI_LADDER) and all(pairings)


def test_a_cell_whose_magnitudes_fail_gets_the_error_alone(monkeypatch):
    # NaN pairings at the samples of the cell at x0 = 8 fail the scan's
    # joint fit; that cell is then probed alone into its error, and the
    # others keep the bits of a scan without it
    kernel = det._pair_in_boxes

    def poisoned(spec, values, boxes, window, X, XI):
        out = kernel(spec, values, boxes, window, X, XI)
        out[X[:, 0] > 5.0] = np.nan
        return out

    def scan(positions):
        return det.wf_scan("static", _multi_data(), positions, det.direction_fan(1, 2),
                           MULTI_LADDER, noise_rel=1e-7)

    good = scan(MULTI_POSITIONS)
    monkeypatch.setattr(det, "_pair_in_boxes", poisoned)
    cells = scan(MULTI_POSITIONS[:2] + [(8.0,)] + MULTI_POSITIONS[2:])
    assert [c.x0 == (8.0,) for c in cells] == ([False] * 4 + [True] * 2 + [False] * 2) * 3
    assert all(c.error == "InputError: magnitudes must be finite and nonnegative"
               for c in cells if c.x0 == (8.0,))
    for got, want in zip([c for c in cells if c.x0 != (8.0,)], good):
        assert (got.x0, got.xi0, got.verdict, got.report.flags) == \
            (want.x0, want.xi0, want.verdict, want.report.flags)
        assert np.array_equal(got.report.magnitudes, want.report.magnitudes)
        assert got.report.n_hat == want.report.n_hat


def test_dynamic_scan_records_a_failed_flow_in_its_cell_only(monkeypatch):
    # a is not finite for x > 5; with xi > 0 every backward flow moves to
    # smaller x, so only the cell at x = 8 meets the bad region.  Only this
    # model is made to fail, so a scan that flows with a = 0 passes the cell
    model = pots.soft_power_model(1, 0.5, 0.5, "sin")
    flow_field = chars.flow_field

    def nan_field(m, t, x, xi, out=None):
        v, dxi = flow_field(m, t, x, xi, out)
        if m is model:
            v[x > 5.0] = dxi[x > 5.0] = np.nan
        return v, dxi

    monkeypatch.setattr(chars, "flow_field", nan_field)
    data = _multi_data()[:2]

    def scan(positions):
        return det.wf_scan("dynamic", data, positions, [(1.0,)], MULTI_LADDER,
                           model=model, t0=1.0, noise_rel=1e-7)

    positions = [(-1.0,), (8.0,), (0.0,), (1.0,)]
    cells = scan(positions)
    good = scan([p for p in positions if p != (8.0,)])
    assert [c.error is not None for c in cells] == [False, True, False, False] * 2
    assert all("StepUnderflowError" in c.error for c in cells if c.x0 == (8.0,))
    assert all("StepUnderflowError" in c.error for c in scan([(8.0,)]))
    for got, want in zip([c for c in cells if c.x0 != (8.0,)], good):
        assert (got.x0, got.verdict, got.report.flags) == \
            (want.x0, want.verdict, want.report.flags)
        assert np.array_equal(got.report.magnitudes, want.report.magnitudes)


@pytest.mark.parametrize("mode,t0", [("static", 0.0), ("dynamic", 0.0),
                                     ("dynamic", 1.0)])
def test_a_one_cell_scan_matches_its_cell_in_a_lattice_scan(mode, t0):
    # a lattice scan pairs and fits its cells together, yet each gets the bits
    # it gets alone
    data = _multi_data()
    model = pots.soft_power_model(1, 0.5, 0.7)
    x0, xi0 = (0.0,), (-1.0,)
    reports = [c.report for c in det.wf_scan(mode, data, [x0], [xi0], MULTI_LADDER,
                                             model=model, t0=t0, noise_rel=1e-7)]
    cells = det.wf_scan(mode, data, MULTI_POSITIONS, det.direction_fan(1, 2),
                        MULTI_LADDER, model=model, t0=t0, noise_rel=1e-7)
    cells = [c for c in cells if (c.x0, c.xi0) == (x0, xi0)]
    assert len(cells) == len(reports) == len(data)
    for cell, report in zip(cells, reports):
        assert np.array_equal(cell.report.magnitudes, report.magnitudes)
        assert (cell.report.flags, cell.verdict) == (report.flags, report.verdict)


# (datum, positions, directions, ladder, dynamic model and t0, how many
# rungs the cells keep in a static and in a dynamic scan).  The ladders'
# top rungs sit at the grid band, so in one scan some cells keep every
# rung, one loses its top rungs and one keeps fewer than MIN_RUNGS.  A 1-D
# static sample pairs at lambda xi with |xi| = 1, so all of its cells share
# one rung set; the flow moves the frequencies of the 1-D dynamic cells
# apart, and in 2-D the fan's angle to the axes does it
MIXED_BANDS = {
    "1d-gaussian": (lambda: grid.gaussian_data(MULTI_SPEC), [(0.0,), (20.0,)],
                    [(1.0,), (-1.0,)], (16.0, 32.0, 64.0, 128.0, 192.0, 194.0, 230.0),
                    pots.soft_power_model(1, 0.5, 2.0), 1.0, {6}, {4, 6, 7}),
    "2d-point-mass": (lambda: grid.delta_spike(grid.GridSpec(2, 128, 5.0)), [(0.0, 0.0)],
                      [(1.0, 0.0), (np.cos(0.45), np.sin(0.45)), (0.6, 0.6)],
                      (1.0, 2.0, 4.0, 8.0, 40.5, 41.0, 45.0),
                      pots.soft_power_model(2, 0.5, 0.1), 0.1, {4, 6, 7}, {4, 6, 7}),
}


@pytest.mark.parametrize("mode", ["static", "dynamic"])
@pytest.mark.parametrize("case", list(MIXED_BANDS))
def test_each_scan_cell_gets_the_bits_of_its_one_cell_scan(case, mode):
    # a scan pairs and fits its cells together; each cell's report must be
    # the bits of a one-cell scan, and a non-finite field in the scan must
    # leave the finite field's cells alone and void each of its own, a
    # truncated cell, which pairs nothing, included
    make, positions, directions, ladder, model, t0, *kept = MIXED_BANDS[case]
    f = make()
    values = f.values.copy()
    values.flat[0] = np.nan
    nan_field = grid.GridFunction(f.spec, values)
    t0 = t0 if mode == "dynamic" else 0.0
    cells = det.wf_scan(mode, [f, nan_field], positions, directions, ladder,
                        model=model, t0=t0)
    finite = cells[:len(cells) // 2]
    assert all(c.error == "InputError: field values must be finite"
               for c in cells[len(finite):])
    for cell in finite:
        alone, nan_alone = (det.wf_scan(mode, g, [cell.x0], [cell.xi0], ladder, model=model,
                                        t0=t0)[0] for g in (f, nan_field))
        assert nan_alone.error == "InputError: field values must be finite"
        got, want = cell.report, alone.report
        assert (got.ladder, got.flags, got.verdict, got.binding_index) == \
            (want.ladder, want.flags, want.verdict, want.binding_index)
        assert np.array_equal(got.magnitudes, want.magnitudes)
        assert all(np.array_equal(a, b) for a, b in zip(got.fit, want.fit))
        assert np.array_equal(got.n_hat, want.n_hat, equal_nan=True)
        assert np.array_equal(got.r2, want.r2, equal_nan=True)
    assert {len(c.report.ladder) for c in finite} == kept[mode == "dynamic"]
    assert all(c.report.flags[0] == "ladder-truncated"
               for c in finite if len(c.report.ladder) < det.MIN_RUNGS)


def _rotated(f, phase):
    return f.with_values(f.values * np.exp(1j * phase))


LONE_SPEC = grid.GridSpec(1, 1024, 20.0)

# (datum, positions, directions, ladder, model, sample keywords).  A cell
# of one sample pairs a lone row in a one-cell scan, and a complex point
# mass has a one-node box, which BLAS's axpy would round by the row's place
# in the batch; a scan must still give each cell the bits of its one-cell scan
LONE_ROWS = {
    "1d-one-sample": (
        lambda: _rotated(grid.gaussian_data(LONE_SPEC), np.random.default_rng(0).uniform(
            0.0, 2.0 * np.pi, LONE_SPEC.shape)),
        [(-1.0,), (0.0,), (0.5,), (1.0,)], [(1.0,), (-1.0,)], det.default_ladder(2, 6),
        pots.soft_power_model(1, 0.5, 2.0), {"k_radius": 0.0, "a": 1.0}),
    "1d-rotated-point-mass": (
        lambda: _rotated(grid.delta_spike(LONE_SPEC), 0.7),
        [(-1.0,), (0.0,), (0.5,), (1.0,)], [(1.0,), (-1.0,)], det.default_ladder(2, 6),
        pots.soft_power_model(1, 0.5, 2.0), {}),
    "2d-rotated-point-mass": (
        lambda: _rotated(grid.delta_spike(grid.GridSpec(2, 64, 5.0)), 0.7),
        [(0.0, 0.0), (0.3, -0.2)], det.direction_fan(2, 4), det.default_ladder(0, 4),
        pots.soft_power_model(2, 0.5, 0.5), {}),
}


@pytest.mark.parametrize("mode", ["static", "dynamic"])
@pytest.mark.parametrize("case", list(LONE_ROWS))
def test_lone_rows_and_one_node_complex_fields_keep_their_bits_in_a_scan(case, mode):
    make, positions, directions, ladder, model, sample = LONE_ROWS[case]
    f, t0 = make(), 0.5 if mode == "dynamic" else 0.0
    cells = det.wf_scan(mode, f, positions, directions, ladder, model=model, t0=t0, **sample)
    for cell in cells:
        want = det.wf_scan(mode, f, [cell.x0], [cell.xi0], ladder, model=model, t0=t0,
                           **sample)[0].report
        assert np.array_equal(cell.report.magnitudes, want.magnitudes)
        assert np.array_equal(cell.report.n_hat, want.n_hat, equal_nan=True)


@pytest.mark.parametrize("t0", [0.0, 1.0])
def test_dynamic_scan_without_a_model_records_input_error_in_every_cell(t0):
    data = _multi_data()[:2]
    cells = det.wf_scan("dynamic", data, MULTI_POSITIONS, det.direction_fan(1, 2),
                        MULTI_LADDER, t0=t0)
    assert len(cells) == 2 * len(MULTI_POSITIONS) * 2
    assert all(c.report is None and c.error.startswith("InputError: a dynamic probe")
               for c in cells)


def test_scan_rejects_data_on_different_grids():
    other = grid.gaussian_data(grid.GridSpec(1, 2048, 30.0))
    with pytest.raises(errors.InputError):
        det.wf_scan("static", [grid.gaussian_data(MULTI_SPEC), other],
                    MULTI_POSITIONS, det.direction_fan(1, 2), MULTI_LADDER)
    with pytest.raises(errors.InputError):
        det.wf_scan("static", [], MULTI_POSITIONS, det.direction_fan(1, 2), MULTI_LADDER)
