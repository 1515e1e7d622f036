import numpy as np
import pytest

from mswf import detector as det, errors, grid, potentials as pots

FINE = grid.GridSpec(1, 32768, 10.0)
LADDER = det.default_ladder(3, 11)


# ---------------------------------------------------------------------------
# exponent regression


def test_decay_exponent_pure_power_law():
    ladder = [2.0 ** k for k in range(1, 11)]
    mags = [lam ** -3.0 for lam in ladder]
    n_hat, r2, flags = det.decay_exponent(ladder, mags)
    assert n_hat == pytest.approx(3.0, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert "super-polynomial" not in flags


def test_decay_exponent_constant():
    ladder = [2.0 ** k for k in range(1, 8)]
    n_hat, r2, flags = det.decay_exponent(ladder, [0.7] * len(ladder))
    assert n_hat == pytest.approx(0.0, abs=1e-12)
    assert r2 == 1.0


def test_decay_exponent_exponential_collapse():
    ladder = [2.0 ** k for k in range(1, 11)]
    mags = [np.exp(-lam) for lam in ladder]
    n_hat, r2, flags = det.decay_exponent(ladder, mags)
    assert "super-polynomial" in flags


def test_decay_exponent_all_censored():
    ladder = [2.0 ** k for k in range(1, 7)]
    n_hat, r2, flags = det.decay_exponent(ladder, [0.0] * len(ladder))
    assert n_hat == np.inf
    assert "all-censored" in flags and "super-polynomial" in flags


def test_decay_exponent_absolute_floor():
    # a noise plateau below the caller's floor must not pollute the fit
    ladder = [2.0 ** k for k in range(1, 9)]
    mags = [1e-2, 1e-6, 3e-16, 1e-16, 2e-16, 1.5e-16, 2.5e-16, 1e-16]
    n_hat, _, flags = det.decay_exponent(ladder, mags, floor_abs=1e-13)
    assert "super-polynomial" in flags


def test_decay_exponent_validation():
    with pytest.raises(errors.InputError):
        det.decay_exponent([1.0, 2.0, 4.0], [1.0, 1.0, 1.0])  # too short
    with pytest.raises(errors.InputError):
        det.decay_exponent([1, 2, 3, 2, 5], [1] * 5)  # not increasing
    with pytest.raises(errors.InputError):
        det.decay_exponent([1, 2, 4, 8, 16], [1, 1, -1, 1, 1])


def test_decay_exponent_scaling_invariance():
    ladder = [2.0 ** k for k in range(1, 9)]
    rng = np.random.default_rng(3)
    mags = np.exp(-1.7 * np.log(ladder)) * np.exp(0.05 * rng.standard_normal(8))
    base = det.decay_exponent(ladder, mags)[0]
    scaled = det.decay_exponent(ladder, 137.0 * mags)[0]
    assert scaled == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling geometry


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


def test_conic_sample_3d_directions():
    s = det.ConicSample((0.0,) * 3, (0.0, 0.0, 1.0), half_angle=0.3)
    dirs = s.directions()
    assert dirs.shape[1] == 3
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-12)
    assert np.min(dirs @ np.array([0, 0, 1.0])) >= np.cos(0.3) - 1e-12


def test_conic_sample_rejects_zero_direction():
    with pytest.raises(errors.InputError):
        det.ConicSample((0.0,), (0.0,))


# ---------------------------------------------------------------------------
# static ground truths


def test_static_delta_origin_in_wf():
    d = grid.delta_spike(FINE)
    rep = det.wf_test_static(d, det.ConicSample((0.0,), (1.0,), a=1.5),
                             LADDER, width=1.0, b=0.125)
    assert rep.verdict == "in-WF"
    assert rep.n_hat == pytest.approx(-0.0625, abs=0.05)
    assert rep.r2 == pytest.approx(1.0, abs=1e-9)


def test_static_delta_elsewhere_not_in_wf():
    d = grid.delta_spike(FINE)
    for x0 in (5.0, -5.0):
        rep = det.wf_test_static(d, det.ConicSample((x0,), (1.0,), a=1.5),
                                 LADDER, width=1.0, b=0.125)
        assert rep.verdict == "not-in-WF"
        assert "super-polynomial" in rep.flags


def test_static_gaussian_everywhere_smooth():
    g = grid.gaussian_data(FINE)
    for x0 in (0.0, 5.0):
        rep = det.wf_test_static(g, det.ConicSample((x0,), (1.0,), a=1.5),
                                 LADDER, width=1.0, b=0.125)
        assert rep.verdict == "not-in-WF"
        assert "super-polynomial" in rep.flags


def test_static_ladder_truncation_inconclusive():
    coarse = grid.GridSpec(1, 256, 20.0)  # band ~20, ladder tops out instantly
    g = grid.gaussian_data(coarse)
    rep = det.wf_test_static(g, det.ConicSample((0.0,), (1.0,)), LADDER)
    assert rep.verdict == "inconclusive"
    assert "ladder-truncated" in rep.flags


def test_static_width_robustness():
    # verdicts agree across base widths on cells where they are conclusive
    d = grid.delta_spike(FINE)
    g = grid.gaussian_data(FINE)
    for f, x0 in ((d, 0.0), (d, 5.0), (g, 0.0)):
        verdicts = {det.wf_test_static(
            f, det.ConicSample((x0,), (1.0,), a=1.5), LADDER,
            width=w, b=0.125).verdict for w in (0.5, 1.0, 2.0)}
        conclusive = verdicts - {"inconclusive"}
        assert len(conclusive) == 1, verdicts


def test_static_monotone_censoring():
    # enlarging the ladder never flips not-in-WF to in-WF on oracle inputs
    d = grid.delta_spike(FINE)
    g = grid.gaussian_data(FINE)
    short, long = det.default_ladder(3, 8), det.default_ladder(3, 11)
    for f, x0 in ((d, 5.0), (g, 0.0), (g, 5.0)):
        s = det.ConicSample((x0,), (1.0,), a=1.5)
        first = det.wf_test_static(f, s, short, width=1.0, b=0.125).verdict
        second = det.wf_test_static(f, s, long, width=1.0, b=0.125).verdict
        assert first == "not-in-WF" and second == "not-in-WF"


# ---------------------------------------------------------------------------
# dynamic test


def test_dynamic_time_zero_reduces_to_static():
    d = grid.delta_spike(FINE)
    s = det.ConicSample((0.0,), (1.0,), a=1.5)
    stat = det.wf_test_static(d, s, LADDER, width=1.0, b=0.125)
    dyn = det.wf_test_dynamic(d, pots.zero_model(1), 0.0, s, LADDER,
                              width=1.0, b=0.125)
    assert dyn.verdict == stat.verdict
    np.testing.assert_allclose(dyn.magnitudes, stat.magnitudes)


def test_dynamic_free_point_mass_smooths():
    spec = grid.GridSpec(1, 4096, 30.0)
    d = grid.delta_spike(spec)
    ladder = det.default_ladder(2, 6)
    rep = det.wf_test_dynamic(d, pots.zero_model(1), 1.0,
                              det.ConicSample((1.0,), (1.0,)), ladder,
                              width=1.0, b=0.125)
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
    rep = det.wf_test_dynamic(g, pots.zero_model(1), 1.0,
                              det.ConicSample((0.0,), (1.0,)), ladder,
                              width=1.0, b=0.125)
    assert rep.verdict == "not-in-WF"


def test_dynamic_flowed_band_guard():
    # a tiny grid cannot hold the flowed frequencies; the report says so
    spec = grid.GridSpec(1, 64, 8.0)
    d = grid.delta_spike(spec)
    rep = det.wf_test_dynamic(d, pots.zero_model(1), 1.0,
                              det.ConicSample((0.0,), (1.0,)),
                              det.default_ladder(3, 12))
    assert rep.verdict == "inconclusive"
    assert "ladder-truncated" in rep.flags


def test_report_json_shape():
    d = grid.delta_spike(FINE)
    rep = det.wf_test_static(d, det.ConicSample((0.0,), (1.0,)), LADDER)
    payload = rep.to_json_dict()
    assert set(payload) >= {"lambda", "mag", "Nhat", "R2", "flags", "verdict"}
    assert len(payload["mag"]) == len(payload["lambda"])


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


def test_scan_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a package error")

    monkeypatch.setattr(det, "wf_test_static", broken)
    g = grid.gaussian_data(FINE)
    with pytest.raises(TypeError, match="not a package error"):
        det.wf_scan("static", g, [(0.0,)], det.direction_fan(1, 2), LADDER)


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
    assert len(calls) == len(MULTI_POSITIONS) * len(directions) * len(MULTI_LADDER)


def test_single_field_tests_return_one_report():
    g = grid.gaussian_data(MULTI_SPEC)
    sample = det.ConicSample((0.0,), (1.0,))
    assert isinstance(det.wf_test_static(g, sample, MULTI_LADDER), det.DecayReport)
    assert isinstance(det.wf_test_dynamic(g, pots.zero_model(1), 1.0, sample,
                                          MULTI_LADDER), det.DecayReport)
    both = det.wf_test_static([g, g], sample, MULTI_LADDER)
    assert [r.verdict for r in both] == ["not-in-WF"] * 2


def test_scan_rejects_data_on_different_grids():
    other = grid.gaussian_data(grid.GridSpec(1, 2048, 30.0))
    with pytest.raises(errors.InputError):
        det.wf_scan("static", [grid.gaussian_data(MULTI_SPEC), other],
                    MULTI_POSITIONS, det.direction_fan(1, 2), MULTI_LADDER)
    with pytest.raises(errors.InputError):
        det.wf_test_static([], det.ConicSample((0.0,), (1.0,)), MULTI_LADDER)
