"""Tests of the benchmark harness itself: tracer, probes, checks, seeds.

    python3 -m pytest -q perfbench/test_harness.py
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import numpy  # noqa: E402

import mswf.cli  # noqa: E402
import mswf.detector  # noqa: E402
import mswf.grid  # noqa: E402
import mswf.packets  # noqa: E402

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, patched  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text())


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    tr = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 2.5, 4.0, 5.0, 7.0, 10.0))
    outer = tr.begin("outer")          # 0
    child = tr.begin("child")          # 1
    grandchild = tr.begin("grand")     # 2
    tr.end(grandchild)                 # 2.5
    tr.end(child)                      # 4
    second = tr.begin("child")         # 5
    tr.end(second)                     # 7
    tr.end(outer)                      # 10
    assert grandchild.self_time == 0.5
    assert child.duration == 3.0 and child.self_time == 2.5
    assert outer.duration == 10.0 and outer.self_time == 5.0
    assert tr.to_rows()[2] == ["grand", 2.0, 2.5, 1]


def test_counted_calls_charge_their_time_to_the_open_span():
    tr = Tracer(clock=fake_clock(0.0, 1.0, 1.25, 2.0, 2.5, 4.0))
    counted = tr.count("rhs", lambda x: x + 1)
    outer = tr.begin("outer")          # 0
    assert counted(1) == 2             # 1 .. 1.25
    assert counted(2) == 3             # 2 .. 2.5
    tr.end(outer)                      # 4
    assert tr.calls["rhs"] == 2 and tr.times["rhs"] == 0.75
    assert outer.self_time == 3.25
    assert len(tr.spans) == 1


def test_only_under_records_inside_the_named_parent():
    tr = Tracer()
    inner = tr.span("inner", lambda: None, only_under="outer")
    inner()
    outer = tr.span("outer", inner)
    outer()
    assert [s.name for s in tr.spans] == ["outer", "inner"]


def test_probes_are_removed_after_the_traced_run():
    tr = Tracer()
    bindings = [(owner, attr, getattr(owner, attr))
                for owner, attr, _ in layers.probes(tr)]
    with pytest.raises(RuntimeError):
        with patched(layers.probes(tr)):
            assert all(getattr(o, a) is not f for o, a, f in bindings)
            raise RuntimeError("a failing traced run still restores")
    assert all(getattr(o, a) is f for o, a, f in bindings)
    assert mswf.detector.wpt is mswf.packets.wpt
    assert numpy.fft.fftn.__module__ != "tracer"


def test_call_through_caller_namespace_binding_is_counted():
    f = mswf.grid.gaussian_data(mswf.grid.GridSpec(1, 1024, 10.0))
    sample = mswf.detector.ConicSample((0.0,), (1.0,), k_radius=0.0)
    ladder = mswf.detector.default_ladder(2, 6)
    tr = Tracer()
    with patched(layers.probes(tr)):
        mswf.detector.wf_test_static(f, sample, ladder, width=1.0, b=0.125)
        # the packets module's own binding is not the detector's, so unseen
        mswf.packets.wpt(f, mswf.packets.GaussianWindow(1, 1.0, 4.0, 0.125, 0.0),
                         ((0.0,), (1.0,)))
    assert len(tr.named("packets.wpt")) == len(ladder)
    assert len(tr.named("detector.fit")) == 1
    assert layers.layer_values(tr, 1)["packets.wpt_points"] == 1024 * len(ladder)


@pytest.fixture(scope="module", params=[("point-mass", 0), ("free-transport", 0)])
def acceptance_run(request, tmp_path_factory):
    name, index = request.param
    cfg = workloads.configs(name, 0)[index]
    tmp = tmp_path_factory.mktemp(name)
    path = tmp / "config.json"
    path.write_text(json.dumps(cfg))
    rc = mswf.cli.main(["experiment", "--config", str(path),
                        "--out-dir", str(tmp / "out")])
    summary = json.loads((tmp / "out" / "summary.json").read_text())
    return cfg, rc, summary, REFERENCE[name][index]


def _score(cfg, rc, summary, ref):
    return check.score(cfg, workloads.expected_cells(cfg), rc, summary, ref)[0]


def _rows(summary):
    if "data" in summary:
        return [r for d in summary["data"] for r in d["cells"]]
    return summary["cells"]


def _nhat_key(summary):
    return "static_nhat" if "data" in summary else "nhat"


def test_reference_run_passes(acceptance_run):
    assert _score(*acceptance_run) == 0


def test_one_flipped_verdict_fails_one_cell(acceptance_run):
    cfg, rc, summary, ref = acceptance_run
    bad = copy.deepcopy(summary)
    row = _rows(bad)[3]
    key = "static" if "data" in bad else "verdict"
    row[key] = "in-WF" if row[key] != "in-WF" else "not-in-WF"
    if "data" in bad:  # keep the contract intact so only the cell check fires
        row["dynamic"] = row["static"]
    assert _score(cfg, rc, bad, ref) == 1


@pytest.mark.parametrize("shift,failed", [(1e-6, 1), (1e-11, 0)])
def test_nhat_moved_past_tolerance_fails_one_cell(acceptance_run, shift, failed):
    cfg, rc, summary, ref = acceptance_run
    bad = copy.deepcopy(summary)
    row = next(r for r in _rows(bad) if r[_nhat_key(bad)] is not None)
    row[_nhat_key(bad)] += shift
    assert _score(cfg, rc, bad, ref) == failed


def test_cell_error_and_nonzero_exit_fail(acceptance_run):
    cfg, rc, summary, ref = acceptance_run
    bad = copy.deepcopy(summary)
    row = _rows(bad)[0]
    row["static_error" if "data" in bad else "error"] = "TypeError: boom"
    assert _score(cfg, rc, bad, ref) == 1
    assert _score(cfg, 4, summary, ref) == workloads.expected_cells(cfg)
    assert _score(cfg, rc, None, ref) == workloads.expected_cells(cfg)


def test_broken_contract_fails_every_cell(acceptance_run):
    cfg, rc, summary, _ = acceptance_run
    bad = copy.deepcopy(summary)
    if "data" in bad:
        bad["agreement"] = 0.5
    else:
        bad["ballistic_ratios"]["top_in_bracket"] = False
    assert _score(cfg, rc, bad, None) == workloads.expected_cells(cfg)


def test_output_mismatch_between_repeats_fails_the_repeat(tmp_path):
    import calibrate

    wl = run.Workload("point-mass", 0, tmp_path)
    wl.cfgs, wl.paths, wl.refs = wl.cfgs[:1], wl.paths[:1], wl.refs[:1]
    wl.repeat(calibrate.Speed(periodic=False))
    wl.repeat(calibrate.Speed(periodic=True))
    assert (wl.attempted, wl.failed) == (20, 0)
    wl.first_outputs[0]["ladder.csv"] += b"\n"
    wl.repeat(calibrate.Speed(periodic=False))
    assert (wl.attempted, wl.failed) == (30, 10)
    assert wl.problems == ["outputs differ from the first repeat"]


def test_seed_zero_is_the_acceptance_set_and_seeds_repeat():
    assert [workloads.expected_cells(c) for name in workloads.WORKLOADS
            for c in workloads.configs(name, 0)] == [36, 10, 16, 2, 18, 18]
    assert workloads.configs("magnetic-transport", 0)[0]["positions"] == \
        [[0.0, 0.0], [0.6, 0.0], [0.0, -0.6]]
    for name in workloads.WORKLOADS:
        assert workloads.configs(name, 5) == workloads.configs(name, 5)
        assert workloads.configs(name, 5) != workloads.configs(name, 6)


def test_other_seeds_draw_from_the_acceptance_ranges():
    for seed in range(1, 20):
        cfg = workloads.configs("magnetic-transport", seed)[0]
        assert all(0.0 <= x <= 0.6 and -0.6 <= y <= 0.0
                   for x, y in cfg["positions"])
        assert numpy.allclose(numpy.linalg.norm(cfg["directions"], axis=1), 1.0)
        control = workloads.configs("point-mass", seed)[2]
        assert control == workloads.POINT_MASS_CONTROL


def test_speed_subtracts_samples_and_restores_the_timer(monkeypatch):
    import signal
    import time

    import calibrate

    monkeypatch.setattr(calibrate, "kernel", lambda: time.sleep(0.002))
    monkeypatch.setattr(calibrate, "INTERVAL_S", 0.02)
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Speed(periodic=True) as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        end = time.perf_counter()
    assert len(speed.samples) >= 5
    inside = [d for t, d in speed.samples if start <= t < end]
    assert len(inside) == len(speed.samples) - 2
    assert speed.inside(start, end) == pytest.approx(sum(inside))
    assert speed.scale == pytest.approx(
        calibrate.REFERENCE_S / numpy.mean([d for _, d in speed.samples]))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
