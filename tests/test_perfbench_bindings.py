"""The benchmark's traced run patches mswf functions by name.

`perfbench/layers.py` lists every (owner, attribute) it wraps, some of
them names imported into a caller's module only so that the probe can
find them there.  A refactor that drops one makes every traced run fail,
so each listed binding must exist, and a small traced run must report
the work it did.  Every benchmark run, and its set-up probe, goes
through `mswf experiment`, the one command of `mswf.cli`.
"""

import argparse
import importlib
from pathlib import Path

from mswf import cli, experiments

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# a 1-d magnetic-transport run of 4 evolve steps and 2 cells
TINY_TRANSPORT = {
    "experiment": "magnetic-transport",
    "potential": {"family": "soft-power", "n": 1, "rho": 0.5},
    "grid": {"n": 1, "points": 1024, "halfwidth": 20.0},
    "t0": 0.04, "dt": 0.01,
    "data": ["gaussian"],
    "positions": [[0.0]],
    "directions": 2,
    "ladder": {"kmin": 2, "kmax": 6},
    # the trace is under test, not the verdicts: no pass rule may stop the run
    "min_agreement": 0.0, "max_inconclusive": 1.0,
}


def _perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers"), importlib.import_module("tracer")


def test_every_traced_binding_exists(monkeypatch):
    layers, tracer = _perfbench(monkeypatch)
    probes = layers.probes(tracer.Tracer())
    assert probes
    missing = [f"{owner.__name__}.{name}" for owner, name, _ in probes
               if not hasattr(owner, name)]
    assert not missing, missing


def test_traced_transport_run_reports_steps_and_cells(monkeypatch):
    # the step count is read from evolve's sixth positional argument, cfg.dt
    layers, tracer = _perfbench(monkeypatch)
    tr = tracer.Tracer()
    with tracer.patched(layers.probes(tr)):
        experiments.run_experiment(TINY_TRANSPORT)
    values = layers.layer_values(tr, 1)
    assert values["propagator.steps"] == 4
    # two FFTs per transport step, one before the first and one for the result
    assert values["propagator.fft.calls"] == 2 * 4 + 2
    assert values["detector.cells"] > 0
    # the dynamic scan flows; its right-hand sides call potentials.flow_field,
    # which no probe counts, so the flow is seen through its grouped call
    assert values["characteristics.flow_batch.calls"] > 0


def test_the_command_line_is_the_one_experiment_command():
    # perfbench/setup_probe.py times this parse, and run.py runs cli.main on it
    parser = cli.build_parser()
    args = parser.parse_args(["experiment", "--config", "C", "--out-dir", "D"])
    assert (args.config, args.out_dir, args.func) == ("C", "D", cli._cmd_experiment)
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["experiment"]
