"""Which mswf functions the traced run wraps, and the per-layer metrics.

Every probe patches a public function where its caller looks it up.
Names imported into a caller's module (wpt, flow_batch and
decay_exponent in mswf.detector; eval_a, divergence_a and
boundary_mass_fraction in mswf.propagator; eval_a, jacobian_a and
divergence_a in mswf.characteristics) are patched in that caller's
namespace.  FFTs and interpolation are timed only directly under evolve.
The per-RHS potentials in mswf.characteristics are counted, not spanned.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy.fft
import scipy.ndimage

import mswf.characteristics
import mswf.cli
import mswf.detector
import mswf.experiments
import mswf.grid
import mswf.propagator

from tracer import Tracer

EVOLVE = "propagator.evolve"


def _evolve_steps(args, kwargs, result):
    # evolve(model, scalar, u0, t0, t1, cfg): one step per dt over [t0, t1]
    t0, t1, cfg = args[3], args[4], args[5]
    return {"steps": max(1, math.ceil(abs(t1 - t0) / cfg.dt))}


def _field_points(args, kwargs, result):
    return {"points": args[0].size}


def _wpt_points(args, kwargs, result):
    return {"points": args[0].spec.size}


def _trajectories(args, kwargs, result):
    return {"trajectories": result[0].shape[0]}


def _file_bytes(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


def _scan(args, kwargs, result):
    reports = [c.report for c in result if c.report is not None]
    return {"mode": args[0], "cells": len(result),
            "rungs_used": sum(len(r.ladder) for r in reports),
            "rungs_requested": sum(len(r.ladder_requested) for r in reports)}


def probes(tr: Tracer) -> list:
    """(owner, attribute, make_wrapper) for every instrumented binding."""
    def span(name, attrs=None, only_under=None):
        return lambda fn: tr.span(name, fn, attrs, only_under)

    def count(name):
        return lambda fn: tr.count(name, fn)

    prop, det, chars = mswf.propagator, mswf.detector, mswf.characteristics
    return [
        (mswf.cli, "main", span("cli.main")),
        (mswf.experiments, "run_experiment", span("experiments.run")),
        (mswf.experiments, "write_json", span("experiments.io", _file_bytes)),
        (mswf.experiments, "write_csv", span("experiments.io", _file_bytes)),
        (mswf.grid, "gaussian_data", span("grid.data")),
        (mswf.grid, "builtin_data", span("grid.data")),
        (mswf.grid, "delta_spike", span("grid.data")),
        (prop, "evolve", span(EVOLVE, _evolve_steps)),
        (numpy.fft, "fftn", span("propagator.fft", only_under=EVOLVE)),
        (numpy.fft, "ifftn", span("propagator.fft", only_under=EVOLVE)),
        (scipy.ndimage, "map_coordinates",
         span("propagator.interp", _field_points, only_under=EVOLVE)),
        (prop, "eval_a", span("potentials.eval_a.propagator")),
        (prop, "divergence_a", span("potentials.divergence_a.propagator")),
        (prop, "boundary_mass_fraction", span("propagator.guard")),
        (det, "wf_scan", span("detector.scan", _scan)),
        (det, "wpt", span("packets.wpt", _wpt_points)),
        (det, "flow_batch", span("characteristics.flow_batch", _trajectories)),
        (det, "decay_exponent", span("detector.fit")),
        (chars, "flow", span("characteristics.flow")),
        (chars, "eval_a", count("potentials.eval_a.characteristics")),
        (chars, "jacobian_a", count("potentials.jacobian_a.characteristics")),
        (chars, "divergence_a", count("potentials.divergence_a.characteristics")),
    ]


# (metric, unit) in report order
METRICS = [
    ("propagator.evolve_s", "s"), ("propagator.steps", "count"),
    ("propagator.step_ms", "ms"), ("propagator.interp_s", "s"),
    ("propagator.interp.calls", "count"), ("propagator.interp_points", "count"),
    ("propagator.fft_s", "s"), ("propagator.fft.calls", "count"),
    ("propagator.potential_s", "s"), ("propagator.eval_a.calls", "count"),
    ("propagator.guard_s", "s"), ("propagator.self_s", "s"),
    ("packets.wpt_s", "s"), ("packets.wpt.calls", "count"),
    ("packets.wpt_us", "us"), ("packets.wpt_points", "count"),
    ("characteristics.flow_s", "s"), ("characteristics.flow.calls", "count"),
    ("characteristics.flow_batch_s", "s"),
    ("characteristics.flow_batch.calls", "count"),
    ("characteristics.trajectories", "count"),
    ("characteristics.rhs_evals", "count"), ("characteristics.self_s", "s"),
    ("potentials.eval_a_s", "s"), ("potentials.eval_a_s.propagator", "s"),
    ("potentials.eval_a_s.characteristics", "s"),
    ("potentials.eval_a.calls", "count"),
    ("potentials.eval_a.calls.propagator", "count"),
    ("potentials.eval_a.calls.characteristics", "count"),
    ("potentials.jacobian_a_s", "s"), ("potentials.divergence_a_s", "s"),
    ("potentials.divergence_a_s.propagator", "s"),
    ("potentials.divergence_a_s.characteristics", "s"),
    ("detector.static_scan_s", "s"), ("detector.dynamic_scan_s", "s"),
    ("detector.cells", "count"), ("detector.fit_s", "s"),
    ("detector.fit.calls", "count"), ("detector.scan_self_s", "s"),
    ("detector.rungs_used_frac", "1"),
    ("grid.data_s", "s"),
    ("experiments.run_s", "s"), ("experiments.io_s", "s"),
    ("experiments.output_bytes", "bytes"), ("experiments.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "1"),
]


def layer_values(tr: Tracer, reps: int) -> dict:
    """Per-layer totals over all traced reps, divided by the rep count."""
    def dur(name, mode=None):
        return sum(s.duration for s in tr.named(name)
                   if mode is None or (s.attrs or {}).get("mode") == mode)

    def calls(name):
        return len(tr.named(name))

    def self_time(*names):
        return sum(s.self_time for n in names for s in tr.named(n))

    def attr(name, key):
        # a call that raised carries no attributes
        return sum(s.attrs[key] for s in tr.named(name) if s.attrs)

    eval_prop = dur("potentials.eval_a.propagator")
    div_prop = dur("potentials.divergence_a.propagator")
    eval_chars = tr.times["potentials.eval_a.characteristics"]
    div_chars = tr.times["potentials.divergence_a.characteristics"]
    requested = attr("detector.scan", "rungs_requested")
    v = {
        "propagator.evolve_s": dur(EVOLVE),
        "propagator.steps": attr(EVOLVE, "steps"),
        "propagator.interp_s": dur("propagator.interp"),
        "propagator.interp.calls": calls("propagator.interp"),
        "propagator.interp_points": attr("propagator.interp", "points"),
        "propagator.fft_s": dur("propagator.fft"),
        "propagator.fft.calls": calls("propagator.fft"),
        "propagator.potential_s": eval_prop + div_prop,
        "propagator.eval_a.calls": calls("potentials.eval_a.propagator"),
        "propagator.guard_s": dur("propagator.guard"),
        "propagator.self_s": self_time(EVOLVE),
        "packets.wpt_s": dur("packets.wpt"),
        "packets.wpt.calls": calls("packets.wpt"),
        "packets.wpt_points": attr("packets.wpt", "points"),
        "characteristics.flow_s": dur("characteristics.flow"),
        "characteristics.flow.calls": calls("characteristics.flow"),
        "characteristics.flow_batch_s": dur("characteristics.flow_batch"),
        "characteristics.flow_batch.calls": calls("characteristics.flow_batch"),
        "characteristics.trajectories": calls("characteristics.flow")
        + attr("characteristics.flow_batch", "trajectories"),
        # every right-hand side evaluates the Jacobian exactly once
        "characteristics.rhs_evals": tr.calls["potentials.jacobian_a.characteristics"],
        "characteristics.self_s": self_time("characteristics.flow",
                                            "characteristics.flow_batch"),
        "potentials.eval_a_s": eval_prop + eval_chars,
        "potentials.eval_a_s.propagator": eval_prop,
        "potentials.eval_a_s.characteristics": eval_chars,
        "potentials.eval_a.calls": calls("potentials.eval_a.propagator")
        + tr.calls["potentials.eval_a.characteristics"],
        "potentials.eval_a.calls.propagator": calls("potentials.eval_a.propagator"),
        "potentials.eval_a.calls.characteristics":
            tr.calls["potentials.eval_a.characteristics"],
        "potentials.jacobian_a_s": tr.times["potentials.jacobian_a.characteristics"],
        "potentials.divergence_a_s": div_prop + div_chars,
        "potentials.divergence_a_s.propagator": div_prop,
        "potentials.divergence_a_s.characteristics": div_chars,
        "detector.static_scan_s": dur("detector.scan", "static"),
        "detector.dynamic_scan_s": dur("detector.scan", "dynamic"),
        "detector.cells": attr("detector.scan", "cells"),
        "detector.fit_s": dur("detector.fit"),
        "detector.fit.calls": calls("detector.fit"),
        "detector.scan_self_s": self_time("detector.scan"),
        "grid.data_s": sum(s.duration for s in tr.named("grid.data")
                           if s.parent is None or s.parent.name != "grid.data"),
        "experiments.run_s": dur("experiments.run"),
        "experiments.io_s": dur("experiments.io"),
        "experiments.output_bytes": attr("experiments.io", "bytes"),
        "experiments.self_s": self_time("experiments.run"),
        "cli.self_s": self_time("cli.main"),
    }
    v = {k: x / reps for k, x in v.items()}
    # ratios and per-call figures are not averaged
    v["propagator.step_ms"] = 1e3 * v["propagator.evolve_s"] / v["propagator.steps"] \
        if v["propagator.steps"] else 0.0
    v["packets.wpt_us"] = 1e6 * v["packets.wpt_s"] / v["packets.wpt.calls"] \
        if v["packets.wpt.calls"] else 0.0
    v["detector.rungs_used_frac"] = attr("detector.scan", "rungs_used") / requested \
        if requested else 0.0
    return v
