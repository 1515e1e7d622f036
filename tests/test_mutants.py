"""The mutant table: each check must be able to fail.

Each row replaces one module binding with a mutant and names the checks
that must fail under it.  A check is a helper that its own test also
calls, so the row and the test judge the same number by the same bound.
A mutant that no check inside the paper's hypothesis catches yet is a
strict xfail naming the ROADMAP items that will close the gap; when they
land, the row turns XPASS and must become a plain row.

Three rows replace the flow's fused vector field,
`mswf.characteristics.flow_field`: two with one built from the whole-array
broadcasts of `broadcast_reference`, one with the field at -t.  The
never-flow row makes the detector's backward flow, `mswf.detector.flow_batch`,
leave its phase points where they are, and the a = 0 chirp row makes it
flow the zero model; the a = 0 leading-term row makes the backward flow
of `evolved_wpt_leading`, `mswf.propagator.flow`, flow the zero model.
The 2-D leading-term checks' probe points come from the real flow: they
are cached before any mutant is applied.  Three rows replace the evolve's
vector potential, `mswf.propagator.eval_a`, with zero, with -a or with a
at -t; the spectral reference reads `mswf.potentials.eval_a`, so they
leave it alone.  No evolve row names the C07 Ehrenfest gap, the 2-D leading
terms or the focusing chirp: their evolved fields are cached once per
session (`_ehrenfest_centre`, `_leading_fields`, `_chirp_evolved`), so
under an evolve mutant they would read whichever evolve filled the cache
first.
"""

import numpy as np
import pytest

import broadcast_reference as ref
from mswf import (characteristics as chars, detector as det, experiments as exp,
                  potentials as pots, propagator as prop)
from test_acceptance import (EHRENFEST_TOL, LANDAU_STATE_TOL, LEADING_TOL, _saved,
                             c11_smooth, chirp_consistent, chirp_runs, ehrenfest_gap,
                             landau_state_error, leading_probe_points,
                             leading_term_discrepancy, workloads)
from test_characteristics import (LANDAU_TOL, ROTATIONAL_SIN_FLOW, flow_mismatches,
                                  landau_orbit_error)
from test_propagator import REFERENCE_CASES, reference_gap


def _in_place(field):
    """A stand-in for `flow_field` in the right-hand side: (v, dxi) as
    `field(model, t, x, xi)` computes them, written into `out`."""
    def mutant(model, t, x, xi, out):
        out[0][...], out[1][...] = field(model, t, x, xi)
        return out
    return mutant


def _transposed_jacobian(model, t, x, xi):
    """dxi = (grad_x a) v instead of (grad_x a)^T v."""
    v = xi - ref.eval_a(model, t, x)
    return v, np.einsum("...jk,...k->...j", ref.jacobian_a(model, t, x), v)


def _zero_field(model, t, x, xi):
    """The flow of a = 0, whatever the model."""
    return ref.vector_field(pots.zero_model(model.n), t, x, xi)


def _never_flow(model, t0, s_target, x0, xi0, tol):
    """The scans' backward flow, returning its inputs unmoved."""
    return x0, xi0


def _zero_model_scan_flow(model, *args):
    """The scans' backward flow under a = 0."""
    return chars.flow_batch(pots.zero_model(model.n), *args)


def _zero_model_flow(model, *args):
    """The leading term's backward flow under a = 0."""
    return chars.flow(pots.zero_model(model.n), *args)


def _zero_potential(model, t, x):
    """a = 0 in the evolve; both evolve checks' fields are divergence-free,
    so this is the a = 0 evolve."""
    return np.zeros(np.shape(x))


def _flipped_potential(model, t, x):
    """-a in the evolve: the field flipped."""
    return -pots.eval_a(model, t, x)


def _time_reversed_potential(model, t, x):
    """a(-t) in the evolve: the field's time factor run backwards."""
    return pots.eval_a(model, -t, x)


def _time_reversed_flow_field(model, t, x, xi, out=None):
    """The flow's vector field at -t: its time factor run backwards."""
    return pots.flow_field(model, -t, x, xi, out=out)


def _c11_soft_power_smooth() -> bool:
    """C11's soft-power config (2-D, rho = 1/2): the point mass is smooth
    at every cell, as `test_c11_fundamental_solution` requires."""
    cfg = workloads.configs("point-mass", 0)[1]
    return c11_smooth(_saved(exp.run_fundamental_solution(cfg)))


# name -> whether the check passes
CHECKS = {
    "C07 Ehrenfest gap": lambda: ehrenfest_gap() <= EHRENFEST_TOL,
    "Landau orbit": lambda: landau_orbit_error() <= LANDAU_TOL,
    "C11 soft-power": _c11_soft_power_smooth,
    "2-D rotational reference":
        lambda: reference_gap("2d-rotational")[0] <= REFERENCE_CASES["2d-rotational"][-1],
    "2-D rotational sin reference":
        lambda: reference_gap("2d-rotational-sin")[0]
        <= REFERENCE_CASES["2d-rotational-sin"][-1],
    "Landau state": lambda: landau_state_error() <= LANDAU_STATE_TOL,
    "2-D leading term": lambda: max(leading_term_discrepancy("one")) <= LEADING_TOL["one"],
    "2-D sin leading term":
        lambda: max(leading_term_discrepancy("sin")) <= LEADING_TOL["sin"],
    "2-D rotational sin flow": lambda: flow_mismatches(*ROTATIONAL_SIN_FLOW) == [],
    "focusing chirp": lambda: chirp_consistent(chirp_runs()),
}

# (module, binding, mutant, the checks that must fail under it)
ROWS = [
    pytest.param(chars, "flow_field", _in_place(_transposed_jacobian),
                 ("C07 Ehrenfest gap", "Landau orbit", "2-D leading term"),
                 id="transposed-jacobian"),
    pytest.param(chars, "flow_field", _in_place(_zero_field), ("2-D leading term",),
                 id="a0-flow-field"),
    pytest.param(det, "flow_batch", _never_flow, ("C11 soft-power",), id="never-flow"),
    pytest.param(det, "flow_batch", _zero_model_scan_flow, ("focusing chirp",),
                 id="a0-scan-flow-chirp"),
    pytest.param(prop, "flow", _zero_model_flow, ("2-D leading term",), id="a0-leading-term"),
    pytest.param(prop, "eval_a", _zero_potential, ("2-D rotational reference", "Landau state"),
                 id="a0-static-evolve"),
    pytest.param(prop, "eval_a", _flipped_potential,
                 ("2-D rotational reference", "Landau state"), id="flipped-evolve-field"),
    pytest.param(prop, "eval_a", _time_reversed_potential, ("2-D rotational sin reference",),
                 id="time-reversed-evolve-field"),
    pytest.param(chars, "flow_field", _time_reversed_flow_field,
                 ("2-D rotational sin flow", "2-D sin leading term"),
                 id="time-reversed-flow-field"),
]


@pytest.mark.parametrize("module,binding,mutant,checks", ROWS)
def test_mutant_fails_its_checks(module, binding, mutant, checks, monkeypatch):
    for modulation in LEADING_TOL:  # from the real flow, whichever row runs first
        leading_probe_points(modulation)
    monkeypatch.setattr(module, binding, mutant)
    passing = [name for name in checks if CHECKS[name]()]
    assert not passing, f"{passing} pass under the mutant"
