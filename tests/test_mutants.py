"""The mutant table: each check must be able to fail.

Each row replaces one module binding with a mutant and names the checks
that must fail under it.  A check is a helper that its own test also
calls, so the row and the test judge the same number by the same bound.
A mutant that no check inside the paper's hypothesis catches yet is a
strict xfail naming the ROADMAP items that will close the gap; when they
land, the row turns XPASS and must become a plain row.

The rows here replace the flow's fused vector field,
`mswf.characteristics.flow_field`, with one built from the whole-array
broadcasts of `broadcast_reference`.
"""

import numpy as np
import pytest

import broadcast_reference as ref
from mswf import characteristics as chars, experiments as exp, potentials as pots
from test_acceptance import (EHRENFEST_TOL, _saved, c11_smooth, ehrenfest_gap,
                             workloads)
from test_characteristics import LANDAU_TOL, landau_orbit_error


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
}

ROWS = [
    pytest.param(_transposed_jacobian, ("C07 Ehrenfest gap", "Landau orbit"),
                 id="transposed-jacobian"),
    pytest.param(_zero_field, ("C11 soft-power",), id="a0-flow-field", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="no conforming-field verdict sees the flow's magnetic term: "
        "ROADMAP items 2 (a focusing-chirp datum) and 7 (a 2-D transport check "
        "where the field is not a gauge)")),
]


@pytest.mark.parametrize("field,checks", ROWS)
def test_flow_field_mutant_fails_its_checks(field, checks, monkeypatch):
    monkeypatch.setattr(chars, "flow_field", _in_place(field))
    passing = [name for name in checks if CHECKS[name]()]
    assert not passing, f"{passing} pass under the mutant"
