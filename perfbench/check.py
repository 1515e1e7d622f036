"""Correctness of one workload run: per-cell reference, contract, determinism.

A cell fails when its row carries an error, when a verdict differs from
the reference, or when an N_hat is more than 1e-9 from it (an infinite
or undefined N_hat is written as null, and two nulls are equal).  A
config that raised, exited non-zero, wrote the wrong number of cells or
broke its experiment-level contract fails all of its cells.
"""

from __future__ import annotations

from pathlib import Path

NHAT_TOL = 1e-9
MAX_INCONCLUSIVE = 0.5


def cells_of(summary: dict) -> list:
    """[key, verdicts, nhats, errors] per cell, in output order."""
    if "data" in summary:  # static-vs-dynamic consistency experiments
        return [[[d["datum"], r["x0"], r["direction"]],
                 [r["static"], r["dynamic"]],
                 [r["static_nhat"], r["dynamic_nhat"]],
                 [r["static_error"], r["dynamic_error"]]]
                for d in summary["data"] for r in d["cells"]]
    return [[[c["x0"], c["direction"]], [c["verdict"]], [c["nhat"]], [c["error"]]]
            for c in summary["cells"]]


def contract(cfg: dict, summary: dict) -> dict:
    """The experiment-level values the acceptance criteria bound."""
    if "data" in summary:
        keys = ("agreement", "inconclusive_fraction", "cells_conclusive")
    elif cfg.get("control"):
        return {"all_in_wf": all(c["verdict"] == "in-WF" for c in summary["cells"])}
    else:
        keys = ("fraction_not_in_wf", "cells_conclusive")
    values = {k: summary[k] for k in keys}
    if summary.get("ballistic_ratios") is not None:
        values["top_in_bracket"] = summary["ballistic_ratios"]["top_in_bracket"]
    return values


def contract_problems(cfg: dict, values: dict) -> list:
    if "all_in_wf" in values:
        return [] if values["all_in_wf"] else ["control cell not in-WF"]
    problems = []
    if values["cells_conclusive"] <= 0:
        problems.append("no conclusive cells")
    if "agreement" in values:
        if values["agreement"] < cfg.get("min_agreement", 0.9):
            problems.append(f"agreement {values['agreement']}")
        if values["inconclusive_fraction"] > MAX_INCONCLUSIVE:
            problems.append(f"inconclusive {values['inconclusive_fraction']}")
    else:
        if values["fraction_not_in_wf"] != 1.0:
            problems.append(f"fraction_not_in_wf {values['fraction_not_in_wf']}")
        if not values.get("top_in_bracket", False):
            problems.append("ballistic ratio out of bracket")
    return problems


def _nhat_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= NHAT_TOL


def cell_problem(cell: list, ref: list | None) -> str | None:
    key, verdicts, nhats, errors = cell
    if any(e is not None for e in errors):
        return f"{key}: error {errors}"
    if ref is None:
        return None
    if key != ref[0]:
        return f"{key}: expected cell {ref[0]}"
    if verdicts != ref[1]:
        return f"{key}: verdicts {verdicts}, reference {ref[1]}"
    if not all(_nhat_equal(a, b) for a, b in zip(nhats, ref[2])):
        return f"{key}: N_hat {nhats}, reference {ref[2]}"
    return None


def score(cfg: dict, expected: int, rc, summary: dict | None,
          ref: dict | None) -> tuple:
    """(failed cells, problems) for one config's run."""
    if rc != 0 or summary is None:
        return expected, [f"exit {rc}"]
    cells = cells_of(summary)
    if len(cells) != expected:
        return expected, [f"{len(cells)} cells written, {expected} expected"]
    values = contract(cfg, summary)
    problems = contract_problems(cfg, values)
    if ref is not None and values != ref["contract"]:
        problems.append(f"contract {values}, reference {ref['contract']}")
    if problems:
        return expected, problems
    ref_cells = ref["cells"] if ref is not None else [None] * expected
    cell_problems = [p for c, r in zip(cells, ref_cells)
                     if (p := cell_problem(c, r)) is not None]
    return len(cell_problems), cell_problems


def snapshot(out_dir: Path) -> dict:
    """Every file a config wrote, by name, as bytes."""
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}
