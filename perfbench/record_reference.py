"""Record reference.json: every seed-0 cell's verdicts and N_hat per workload.

    python3 perfbench/record_reference.py

Runs each workload's seed-0 configs once and refuses to record a config
that fails its contract or carries a cell error.  Rerun it only when a
change is meant to alter verdicts or N_hat, and say so in that change.
"""

import contextlib
import json
import sys
import tempfile
from pathlib import Path

import check
import workloads
from run import REFERENCE, SRC, git_sha

sys.path.insert(0, str(SRC))

import mswf.cli  # noqa: E402


def record(name: str, tmp: Path) -> list:
    entries = []
    for i, cfg in enumerate(workloads.configs(name, 0)):
        path, out = tmp / f"{name}{i}.json", tmp / f"{name}{i}"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(sys.stderr):
            rc = mswf.cli.main(["experiment", "--config", str(path),
                                "--out-dir", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        cells = check.cells_of(summary)
        values = check.contract(cfg, summary)
        problems = check.contract_problems(cfg, values) + [
            p for c in cells if (p := check.cell_problem(c, None))]
        if rc != 0 or problems or len(cells) != workloads.expected_cells(cfg):
            raise SystemExit(f"{name} config {i}: exit {rc}, {problems}")
        entries.append({"contract": values,
                        "cells": [[key, verdicts, nhats]
                                  for key, verdicts, nhats, _ in cells]})
    return entries


def main() -> None:
    with tempfile.TemporaryDirectory(dir=REFERENCE.parent.parent) as tmp:
        ref = {name: record(name, Path(tmp)) for name in workloads.WORKLOADS}
    ref["recorded_at"] = git_sha()
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
