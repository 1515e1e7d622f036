"""Smoothing of a point-mass datum under a decaying magnetic potential.

The dynamic membership test never builds the evolved field: each probed
phase point is flowed backward along the magnetic bicharacteristics and the
freely evolved window is paired with the initial point mass there.  For
t0 != 0 every cell reads not-in-WF; the t0 = 0 control recovers the
singularity at the origin.

Run:  python demos/05_fundamental_solution.py   (writes demo_out/*.csv)
"""

from pathlib import Path

from mswf import experiments as exp

out = Path("demo_out/fundamental_solution")

summary = exp.run_fundamental_solution({
    "experiment": "fundamental-solution",
    "potential": {"family": "soft-power", "n": 2, "rho": 0.5,
                  "amplitude": [0.7, 0.7]},
    "grid": {"n": 2, "points": 256, "halfwidth": 5.0},
    "t0": 1.0,
    "positions": [[-0.5, -0.5], [0.5, 0.0], [0.0, 0.5]],
    "directions": 4,
    "ladder": {"kmin": 2, "kmax": 6},
    "b": "auto", "width": 0.5, "k_radius": 0.15, "a": 1.0,
    "out_dir": str(out),
})

print(f"cells: {summary['cells_total']}, conclusive: {summary['cells_conclusive']}, "
      f"not-in-WF: {summary['fraction_not_in_wf']:.0%}")
ratios = summary["ballistic_ratios"]
print("backward-flowed |x(0)| / (lam t0 |xi|), top rung:",
      ", ".join(f"{r:.4f}" for r in ratios["ratios"][repr(10000.0)][:4]), "...")
print(f"within 10% of 1 at lam = 1e4: {ratios['top_in_bracket']}")

control = exp.run_fundamental_solution({
    "experiment": "fundamental-solution",
    "grid": {"n": 1, "points": 32768, "halfwidth": 10.0},
    "t0": 0.0, "control": True,
    "positions": [[0.0]], "directions": 2,
    "ladder": {"kmin": 3, "kmax": 11},
    "b": "auto", "width": 1.0, "k_radius": 0.25, "a": 1.0,
})
for cell in control["cells"]:
    print(f"control t0 = 0 at x0 = {cell['x0']}: {cell['verdict']} "
          f"(N_hat = {cell['nhat']:.4f})")

print(f"tables written under {out}/")
