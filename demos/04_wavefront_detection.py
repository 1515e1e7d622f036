"""Wave-front membership by decay-exponent regression over a dilation ladder.

Run:  python demos/04_wavefront_detection.py
"""

import numpy as np

import mswf
from mswf import detector as det

# Fine one-dimensional grid: the ladder tops out at lam = 2048 while every
# probed frequency lam * |xi| stays inside the band pi/dx.
spec = mswf.GridSpec(1, 32768, 10.0)
ladder = det.default_ladder(3, 11)

delta = mswf.delta_spike(spec)
gauss = mswf.gaussian_data(spec)

# One scan probes both fields at the three positions; its cells come
# datum-major, the point mass's first.
positions = [(-5.0,), (0.0,), (5.0,)]
cells = det.wf_scan("static", [delta, gauss], positions, [(1.0,)], ladder,
                    width=1.0, b=0.125, k_radius=0.25, a=1.5)
print("field      x0    verdict       N_hat      flags")
for i, cell in enumerate(cells):
    rep = cell.report
    name = ("delta", "gaussian")[i // len(positions)]
    nhat = f"{rep.n_hat:+.4f}" if np.isfinite(rep.n_hat) else "  inf"
    print(f"{name:9s} {cell.x0[0]:+4.0f}   {rep.verdict:12s} {nhat:>9s}   "
          f"{','.join(rep.flags) or '-'}")

# The point mass is singular exactly at the origin: there the magnitudes
# GROW like lam^(n b / 2) (N_hat = -1/16 for b = 1/8), everywhere else they
# collapse super-polynomially.
origin = cells[1].report
print("\nladder magnitudes at the singular cell:")
i = origin.binding_index
for lam, mag in zip(origin.ladder, origin.magnitudes[i]):
    print(f"  lam = {lam:6.0f}   |W| = {mag:.6f}")

print(f"per-sample N_hat there: {np.round(origin.fit.n_hat, 4)}")

# The raw regression utility fits many rows of magnitudes on one ladder at
# once, and returns per row N_hat, R^2, the kept-rung count and the
# super-polynomial flag.
lam = np.asarray(ladder)
fit = det.decay_exponent(ladder, np.stack([lam ** -3.0, np.exp(-lam / 16)]))
print()
rows = ("pure power law lam^-3", "collapse exp(-lam/16)")
for name, n_hat, r2, kept, superp in zip(rows, *fit):
    print(f"{name}: N_hat = {n_hat:.6f}, R^2 = {r2:.6f}, {kept} rungs kept, "
          f"super-polynomial = {superp}")
