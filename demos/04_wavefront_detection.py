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

print("field      x0    verdict       N_hat      flags")
for name, field in (("delta", delta), ("gaussian", gauss)):
    for x0 in (-5.0, 0.0, 5.0):
        sample = det.ConicSample((x0,), (1.0,), k_radius=0.25, a=1.5)
        rep = det.wf_test_static(field, sample, ladder, width=1.0, b=0.125)
        nhat = f"{rep.n_hat:+.4f}" if np.isfinite(rep.n_hat) else "  inf"
        print(f"{name:9s} {x0:+4.0f}   {rep.verdict:12s} {nhat:>9s}   "
              f"{','.join(rep.flags) or '-'}")

# The point mass is singular exactly at the origin: there the magnitudes
# GROW like lam^(n b / 2) (N_hat = -1/16 for b = 1/8), everywhere else they
# collapse super-polynomially.
origin = det.wf_test_static(delta, det.ConicSample((0.0,), (1.0,), a=1.5),
                            ladder, width=1.0, b=0.125)
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
