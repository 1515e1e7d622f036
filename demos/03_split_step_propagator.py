"""Split-step magnetic propagator: exactness checks and convergence.

Run:  python demos/03_split_step_propagator.py
"""

import numpy as np
from scipy.special import hyp2f1

import mswf
from mswf import grid, potentials as pots, propagator as prop

spec = mswf.GridSpec(1, 512, 20.0)
u0 = mswf.gaussian_data(spec)

# Free evolution has a closed form; the solver reproduces it to solver
# accuracy and conserves the L2 norm.
u1 = prop.evolve(pots.zero_model(1), None, u0, 0.0, 1.0, prop.EvolveConfig(dt=1e-3))
x = spec.axis()
exact = (1 + 1j) ** (-0.5) * np.exp(-x ** 2 / (2 * (1 + 1j)))
print(f"free gaussian: max |error| = {np.max(np.abs(u1.values - exact)):.2e}, "
      f"norm drift = {abs(u1.l2_norm() - u0.l2_norm()):.2e}")

# With a magnetic term the kinetic, transport, and phase substeps compose
# at second order in dt.
fine = mswf.GridSpec(1, 1024, 20.0)
ug = mswf.gaussian_data(fine)
soft = pots.soft_power_model(1, 0.5, amplitude=1.0)
ref = prop.evolve(soft, None, ug, 0.0, 0.5, prop.EvolveConfig(dt=0.5 / 128))
errs = {}
for steps in (16, 32):
    out = prop.evolve(soft, None, ug, 0.0, 0.5, prop.EvolveConfig(dt=0.5 / steps))
    errs[steps] = np.max(np.abs(out.values - ref.values))
print(f"halving dt: error ratio = {errs[16] / errs[32]:.2f}  (second order ~ 4)")

# In 1-d every vector potential is a gradient, a = A0'.  The gauge
# transform u = exp(i A0) w turns the magnetic equation into the free one,
# so u(t) = exp(i A0) exp(i t Lap / 2) (exp(-i A0) u0) exactly; for
# soft-power, A0 = amp * x * 2F1(-rho/2, 1/2; 3/2; -x^2).
xf = fine.axis()
gauge = np.exp(1j * soft.amplitude[0] * xf * hyp2f1(-0.5 * soft.rho, 0.5, 1.5, -xf ** 2))
exact = gauge * grid.apply_kinetic(ug.with_values(ug.values / gauge), 0.5).values
split = prop.evolve(soft, None, ug, 0.0, 0.5, prop.EvolveConfig(dt=5e-3))
print(f"splitting vs exact gauge solution: max diff = "
      f"{np.max(np.abs(split.values - exact)):.2e}")
