"""Bicharacteristic flow: circular orbits, phase integrals, ballistic bounds.

Run:  python demos/02_bicharacteristic_flow.py
"""

import numpy as np

from mswf import characteristics as chars, potentials as pots

# A constant magnetic field bends trajectories into circles: the kinetic
# momentum xi - a rotates uniformly while the energy h stays constant.
model = pots.constant_field_model(1.0)
res = chars.flow(model, 0.0, 2 * np.pi, (1.0, 0.0), (0.5, 1.0), tol=1e-10)
print("constant field over one period:")
for s in np.linspace(0.0, 2 * np.pi, 5):
    st = res.at(s)
    h = chars.hamiltonian(model, s, st.x, st.xi)
    print(f"  s = {s:5.2f}  x = ({st.x[0]:+.4f}, {st.x[1]:+.4f})  h = {h:.10f}")

# The complex phase density accumulates along the flow with the same error
# control as the state; for a divergence-free gauge its imaginary part is 0.
phase = chars.phase_integral(model, 0.0, 1.5, (1.0, 0.0), (0.5, 1.0), 1e-10)
print(f"phase integral = {phase.real:+.8f} {phase.imag:+.1e}i  (Im = 0 exactly)")

# Launching with momentum lam*xi and flowing backward from t0, the position
# grows ballistically: |x(s - t0)| stays between lam|s - t0|/(2a) and
# 2a lam|s - t0| once lam is large enough, and |x(0)| ~ lam t0 |xi|.
soft = pots.soft_power_model(2, 0.5, amplitude=(0.7, 0.7))
report = chars.check_flow_bounds(
    soft, 2.0, 0.5, [2.0 ** k for k in range(4, 13)], 1.0,
    [np.zeros(2), np.array([0.3, 0.0])],
    [np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.array([2.0, 0.0])])
print(f"sandwich bounds hold from lambda_hat0 = {report.lambda_hat0:g}")

lower = chars.lower_bound_x0(soft, 1.0, [np.zeros(2)],
                             [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                             (10.0, 100.0, 1000.0, 10000.0))
print("|x(0)| / (lam t0 |xi|) per rung:")
for lam in lower.ladder:
    vals = ", ".join(f"{r:.4f}" for r in lower.ratios[lam])
    print(f"  lam = {lam:8.0f}:  {vals}")

# The momentum-over-position integral stays bounded uniformly in lam; for
# free motion it is an arctan in closed form.
rep = chars.check_integral_bound(pots.zero_model(1), 1.0, (0.0, 1.0),
                                 [((0.0,), (1.0,))], (1000.0,), tol=1e-12)
print(f"free-motion integral = {rep.values[1000.0][0] * 2:.8f} "
      f"(arctan(1000) = {np.arctan(1000.0):.8f})")
