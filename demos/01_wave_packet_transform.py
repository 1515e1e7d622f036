"""Wave packet transform basics: closed forms, dilation, and inversion.

Run:  python demos/01_wave_packet_transform.py
"""

import numpy as np

import mswf
from mswf import packets
from mswf.packets import GaussianWindow, GaussianSignal

spec = mswf.GridSpec(1, 256, 20.0)
f = mswf.gaussian_data(spec)  # exp(-y^2/2)
window = GaussianWindow(1, 1.0, lam=1.0, b=0.125)

# At the phase-space origin the transform of a unit gaussian against itself
# is the plain gaussian integral, sqrt(pi).
value = packets.wpt(f, window, ((0.0,), (0.0,)))
print(f"W[f](0, 0)          = {value.real:.10f}   (sqrt(pi) = {np.sqrt(np.pi):.10f})")

# Away from the origin the magnitude follows sqrt(pi) exp(-x^2/4 - xi^2/4).
for x, xi in ((1.0, 0.0), (1.0, 2.0), (-2.0, 1.0)):
    q = abs(packets.wpt(f, window, ((x,), (xi,))))
    closed = np.sqrt(np.pi) * np.exp(-x**2 / 4 - xi**2 / 4)
    print(f"|W[f]({x:+.0f}, {xi:+.0f})|      = {q:.10f}   closed form {closed:.10f}")

# The window evolves freely in closed form, and the closed-form oracle covers
# gaussian and point-mass signals at any dilation and evolution time.
win = GaussianWindow(1, 1.0, lam=16.0, b=0.125, t=-0.5)
p = ((0.3,), (1.0,))
quad = packets.wpt(f, win, p)
oracle = packets.gaussian_wpt_oracle(GaussianSignal(), win, p)
print(f"evolved window: quadrature vs oracle diff = {abs(quad - oracle):.2e}")

# Dilation lam^(nb/2) phi(lam^b y) preserves the L2 norm while the 1/e
# half-width sqrt(2 / Re beta) shrinks like lam^(-b).
fine = mswf.GridSpec(1, 512, 10.0)
for lam in (1.0, 16.0, 256.0):
    win = GaussianWindow(1, 1.0, lam=lam, b=0.125)
    print(f"lam = {lam:5.0f}: |phi_lam| on the grid = "
          f"{win.grid_function(fine).l2_norm():.8f}, "
          f"1/e half-width = {np.sqrt(2.0 / win.beta.real):.4f}")

# The lattice transform is the full table, every grid node against every FFT
# frequency, with the window sampled periodically about each node; its
# inverse, the adjoint over the window's squared norm, is the identity on the
# periodic grid.
table = packets.wpt_grid(f, window)
back = packets.inverse_wpt(spec, table, window)
err = np.sqrt(np.sum(np.abs(back.values - f.values) ** 2) * spec.cell_volume)
print(f"round-trip relative L2 error = {err / f.l2_norm():.2e}")
