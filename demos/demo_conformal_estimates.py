"""The adapted conformal identity and its propagation estimates along a flow.

For positive potentials the combination

    B(t) = C(t)/t + 4t V + B_V,     C(t) = |x - 2pt|^2

is a propagation observable: its Heisenberg derivative is the negative
conformal term plus nonpositive leftovers, after the adaptor cancels the
bad-sign part of 4 x.grad V + 4V.  The demo checks the identity residual by
centered differences, then evolves a radial Gaussian and reads off the
quantities the estimates bound: the conformal+potential energy, the L^6
norm (iterated rate 1/t) and the first-level functional (rate 1/sqrt t).
"""

import numpy as np

from proplab import (Potential, build_adaptor, classify_spectrum, conformal_Q,
                     diagonalize, fit_decay_rate, gaussian_state, laplacian,
                     make_grid, multiplication, norm, trajectory_linear)
from proplab.suites import (AdaptedConformal, conformal_energy_series,
                            first_level_series, lp_norm_series)

print(__doc__)

grid = make_grid("radial3d", 512, 100.0)
pot = Potential.gaussian(2.0)
h_op = laplacian(grid) + multiplication(grid, pot.v(grid.points))
spec = classify_spectrum(diagonalize(h_op))
psi0 = gaussian_state(grid, width=1.0)
adaptor = build_adaptor(spec, conformal_Q(pot, grid), 5.0)

delta = 5e-3
identity = AdaptedConformal(spec, pot, None, adaptor)
for t in (1.0, 2.0, 4.0):
    traj = trajectory_linear(spec, psi0, np.array([t - delta, t, t + delta]))
    resid, bv = identity.residual(traj, t, delta)
    print(f"identity residual at t = {t}: {resid:.3e} "
          f"(budget O(dt^2 + h^2) + truncation term {bv:.1e})")

times = np.geomspace(1.0, 10.0, 14)
traj = trajectory_linear(spec, psi0, times)
window = traj.valid_window()
print(f"\nvalidity horizon of this box: t = {traj.validity_horizon:.1f}")

energy = conformal_energy_series(traj, pot, window)
lnorm0 = norm(grid, psi0, "Lnorm")
print(f"sup_t [ ||(x-2pt)psi||^2 + t^2 <V> ] / Lnorm(0)^2 = "
      f"{energy.values.max() / lnorm0**2:.4f}  (uniformly bounded)")

l6 = lp_norm_series(traj, 6.0, window)
s6, _ = fit_decay_rate(l6)
f1 = first_level_series(traj, pot, window)
s1, _ = fit_decay_rate(f1)
print(f"L6 norm slope          {s6:+.3f}   (iterated estimate: -1)")
print(f"first-level slope      {s1:+.3f}   (single pass: -1/2)")
