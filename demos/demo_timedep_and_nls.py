"""Time-dependent perturbations and the defocusing cubic flow.

Self-similar W(x,t) = delta (1+t)^{-a} <x>^{-sigma} keeps the conformal
machinery alive when the time derivative is small: the dispersive integral
stays bounded, the H^1 norm is controlled through the energy identity, the
asymptotic energy <f(H)> converges, and the time integration by parts
closes to quadrature accuracy.  The Gronwall monitor tracks the
exponential-envelope bound.  For the 1d defocusing cubic flow with small
data, mass is conserved to roundoff and the sup norm decays.
"""

import numpy as np

from proplab import (Potential, TimeDependentPotential, classify_spectrum,
                     diagonalize, evolve_split, fit_decay_rate, gaussian_state,
                     laplacian, make_grid, multiplication, norm,
                     trajectory_split)
from proplab.evolution import snap_to_lattice
from proplab.observables import ObservableSeries
from proplab.suites import gronwall_suite, timedep_integral, timedep_suite

print(__doc__)

grid = make_grid("radial3d", 384, 80.0)
pot = Potential.gaussian(0.5)
w_t = TimeDependentPotential.self_similar(0.05, 2.0, 0.5)
h_op = laplacian(grid) + multiplication(grid, pot.v(grid.points))
spec = classify_spectrum(diagonalize(h_op))
psi0 = gaussian_state(grid, width=1.0)

# the timedep suite: its step integral accumulates along one Strang sweep from
# t = 0, which also keeps the states at the integral's checkpoints on [1, 8]
dt = 2e-3
integral = timedep_integral(grid, w_t, 8.0, dt)
traj = trajectory_split(grid, pot, w_t, psi0, integral.checkpoints, dt, observer=integral)
print(timedep_suite(traj, spec, w_t, integral).render())

times = snap_to_lattice(np.geomspace(1.0, 8.0, 10), dt)
traj = trajectory_split(grid, pot, w_t, psi0, times, dt)
print("\n" + gronwall_suite(traj, 0.05).render())

print("\ndefocusing cubic flow, small data on the line:")
line = make_grid("line", 1024, 120.0)
vsmall = Potential.gaussian(0.2)
psi = gaussian_state(line, width=1.0)
psi = psi * (0.18 / norm(line, psi, "Lnorm"))
mass0 = norm(line, psi, "L2") ** 2
ts = snap_to_lattice(np.geomspace(1.0, 14.0, 10), 1e-3)
traj = trajectory_split(line, vsmall, None, psi, ts, 1e-3, nonlinearity=1.0)
masses = [norm(line, s, "L2") ** 2 for s in traj.states]
print(f"  mass drift over t in [0, {ts[-1]:.0f}]: {max(abs(m - mass0) for m in masses):.2e}")
sup = ObservableSeries(ts, np.array([norm(line, s, 'Lp', p=np.inf) for s in traj.states]),
                       "sup norm")
slope, _ = fit_decay_rate(sup)
print(f"  sup-norm decay slope: {slope:+.3f} (small-data scattering: about -1/2)")

out1, out2, out3 = (evolve_split(line, vsmall, None, psi, 1.0, dt_k, nonlinearity=1.0)
                    for dt_k in (2e-3, 1e-3, 5e-4))
r = norm(line, out1 - out2, "L2") / norm(line, out2 - out3, "L2")
print(f"  step-halving convergence ratio: {r:.2f} (order 2 gives 4)")
