"""Pointwise weighted decay and the spectral machinery behind it.

For H = -lap + V with V >= 0 on the radial grid, the weighted propagator
norm ||<x>^-1 e^{-iHt} P_c <x>^-1|| decays like 1/t in three dimensions.
The demo classifies the spectrum, measures the genericity margin
delta* (H >= delta* (-lap) on Ran P_c), and fits the decay slope of the
weighted norm over the band of modes that neither the lattice nor the box
misrepresents.  The lens positivity of 4Vt + C(t)/t on the continuum
subspace is evaluated for a well that actually has bound states.
"""

import numpy as np

from proplab import (Potential, classify_spectrum, diagonalize, fit_decay_rate,
                     genericity_margin, laplacian, make_grid, multiplication,
                     weighted_propagator_norm)
from proplab.grids import transit_energy_limit
from proplab.observables import ObservableSeries
from proplab.spectral import resolution_energy_limit
from proplab.suites import lens_positivity_values

print(__doc__)

grid = make_grid("radial3d", 512, 100.0)
pot = Potential.gaussian(2.0)
h_op = laplacian(grid) + multiplication(grid, pot.v(grid.points))
spec = classify_spectrum(diagonalize(h_op))
print(f"V terms (amplitude, width, center) = {pot.terms} on radial grid n={grid.n}, R={grid.extent}")
print(f"delta* = {genericity_margin(spec, laplacian(grid)):.4f} "
      "(V >= 0 pushes it above 1)")

t_hi = 40.0
e_cut = min(transit_energy_limit(grid, t_hi), resolution_energy_limit(grid))
print(f"\nresolved, transit-safe band: E <= {e_cut:.3f}")
ts = np.geomspace(5.0, t_hi, 10)
vals = [weighted_propagator_norm(spec, 1.0, t, e_max=e_cut) for t in ts]
for t, v in zip(ts, vals):
    print(f"  t = {t:5.1f}   ||W e^(-iHt) P_c W|| = {v:.5f}")
slope, width = fit_decay_rate(ObservableSeries(ts, np.asarray(vals), "weighted norm"))
print(f"fitted slope {slope:+.3f} +- {width:.3f}  (theorem: c/t, i.e. slope -1)")

print("\nlens positivity with bound states present:")
well = Potential.gaussian(-6.0, width=1.0, center=1.5) + Potential.gaussian(0.5, width=1.0, center=3.5)
h_well = laplacian(grid) + multiplication(grid, well.v(grid.points))
spec_well = classify_spectrum(diagonalize(h_well))
print(f"  bound states: {len(spec_well.indices('bound'))}")
e_res = resolution_energy_limit(grid)
lens_ts = (1.0, 5.0, 20.0, 50.0)
for t, val in zip(lens_ts, lens_positivity_values(spec_well, well, lens_ts, e_max=e_res)):
    print(f"  t = {t:5.1f}   min eig of P_c[4Vt + C(t)/t]P_c = {val:+.4f}")
print("bounded below uniformly in t: the lens conjugation exposes 4tH >= 0 on Ran P_c")
