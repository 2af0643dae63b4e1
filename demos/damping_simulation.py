#!/usr/bin/env python3
"""Watching the damping estimate act on a discrete linearized cell.

The simulator evolves the diagonalized linearized system with first-order
upwinding (the sonic interface carries zero flux, so no information crosses
it), the single transverse boundary condition, and the shock-shift ODE.
The monitored energy uses the damping weights and the skew compensator.

Two caveats shape the measurement.  First, the co-periodic dynamics keeps a
small invariant family (wave translation and its mass-conservation partner,
plus a sonic remnant) that the estimate slaves to low norms instead of
damping; fitting a rate only makes sense after projecting the trajectory
onto its fast part, which is done with the spectral projector of the
discrete operator onto its eigenvalues near 0.  The energy is quadratic in
the state, so the fitted rate sits near twice the discrete spectral gap
left after that projection.  Second,
inflating the boundary reflection until the effective index passes one must
produce growth, and does.
"""

import numpy as np

from rollgap import dampsim as ds
from rollgap import rollwave as rw

p = rw.build_profile(3.0)
cd = rw.characteristics(p)
eps = rw.default_epsilon(p, cd)
c0 = rw.default_C0(p, cd, eps)
w = rw.damping_weights(p, cd, eps, c0)
rep_idx = rw.stability_index(p, cd)

print(f"profile F=3: index I = {rep_idx.index:.4f}, "
      f"margins epsilon = {eps:.4f}, C0 = {c0:g}, eta1 = {w.eta1:.4f}")
print()

N = 256
cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=N, t_end=60.0)
sim = ds.setup(cfg)
u0 = ds.random_initial_data(sim.centers, p.X, seed=42)

print(f"running N = {N} cells to t = {cfg.t_end} "
      f"(dt = {sim.dt:.2e}, energy equivalence constants {sim.equivalence[0]:.3g}"
      f" .. {sim.equivalence[1]:.3g})")
raw = ds.run(cfg, u0, sim=sim)
traj = ds.deflated_run(cfg, u0, sim=sim)
rep = ds.measure_decay(traj)

print(f"  raw energy:      E(0) = {raw.energy[0]:.3e}, "
      f"E(end) = {raw.energy[-1]:.3e}  (slow family survives)")
print(f"  deflated energy: E(0) = {traj.energy[0]:.3e}, "
      f"E(end) = {traj.energy[-1]:.3e}  "
      f"(projection rank {traj.deflation_rank})")
print(f"  fitted rate theta = {rep.theta_fit:.4f} with r^2 = {rep.r_squared:.5f}, "
      f"2 * spectral gap = {2 * rep.spectral_gap:.4f}")
print(f"  slaving constant along the trajectory: {rep.slaving_constant:.1f}")
print(f"  for scale: -2 * hf_abscissa = {-2 * rep_idx.hf_abscissa:.2f} "
      "(the transverse-mode ceiling; the sonic ladder decays slower and wins)")

print()
print("resolution consistency:")
for n_cells in (256, 512):
    cfgN = ds.SimConfig(profile=p, cd=cd, weights=w, N=n_cells, t_end=60.0)
    simN = ds.setup(cfgN)
    u0N = ds.random_initial_data(simN.centers, p.X, seed=42)
    repN = ds.measure_decay(ds.deflated_run(cfgN, u0N, sim=simN))
    print(f"  N = {n_cells:4d}: theta = {repN.theta_fit:.4f}, "
          f"2 * spectral gap = {2 * repN.spectral_gap:.4f}, "
          f"r^2 = {repN.r_squared:.5f}")

print()
factor = 1.5 / rep_idx.index
print(f"synthetic instability: inflating a0 by {factor:.2f} pushes the "
      f"effective index to {factor * rep_idx.index:.2f} > 1")
cfg_bad = ds.SimConfig(profile=p, cd=cd, weights=w, N=N, t_end=20.0,
                       a0_factor=factor)
sim_bad = ds.setup(cfg_bad)
bad = ds.run(cfg_bad, u0, sim=sim_bad)
print(f"  energy grows from {bad.energy[0]:.3e} to {bad.energy[-1]:.3e} "
      f"over t = {cfg_bad.t_end:g}")

print()
print("pure sonic-mode data needs no boundary input and still decays:")
u0s = np.zeros((2, N))
u0s[1] = 0.3 + np.sin(2 * np.pi * sim.centers / p.X)
rep_s = ds.measure_decay(ds.deflated_run(cfg, u0s, sim=sim))
print(f"  theta = {rep_s.theta_fit:.4f}, 2 * spectral gap = "
      f"{2 * rep_s.spectral_gap:.4f}, r^2 = {rep_s.r_squared:.5f}")
