"""Labyrinth patterns on a fixed flat electrode.

Runs the classic two-species electrodeposition kinetics (B = 30, C = 3) on a
frozen square sheet until the pattern settles, then reports the increment
history, integrates the deposit thickness per node, and exports the final
state for inspection.

Output: demos/output/flat_labyrinth/  (diagnostics.csv, final.vtk)
Runtime: around half a minute.
"""

import os

import numpy as np

from esdib import (
    SimState,
    SolverConfig,
    default_params,
    export_mesh_snapshot,
    initial_condition,
    run,
)
from esdib.meshgen import generate_square

out_dir = os.path.join(os.path.dirname(__file__), "output", "flat_labyrinth")
os.makedirs(out_dir, exist_ok=True)

# a 5 x 5 sheet fits a couple of pattern wavelengths and settles within T = 100
mesh = generate_square(5.0, 25)
params = default_params(B=30.0, C=3.0, rho=2.0, kappa=0.0)
fields = initial_condition(mesh, params, seed=5)
state = SimState(t=0.0, mesh=mesh, eta=fields.eta, theta=fields.theta)

print(f"flat sheet: {mesh.n_nodes} nodes, {mesh.n_triangles} triangles")
print("integrating to T = 100 on the frozen surface ...")
final, series = run(state, params, SolverConfig(tau=1e-2, T=100.0), stride=25)

increments = series.column("inc_eta_l2")
print(f"eta increment per sample: {increments[1]:.3e} (early) "
      f"-> {increments[-1]:.3e} (late)")
print(f"eta range at T: [{final.eta.min():.3f}, {final.eta.max():.3f}], "
      f"std {final.eta.std():.3f}")

# deposit thickness: the per-node time integral of eta over the sampled history
thickness = series.thickness()
corr = float(np.corrcoef(thickness, final.eta)[0, 1])
print(f"thickness range: [{thickness.min():.3f}, {thickness.max():.3f}]")
print(f"correlation of thickness with the final eta pattern: {corr:.3f}")

series.to_csv(os.path.join(out_dir, "diagnostics.csv"))
export_mesh_snapshot(final, os.path.join(out_dir, "final.vtk"))
print(f"artifacts in {out_dir}")
