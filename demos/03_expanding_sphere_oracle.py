"""Convergence check against the exact expanding-sphere solution.

With all reactions switched off, a uniform morphology field eta = 1 inflates
the unit sphere at constant speed kappa, so the radius obeys
R(t) = 1 + kappa t, and a transported species with theta(0) = 1 is diluted by
the area ratio: theta(t) = 1 / R(t)^2.  The demo integrates to T = 1 on two
space/time resolutions and prints the error against both closed forms,
showing the scheme converging toward the exact solution.

Runtime: around a minute (the finer level uses a 10242-node sphere).
"""

import numpy as np

from esdib import (
    SimState,
    SolverConfig,
    assemble_lumped_mass,
    default_params,
    mass_integral,
    run,
)
from esdib.kinetics import KineticsParams
from esdib.meshgen import generate_icosphere

KAPPA = 0.2

# all reaction coefficients zero: pure growth plus diffusion
params = KineticsParams(
    A1=0.0, A2=0.0, B=0.0, C=0.0, D=0.0, alpha=0.5, gamma=0.2,
    k2=0.0, k3=0.0, d=20.0, rho=1.0, kappa=KAPPA,
)
assert default_params(B=30.0, C=3.0).kappa == KAPPA  # same default growth speed

exact_radius = 1.0 + KAPPA
exact_theta = 1.0 / exact_radius**2
print(f"exact values at T = 1: radius {exact_radius}, theta {exact_theta:.6f}")

for level, tau in ((3, 2e-2), (4, 1e-2), (5, 5e-3)):
    mesh = generate_icosphere(1.0, level)
    state = SimState(
        t=0.0, mesh=mesh,
        eta=np.ones(mesh.n_nodes), theta=np.ones(mesh.n_nodes),
    )
    cfg = SolverConfig(tau=tau, T=1.0, cg_tol=1e-12)
    final, _ = run(state, params, cfg, stride=50)

    radius = float(np.linalg.norm(final.mesh.nodes, axis=1).mean())
    mass = assemble_lumped_mass(final.mesh)
    theta = mass_integral(mass, final.theta) / float(mass.sum())
    print(
        f"level {level}, tau {tau:7.0e}: "
        f"radius err {abs(radius - exact_radius) / exact_radius:.3e}, "
        f"theta err {abs(theta - exact_theta) / exact_theta:.3e}"
    )
