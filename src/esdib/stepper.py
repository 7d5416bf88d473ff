"""Time integration of the reaction-diffusion system on the moving surface.

One step of the scheme, from time level n to n+1 with step size tau:

1. move every node along its current unit normal by ``tau * kappa * eta``;
2. solve ``(M_n / tau + K_{n+1}) eta_{n+1} = M_n eta_n / tau + rho M_n f_n``
   for the morphology field (mass kept at the old level on both sides, so a
   spatially uniform eta stays uniform: the field rides along with the
   surface without dilution);
3. solve ``(M_{n+1} / tau + d K_{n+1}) theta_{n+1} = M_n theta_n / tau
   + rho M_n g_n`` for the coverage field (new mass on the left, old mass on
   the right: stretching the surface dilutes the transported species, and
   with f = g = 0 the discrete integral of theta is conserved exactly).

Diffusion is implicit (backward Euler on the moved mesh), reactions and the
normal motion explicit.  Both linear systems are symmetric positive definite
and solved by Jacobi-preconditioned conjugate gradients.  Each solve starts
from the quintic extrapolation ``6 x_n - 15 x_{n-1} + 20 x_{n-2}
- 15 x_{n-3} + 6 x_{n-4} - x_{n-5}`` of the field's last six levels, or from
zero when that has the smaller residual; before six levels exist it starts
from the previous field.  The earlier levels travel with the state as
:attr:`SimState.history`.  The stopping rule does not depend on the start, so
the start moves the fields only within the solver tolerance.

With ``kappa = 0`` the mesh object is reused unchanged and the same update
reduces to the classic fixed-surface scheme.  Mass, stiffness and both system
matrices are then constant, so :func:`run` builds the operators once, before
the loop, and only the right-hand sides change from step to step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .diagnostics import DiagnosticsSeries
from .errors import DegeneracyStop, NumericsError, SolverConvergenceError
from .kinetics import KineticsParams, eval_f, eval_g
from .mesh import (
    MeshQuality, StiffnessPattern, SurfaceMesh, assemble_lumped_mass, assemble_stiffness,
    compute_node_normals, displace_nodes, mesh_quality,
)


@dataclass
class SolverConfig:
    """Numerical controls of one run.

    ``min_triangle_area=None`` resolves to ``1e-12`` times the mean triangle
    area of the initial mesh; together with ``min_angle_deg`` it defines the
    degeneracy stop that ends a run before elements collapse.
    """

    tau: float = 1e-2
    T: float = 1.0
    cg_tol: float = 1e-10
    cg_maxiter: int = 10000
    min_triangle_area: float | None = None
    min_angle_deg: float = 0.5

    def __post_init__(self):
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not (self.T >= 0.0 and math.isfinite(self.T)):
            raise ValueError(f"final time T must be >= 0, got {self.T}")
        if not (self.cg_tol > 0.0 and math.isfinite(self.cg_tol)):
            raise ValueError(f"cg_tol must be positive, got {self.cg_tol}")
        if self.cg_maxiter < 1:
            raise ValueError(f"cg_maxiter must be >= 1, got {self.cg_maxiter}")
        area = self.min_triangle_area
        if area is not None and not (area > 0.0 and math.isfinite(area)):
            raise ValueError(f"min_triangle_area must be positive or None, got {area}")
        if not (self.min_angle_deg >= 0.0 and math.isfinite(self.min_angle_deg)):
            raise ValueError(f"min_angle_deg must be >= 0, got {self.min_angle_deg}")

    @property
    def n_steps(self) -> int:
        """Number of steps covering [0, T]; T is trusted over float ratio noise."""
        return max(0, math.ceil(self.T / self.tau - 1e-9))


#: Weights of the current and earlier field levels, newest first, in the
#: extrapolation that starts each solve: quintic, through six levels.
_PREDICTOR = (6.0, -15.0, 20.0, -15.0, 6.0, -1.0)
#: Earlier ``(eta, theta)`` levels a state carries for the extrapolation.
HISTORY_LEVELS = len(_PREDICTOR) - 1


@dataclass
class SimState:
    """Solver state at one time level.

    ``history`` holds up to :data:`HISTORY_LEVELS` (five) earlier
    ``(eta, theta)`` levels, newest first, as the very arrays of the earlier
    states (no copies).  Once all five are there, the solves of the next step
    start from the quintic extrapolation through them and the current fields;
    a state built by hand starts with none.  Every step returns a state whose
    history is the input's fields followed by the input's own history, so a
    chain of :func:`step` calls and :func:`run` start every solve alike.
    """

    t: float
    mesh: SurfaceMesh
    eta: np.ndarray
    theta: np.ndarray
    step_index: int = 0
    history: tuple[tuple[np.ndarray, np.ndarray], ...] = ()


def solve_spd(
    A: csr_matrix,
    rhs: np.ndarray,
    tol: float = 1e-10,
    maxiter: int = 10000,
    x0: np.ndarray | None = None,
    callback: Callable[[np.ndarray], None] | None = None,
    guess: np.ndarray | None = None,
    diag: np.ndarray | None = None,
) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients for a sparse SPD system.

    Iterates until ``||rhs - A x|| <= tol * ||rhs||``.  A zero right-hand
    side returns the zero vector immediately; a warm start ``x0`` that
    already satisfies the tolerance is returned unchanged.  Otherwise an
    alternative start ``guess``, when given, replaces ``x0`` if its residual
    norm is smaller; that check costs one matrix-vector product and is not
    an iteration.  Without ``x0`` the start is zero, whose residual is
    ``rhs`` and costs no product, so a ``guess`` alone costs one product
    before the iterations; each iteration costs one more.  ``diag`` is
    ``A``'s diagonal when the caller already has it.  ``callback(x)`` is
    called once per iteration with the iterate.

    The updates work in place, in the order and with the roundings of the
    textbook loop (``x += alpha p``, ``r -= alpha A p``, ``z = r / diag``,
    ``p = z + beta p``), and the residual norm is ``sqrt(r . r)``, the bits
    of ``np.linalg.norm``.

    Raises
    ------
    SolverConvergenceError
        Tolerance not reached within ``maxiter`` iterations; carries the
        final relative residual.
    NumericsError
        Non-finite right-hand side, or a matrix diagonal entry that is not
        positive (NaN included).
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    bnorm = float(np.linalg.norm(rhs))
    if not math.isfinite(bnorm):
        raise NumericsError("right-hand side contains non-finite values")
    if bnorm == 0.0:
        return np.zeros_like(rhs)
    if diag is None:
        diag = A.diagonal()
    if not diag.min() > 0.0:  # NaN fails this too
        raise NumericsError("system matrix has a non-positive or NaN diagonal entry")
    if x0 is None:
        x = np.zeros_like(rhs)
        r = rhs.copy()
        rnorm = bnorm
    else:
        x = np.array(x0, dtype=np.float64)
        r = rhs - A @ x
        rnorm = float(np.linalg.norm(r))
    if guess is not None and rnorm > tol * bnorm:
        guess = np.asarray(guess, dtype=np.float64)
        r_alt = rhs - A @ guess
        alt_norm = float(np.linalg.norm(r_alt))
        if alt_norm < rnorm:
            x, r, rnorm = guess.copy(), r_alt, alt_norm
    if rnorm <= tol * bnorm:
        return x
    z = r / diag
    p = z.copy()
    scaled = np.empty_like(p)
    rz = float(np.dot(r, z))
    for iteration in range(1, maxiter + 1):
        Ap = A @ p
        alpha = rz / float(np.dot(p, Ap))
        x += np.multiply(p, alpha, out=scaled)
        r -= np.multiply(Ap, alpha, out=scaled)
        if callback is not None:
            callback(x)
        if math.sqrt(np.dot(r, r)) <= tol * bnorm:
            return x
        np.divide(r, diag, out=z)
        rz_next = float(np.dot(r, z))
        p *= rz_next / rz
        p += z
        rz = rz_next
    raise SolverConvergenceError(
        f"conjugate gradients did not converge in {maxiter} iterations "
        f"(relative residual {float(np.linalg.norm(r)) / bnorm:.3e})",
        residual=float(np.linalg.norm(r)) / bnorm,
        iterations=maxiter,
    )


#: A system matrix and its diagonal, which :func:`solve_spd` would otherwise
#: gather on every call.
_System = tuple[csr_matrix, np.ndarray]


def _diffusion_systems(
    mesh: SurfaceMesh,
    pattern: StiffnessPattern,
    mass_old: np.ndarray,
    mass_new: np.ndarray,
    tau: float,
    d: float,
) -> tuple[_System, _System]:
    """The eta and theta systems on ``mesh``, in the stiffness's pattern.

    ``K + diag(mass_old) / tau`` and ``d K + diag(mass_new) / tau``, each with
    its diagonal, from the lumped mass diagonals; the stiffness ``K`` itself
    is not kept: the eta system is built in its place.
    """
    A_eta = assemble_stiffness(mesh, pattern)
    # built from the data, not as ``d * A_eta``, which copies indices and indptr
    A_theta = csr_matrix((d * A_eta.data, pattern.indices, pattern.indptr), shape=A_eta.shape)
    slots = pattern.diagonal_slots
    A_eta.data[slots] += mass_old / tau
    A_theta.data[slots] += mass_new / tau
    return (A_eta, A_eta.data[slots]), (A_theta, A_theta.data[slots])


def _predict(levels: Sequence[np.ndarray]) -> np.ndarray | None:
    """Extrapolation of a field from its levels, newest first; None while too few."""
    if len(levels) < len(_PREDICTOR):
        return None
    guess = _PREDICTOR[0] * levels[0]
    for weight, level in zip(_PREDICTOR[1:], levels[1:]):
        guess += weight * level
    return guess


def _check_finite(state_index: int, *arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise NumericsError(
                f"non-finite field value after step {state_index} (blow-up)"
            )


def _resolve_min_area(cfg: SolverConfig, mesh: SurfaceMesh, mass: np.ndarray) -> float:
    if cfg.min_triangle_area is not None:
        return cfg.min_triangle_area
    return 1e-12 * (float(mass.sum()) / mesh.n_triangles)


def _advance(
    state: SimState,
    params: KineticsParams,
    cfg: SolverConfig,
    pattern: StiffnessPattern,
    mass: np.ndarray,
    min_area: float,
    systems: tuple[_System, _System] | None = None,
) -> tuple[SimState, np.ndarray, MeshQuality | None]:
    """One step given precomputed pattern, old mass, and resolved threshold.

    Returns the new state with its lumped mass diagonal and the quality of
    its moved mesh; the quality is ``None`` at ``kappa = 0``, where the mesh
    is the input's.  ``systems`` are a frozen surface's system matrices (see
    :func:`_diffusion_systems`); they are built here when omitted.
    """
    tau = cfg.tau
    if params.kappa != 0.0:
        normals = compute_node_normals(state.mesh, pattern)
        displacement = (tau * params.kappa) * state.eta[:, None] * normals
        mesh_new = displace_nodes(state.mesh, displacement)
        quality = mesh_quality(mesh_new)
        if quality.min_area < min_area or quality.min_angle_deg < cfg.min_angle_deg:
            raise DegeneracyStop(
                "mesh degenerated at step "
                f"{state.step_index + 1}: min area {quality.min_area:.3e}, "
                f"min angle {quality.min_angle_deg:.3f} deg",
                step_index=state.step_index + 1,
                time=state.t + tau,
            )
        mass_new = assemble_lumped_mass(mesh_new, pattern)
    else:
        mesh_new, mass_new, quality = state.mesh, mass, None
    if systems is None:
        systems = _diffusion_systems(mesh_new, pattern, mass, mass_new, tau, params.d)
    # implicit diffusion on the moved mesh, explicit reaction with the old mass
    eta, theta = state.eta, state.theta
    f_vals = eval_f(eta, theta, params)
    g_vals = eval_g(eta, theta, params)
    rhs_eta = (mass * eta) / tau + params.rho * (mass * f_vals)
    rhs_theta = (mass * theta) / tau + params.rho * (mass * g_vals)
    (A_eta, diag_eta), (A_theta, diag_theta) = systems
    levels = ((eta, theta), *state.history[:HISTORY_LEVELS])
    # the extrapolation, once there, is checked only against the zero start,
    # whose residual costs no product; until then the start is the old field
    eta_guess = _predict([level[0] for level in levels])
    eta_next = solve_spd(
        A_eta, rhs_eta, cfg.cg_tol, cfg.cg_maxiter,
        x0=eta if eta_guess is None else None, guess=eta_guess, diag=diag_eta,
    )
    theta_guess = _predict([level[1] for level in levels])
    theta_next = solve_spd(
        A_theta, rhs_theta, cfg.cg_tol, cfg.cg_maxiter,
        x0=theta if theta_guess is None else None, guess=theta_guess, diag=diag_theta,
    )
    _check_finite(state.step_index + 1, eta_next, theta_next)
    next_state = SimState(
        t=state.t + tau,
        mesh=mesh_new,
        eta=eta_next,
        theta=theta_next,
        step_index=state.step_index + 1,
        history=levels[:HISTORY_LEVELS],
    )
    return next_state, mass_new, quality


def step(state: SimState, params: KineticsParams, cfg: SolverConfig) -> SimState:
    """Advance one time step; see the module docstring for the scheme.

    Convenience single-shot form: the sparsity pattern, the old mass matrix
    and the system matrices are rebuilt on every call.  Inside :func:`run`
    the pattern is cached, and so are the operators of a frozen surface.

    Raises
    ------
    DegeneracyStop
        The moved mesh fell below the quality thresholds; the input state
        is still valid.
    SolverConvergenceError, NumericsError
        Linear solve failure or non-finite field values.
    """
    _check_state(state)
    pattern = StiffnessPattern(state.mesh.triangles, state.mesh.n_nodes)
    mass = assemble_lumped_mass(state.mesh, pattern)
    min_area = _resolve_min_area(cfg, state.mesh, mass)
    next_state, _, _ = _advance(state, params, cfg, pattern, mass, min_area)
    return next_state


def _check_state(state: SimState) -> None:
    n = state.mesh.n_nodes
    levels = [("field", state.eta, state.theta)]
    levels += [(f"history level {k}", eta, theta)
               for k, (eta, theta) in enumerate(state.history)]
    for label, eta, theta in levels:
        if np.shape(eta) != (n,) or np.shape(theta) != (n,):
            raise ValueError(
                f"{label} shapes {np.shape(eta)}, {np.shape(theta)} do not match "
                f"the mesh ({n} nodes)"
            )


def run(
    initial: SimState,
    params: KineticsParams,
    cfg: SolverConfig,
    observers: Sequence[Callable[[SimState, np.ndarray], None]] = (),
    stride: int = 10,
) -> tuple[SimState, DiagnosticsSeries]:
    """Advance from the initial state to time T, sampling diagnostics.

    Samples are recorded at step 0, every ``stride`` steps, and at the final
    step; observers are called at each sample with the state and the current
    lumped mass diagonal.  A degeneracy stop ends the run cleanly: the last
    valid state is returned and the series is flagged as stopped.  On a
    frozen surface (``kappa = 0``) the system matrices and mesh quality are
    built once, before the first step.

    Returns
    -------
    (SimState, DiagnosticsSeries)
        Final (or last valid) state and the recorded series.  ``T = 0``
        returns the initial state and an empty series.
    """
    _check_state(initial)
    if stride < 1:
        raise ValueError(f"sampling stride must be >= 1, got {stride}")
    n_steps = cfg.n_steps
    evolving = params.kappa != 0.0
    series = DiagnosticsSeries(evolving=evolving)
    if n_steps == 0:
        return initial, series

    pattern = StiffnessPattern(initial.mesh.triangles, initial.mesh.n_nodes)
    mass = assemble_lumped_mass(initial.mesh, pattern)
    min_area = _resolve_min_area(cfg, initial.mesh, mass)
    quality = mesh_quality(initial.mesh)
    systems = None
    if not evolving:
        systems = _diffusion_systems(initial.mesh, pattern, mass, mass, cfg.tau, params.d)

    def sample(state: SimState, current_mass: np.ndarray, quality: MeshQuality) -> None:
        series.record(state, current_mass, quality)
        for obs in observers:
            obs(state, current_mass)

    state = initial
    sample(state, mass, quality)
    for k in range(1, n_steps + 1):
        try:
            state, mass, moved_quality = _advance(
                state, params, cfg, pattern, mass, min_area, systems
            )
        except DegeneracyStop as stop:
            series.mark_stopped(str(stop))
            if (k - 1) % stride != 0:  # pre-step state not sampled yet
                sample(state, mass, quality)
            return state, series
        quality = moved_quality or quality  # a frozen surface keeps its quality
        if k % stride == 0 or k == n_steps:
            sample(state, mass, quality)
    return state, series
