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

Steps 2 and 3 are one update, a right-hand side, a start and a solve, made
for eta and then for theta.  With ``kappa = 0`` the mesh object is reused
unchanged and the same update reduces to the classic fixed-surface scheme.
Mesh, mass, quality, stiffness and both system matrices are then constant,
so the chain of steps that :func:`run` samples builds them once, at its
start, and every step takes that constant geometry in place of step 1; only
the right-hand sides change from step to step.  The chain stores those two
systems without their exact zeros, the entries that are 0.0 in both, such as
the weights of the diagonals that split :func:`~esdib.meshgen.generate_square`'s
cells: each product in a solve then reads fewer entries and adds the same bits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

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

    ``T`` is the time span of a run from the initial state's ``t``, covered
    by :attr:`n_steps` steps of ``tau``.  ``min_triangle_area=None`` is
    ``1e-12`` times the mean triangle area of the first mesh of a chain of
    steps: a :func:`run`'s initial mesh, or each :func:`step` call's input
    mesh.  With ``min_angle_deg`` it defines the degeneracy stop that ends a
    run before elements collapse.
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
            raise ValueError(f"T must be at least 0, got {self.T}")
        if not (self.cg_tol > 0.0 and math.isfinite(self.cg_tol)):
            raise ValueError(f"cg_tol must be positive, got {self.cg_tol}")
        if not math.isfinite(self.T / self.tau):
            raise ValueError(f"T / tau must be a finite number of steps, got {self.T} / {self.tau}")
        if not (isinstance(self.cg_maxiter, numbers.Integral) and self.cg_maxiter >= 1):
            raise ValueError(f"cg_maxiter must be an integer at least 1, got {self.cg_maxiter!r}")
        area = self.min_triangle_area
        if area is not None and not (area > 0.0 and math.isfinite(area)):
            raise ValueError(f"min_triangle_area must be positive, or auto (None), got {area}")
        if not (self.min_angle_deg >= 0.0 and math.isfinite(self.min_angle_deg)):
            raise ValueError(f"min_angle_deg must be at least 0, got {self.min_angle_deg}")

    @property
    def n_steps(self) -> int:
        """Number of steps covering the span T; T is trusted over float ratio noise."""
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
    mesh: SurfaceMesh, mass_old: np.ndarray, mass_new: np.ndarray, tau: float, d: float
) -> tuple[_System, _System]:
    """The eta and theta systems on ``mesh``, in the structure of ``mesh.pattern``.

    ``K + diag(mass_old) / tau`` and ``d K + diag(mass_new) / tau``, each with
    its diagonal, from the lumped mass diagonals; the stiffness ``K`` itself
    is not kept: the eta system is built in its place.
    """
    A_eta = assemble_stiffness(mesh)
    pattern = mesh.pattern
    # built from the data, not as ``d * A_eta``, which copies indices and indptr
    A_theta = csr_matrix((d * A_eta.data, pattern.indices, pattern.indptr), shape=A_eta.shape)
    slots = pattern.diagonal_slots
    A_eta.data[slots] += mass_old / tau
    A_theta.data[slots] += mass_new / tau
    return (A_eta, A_eta.data[slots]), (A_theta, A_theta.data[slots])


def _without_zeros(systems: tuple[_System, _System]) -> tuple[_System, _System]:
    """The two systems without the entries that are exactly 0.0 in both.

    The pruned matrices share one ``indices`` and ``indptr``, store every
    remaining entry in its old order and keep their diagonals.  A stored zero
    adds a signed zero to its row's sum in a product with a finite vector, so
    the products keep their bits and only stop reading it.  Systems with no
    such entry come back as they are.
    """
    (A_eta, _), (A_theta, _) = systems
    keep = (A_eta.data != 0.0) | (A_theta.data != 0.0)
    if keep.all():
        return systems
    # each row's first slot, counted in the kept entries
    indptr = np.concatenate(([0], np.cumsum(keep)))[A_eta.indptr].astype(A_eta.indptr.dtype)
    indices = A_eta.indices[keep]
    return tuple(
        (csr_matrix((A.data[keep], indices, indptr), shape=A.shape), diag)
        for A, diag in systems
    )


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


def _steps(
    state: SimState, params: KineticsParams, cfg: SolverConfig
) -> Iterator[tuple[SimState, np.ndarray, MeshQuality]]:
    """The chain of steps from ``state``, one state after the other, without end.

    Builds the start-up once: the lumped mass, the mesh quality, the resolved
    ``min_triangle_area`` and, at ``kappa = 0``, the constant geometry
    ``(mesh, mass, quality, systems)`` that every step then reuses; the
    pattern is the one ``state.mesh`` carries, which every moved mesh shares.
    Yields ``state`` first, then each new state, each with its mass and the
    quality of its mesh.  Raises :class:`DegeneracyStop` when a moved mesh
    falls below the thresholds.
    """
    tau = cfg.tau
    mass = assemble_lumped_mass(state.mesh)
    quality = mesh_quality(state.mesh)
    min_area = cfg.min_triangle_area
    if min_area is None:
        min_area = 1e-12 * (float(mass.sum()) / state.mesh.n_triangles)
    frozen = None  # a moving chain keeps no handle on its first mesh
    if params.kappa == 0.0:
        systems = _without_zeros(_diffusion_systems(state.mesh, mass, mass, tau, params.d))
        frozen = (state.mesh, mass, quality, systems)

    def move(state: SimState, mass: np.ndarray):
        """The moved mesh, its mass, its quality and the systems on it."""
        normals = compute_node_normals(state.mesh)
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
        mass_new = assemble_lumped_mass(mesh_new)
        systems = _diffusion_systems(mesh_new, mass, mass_new, tau, params.d)
        return mesh_new, mass_new, quality, systems

    # the step body is a function of its own, so that its temporaries (systems,
    # normals, right-hand sides, starts) are gone before the chain yields
    def advance(state: SimState, mass: np.ndarray):
        mesh_new, mass_new, quality, systems = frozen or move(state, mass)
        eta, theta = state.eta, state.theta
        levels = ((eta, theta), *state.history[:HISTORY_LEVELS])
        fields = []
        # implicit diffusion on the moved mesh, explicit reaction with the old
        # mass; eta first, as the bench tracer counts CG iterations in call order
        for source, (A, diag), field_levels in zip((eval_f, eval_g), systems, zip(*levels)):
            old = field_levels[0]
            rhs = (mass * old) / tau + params.rho * (mass * source(eta, theta, params))
            # the extrapolation, once there, is checked only against the zero start,
            # whose residual costs no product; until then the start is the old field
            guess = _predict(field_levels)
            fields.append(solve_spd(
                A, rhs, cfg.cg_tol, cfg.cg_maxiter,
                x0=old if guess is None else None, guess=guess, diag=diag,
            ))
        _check_finite(state.step_index + 1, *fields)
        next_state = SimState(
            t=state.t + tau, mesh=mesh_new, eta=fields[0], theta=fields[1],
            step_index=state.step_index + 1, history=levels[:HISTORY_LEVELS],
        )
        return next_state, mass_new, quality

    while True:
        yield state, mass, quality
        state, mass, quality = advance(state, mass)


def step(state: SimState, params: KineticsParams, cfg: SolverConfig) -> SimState:
    """Advance one time step; see the module docstring for the scheme.

    Convenience single-shot form: the first step of a new chain from
    ``state``, so the old mass, the ``min_triangle_area=None`` threshold and
    a frozen surface's systems come from ``state.mesh`` on every call;
    :func:`run` builds them once for its whole chain.  The pattern is not
    rebuilt: ``state.mesh`` carries it and the returned mesh shares it.

    Raises
    ------
    DegeneracyStop
        The moved mesh fell below the quality thresholds; the input state
        is still valid.
    SolverConvergenceError, NumericsError
        Linear solve failure or non-finite field values.
    """
    _check_state(state)
    chain = _steps(state, params, cfg)
    next(chain)
    return next(chain)[0]


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
    """Advance the initial state by the time span ``cfg.T``, sampling diagnostics.

    The run takes ``cfg.n_steps`` steps of ``tau`` from ``initial.t``, not up
    to an absolute time ``T``, as one chain of steps whose start-up (mass,
    mesh quality, area threshold and, on a frozen surface with ``kappa = 0``,
    the system matrices) is built once, before the first step, on a handle of
    ``initial.mesh`` with its own pattern, which every mesh of the run shares.
    Samples of the chain's ``(state, mass, quality)`` are recorded at step 0,
    every ``stride`` steps (an integer, at least 1), and at the final step;
    observers are called at each sample with the state and the current lumped
    mass diagonal.  A degeneracy stop ends the run cleanly: the last valid
    state is sampled once, returned, and the series is flagged as stopped.

    Returns
    -------
    (SimState, DiagnosticsSeries)
        Final (or last valid) state and the recorded series.  With ``T = 0``
        the series holds the one sample of step 0, and the returned state is
        a new state with the initial time, mesh nodes and fields.
    """
    _check_state(initial)
    if not (isinstance(stride, numbers.Integral) and stride >= 1):
        raise ValueError(f"sampling stride must be an integer at least 1, got {stride!r}")
    series = DiagnosticsSeries(evolving=params.kappa != 0.0)
    # an own handle on the same arrays keeps the geometry cache and the pattern off
    # the caller's mesh.  Its pattern is built here, by this module's name, only
    # because bench/tracing.py rebinds that name to time the build; once the chain
    # times itself, the handle can build it on first use like any other mesh.
    mesh = initial.mesh
    chain = _steps(
        replace(initial, mesh=SurfaceMesh._with_nodes(mesh, mesh.nodes, StiffnessPattern(mesh))),
        params, cfg,
    )
    try:
        # the range comes first, so zip asks the chain for no step past the last
        for k, sample in zip(range(cfg.n_steps + 1), chain):
            if k % stride == 0:
                series.record(*sample)
                for obs in observers:
                    obs(*sample[:2])
    except DegeneracyStop as stop:
        series.mark_stopped(str(stop))
    if k % stride != 0:  # the last state, final or last valid, unless a stride sampled it
        series.record(*sample)
        for obs in observers:
            obs(*sample[:2])
    return sample[0], series
