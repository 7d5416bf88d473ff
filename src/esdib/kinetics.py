"""Morphochemical reaction kinetics: the model's constants and source terms.

The model couples two scalar fields on the growing deposit surface: eta, the
morphology variable that doubles as the local growth rate of the surface, and
theta, the fractional coverage of the adsorbed chemical species.  Source
terms:

    f(eta, theta) = A1 (1 - theta) eta - A2 eta^3 - B (theta - alpha)
    g(eta, theta) = C (1 + k2 eta)(1 - theta)[1 - gamma (1 - theta)]
                    - D (1 + k3 eta) theta (1 + gamma theta)

The pair (0, alpha) is a spatially uniform equilibrium provided the
desorption coefficient D is tied to the other constants by

    D = C (1 - alpha)(1 - gamma + gamma alpha) / (alpha (1 + gamma alpha)).

Runs start there, plus small noise: :func:`esdib.stepper.initial_condition`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_real


@dataclass(frozen=True)
class KineticsParams:
    """Reaction, diffusion, and surface-motion constants of one experiment.

    ``d`` is the diffusivity ratio of theta relative to eta, ``rho`` the
    scaling factor applied to both source terms, and ``kappa`` the
    proportionality between eta and the normal velocity of the surface
    (``kappa = 0`` freezes the surface).  Each constant must be a finite
    number, ``d`` and ``rho`` above 0 and ``kappa`` at least 0, or
    ``ValueError`` is raised.
    """

    A1: float
    A2: float
    B: float
    C: float
    D: float
    alpha: float
    gamma: float
    k2: float
    k3: float
    d: float
    rho: float
    kappa: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            check_real(name, getattr(self, name), positive=name in ("d", "rho"),
                       nonnegative=name == "kappa")


def equilibrium_D(C: float, alpha: float, gamma: float) -> float:
    """Desorption coefficient making (0, alpha) a root of g."""
    denom = alpha * (1.0 + gamma * alpha)
    if denom == 0.0:
        raise ValueError("alpha (1 + gamma alpha) must be nonzero to balance g")
    return C * (1.0 - alpha) * (1.0 - gamma + gamma * alpha) / denom


def default_params(
    B: float, C: float, rho: float = 1.0, kappa: float = 0.2, d: float = 20.0
) -> KineticsParams:
    """Parameter set with the standard fixed constants.

    Only B, C, and the run-level factors rho, kappa and d vary between
    experiments; D is derived from the equilibrium condition.
    """
    alpha, gamma = 0.5, 0.2
    return KineticsParams(
        A1=10.0,
        A2=1.0,
        B=B,
        C=C,
        D=equilibrium_D(C, alpha, gamma),
        alpha=alpha,
        gamma=gamma,
        k2=2.5,
        k3=1.5,
        d=d,
        rho=rho,
        kappa=kappa,
    )


def eval_f(eta, theta, p: KineticsParams):
    """Morphology source term, vectorised over nodal values.

    The cube is the product ``(eta * eta) * eta``: ``eta**3`` would call
    libm ``pow`` for every entry, which costs more than the rest of the
    function together.
    """
    eta = np.asarray(eta)
    theta = np.asarray(theta)
    return p.A1 * (1.0 - theta) * eta - p.A2 * (eta * eta * eta) - p.B * (theta - p.alpha)


def eval_g(eta, theta, p: KineticsParams):
    """Coverage source term (adsorption minus desorption), vectorised."""
    eta = np.asarray(eta)
    theta = np.asarray(theta)
    adsorption = p.C * (1.0 + p.k2 * eta) * (1.0 - theta) * (
        1.0 - p.gamma * (1.0 - theta)
    )
    desorption = p.D * (1.0 + p.k3 * eta) * theta * (1.0 + p.gamma * theta)
    return adsorption - desorption
