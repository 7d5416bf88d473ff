"""Scalar diagnostics recorded along a run and their post-processing.

A :class:`DiagnosticsSeries` collects one :class:`DiagnosticsSample` per
sampled step: surface area, eta increment norms between consecutive samples
(plain and mass-weighted), the discrete mass of theta, field ranges, the
spatial standard deviation of eta, and the worst mesh quality metrics.  The
series exports to CSV with one row per sample and fixed columns.

Fixed-surface runs additionally integrate the deposit thickness (the time
integral of eta per node) as the samples arrive, with the trapezoidal rule,
without keeping the eta history; on a moving surface nodes do not keep their
identity as material points, so the thickness request is rejected.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, ModeError


def increment_norm(prev: np.ndarray, curr: np.ndarray) -> float:
    """Euclidean norm of the nodal difference between two snapshots."""
    prev = np.asarray(prev)
    curr = np.asarray(curr)
    if prev.shape != curr.shape:
        raise DataError(
            f"cannot compare snapshots of shapes {prev.shape} and {curr.shape}"
        )
    return float(np.linalg.norm(curr - prev))


def mass_weighted_increment_norm(
    mass: np.ndarray, prev: np.ndarray, curr: np.ndarray
) -> float:
    """Increment norm weighted by the current lumped mass diagonal (discrete L2)."""
    prev = np.asarray(prev)
    curr = np.asarray(curr)
    if prev.shape != curr.shape:
        raise DataError(
            f"cannot compare snapshots of shapes {prev.shape} and {curr.shape}"
        )
    diff = curr - prev
    return float(np.sqrt(np.dot(mass, diff * diff)))


def mass_integral(mass: np.ndarray, values: np.ndarray) -> float:
    """Discrete surface integral: lumped mass diagonal dotted with nodal values."""
    return float(np.dot(mass, values))


@dataclass
class DiagnosticsSample:
    t: float
    area: float
    inc_eta_l2: float
    inc_eta_Ml2: float
    mass_theta: float
    eta_min: float
    eta_max: float
    theta_min: float
    theta_max: float
    eta_std: float
    min_angle_deg: float
    min_area: float


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsSample))


class DiagnosticsSeries:
    """Time series of run diagnostics, one sample per recorded step.

    Parameters
    ----------
    evolving : bool
        Whether the surface moves during the run.  Fixed-surface series
        accumulate the deposit thickness from sample to sample.
    """

    def __init__(self, evolving: bool):
        self.evolving = evolving
        self.samples: list[DiagnosticsSample] = []
        self.stopped = False
        self.stop_reason: str | None = None
        self._last_eta: np.ndarray | None = None
        self._thickness: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.samples)

    def record(self, state, mass: np.ndarray, quality) -> None:
        """Append one sample from a state, its lumped mass diagonal and its quality."""
        eta = state.eta
        theta = state.theta
        if self._last_eta is None:
            inc = float("nan")
            inc_m = float("nan")
        else:
            inc = increment_norm(self._last_eta, eta)
            inc_m = mass_weighted_increment_norm(mass, self._last_eta, eta)
            if not self.evolving:
                self._accumulate_thickness(float(state.t), eta)
        self.samples.append(
            DiagnosticsSample(
                t=float(state.t),
                area=float(mass.sum()),
                inc_eta_l2=inc,
                inc_eta_Ml2=inc_m,
                mass_theta=mass_integral(mass, theta),
                eta_min=float(eta.min()),
                eta_max=float(eta.max()),
                theta_min=float(theta.min()),
                theta_max=float(theta.max()),
                eta_std=float(eta.std()),
                min_angle_deg=float(quality.min_angle_deg),
                min_area=float(quality.min_area),
            )
        )
        self._last_eta = eta.copy()

    def _accumulate_thickness(self, t: float, eta: np.ndarray) -> None:
        # one trapezoid per sample interval, summed in sample order from zero:
        # the same operations, in the same order, as np.trapezoid over the history
        dt = t - self.samples[-1].t
        if self._thickness is None:
            self._thickness = np.zeros(eta.shape)
        self._thickness += dt * (eta + self._last_eta) / 2.0

    def mark_stopped(self, reason: str) -> None:
        self.stopped = True
        self.stop_reason = reason

    def column(self, name: str) -> np.ndarray:
        """One diagnostic as an array over samples."""
        if name not in CSV_COLUMNS:
            raise KeyError(f"unknown diagnostic column {name!r}")
        return np.array([getattr(s, name) for s in self.samples])

    @property
    def times(self) -> np.ndarray:
        return self.column("t")

    @property
    def areas(self) -> np.ndarray:
        return self.column("area")

    def thickness(self) -> np.ndarray:
        """Per-node deposit thickness integrated over the sampled history."""
        if self.evolving:
            raise ModeError("thickness is only defined on a fixed surface")
        if self._thickness is None:  # fewer than two samples: nothing integrated
            n = 0 if self._last_eta is None else self._last_eta.size
            return np.zeros(n)
        return self._thickness.copy()

    def to_csv(self, path) -> None:
        """Write the series as CSV, one row per sample.

        Floats are rendered with ``repr`` (shortest round-trip form), so
        identical runs produce byte-identical files.
        """
        with open(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for s in self.samples:
                writer.writerow([repr(getattr(s, c)) for c in CSV_COLUMNS])


@dataclass(frozen=True)
class AreaGrowthFit:
    """Least-squares exponential fit area ~ exp(rate * t).

    ``degenerate`` flags a constant series, where the log-linear fit has no
    variance to explain and r_squared is undefined.
    """

    rate: float
    r_squared: float
    degenerate: bool


def area_growth_fit(times, areas) -> AreaGrowthFit:
    """Fit log(area) against time and report rate and goodness of fit.

    Raises
    ------
    DataError
        Fewer than 10 samples, a time or area that is not finite, times
        that are all equal (no slope to fit), or a non-positive area value.
    """
    t = np.asarray(times, dtype=np.float64)
    a = np.asarray(areas, dtype=np.float64)
    if t.shape != a.shape or t.ndim != 1:
        raise DataError("times and areas must be 1-d arrays of equal length")
    if t.size < 10:
        raise DataError(f"need at least 10 samples for a growth fit, got {t.size}")
    if not (np.isfinite(t).all() and np.isfinite(a).all()):
        raise DataError("times and areas must be finite")
    if t.min() == t.max():
        raise DataError(f"times must vary for a growth fit, all are {float(t[0])}")
    if a.min() <= 0.0:
        raise DataError("areas must be positive for an exponential fit")
    log_a = np.log(a)
    slope, intercept = np.polyfit(t, log_a, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((log_a - fitted) ** 2))
    ss_tot = float(np.sum((log_a - log_a.mean()) ** 2))
    # a constant series leaves only rounding noise in ss_tot
    noise = t.size * (1e-15 * (1.0 + float(np.max(np.abs(log_a))))) ** 2
    if ss_tot <= noise:
        return AreaGrowthFit(rate=0.0, r_squared=float("nan"), degenerate=True)
    return AreaGrowthFit(
        rate=float(slope), r_squared=1.0 - ss_res / ss_tot, degenerate=False
    )
