"""Localized oscillatory quasi-solution concentrated on a vertical ray.

The profile

    p(t, x) = c_eps * exp(i x / eps - (x - x0)^2 / sqrt(eps) + (M - M^3 eps^2) t)

nearly solves the adjoint memory-wave equation on the line when the history
variable is seeded with q0 = p(0, .) / (M - M^3 eps^2).  Its energy stays put:
the energy centroid does not move and the energy mass off the ray
|x - x0| > eps^{1/8} is exponentially small.  Because the packet does not
propagate, a control region that never visits x0 cannot see it; this module
quantifies the residual, the energy normalization and the localization.

All derivative formulas and integrals are closed forms: the oscillatory phase
cancels in every modulus-squared integrand, leaving an even polynomial of
degree <= 4 in x - x0 times a Gaussian, which three Gaussian moments integrate.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .model import InvalidParameterError

__all__ = [
    "BeamParams",
    "BeamProfile",
    "BeamDiagnostics",
    "normalization_constant",
    "beam_state",
    "beam_h1_norm",
    "beam_residual_norm",
    "beam_energy_report",
    "beam_sweep",
    "fit_loglog_slope",
    "write_sweep_csv",
]


@dataclass(frozen=True)
class BeamParams:
    """Configuration of one localized packet.

    The localization exponent is fixed at 1/2 (the Gaussian width scales as
    eps^{1/4}); eps beyond 0.25 leaves the asymptotic regime and only warns.
    """

    epsilon: float
    x0: float = 1.0
    M: float = 1.0
    half_width: float | None = None
    n_grid: int = 2048

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise InvalidParameterError("epsilon must be positive")
        if self.epsilon > 0.25:
            warnings.warn(
                f"epsilon = {self.epsilon} is outside the asymptotic range "
                "(0, 0.25]; diagnostics may be uninformative", stacklevel=2)
        if self.M == 0.0:
            raise InvalidParameterError("M must be nonzero")
        if self.half_width is None:
            L = max(10.0 * self.epsilon ** 0.125, 20.0 * self.epsilon ** 0.25)
            object.__setattr__(self, "half_width", L)

    @property
    def time_rate(self) -> float:
        """Growth exponent M - M^3 eps^2 of the time factor."""
        return self.M - self.M**3 * self.epsilon**2

    @property
    def domain(self) -> tuple[float, float]:
        return (self.x0 - self.half_width, self.x0 + self.half_width)


def normalization_constant(bp: BeamParams) -> float:
    """Amplitude c_eps: (2/pi)^{1/4} eps^{7/8} / x0 off-center, else the
    (32/pi)^{1/4} eps^{5/8} convention at x0 = 0."""
    if bp.x0 != 0.0:
        return (2.0 / math.pi) ** 0.25 * bp.epsilon ** (7.0 / 8.0) / bp.x0
    return (32.0 / math.pi) ** 0.25 * bp.epsilon ** (5.0 / 8.0)


@dataclass(frozen=True)
class BeamProfile:
    """Sampled packet at one time, with the matched history seed q0."""

    params: BeamParams
    t: float
    x: np.ndarray
    values: np.ndarray
    q0: np.ndarray
    c_eps: float


def _gaussian(bp: BeamParams, x: np.ndarray) -> np.ndarray:
    return np.exp(-((x - bp.x0) ** 2) / math.sqrt(bp.epsilon))


def beam_state(bp: BeamParams, t: float) -> BeamProfile:
    """Evaluate the packet and its history seed on the truncated domain."""
    c_eps = normalization_constant(bp)
    x = np.linspace(*bp.domain, bp.n_grid)
    profile0 = c_eps * np.exp(1j * x / bp.epsilon) * _gaussian(bp, x)
    values = profile0 * math.exp(bp.time_rate * t)
    return BeamProfile(params=bp, t=t, x=x, values=values,
                       q0=profile0 / bp.time_rate, c_eps=c_eps)


# ---------------------------------------------------------------------------
# closed-form moments of the modulus-squared integrands
# ---------------------------------------------------------------------------

def _moments(bp: BeamParams, lo: float = 0.0) -> tuple[float, float, float]:
    """(m0, m2, m4): m_2k = int_{lo < |y| < L} c^2 y^{2k} e^{-a y^2} dy, a = 2/sqrt(eps).

    L is the domain half-width.  m0 is an erfc difference (Abramowitz & Stegun
    7.1; erf would lose the digits of the off-ray tails), and integration by
    parts gives m_2k = ((2k-1) m_2k-2 + 2 [y^{2k-1} e^{-a y^2}]_L^lo) / (2a).
    """
    a = 2.0 / math.sqrt(bp.epsilon)
    L = bp.half_width
    m = [math.sqrt(math.pi / a) * (math.erfc(math.sqrt(a) * lo) - math.erfc(math.sqrt(a) * L))]
    for k in (1, 2):
        edge = lo ** (2 * k - 1) * math.exp(-a * lo * lo) - L ** (2 * k - 1) * math.exp(-a * L * L)
        m.append(((2 * k - 1) * m[-1] + 2.0 * edge) / (2.0 * a))
    c2 = normalization_constant(bp) ** 2
    return c2 * m[0], c2 * m[1], c2 * m[2]


def beam_h1_norm(bp: BeamParams) -> float:
    """Full-line H^1 norm of the initial packet (L^2 plus derivative mass).

    |p_x|^2 = (1/eps^2 + 4 (x-x0)^2 / eps) |p|^2: the phase contributes the
    1/eps^2 term, the envelope the quadratic one.
    """
    eps = bp.epsilon
    m0, m2, _ = _moments(bp)
    return math.sqrt(m0 + m0 / eps**2 + 4.0 * m2 / eps)


def beam_residual_norm(bp: BeamParams, times: Sequence[float] | None = None) -> float:
    """Max over sampled t in [0, 1] of the L^2-in-x defect of the packet.

    The defect of (second time derivative) - (second space derivative)
    + M (running memory integral) + M q0'' collapses, through the closed-form
    derivatives, to a multiplier against p:

        R/p = kappa^2 + (M^3 eps^2 / kappa) * D(x),
        D(x) = (i/eps - 2(x-x0)/sqrt(eps))^2 - 2/sqrt(eps),

    with kappa = M - M^3 eps^2, so |R/p|^2 = (a0 + a2 y^2)^2 + 16 ratio^2 y^2 / eps^3
    (y = x - x0, ratio = M^3 eps^2 / kappa) integrates to moments of the Gaussian.
    """
    eps = bp.epsilon
    kappa = bp.time_rate
    ratio = bp.M**3 * eps**2 / kappa
    a0 = kappa**2 + ratio * (-2.0 / math.sqrt(eps) - 1.0 / eps**2)
    a2 = ratio * 4.0 / eps
    m0, m2, m4 = _moments(bp)
    base = math.sqrt(a0 * a0 * m0 + (2.0 * a0 * a2 + 16.0 * ratio**2 / eps**3) * m2
                     + a2 * a2 * m4)
    ts = np.linspace(0.0, 1.0, 9) if times is None else np.asarray(times, dtype=float)
    return float(max(base * math.exp(bp.time_rate * t) for t in ts))


@dataclass(frozen=True)
class BeamDiagnostics:
    epsilon: float
    residual_norm: float
    E0: float
    offray_energy: float
    offray_ratio: float
    offray_bound: float
    h1_norm: float


def beam_energy_report(bp: BeamParams) -> BeamDiagnostics:
    """Initial energy, off-ray energy mass and localization bound.

    E0 = 1/2 int (|p_t(0)|^2 + |p_x(0)|^2); the off-ray part restricts to
    |x - x0| > eps^{1/8}.  The reported bound factor is exp(-2 eps^{-1/4}),
    the leading scale of the complementary-error-function tail of the
    Gaussian envelope at that threshold.
    """
    eps = bp.epsilon
    E0, offray = (0.5 * ((bp.time_rate**2 + 1.0 / eps**2) * m0 + 4.0 * m2 / eps)
                  for m0, m2, _ in (_moments(bp), _moments(bp, eps ** 0.125)))
    return BeamDiagnostics(
        epsilon=eps,
        residual_norm=beam_residual_norm(bp),
        E0=E0,
        offray_energy=offray,
        offray_ratio=offray / E0,
        offray_bound=math.exp(-2.0 * eps ** -0.25),
        h1_norm=beam_h1_norm(bp),
    )


def energy_centroid(bp: BeamParams, t: float) -> float:
    """First moment of the energy density at time t over its mass.

    The time factor cancels, and the density is even in x - x0 on a domain
    symmetric about x0, so the centroid is x0 by symmetry.
    """
    return float(bp.x0)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def fit_loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def richardson_limit(eps: Sequence[float], vals: Sequence[float]) -> tuple[float, float]:
    """Extrapolated limit and rate of vals ~ limit + A eps^p from a sweep.

    The rate is estimated from successive differences on the (sorted
    descending) sweep and the limit by eliminating the leading term from the
    two smallest eps values.
    """
    order = np.argsort(eps)[::-1]
    e = np.asarray(eps, dtype=float)[order]
    v = np.asarray(vals, dtype=float)[order]
    if len(e) < 3:
        raise InvalidParameterError("need at least three sweep points")
    d1 = v[-2] - v[-3]
    d2 = v[-1] - v[-2]
    p = math.log(abs(d2 / d1)) / math.log(e[-1] / e[-2]) if d1 != 0 and d2 != 0 else math.nan
    r = (e[-1] / e[-2]) ** p if math.isfinite(p) else 0.5
    limit = (v[-1] - r * v[-2]) / (1.0 - r)
    return float(limit), float(p)


def beam_sweep(
    eps_values: Sequence[float], x0: float = 1.0, M: float = 1.0
) -> list[BeamDiagnostics]:
    """Diagnostics across an epsilon sweep (descending epsilon recommended)."""
    return [beam_energy_report(BeamParams(epsilon=e, x0=x0, M=M)) for e in eps_values]


def write_sweep_csv(stream: IO[str], diags: Sequence[BeamDiagnostics]) -> None:
    writer = csv.writer(stream)
    writer.writerow(["epsilon", "residual_norm", "E0", "offray_ratio",
                     "offray_bound", "h1_norm"])
    for d in diags:
        writer.writerow([
            f"{d.epsilon:.12g}", f"{d.residual_norm:.17g}", f"{d.E0:.17g}",
            f"{d.offray_ratio:.17g}", f"{d.offray_bound:.17g}", f"{d.h1_norm:.17g}",
        ])
