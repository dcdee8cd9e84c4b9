"""Shared domain types: physical configuration, torus Fourier fields, Sobolev norms.

Conventions used throughout the package:

* mean-zero periodic functions on the torus are stored as truncated Fourier
  expansions  f(x) = sum_{0 < |n| <= N} f_n e^{inx}  (no n = 0 entry);
* with the 1/(2*pi) normalisation of the L^2 inner product, every Sobolev-scale
  norm is a pure coefficient sum, so norm checks involve no quadrature;
* open arcs on the torus are kept with endpoints in [-pi, pi); arcs crossing
  the seam at +-pi are split into two pieces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "ModelParams",
    "FourierField",
    "StateTriple",
    "sobolev_norm",
    "state_norm",
    "normalize_arcs",
    "arcs_total_length",
    "arc_exponential_integral",
    "shift_arcs",
    "point_in_arcs",
    "minimal_control_time",
]


class InvalidParameterError(ValueError):
    """A physical or numerical parameter violates a model precondition."""


class DimensionError(ValueError):
    """Operands carry incompatible mode truncations."""


# ---------------------------------------------------------------------------
# arc arithmetic on the torus
# ---------------------------------------------------------------------------

def _wrap(x: float) -> float:
    """Map x to the fundamental interval [-pi, pi)."""
    y = math.fmod(x + math.pi, TWO_PI)
    if y < 0.0:
        y += TWO_PI
    return y - math.pi


def normalize_arcs(arcs: Iterable[Sequence[float]]) -> tuple[tuple[float, float], ...]:
    """Normalise a list of open arcs (a, b) to endpoints in [-pi, pi).

    Arcs are given with a < b and length b - a < 2*pi; an arc crossing the
    seam at +-pi is split in two.  Degenerate (zero-length) arcs are rejected.
    """
    out: list[tuple[float, float]] = []
    for a, b in arcs:
        a, b = float(a), float(b)
        if not b > a:
            raise InvalidParameterError(f"arc ({a}, {b}) has nonpositive length")
        if b - a >= TWO_PI:
            raise InvalidParameterError(f"arc ({a}, {b}) covers the whole torus")
        aw = _wrap(a)
        bw = aw + (b - a)
        if bw <= math.pi:
            out.append((aw, bw))
        else:
            out.append((aw, math.pi))
            out.append((-math.pi, bw - TWO_PI))
    return tuple(sorted(out))


def arcs_total_length(arcs: Sequence[tuple[float, float]]) -> float:
    return float(sum(b - a for a, b in arcs))


def arc_exponential_integral(arcs: Sequence[tuple[float, float]], p: int) -> complex:
    """Closed form of the arc integral  int_{union of arcs} e^{ipx} dx."""
    if p == 0:
        return complex(arcs_total_length(arcs))
    total = 0.0 + 0.0j
    ip = 1j * p
    for a, b in arcs:
        total += (np.exp(ip * b) - np.exp(ip * a)) / ip
    return complex(total)


def shift_arcs(arcs: Sequence[tuple[float, float]], delta: float) -> tuple[tuple[float, float], ...]:
    """Translate arcs by delta on the torus (renormalised to [-pi, pi))."""
    return normalize_arcs([(a + delta, b + delta) for a, b in arcs])


def point_in_arcs(x: float, arcs: Sequence[tuple[float, float]]) -> bool:
    xw = _wrap(x)
    return any(a < xw < b for a, b in arcs)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def minimal_control_time(c: float) -> float:
    """Threshold horizon 2*pi*(1/|c| + 1/|1-c| + 1/|1+c|) for the synthesis window."""
    return TWO_PI * (1.0 / abs(c) + 1.0 / abs(1.0 - c) + 1.0 / abs(1.0 + c))


_EXCLUDED_VELOCITIES = (-1.0, 0.0, 1.0)


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical configuration shared by every pipeline.

    Attributes
    ----------
    M : float
        Memory coupling; M = 0 removes the memory term and is excluded.
    c : float
        Control velocity; c in {-1, 0, 1} puts an accumulation point in the
        moving-frame spectrum and is excluded.
    T : float
        Time horizon (positive).
    omega0 : tuple of (a, b) arcs
        Reference control region on [-pi, pi), nonempty, total length < 2*pi.
    N : int
        Mode truncation; the model space is span{e^{inx} : 0 < |n| <= N}.
    sigma : float
        Sobolev order of the state scale (nonnegative).
    """

    M: float
    c: float
    T: float
    omega0: tuple[tuple[float, float], ...]
    N: int
    sigma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("M", "c", "T", "sigma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameterError(
                    f"{name} = {value} is not a finite number; every spectral "
                    "and control quantity of the model would be undefined")
        if self.M == 0.0:
            raise InvalidParameterError(
                "M = 0 removes the memory term entirely (plain wave equation); "
                "the memory model requires M != 0")
        if self.c in _EXCLUDED_VELOCITIES:
            raise InvalidParameterError(
                f"c = {self.c} makes the moving-frame spectrum accumulate at a "
                "finite point, so no uniform gap exists; c must avoid {-1, 0, 1}")
        if not self.T > 0.0:
            raise InvalidParameterError("T must be positive")
        if self.N < 1:
            raise InvalidParameterError("N must be a positive integer")
        if self.sigma < 0.0:
            raise InvalidParameterError("sigma must be nonnegative")
        arcs = normalize_arcs(self.omega0)
        if not arcs:
            raise InvalidParameterError("omega0 must be nonempty")
        if not arcs_total_length(arcs) < TWO_PI:
            raise InvalidParameterError("omega0 must have total length < 2*pi")
        object.__setattr__(self, "omega0", arcs)

    @property
    def minimal_time(self) -> float:
        return minimal_control_time(self.c)

    @property
    def supercritical_time(self) -> bool:
        """True iff the horizon exceeds the synthesis threshold."""
        return self.T > self.minimal_time

    @property
    def grid_size(self) -> int:
        """Alias-free grid size: smallest power of two >= 4(N+1)."""
        k = 1
        while k < 4 * (self.N + 1):
            k *= 2
        return k

    # -- JSON wire format ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "M": self.M,
                "c": self.c,
                "T": self.T,
                "omega0": [list(arc) for arc in self.omega0],
                "N": self.N,
                "sigma": self.sigma,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        raw = json.loads(text)
        return cls(
            M=float(raw["M"]),
            c=float(raw["c"]),
            T=float(raw["T"]),
            omega0=tuple((float(a), float(b)) for a, b in raw["omega0"]),
            N=int(raw["N"]),
            sigma=float(raw.get("sigma", 0.0)),
        )


# ---------------------------------------------------------------------------
# Fourier fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FourierField:
    """Mean-zero function on the torus as a vector of Fourier coefficients.

    ``values[k]`` holds the coefficient of e^{inx} for n = k - N; the n = 0
    slot is identically zero, which encodes the mean-zero constraint.
    """

    N: int
    values: np.ndarray = field(repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FourierField):
            return NotImplemented
        return self.N == other.N and bool(np.array_equal(self.values, other.values))

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (2 * self.N + 1,):
            raise DimensionError(
                f"expected {2 * self.N + 1} coefficients for N={self.N}, "
                f"got shape {vals.shape}")
        vals = vals.copy()
        vals[self.N] = 0.0
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, N: int) -> "FourierField":
        return cls(N, np.zeros(2 * N + 1, dtype=complex))

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[int, complex], N: int) -> "FourierField":
        vals = np.zeros(2 * N + 1, dtype=complex)
        for n, v in coeffs.items():
            if n == 0:
                raise InvalidParameterError("mean-zero field cannot carry an n = 0 mode")
            if abs(n) > N:
                raise DimensionError(f"mode {n} outside truncation N={N}")
            vals[n + N] = v
        return cls(N, vals)

    # -- access ----------------------------------------------------------------

    def coeff(self, n: int) -> complex:
        if abs(n) > self.N:
            return 0.0 + 0.0j
        return complex(self.values[n + self.N])

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.N, self.N + 1)

    def items(self) -> Iterator[tuple[int, complex]]:
        for n in range(-self.N, self.N + 1):
            if n != 0:
                yield n, complex(self.values[n + self.N])

    @property
    def real_valued(self) -> bool:
        """True when f(-n) = conj(f(n)) for every stored mode."""
        rev = self.values[::-1]
        return bool(np.allclose(rev, np.conj(self.values), rtol=0.0, atol=1e-12))

    def __add__(self, other: "FourierField") -> "FourierField":
        if other.N != self.N:
            raise DimensionError("truncation mismatch")
        return FourierField(self.N, self.values + other.values)

    def __mul__(self, scalar: complex) -> "FourierField":
        return FourierField(self.N, self.values * scalar)

    __rmul__ = __mul__

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate sum f_n e^{inx} at arbitrary points."""
        x = np.asarray(x, dtype=float)
        n = self.modes.reshape(-1, 1)
        return (self.values.reshape(-1, 1) * np.exp(1j * n * x.reshape(1, -1))).sum(axis=0).reshape(x.shape)


def sobolev_norm(f: FourierField, sigma: float) -> float:
    """Coefficient form (sum_{n != 0} |n|^{2 sigma} |f_n|^2)^{1/2}.

    Negative sigma gives the dual-scale norms.  The empty field has norm 0.
    """
    n = f.modes.astype(float)
    mask = n != 0.0
    w = np.abs(n[mask]) ** (2.0 * sigma)
    return float(np.sqrt(np.sum(w * np.abs(f.values[mask]) ** 2)))


@dataclass(frozen=True)
class StateTriple:
    """Three-component state: forward (y, y_t, z) or adjoint (phi, phi_t, psi)."""

    first: FourierField
    second: FourierField
    third: FourierField

    def __post_init__(self) -> None:
        if not (self.first.N == self.second.N == self.third.N):
            raise DimensionError("state components must share a truncation")

    @property
    def N(self) -> int:
        return self.first.N

    @classmethod
    def zero(cls, N: int) -> "StateTriple":
        return cls(FourierField.zero(N), FourierField.zero(N), FourierField.zero(N))


def state_norm(s: StateTriple, sigma: float) -> float:
    """Norm of the state scale with component orders (-sigma, -sigma-1, -sigma)."""
    return float(
        math.sqrt(
            sobolev_norm(s.first, -sigma) ** 2
            + sobolev_norm(s.second, -sigma - 1.0) ** 2
            + sobolev_norm(s.third, -sigma) ** 2
        )
    )
