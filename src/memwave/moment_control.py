"""Moment-method synthesis of a moving control.

The terminal conditions (state, velocity, accumulated memory all zero at T)
are equivalent, mode by mode, to a family of linear constraints on the
moving-frame control:

    int_0^T int_{omega0} u(t,x) e^{-inx} e^{-conj(lambda(n,j)) t} dx dt
        = -2 pi (conj(mu(|n|,j)) y0_n + y1_n),
    int_0^T int_{omega0} u(t,x) e^{-conj(lambda(n,j)) t} dx dt = 0,

for 0 < |n| <= N, j in {1,2,3}.  The synthesized control is the canonical
minimum-norm element of L^2((0,T) x omega0) meeting all of them: a combination
of the constraint representers, with the coefficient system assembled from
closed-form time and arc integrals.  A separated-form synthesis u = b(x+ct)v(t)
through the dual exponential family is provided as an alternative route.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from typing import IO

import numpy as np

from .biorthogonal import (_equilibrated_solve, dual_family_gram, family_exponents,
                           family_index, gauss_legendre)
from .model import (
    TWO_PI,
    FourierField,
    InvalidParameterError,
    ModelParams,
    arc_exponential_integral,
    arcs_total_length,
    sobolev_norm,
)
from .spectrum import branch_roots

__all__ = [
    "MomentData",
    "ControlAtom",
    "ControlField",
    "TimeProfile",
    "UnscalableRowError",
    "SynthesisConditioningError",
    "moment_rhs",
    "synthesize_least_norm",
    "mean_zero_correction",
    "to_physical_frame",
    "synthesize_separated",
    "verify_moment_constraints",
    "duality_inequality_probe",
    "write_control_grid_csv",
]

# time samples per block when exponential sums are evaluated on long grids
_T_CHUNK = 4096


class UnscalableRowError(ValueError):
    """The separated profile b leaves a moment row without leverage."""


class SynthesisConditioningError(RuntimeError):
    def __init__(self, condition_number: float, N: int):
        self.condition_number = condition_number
        super().__init__(
            f"constraint system numerically singular (cond ~ {condition_number:.3e}); "
            f"reduce N below {N} or add regularization")


class FrameError(ValueError):
    """A control field was supplied in the wrong frame."""


# ---------------------------------------------------------------------------
# moment data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentData:
    """Right-hand sides of the truncated moment problem.

    `rhs` maps (n, j) to -2 pi (conj(mu(|n|,j)) y0_n + y1_n).
    """

    N: int
    rhs: dict[tuple[int, int], complex]
    data_norms: tuple[float, float]  # (H^3 of y0, H^2 of y1)


def _require_truncated(f: FourierField, N: int, name: str) -> None:
    for n, v in f.items():
        if abs(n) > N and v != 0.0:
            raise InvalidParameterError(
                f"{name} carries mode {n} beyond the truncation N={N}; "
                "the truncated moment problem only certifies represented modes")


def moment_rhs(y0: FourierField, y1: FourierField, params: ModelParams, N: int) -> MomentData:
    """Assemble the moment right-hand sides for data truncated at N."""
    _require_truncated(y0, N, "y0")
    _require_truncated(y1, N, "y1")
    roots = branch_roots(np.arange(1, N + 1), params.M)
    rhs: dict[tuple[int, int], complex] = {}
    for absn in range(1, N + 1):
        for n in (absn, -absn):
            for j in (1, 2, 3):
                mu = roots[absn - 1, j - 1]
                rhs[(n, j)] = -TWO_PI * (np.conj(mu) * y0.coeff(n) + y1.coeff(n))
    return MomentData(
        N=N,
        rhs=rhs,
        data_norms=(sobolev_norm(y0, 3.0), sobolev_norm(y1, 2.0)),
    )


# ---------------------------------------------------------------------------
# control fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlAtom:
    """One separable atom w * e^{imx} e^{-rate t}; mode None means constant in x."""

    mode: int | None
    rate: complex
    weight: complex


@dataclass(frozen=True)
class ControlField:
    """Space-time control with declared support.

    In the moving frame the value at (t, x) is the atom sum when x lies in
    the reference region; in the physical frame the support translates,
    u_phys(t, x) = u_moving(t, x + ct) on omega(t) = omega0 - ct.  A support
    of None means the whole torus (separated-form controls).
    """

    frame: str
    atoms: tuple[ControlAtom, ...]
    support0: tuple[tuple[float, float], ...] | None
    velocity: float
    T: float

    def __post_init__(self) -> None:
        if self.frame not in ("moving", "physical"):
            raise FrameError(f"unknown frame {self.frame!r}")

    # -- geometry -------------------------------------------------------------

    @property
    def support_length(self) -> float:
        return TWO_PI if self.support0 is None else arcs_total_length(self.support0)

    def arc_integral(self, p: int) -> complex:
        """int over the reference region of e^{ipx} dx."""
        if self.support0 is None:
            return complex(TWO_PI) if p == 0 else 0.0j
        return arc_exponential_integral(self.support0, p)

    def arc_integrals(self, p: np.ndarray) -> np.ndarray:
        """`arc_integral` over an integer array, one closed form per distinct value."""
        values, which = np.unique(p, return_inverse=True)
        arcs = np.array([self.arc_integral(int(q)) for q in values], dtype=complex)
        return arcs[which].reshape(p.shape)

    def atom_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(modes, rates, weights) of the atoms; a constant atom has mode 0."""
        modes = np.array([a.mode if a.mode is not None else 0 for a in self.atoms], dtype=int)
        rates = np.array([a.rate for a in self.atoms], dtype=complex)
        weights = np.array([a.weight for a in self.atoms], dtype=complex)
        return modes, rates, weights

    # -- evaluation -------------------------------------------------------------

    def _moving_values(self, t: np.ndarray, xi: np.ndarray) -> np.ndarray:
        out = np.zeros(np.broadcast(t, xi).shape, dtype=complex)
        for atom in self.atoms:
            phase = np.exp(-atom.rate * t)
            if atom.mode is not None:
                phase = phase * np.exp(1j * atom.mode * xi)
            out += atom.weight * phase
        return out

    def evaluate(self, t, x) -> np.ndarray:
        """Pointwise values; zero outside the (possibly moving) support."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        xi = x + self.velocity * t if self.frame == "physical" else x + 0.0 * t
        vals = self._moving_values(t, xi)
        if self.support0 is not None:
            wrapped = np.mod(xi + np.pi, TWO_PI) - np.pi
            inside = np.zeros(wrapped.shape, dtype=bool)
            for a, b in self.support0:
                inside |= (wrapped > a) & (wrapped < b)
            vals = np.where(inside, vals, 0.0)
        return vals

    def projection_matrix(self, modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mode projections of the masked control as sums over its distinct rates.

        Returns (rates, A): the mode-`modes[i]` Fourier coefficient of
        1_{omega0} u(t, .) in the moving frame is sum_r A[i, r] e^{-rates[r] t},
        where A[i, r] sums w_k I(m_k - n_i) / (2 pi) over the atoms k of rate
        rates[r].  The physical frame multiplies row i by e^{i n_i c t}.
        """
        modes = np.asarray(modes, dtype=int)
        atom_modes, atom_rates, weights = self.atom_arrays()
        P = self.arc_integrals(atom_modes[None, :] - modes[:, None]) * (weights / TWO_PI)
        rates, which = np.unique(atom_rates, return_inverse=True)
        A = np.zeros((len(modes), len(rates)), dtype=complex)
        np.add.at(A, (slice(None), which), P)
        return rates, A

    def mode_samples(self, modes: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Closed-form Fourier coefficients of the indicator-masked control.

        Row i holds, at the times `t` (1-D), the mode-`modes[i]` coefficient of
        1_{omega(t)} u(t, .); for the physical frame that is
        e^{inct}/(2 pi) * sum_k w_k I(m_k - n) e^{-rate_k t}.
        """
        modes = np.asarray(modes, dtype=int)
        t = np.asarray(t, dtype=float)
        rates, A = self.projection_matrix(modes)
        out = np.empty((len(modes), len(t)), dtype=complex)
        for lo in range(0, len(t), _T_CHUNK):
            block = t[lo:lo + _T_CHUNK]
            values = A @ np.exp(-np.outer(rates, block))
            if self.frame == "physical":
                values *= np.exp(1j * np.outer(modes * self.velocity, block))
            out[:, lo:lo + len(block)] = values
        return out

    def mode_projection(self, n: int, t: np.ndarray) -> np.ndarray:
        """`mode_samples` for the single mode n, at times of any shape."""
        t = np.asarray(t, dtype=float)
        return self.mode_samples(np.array([n]), t.ravel())[0].reshape(t.shape)

    # -- norms ----------------------------------------------------------------

    def l2_norm(self) -> float:
        """L^2 norm over (0, T) x support (frame independent by construction).

        With the weights summed into W (distinct modes x distinct rates),
        ||u||^2 = Re sum H o (W^T Arc conj(W)), H = int_0^T e^{-(r + conj r') t} dt
        and Arc = I(m - m'), so no atoms x atoms Gram is formed.
        """
        if not self.atoms:
            return 0.0
        modes, rates, w = self.atom_arrays()
        mode_set, mi = np.unique(modes, return_inverse=True)
        rate_set, ri = np.unique(rates, return_inverse=True)
        W = np.zeros((len(mode_set), len(rate_set)), dtype=complex)
        np.add.at(W, (mi, ri), w)
        arc = self.arc_integrals(mode_set[:, None] - mode_set[None, :])
        H = _halfline_time_integral(rate_set[:, None] + np.conj(rate_set)[None, :], self.T)
        return float(np.sqrt(max(np.real(np.sum(H * (W.T @ arc @ np.conj(W)))), 0.0)))

    # -- wire format -------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "frame": self.frame,
                "velocity": self.velocity,
                "T": self.T,
                "support0": None if self.support0 is None
                else [list(a) for a in self.support0],
                "atoms": [
                    [a.mode, a.rate.real, a.rate.imag, a.weight.real, a.weight.imag]
                    for a in self.atoms
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ControlField":
        raw = json.loads(text)
        atoms = tuple(
            ControlAtom(
                mode=None if m is None else int(m),
                rate=complex(rr, ri),
                weight=complex(wr, wi),
            )
            for m, rr, ri, wr, wi in raw["atoms"]
        )
        support = raw["support0"]
        return cls(
            frame=raw["frame"],
            atoms=atoms,
            support0=None if support is None else tuple(tuple(a) for a in support),
            velocity=float(raw["velocity"]),
            T=float(raw["T"]),
        )


@dataclass(frozen=True)
class TimeProfile:
    """Exponential-sum time profile v(t) = sum_k w_k e^{-rate_k t}."""

    atoms: tuple[tuple[complex, complex], ...]  # (rate, weight)

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for rate, wgt in self.atoms:
            out += wgt * np.exp(-rate * t)
        return out


# ---------------------------------------------------------------------------
# least-norm synthesis
# ---------------------------------------------------------------------------

def _halfline_time_integral(s: np.ndarray, T: float) -> np.ndarray:
    """int_0^T e^{-s t} dt, continued by T at s = 0."""
    s = np.asarray(s, dtype=complex)
    small = np.abs(s) * T < 1e-8
    ss = np.where(small, 1.0, s)
    return np.where(small, T * (1.0 - s * T / 2.0 + (s * T) ** 2 / 6.0),
                    (1.0 - np.exp(-ss * T)) / ss)


def _representer_gram(modes: np.ndarray, rates: np.ndarray, field_like, T: float) -> np.ndarray:
    """Gram <g_k, g_l> of atoms e^{im x} e^{-rate t} on (0,T) x support."""
    arc = field_like.arc_integrals(modes[:, None] - modes[None, :])
    s = rates[:, None] + np.conj(rates)[None, :]
    return arc * _halfline_time_integral(s, T)


def _assemble_constraints(params: ModelParams, N: int):
    """Representer modes/rates and row labels of the full constraint set."""
    index = family_index(N)
    lam = family_exponents(params, N, apply_resonance_convention=True)
    modes = np.array([n for n, _ in index] + [0 for _ in index])
    rates = np.concatenate([lam, lam])
    labels = [("mode", n, j) for n, j in index] + [("mean", n, j) for n, j in index]
    return index, modes, rates, labels


def synthesize_least_norm(
    params: ModelParams, md: MomentData, regularization: float = 0.0
) -> ControlField:
    """Minimum-norm moving-frame control meeting every moment constraint.

    The control is expanded over the constraint representers; the coefficient
    system is the representer Gram (closed-form time and arc integrals),
    solved by the equilibrated, refined solver shared with the dual family.
    `verify_moment_constraints` re-checks the result by pure quadrature,
    sharing nothing with this assembly.
    """
    if not params.supercritical_time:
        warnings.warn(
            f"T = {params.T} is below the synthesis threshold "
            f"{params.minimal_time:.6f}; the constraint system degrades and "
            "the control norm is expected to blow up", stacklevel=2)
    N = md.N
    index, modes, rates, labels = _assemble_constraints(params, N)
    carrier = ControlField(frame="moving", atoms=(), support0=params.omega0,
                           velocity=params.c, T=params.T)
    S = _representer_gram(modes, rates, carrier, params.T)
    rhs = np.array([md.rhs[(n, j)] for n, j in index] + [0.0] * len(index),
                   dtype=complex)

    def gate(cond: float, spread: float) -> None:
        if not np.isfinite(cond) or cond > 1e15:
            raise SynthesisConditioningError(cond, N)

    kappa, *_ = _equilibrated_solve(S.T.copy(), rhs, regularization, gate)
    atoms = []
    for k, (kind, n, j) in enumerate(labels):
        if kappa[k] == 0.0:
            continue
        atoms.append(ControlAtom(
            mode=n if kind == "mode" else None,
            rate=complex(rates[k]),
            weight=complex(kappa[k]),
        ))
    return ControlField(frame="moving", atoms=tuple(atoms), support0=params.omega0,
                        velocity=params.c, T=params.T)


def mean_zero_correction(u: ControlField) -> ControlField:
    """Subtract the instantaneous spatial mean over the support.

    Closed form: each atom w e^{imx} e^{-rate t} contributes a constant-in-x
    atom -w I(m)/|omega0| e^{-rate t}; existing constant atoms cancel exactly.
    The corrected field satisfies the mean-zero constraint identically and
    leaves the mode-type moment rows untouched.
    """
    if u.frame != "moving":
        raise FrameError("mean-zero correction applies to the moving frame")
    length = u.support_length
    const_weights: dict[complex, complex] = {}
    kept = []
    for atom in u.atoms:
        if atom.mode is None:
            continue  # equals its own mean; removed by the correction
        kept.append(atom)
        arc = u.arc_integral(atom.mode)
        if arc != 0.0:
            key = complex(atom.rate)
            const_weights[key] = const_weights.get(key, 0.0) - atom.weight * arc / length
    corrections = tuple(
        ControlAtom(mode=None, rate=rate, weight=wgt)
        for rate, wgt in sorted(const_weights.items(), key=lambda kv: (kv[0].real, kv[0].imag))
        if wgt != 0.0
    )
    return ControlField(frame="moving", atoms=tuple(kept) + corrections,
                        support0=u.support0, velocity=u.velocity, T=u.T)


def to_physical_frame(u: ControlField) -> ControlField:
    """Reinterpret a moving-frame control in the physical frame.

    u_phys(t, x) = u(t, x + ct); the support translates to omega0 - ct and the
    L^2 norm is preserved (measure-preserving shift at every time).
    """
    if u.frame != "moving":
        raise FrameError("expected a moving-frame control")
    return ControlField(frame="physical", atoms=u.atoms, support0=u.support0,
                        velocity=u.velocity, T=u.T)


# ---------------------------------------------------------------------------
# separated-form synthesis
# ---------------------------------------------------------------------------

def synthesize_separated(
    params: ModelParams, md: MomentData, b: FourierField,
    regularization: float = 0.0,
) -> tuple[TimeProfile, ControlField]:
    """Control of the separated form u(t, x) = b(x + ct) v(t).

    Every moment row scales through the matching Fourier coefficient of b, so
    b must have b_n != 0 for all 0 < |n| <= N.  The time profile is a shifted
    combination of the dual family on (-T/2, T/2):

        v(t) = sum d(n,j) theta(n,j)(t - T/2),
        d(n,j) = e^{conj(lambda) T/2} rhs(n,j) / (2 pi b_n).

    The mean-zero constraint holds automatically since b has no zero mode.
    """
    N = md.N
    for n in [m for m in range(-N, N + 1) if m != 0]:
        if b.coeff(n) == 0.0:
            raise UnscalableRowError(
                f"b has a vanishing coefficient at mode {n}; the ({n}, j) "
                "moment rows cannot be scaled")
    family = dual_family_gram(params, N, regularization=regularization)
    lam = family.exponents
    d = np.array(
        [np.exp(np.conj(lam[i]) * params.T / 2.0) * md.rhs[key] / (TWO_PI * b.coeff(key[0]))
         for i, key in enumerate(family.index)],
        dtype=complex)
    # v(t) = sum_a V_a e^{-lambda_a (t - T/2)}
    V = family.coefficients.T @ d
    profile = TimeProfile(atoms=tuple(
        (complex(lam[a]), complex(V[a] * np.exp(lam[a] * params.T / 2.0)))
        for a in range(len(lam)) if V[a] != 0.0
    ))
    atoms = []
    for n, bn in b.items():
        if bn == 0.0:
            continue
        for rate, wgt in profile.atoms:
            atoms.append(ControlAtom(mode=n, rate=rate, weight=bn * wgt))
    field = ControlField(frame="moving", atoms=tuple(atoms), support0=None,
                         velocity=params.c, T=params.T)
    return profile, field


# ---------------------------------------------------------------------------
# independent verification
# ---------------------------------------------------------------------------

def verify_moment_constraints(
    u: ControlField, md: MomentData, params: ModelParams, n_quad: int = 800
) -> tuple[float, float, np.ndarray]:
    """Re-integrate the control against every constraint functional.

    Both axes are quadratured (Gauss-Legendre in t; per-arc Gauss-Legendre in
    x), so the check shares nothing with the closed-form assembly.  Returns
    (max_abs_residual, rms_residual, residual_vector) over the mode rows
    followed by the mean rows.
    """
    if u.frame != "moving":
        raise FrameError("moment constraints are posed in the moving frame")
    N = md.N
    index = family_index(N)
    lam = family_exponents(params, N, apply_resonance_convention=True)
    tn, tw = gauss_legendre(n_quad)
    t = 0.5 * params.T * (tn + 1.0)
    wt = 0.5 * params.T * tw
    arcs = u.support0 if u.support0 is not None else ((-np.pi, np.pi),)
    xn, xw = gauss_legendre(64)
    x = np.concatenate([0.5 * (b - a) * xn + 0.5 * (a + b) for a, b in arcs])
    wxv = np.concatenate([0.5 * (b - a) * xw for a, b in arcs])
    modes, rates, weights = u.atom_arrays()
    # the atom sum on the (q_t, q_x) tensor grid as one product, with the
    # time exponentials taken once per distinct rate
    distinct, which = np.unique(rates, return_inverse=True)
    decay = np.exp(-np.outer(t, distinct))[:, which]
    vals = (decay * weights) @ np.exp(1j * np.outer(modes, x))
    tker = np.exp(-np.outer(np.conj(lam), t)) * wt                 # (rows, q_t)
    xker = np.exp(-1j * np.outer([n for n, _ in index], x)) * wxv   # (rows, q_x)
    time_integrals = tker @ vals                                    # (rows, q_x)
    target = np.array([md.rhs[key] for key in index], dtype=complex)
    residuals = np.concatenate([np.sum(time_integrals * xker, axis=1) - target,
                                time_integrals @ wxv])
    res = np.abs(residuals)
    return float(res.max()), float(np.sqrt(np.mean(res**2))), residuals


def duality_inequality_probe(
    params: ModelParams,
    y0: FourierField,
    y1: FourierField,
    N: int,
    n_draws: int = 100,
    seed: int = 42,
) -> np.ndarray:
    """Realized constants of the synthesis inequality over random coefficients.

    For seeded random finite sets (a, b) the ratio
        |sum (conj(mu) y0 + y1) a|^2 / ||sum b e^{-lambda t} + sum a e^{inx} e^{-lambda t}||^2
    is returned per draw; finiteness across draws is the verified property.
    """
    md = moment_rhs(y0, y1, params, N)
    index, modes, rates, _ = _assemble_constraints(params, N)
    carrier = ControlField(frame="moving", atoms=(), support0=params.omega0,
                           velocity=params.c, T=params.T)
    S = _representer_gram(modes, rates, carrier, params.T)
    weights = np.array([md.rhs[key] / (-TWO_PI) for key in index], dtype=complex)
    rng = np.random.default_rng(seed)
    ratios = np.empty(n_draws)
    for it in range(n_draws):
        a = rng.standard_normal(len(index)) + 1j * rng.standard_normal(len(index))
        bcoef = rng.standard_normal(len(index)) + 1j * rng.standard_normal(len(index))
        lhs = abs(np.sum(np.conj(weights) * a * TWO_PI)) ** 2
        cvec = np.concatenate([a, bcoef])
        rhs = float(np.real(cvec @ S @ np.conj(cvec)))
        ratios[it] = lhs / rhs
    return ratios


def write_control_grid_csv(
    stream: IO[str], u: ControlField, n_t: int = 60, n_x: int = 120
) -> None:
    """Grid dump (t, x, Re u, Im u) on uniform sampling of (0, T) x [-pi, pi)."""
    writer = csv.writer(stream)
    writer.writerow(["t", "x", "re_u", "im_u"])
    ts = np.linspace(0.0, u.T, n_t)
    xs = np.linspace(-np.pi, np.pi, n_x, endpoint=False)
    vals = u.evaluate(ts[:, None], xs[None, :])
    for i, t in enumerate(ts):
        for k, x in enumerate(xs):
            v = vals[i, k]
            writer.writerow([f"{t:.12g}", f"{x:.12g}", f"{v.real:.17g}", f"{v.imag:.17g}"])
