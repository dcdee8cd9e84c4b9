"""Dual family of the complex exponentials e^{-lambda(n,j) t} on (-T/2, T/2).

Two complementary constructions live here:

* an infinite-product evaluator P(z) = z^3 prod (1 + z / (i conj(lambda)))
  whose zeros, exponential type and derivative lower bounds certify the
  structure of the exponential family (validation path);
* a finite Gram dual: the minimum-norm biorthogonal family of the truncated
  exponential system, obtained by inverting the closed-form window Gram
  matrix (synthesis path).

The product is evaluated in log-domain with conjugate-pair grouping; factors
beyond the truncation are folded in through a second-order series whose
coefficient sums reduce to polygamma values.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np
from scipy.special import polygamma

from .model import InvalidParameterError, ModelParams
from .spectrum import detect_resonance, shifted_spectrum_arrays, spectrum_modes

__all__ = [
    "NuSequence",
    "ProductValue",
    "ProductEvaluator",
    "BiorthogonalAtom",
    "DualFamily",
    "ConditioningError",
    "DoubleZeroError",
    "family_index",
    "family_exponents",
    "window_gram",
    "dual_family_gram",
    "gauss_legendre",
    "verify_biorthogonality",
    "summation_inequality_check",
    "write_atoms_csv",
]


class ConditioningError(RuntimeError):
    """The window Gram system cannot support a certified dual family."""

    def __init__(self, condition_number: float, message: str | None = None):
        self.condition_number = condition_number
        super().__init__(
            message
            or f"Gram matrix numerically singular (cond ~ {condition_number:.3e}); "
            "add Tikhonov regularization or reduce N")


class DoubleZeroError(RuntimeError):
    """Two exponents coincide, so the product has a double zero."""


# ---------------------------------------------------------------------------
# family bookkeeping
# ---------------------------------------------------------------------------

def family_index(N: int) -> tuple[tuple[int, int], ...]:
    """Index list [(n, j)] over 0 < |n| <= N, j in {1,2,3}, in a fixed order."""
    out = []
    for j in (1, 2, 3):
        for n in list(range(-N, 0)) + list(range(1, N + 1)):
            out.append((n, j))
    return tuple(out)


def family_exponents(
    params: ModelParams, N: int, apply_resonance_convention: bool = True
) -> np.ndarray:
    """Exponents lambda(n, j) ordered like `family_index`.

    A resonant collision is split by the replacement convention (default on),
    so the returned exponents are pairwise distinct for any admissible c.
    """
    lam = shifted_spectrum_arrays(params, N, apply_resonance_convention)
    return np.concatenate([lam[1], lam[2], lam[3]])


# ---------------------------------------------------------------------------
# the rescaled sequences and the infinite product
# ---------------------------------------------------------------------------

_BRANCH_SCALES = {1: lambda c: c, 2: lambda c: c + 1.0, 3: lambda c: c - 1.0}
_BRANCH_CONSTANTS = {
    1: lambda M, c: M / c,
    2: lambda M, c: -M / (2.0 * (c + 1.0)),
    3: lambda M, c: -M / (2.0 * (c - 1.0)),
}


@dataclass(frozen=True)
class NuSequence:
    """Branch exponents rescaled by c_j in {c, c+1, c-1}; nu(-n) = conj(nu(n)).

    nu(n) - i n approaches the branch constant (M/c, -M/2(c+1), -M/2(c-1))
    with an O(1/n) remainder.
    """

    j: int
    scale: float
    modes: np.ndarray
    values: np.ndarray

    @classmethod
    def from_params(cls, params: ModelParams, j: int, N: int) -> "NuSequence":
        if j not in (1, 2, 3):
            raise InvalidParameterError("branch must be 1, 2 or 3")
        scale = _BRANCH_SCALES[j](params.c)
        vp = shifted_spectrum_arrays(params, N)[j][N:] / scale
        values = np.concatenate([np.conj(vp)[::-1], vp])
        return cls(j=j, scale=scale, modes=spectrum_modes(N), values=values)


def branch_limit_constant(params: ModelParams, j: int) -> float:
    return _BRANCH_CONSTANTS[j](params.M, params.c)


@dataclass(frozen=True)
class ProductValue:
    value: complex
    log_abs: float
    tail_log: complex
    truncation_error: float


class ProductEvaluator:
    """Truncated evaluation of P(z) = z^3 prod (1 + z/(i conj(lambda(n,j)))).

    Factors are grouped into the conjugate pairs (lambda(n,1), lambda(-n,1)),
    (lambda(n,2), lambda(-n,3)), (lambda(n,3), lambda(-n,2)) for n >= 1, which
    makes the partial products absolutely convergent.  Evaluation accumulates
    principal logs, so products of tens of thousands of factors neither
    overflow nor lose the phase.
    """

    def __init__(
        self,
        params: ModelParams,
        n_prod: int,
        apply_resonance_convention: bool = False,
    ):
        if n_prod < 100:
            raise InvalidParameterError("n_prod must be at least 100")
        self.params = params
        self.n_prod = int(n_prod)
        N = self.n_prod
        lam = shifted_spectrum_arrays(params, N, apply_resonance_convention)
        # pair members: A carries the positive mode n, B its partner at -n,
        # with lam_b[2] = conj(lam_a[2]) and lam_b[3] = conj(lam_a[3]) unless
        # the resonance convention moved lambda(-n_c, 2)
        self.lam_a = {p: lam[p][N:] for p in (1, 2, 3)}
        self.lam_b = {p: lam[q][N - 1::-1] for p, q in ((1, 1), (2, 3), (3, 2))}
        self.resonance = detect_resonance(params, N)
        self.resonance_adjusted = apply_resonance_convention and self.resonance is not None
        # zero locations z = -i conj(lambda)
        self.root_a = {p: -1j * np.conj(self.lam_a[p]) for p in (1, 2, 3)}
        self.root_b = {p: -1j * np.conj(self.lam_b[p]) for p in (1, 2, 3)}
        self._tail_coeffs = self._prepare_tail()

    # -- tail ---------------------------------------------------------------

    def _prepare_tail(self) -> dict:
        M, c = self.params.M, self.params.c
        N = self.n_prod
        psi1 = float(polygamma(1, N + 1))
        psi3_over6 = float(polygamma(3, N + 1)) / 6.0
        scales = {1: c, 2: c + 1.0, 3: c - 1.0}
        offsets = {
            1: M * M,
            2: M * M * (3.0 * c + 4.0) / 4.0,
            3: M * M * (4.0 - 3.0 * c) / 4.0,
        }
        re_parts = {1: M, 2: -M / 2.0, 3: -M / 2.0}
        t1, t2, re = {}, {}, {}
        for p in (1, 2, 3):
            a2 = scales[p] ** 2
            q = offsets[p] / a2
            t1[p] = (psi1 - q * psi3_over6) / a2
            t2[p] = psi3_over6 / (a2 * a2)
            re[p] = re_parts[p]
        err_scale = psi1 * sum(1.0 / scales[p] ** 2 for p in (1, 2, 3))
        return {"t1": t1, "t2": t2, "re": re, "err_scale": err_scale}

    def _tail_log(self, z: complex) -> complex:
        tc = self._tail_coeffs
        total = 0.0 + 0.0j
        for p in (1, 2, 3):
            u_num = -2j * tc["re"][p] * z - z * z
            total += u_num * tc["t1"][p] - 0.5 * u_num * u_num * tc["t2"][p]
        return total

    # -- evaluation -----------------------------------------------------------

    def _pair_factors(self, z: complex, p: int) -> np.ndarray:
        ra, rb = self.root_a[p], self.root_b[p]
        return (1.0 - z / ra) * (1.0 - z / rb)

    def evaluate(self, z: complex) -> ProductValue:
        """P(z) with tail correction; log_abs stays finite when value overflows."""
        z = complex(z)
        tail = self._tail_log(z)
        err = abs(z) ** 2 * self._tail_coeffs["err_scale"]
        if z == 0.0:
            return ProductValue(0.0j, -math.inf, tail, err)
        log_sum = 3.0 * np.log(complex(z)) + tail
        zero_hit = False
        for p in (1, 2, 3):
            factors = self._pair_factors(z, p)
            if np.any(factors == 0.0):
                zero_hit = True
                continue
            log_sum += np.sum(np.log(factors))
        if zero_hit:
            return ProductValue(0.0j, -math.inf, tail, err)
        log_abs = float(log_sum.real)
        value = complex(np.exp(log_sum)) if log_abs < 700.0 else complex(np.inf, np.inf)
        return ProductValue(value, log_abs, tail, err)

    def evaluate_branch(self, j: int, w: complex) -> complex:
        """Sine-type component P_j(w) = w prod (1 + w/(i conj(nu(n, j)))).

        The rescaled exponents nu are the stored pair members divided by the
        branch scale, so P(z) = prod_j c_j P_j(z / c_j) holds exactly.
        """
        c_j = _BRANCH_SCALES[j](self.params.c)
        ra = self.root_a[j] / c_j
        rb = self.root_b[j] / c_j
        w = complex(w)
        if w == 0.0:
            return 0.0j
        log_sum = np.log(complex(w)) + np.sum(np.log((1.0 - w / ra) * (1.0 - w / rb)))
        return complex(np.exp(log_sum))

    def evaluate_factored(self, z: complex) -> complex:
        """c1 c2 c3 P_1(z/c1) P_2(z/c2) P_3(z/c3); agrees with `evaluate`."""
        c = self.params.c
        out = 1.0 + 0.0j
        for j in (1, 2, 3):
            c_j = _BRANCH_SCALES[j](c)
            out *= c_j * self.evaluate_branch(j, z / c_j)
        return out * complex(np.exp(self._tail_log(z)))

    # -- zeros and the derivative ---------------------------------------------

    def _locate(self, m: int, j: int) -> tuple[int, int, str]:
        """Map a family label (m, j) to (pair branch, array index, member)."""
        if m == 0 or abs(m) > self.n_prod or j not in (1, 2, 3):
            raise InvalidParameterError(f"label ({m}, {j}) outside the truncated family")
        if m > 0:
            return j, m - 1, "a"
        partner = {1: 1, 3: 2, 2: 3}[j]
        return partner, -m - 1, "b"

    def zero_location(self, m: int, j: int) -> complex:
        p, i, member = self._locate(m, j)
        roots = self.root_a if member == "a" else self.root_b
        return complex(roots[p][i])

    def derivative_at_zero(self, m: int, j: int) -> complex:
        """P'(-i conj(lambda(m, j))) as the product of the surviving factors.

        Analytic derivative of a simple zero: the vanishing linear factor is
        differentiated, every other factor is evaluated at the zero.  Raises
        DoubleZeroError when another exponent collides with this one.
        """
        p0, i0, member0 = self._locate(m, j)
        z0 = self.zero_location(m, j)
        root0 = self.root_a[p0][i0] if member0 == "a" else self.root_b[p0][i0]
        log_sum = 3.0 * np.log(complex(z0)) + self._tail_log(z0) - np.log(root0 * (-1.0))
        for p in (1, 2, 3):
            ra, rb = self.root_a[p], self.root_b[p]
            fa = 1.0 - z0 / ra
            fb = 1.0 - z0 / rb
            if p == p0:
                if member0 == "a":
                    fa[i0] = 1.0
                else:
                    fb[i0] = 1.0
            both = fa * fb
            if np.any(both == 0.0):
                k = int(np.nonzero(both == 0.0)[0][0])
                raise DoubleZeroError(
                    f"exponent collision: zero of ({m},{j}) coincides with pair "
                    f"(n={k + 1}, branch {p}); apply the resonance splitting first")
            log_sum += np.sum(np.log(both))
        return complex(np.exp(log_sum))


def dP_at_eigen(m: int, j: int, params: ModelParams, n_prod: int,
                apply_resonance_convention: bool = False) -> complex:
    """Convenience wrapper building a one-shot evaluator for P'."""
    ev = ProductEvaluator(params, n_prod, apply_resonance_convention)
    return ev.derivative_at_zero(m, j)


# ---------------------------------------------------------------------------
# the Gram dual
# ---------------------------------------------------------------------------

def window_gram(exponents: np.ndarray, T: float) -> np.ndarray:
    """Closed-form Gram of {e^{-lambda t}} on (-T/2, T/2).

    Entry (a, b) is (e^{s T/2} - e^{-s T/2}) / s with s = lambda_a + conj(lambda_b),
    continued by its limit T when s vanishes.
    """
    lam = np.asarray(exponents, dtype=complex)
    s = lam[:, None] + np.conj(lam)[None, :]
    x = 0.5 * T * s
    small = np.abs(x) < 1e-6
    xs = np.where(small, 1.0, x)
    out = np.where(
        small,
        T * (1.0 + x * x / 6.0 + x**4 / 120.0),
        T * np.sinh(xs) / xs,
    )
    return out.astype(complex)


@dataclass(frozen=True)
class BiorthogonalAtom:
    """One dual function theta(m, k) = sum_a coeffs[a] e^{-lambda_a t}."""

    m: int
    k: int
    coeffs: np.ndarray
    norm: float

    def time_samples(self, t: np.ndarray, exponents: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.exp(-np.outer(t, exponents)) @ self.coeffs


@dataclass(frozen=True)
class DualFamily:
    params: ModelParams
    N: int
    index: tuple[tuple[int, int], ...]
    exponents: np.ndarray
    gram: np.ndarray
    atoms: tuple[BiorthogonalAtom, ...]
    condition_number: float
    regularization: float

    def atom(self, m: int, k: int) -> BiorthogonalAtom:
        return self.atoms[self.index.index((m, k))]

    @property
    def coefficient_matrix(self) -> np.ndarray:
        return np.vstack([a.coeffs for a in self.atoms])


def dual_family_gram(
    params: ModelParams,
    N: int,
    regularization: float = 0.0,
    apply_resonance_convention: bool = True,
) -> DualFamily:
    """Minimum-norm dual family of the truncated exponential system.

    Solves W (G + reg I) = I for the closed-form window Gram G; row (m, k) of
    W gives theta(m, k) as a combination of the family exponentials, with
    ||theta||^2 = Re(w G w*).  Near-coincident exponents surface as a large
    condition number rather than being silently absorbed.
    """
    if regularization < 0.0:
        raise InvalidParameterError("regularization must be nonnegative")
    index = family_index(N)
    lam = family_exponents(params, N, apply_resonance_convention)
    G = window_gram(lam, params.T)
    # exponentials with opposite-sign real parts make the raw Gram span many
    # orders of magnitude; equilibrating by the member norms separates that
    # scale spread from genuine near-dependence in the solve
    A = G + regularization * np.eye(len(G))
    d = 1.0 / np.sqrt(np.abs(np.diag(A).real))
    As = A * d[:, None] * d[None, :]
    cond = float(np.linalg.cond(As))
    spread = float(d.max() / d.min())
    if regularization == 0.0:
        if not np.isfinite(cond) or cond > 1e14:
            raise ConditioningError(cond)
        # the pairing certificate re-amplifies by the norm spread, so the
        # achievable biorthogonality floor is ~ eps * cond * spread
        if cond * spread * 1e-16 > 1e-6:
            raise ConditioningError(
                cond,
                f"family norms span a factor {spread:.3e} with cond ~ {cond:.3e}; "
                "the dual pairing cannot be certified at double precision "
                "(reduce |M| * T or N, or add regularization)")
    Ws = np.linalg.solve(As, np.eye(len(As), dtype=complex))
    for _ in range(2):
        Ws = Ws + Ws @ (np.eye(len(As)) - As @ Ws)
    W = Ws * d[:, None] * d[None, :]
    atoms = []
    for i, (m, k) in enumerate(index):
        w = W[i]
        norm2 = float(np.real(w @ G @ np.conj(w)))
        atoms.append(BiorthogonalAtom(m=m, k=k, coeffs=w.copy(), norm=math.sqrt(max(norm2, 0.0))))
    return DualFamily(
        params=params,
        N=N,
        index=index,
        exponents=lam,
        gram=G,
        atoms=tuple(atoms),
        condition_number=cond,
        regularization=regularization,
    )


@functools.lru_cache(maxsize=8)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached per n as read-only arrays."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def verify_biorthogonality(family: DualFamily, n_quad: int = 800) -> float:
    """Max |<theta(m,k), e^{-conj(lambda) t}> - delta| by Gauss-Legendre quadrature.

    Quadrature is the independent route: it never touches the Gram solve.
    """
    T = family.params.T
    nodes, weights = gauss_legendre(n_quad)
    t = 0.5 * T * nodes
    w = 0.5 * T * weights
    E = np.exp(-np.outer(t, family.exponents))           # exp samples  (q, a)
    theta = E @ family.coefficient_matrix.T              # atom samples (q, m)
    pairing = (theta * w[:, None]).T @ np.conj(E)        # (m, a)
    return float(np.abs(pairing - np.eye(len(family.index))).max())


def summation_inequality_check(
    coeffs: Mapping[tuple[int, int], complex] | Sequence[complex],
    family: DualFamily,
) -> tuple[float, float, float]:
    """Weighted coefficient mass against the window norm of the synthesis.

    Returns (lhs, rhs, ratio) with lhs = sum |a(n,j)|^2 / n^4 and
    rhs = ||sum a(n,j) e^{-lambda(n,j) t}||^2 on (-T/2, T/2); ratio is defined
    as 0 for the zero sequence.
    """
    if isinstance(coeffs, Mapping):
        a = np.zeros(len(family.index), dtype=complex)
        for (n, j), v in coeffs.items():
            a[family.index.index((n, j))] = v
    else:
        a = np.asarray(coeffs, dtype=complex)
        if a.shape != (len(family.index),):
            raise InvalidParameterError("coefficient vector length mismatch")
    n_of = np.array([abs(n) for n, _ in family.index], dtype=float)
    lhs = float(np.sum(np.abs(a) ** 2 / n_of**4))
    rhs = float(np.real(a @ family.gram @ np.conj(a)))
    ratio = 0.0 if lhs == rhs == 0.0 else lhs / rhs
    return lhs, rhs, ratio


def write_atoms_csv(stream: IO[str], family: DualFamily) -> None:
    writer = csv.writer(stream)
    writer.writerow(["m", "k", "norm", "condition_number"])
    for atom in family.atoms:
        writer.writerow([atom.m, atom.k, f"{atom.norm:.17g}",
                         f"{family.condition_number:.17g}"])
