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

from .model import InvalidParameterError, ModelParams
from .spectrum import detect_resonance, shifted_spectrum_arrays

__all__ = [
    "ProductValue",
    "ProductEvaluator",
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
# the infinite product
# ---------------------------------------------------------------------------

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
    makes the partial products absolutely convergent.  `lam[p, 0, n-1]` and
    `lam[p, 1, n-1]` are the two members of pair branch p = 0, 1, 2 at mode n,
    `roots = -i conj(lam)` are the zeros, and `scales = (c, c+1, c-1)` rescale
    pair branch p to the exponents nu = lam[p, 0] / scales[p], for which
    nu(n) - i n tends to a constant.  Evaluation accumulates principal logs,
    so products of tens of thousands of factors neither overflow nor lose the
    phase.  Each pair branch's log sum comes from real kernels (`_log_sum`):
    log|f| through log1p near |f| = 1, the phase from atan2, which is several
    times faster than the complex log.
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
        self.n_prod = N = int(n_prod)
        lam = shifted_spectrum_arrays(params, N, apply_resonance_convention)
        # member 1 is conj(member 0) on every pair branch unless the resonance
        # convention moved lambda(-n_c, 2)
        self.lam = np.array([[lam[p][N:], lam[q][N - 1::-1]] for p, q in ((1, 1), (2, 3), (3, 2))])
        self.resonance_adjusted = (apply_resonance_convention
                                   and detect_resonance(params, N) is not None)
        self.roots = -1j * np.conj(self.lam)
        self.scales = np.array([params.c, params.c + 1.0, params.c - 1.0])
        self._scaled_roots = self.roots / self.scales[:, None, None]
        self._prepare_tail()

    # -- tail ---------------------------------------------------------------

    def _prepare_tail(self) -> None:
        """Coefficients of the second-order series of the factors beyond n_prod.

        The sums over n > N of 1/n^2 and 1/n^4 are psi'(N+1) and psi'''(N+1)/6.
        """
        M, c = self.params.M, self.params.c
        N = self.n_prod
        psi1, psi3 = _psi1_psi3(N + 1.0)
        psi3_over6 = psi3 / 6.0
        a2 = self.scales ** 2
        q = np.array([M * M, M * M * (3.0 * c + 4.0) / 4.0, M * M * (4.0 - 3.0 * c) / 4.0]) / a2
        self._tail_t1 = (psi1 - q * psi3_over6) / a2
        self._tail_t2 = psi3_over6 / (a2 * a2)
        self._tail_re = np.array([M, -M / 2.0, -M / 2.0])
        self._err_scale = psi1 * sum(1.0 / a2)

    def _tail_log(self, z: complex) -> complex:
        u = -2j * self._tail_re * z - z * z
        return complex(sum(u * self._tail_t1 - 0.5 * u * u * self._tail_t2))

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, z: complex) -> ProductValue:
        """P(z) with tail correction; log_abs stays finite when value overflows."""
        z = complex(z)
        tail = self._tail_log(z)
        err = abs(z) ** 2 * self._err_scale
        # per pair branch, so no (3, 2, n_prod) temporary is formed
        factors = [(1.0 - z / a) * (1.0 - z / b) for a, b in self.roots]
        if z == 0.0 or any(np.any(f == 0.0) for f in factors):
            return ProductValue(0.0j, -math.inf, tail, err)
        log_sum = 3.0 * np.log(z) + tail
        for f in factors:
            log_sum += _log_sum(f)
        log_abs = float(log_sum.real)
        value = complex(np.exp(log_sum)) if log_abs < 700.0 else complex(np.inf, np.inf)
        return ProductValue(value, log_abs, tail, err)

    def evaluate_factored(self, z: complex) -> complex:
        """c1 c2 c3 P_1(z/c1) P_2(z/c2) P_3(z/c3); agrees with `evaluate`.

        P_j(w) = w prod (1 + w/(i conj(nu(n, j)))) is the sine-type component
        over the rescaled pair branch j, so P(z) = prod_j c_j P_j(z / c_j)
        holds exactly.
        """
        out = 1.0 + 0.0j
        for c_j, roots in zip(self.scales.tolist(), self._scaled_roots):
            w = z / c_j
            f = 1.0 - w / roots
            P_j = complex(np.exp(np.log(w) + _log_sum(f[0] * f[1]))) if w != 0.0 else 0.0j
            out *= c_j * P_j
        return out * complex(np.exp(self._tail_log(z)))

    # -- zeros and the derivative ---------------------------------------------

    def _locate(self, m: int, j: int) -> tuple[int, int, int]:
        """Map a family label (m, j) to its (pair branch, member, index) in `lam`."""
        if m == 0 or abs(m) > self.n_prod or j not in (1, 2, 3):
            raise InvalidParameterError(f"label ({m}, {j}) outside the truncated family")
        if m > 0:
            return j - 1, 0, m - 1
        return (0, 2, 1)[j - 1], 1, -m - 1

    def zero_location(self, m: int, j: int) -> complex:
        return complex(self.roots[self._locate(m, j)])

    def derivative_at_zero(self, m: int, j: int) -> complex:
        """P'(-i conj(lambda(m, j))) as the product of the surviving factors.

        Analytic derivative of a simple zero: the vanishing linear factor is
        differentiated, every other factor is evaluated at the zero.  Raises
        DoubleZeroError when another exponent collides with this one.
        """
        p0, member0, i0 = self._locate(m, j)
        root0 = self.roots[p0, member0, i0]
        z0 = complex(root0)
        log_sum = 3.0 * np.log(z0) + self._tail_log(z0) - np.log(root0 * (-1.0))
        for p, roots in enumerate(self.roots):
            f = 1.0 - z0 / roots
            if p == p0:
                f[member0, i0] = 1.0
            both = f[0] * f[1]
            if np.any(both == 0.0):
                k = int(np.nonzero(both == 0.0)[0][0])
                raise DoubleZeroError(
                    f"exponent collision: zero of ({m},{j}) coincides with pair "
                    f"(n={k + 1}, branch {p + 1}); apply the resonance splitting first")
            log_sum += _log_sum(both)
        return complex(np.exp(log_sum))


def _psi1_psi3(x: float) -> tuple[float, float]:
    """psi'(x) and psi'''(x) from their asymptotic series, for x >= 100.

    psi'(x) = 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1) and
    psi'''(x) = 2/x^3 + 3/x^4 + sum_k B_2k (2k+1)(2k+2) / x^(2k+3)
    (Abramowitz & Stegun 6.4.12, 6.4.14), summed through B_8; the first
    omitted terms are below 1e-19 relative at x = 100.  The series is nested
    in 1/x with the leading power divided out last, so each value is within
    about one rounding of the exact one.
    """
    t = 1.0 / (x * x)
    psi1 = (1.0 + (0.5 + (1.0 / 6.0 - t * (1.0 / 30.0 - t * (1.0 / 42.0 - t / 30.0))) / x) / x) / x
    psi3 = (2.0 + (3.0 + (2.0 - t * (1.0 - t * (4.0 / 3.0 - 3.0 * t))) / x) / x) / (x * x * x)
    return psi1, psi3


def _log_sum(f: np.ndarray) -> complex:
    """Sum of the principal logs of nonzero factors f, from real kernels.

    The imaginary part is sum atan2(Im f, Re f), the principal argument.  Near
    the unit circle (||f|^2 - 1| < 0.5), where almost all factors of a long
    product lie, log|f| is 0.5 * log1p(|f|^2 - 1) with |f|^2 - 1 formed as
    (a-1)(a+1) + b^2: log(abs(f)) would round |f| first and lose the relative
    accuracy of these small logs (Kahan 1987).  Elsewhere log(abs(f)) is
    accurate to rounding.
    """
    a, b = f.real, f.imag
    x = (a - 1.0) * (a + 1.0) + b * b
    near = np.abs(x) < 0.5
    log_abs = 0.5 * np.log1p(np.where(near, x, 0.0))
    far = ~near
    log_abs[far] = np.log(np.abs(f[far]))
    return complex(log_abs.sum(), np.arctan2(b, a).sum())


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


def _equilibrated_solve(A: np.ndarray, B: np.ndarray | None, regularization: float, gate):
    """Solve (A + regularization I) X = B after symmetric scaling by D = 1/sqrt|diag|.

    The scaling separates the family's norm spread from genuine near-dependence.
    `gate(cond, spread)` sees the scaled condition number before any solve, so a
    singular Gram is refused rather than ending in LinAlgError.  Two refinement
    solves follow (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 12).  B = None gives the inverse D As^-1 D, refined with the identity as
    right-hand side.  Returns X, cond, spread and the final relative residual.
    """
    if regularization < 0.0:
        raise InvalidParameterError("regularization must be nonnegative")
    A = A + regularization * np.eye(len(A)) if regularization else A
    d = 1.0 / np.sqrt(np.abs(np.diag(A).real))
    As = A * d[:, None] * d[None, :]
    cond, spread = float(np.linalg.cond(As)), float(d.max() / d.min())
    gate(cond, spread)
    Bs = np.eye(len(As), dtype=complex) if B is None else d * B
    Y = np.linalg.solve(As, Bs)
    for _ in range(2):
        Y = Y + np.linalg.solve(As, Bs - As @ Y)
    scale = np.linalg.norm(Bs)
    residual = float(np.linalg.norm(Bs - As @ Y) / scale) if scale else 0.0
    return (Y * d[:, None] * d[None, :] if B is None else d * Y), cond, spread, residual


@dataclass(frozen=True)
class DualFamily:
    """Row i of `coefficients` gives theta(index[i]) = sum_a coefficients[i, a] e^{-exponents[a] t}.

    `norms[i]` is the window norm of theta(index[i]).
    """

    params: ModelParams
    N: int
    index: tuple[tuple[int, int], ...]
    exponents: np.ndarray
    gram: np.ndarray
    coefficients: np.ndarray
    norms: np.ndarray
    condition_number: float
    regularization: float
    norm_spread: float
    refinement_residual: float


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
    lam = family_exponents(params, N, apply_resonance_convention)
    G = window_gram(lam, params.T)

    def gate(cond: float, spread: float) -> None:
        if regularization:
            return
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
    W, cond, spread, residual = _equilibrated_solve(G, None, regularization, gate)
    norms = np.array([math.sqrt(max(float(np.real(w @ G @ np.conj(w))), 0.0)) for w in W])
    return DualFamily(
        params=params,
        N=N,
        index=family_index(N),
        exponents=lam,
        gram=G,
        coefficients=W,
        norms=norms,
        condition_number=cond,
        regularization=regularization,
        norm_spread=spread,
        refinement_residual=residual,
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
    theta = E @ family.coefficients.T                    # atom samples (q, m)
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
    for (m, k), norm in zip(family.index, family.norms):
        writer.writerow([m, k, f"{norm:.17g}", f"{family.condition_number:.17g}"])
