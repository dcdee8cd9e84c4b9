r"""Eigenvalue branches of the memory operator and the moving-frame spectrum.

Per spatial mode n >= 1 the characteristic cubic

    mu^3 + n^2 mu - M n^2 = 0

has one real root mu1 strictly between 0 and M and a conjugate pair

    mu2 = -mu1/2 + i sqrt(3 (mu1/2)^2 + n^2) = conj(mu3).

In the frame moving with velocity c the spectrum shifts to

    lambda(n, j) = i c n + mu_{|n|}^j,      n in Z \ {0},  j in {1, 2, 3},

with eigenvectors (1, -lambda, 1/(lambda - icn)) e^{inx}.  This module also
builds the per-mode frame matrices B_n whose singular values certify the
two-sided coefficient-norm equivalence of that eigenvector family, and
detects the resonant velocities at which two shifted eigenvalues collide.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .model import InvalidParameterError, ModelParams

__all__ = [
    "EigenTriple",
    "ShiftedEigenvalue",
    "Eigenvector",
    "RieszMatrix",
    "ResonanceAmbiguityError",
    "solve_cubic_spectrum",
    "asymptotic_mu1",
    "mu1_array",
    "branch_roots",
    "shifted_eigenvalue",
    "shifted_spectrum_arrays",
    "spectrum_modes",
    "eigenvector",
    "eigenvector_residual",
    "singular_value_envelope",
    "riesz_matrix",
    "limit_gram_matrix",
    "resonance_velocity",
    "detect_resonance",
    "resonance_shift",
    "mode_operator_matrix",
    "spectrum_table",
    "write_spectrum_csv",
]

BRANCHES = (1, 2, 3)


class ResonanceAmbiguityError(ValueError):
    """More than one mode matched the resonance tolerance."""


# ---------------------------------------------------------------------------
# the characteristic cubic
# ---------------------------------------------------------------------------

def _cubic(mu: np.ndarray, n2: np.ndarray, M: float) -> np.ndarray:
    # evaluated as mu^3 + n^2 (mu - M): keeps the large n^2 terms from
    # cancelling catastrophically near the root
    return mu**3 + n2 * (mu - M)


def mu1_array(n: Sequence[int] | np.ndarray, M: float) -> np.ndarray:
    """Real root of the characteristic cubic for every mode in `n` (vectorised).

    The cubic has one real root because n^2 > 0; Cardano's form
    mu1 = (2n/sqrt3) sinh(asinh(3 sqrt3 M / (2n)) / 3) gives it, then two
    Newton polish steps.
    """
    if M == 0.0:
        raise InvalidParameterError("M = 0 degenerates the cubic (roots {0, +-in})")
    n = np.asarray(n, dtype=float)
    if np.any(n < 1):
        raise InvalidParameterError("mode indices must satisfy n >= 1")
    n2 = n * n
    mu = 2.0 * n / math.sqrt(3.0) * np.sinh(np.arcsinh(1.5 * math.sqrt(3.0) * M / n) / 3.0)
    for _ in range(2):
        mu = mu - _cubic(mu, n2, M) / (3.0 * mu * mu + n2)
    return mu


def branch_roots(n: Sequence[int] | np.ndarray, M: float) -> np.ndarray:
    """(len(n), 3) array of the roots (mu1, mu2, mu3) for every mode in `n`.

    The complex pair is derived from the real root, mu2 = -mu1/2 + i beta =
    conj(mu3) with beta = sqrt(3 (mu1/2)^2 + n^2), so the structural identities
    hold exactly.
    """
    n = np.asarray(n, dtype=float)
    mu1 = mu1_array(n, M)
    beta = np.sqrt(3.0 * (mu1 / 2.0) ** 2 + n ** 2)
    return np.stack([mu1 + 0j, -mu1 / 2.0 + 1j * beta, -mu1 / 2.0 - 1j * beta], axis=-1)


@dataclass(frozen=True)
class EigenTriple:
    """The three roots of the characteristic cubic at mode n."""

    n: int
    M: float
    mu1: float
    mu2: complex
    mu3: complex

    @property
    def roots(self) -> tuple[complex, complex, complex]:
        return (complex(self.mu1), self.mu2, self.mu3)

    def vieta_residuals(self) -> tuple[float, float, float]:
        """Relative residuals of the three symmetric-function identities."""
        r1, r2, r3 = self.roots
        n2 = float(self.n) ** 2
        s1 = abs(r1 + r2 + r3)
        s2 = abs(r1 * r2 + r1 * r3 + r2 * r3 - n2) / n2
        s3 = abs(r1 * r2 * r3 - self.M * n2) / abs(self.M * n2)
        scale = max(abs(self.M), 1.0)
        return (s1 / scale, s2, s3)


def solve_cubic_spectrum(n: int, M: float) -> EigenTriple:
    """Roots of mu^3 + n^2 mu - M n^2 = 0 with the structural closed forms.

    The complex pair is always derived from the real root (never from a
    general cubic solver), so Re(mu2) = -mu1/2 and |Im(mu2)|^2 = 3(mu1/2)^2 + n^2
    hold exactly.
    """
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    mu1, mu2, mu3 = branch_roots([n], M)[0]
    return EigenTriple(n=n, M=M, mu1=float(mu1.real), mu2=complex(mu2), mu3=complex(mu3))


def asymptotic_mu1(n: int | np.ndarray, M: float) -> float | np.ndarray:
    """Two-term large-n reference M - M^3/n^2 for the real branch."""
    n = np.asarray(n, dtype=float)
    out = M - M**3 / (n * n)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# moving-frame spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftedEigenvalue:
    n: int
    j: int
    lam: complex
    resonance_adjusted: bool = False


def resonance_velocity(n: int, M: float) -> float:
    """Velocity at which lambda(-n, 2) collides with lambda(n, 3)."""
    mu1 = solve_cubic_spectrum(n, M).mu1
    return math.sqrt(1.0 + 3.0 * (mu1 / (2.0 * n)) ** 2)


def detect_resonance(
    params: ModelParams, N: int | None = None, tol: float = 1e-9
) -> tuple[int, float] | None:
    """Find the unique n in [1, N] whose resonant velocity matches |c|.

    Matching is relative: |c - v_n| <= tol * v_n.  Returns (n, v_n) or None.
    Raises ResonanceAmbiguityError when the tolerance admits several modes.
    """
    N = N if N is not None else params.N
    c = abs(params.c)
    if c <= 1.0:
        # resonant velocities all exceed 1
        return None
    mu1 = mu1_array(np.arange(1, N + 1), params.M)
    v = np.sqrt(1.0 + 3.0 * (mu1 / (2.0 * np.arange(1, N + 1))) ** 2)
    hits = np.nonzero(np.abs(c - v) <= tol * v)[0]
    if len(hits) == 0:
        return None
    if len(hits) > 1:
        raise ResonanceAmbiguityError(
            f"modes {list(hits + 1)} all match |c|={c} within tol={tol}; "
            "tighten the tolerance")
    k = int(hits[0]) + 1
    return k, float(v[k - 1])


def resonance_shift(n_c: int, params: ModelParams) -> complex:
    """Replacement value for lambda(-n_c, 2) that splits the collision.

    The collided eigenvalue -mu1/2 is moved to mu1/2 - i/2 (the imaginary
    part drops by 1/2 and the real part flips sign).
    """
    mu1, mu2, _ = branch_roots([n_c], params.M)[0]
    return complex(mu1.real / 2.0, -params.c * n_c + mu2.imag - 0.5)


def shifted_eigenvalue(
    n: int,
    j: int,
    params: ModelParams,
    apply_resonance_convention: bool = False,
) -> ShiftedEigenvalue:
    """Moving-frame eigenvalue lambda(n, j) = i c n + mu_{|n|}^j.

    With `apply_resonance_convention`, a detected collision at (-n_c, 2) is
    replaced by the perturbed value so the family stays simple.
    """
    if n == 0:
        raise InvalidParameterError("n must be a nonzero integer")
    if j not in BRANCHES:
        raise InvalidParameterError(f"branch must be one of {BRANCHES}")
    hit = detect_resonance(params) if apply_resonance_convention else None
    adjusted = hit is not None and (n, j) == (-hit[0], 2)
    # mode n is the first (n < 0) or the last entry of [-|n|..-1, 1..|n|]
    lam = shifted_spectrum_arrays(params, abs(n), adjusted)[j][0 if n < 0 else -1]
    return ShiftedEigenvalue(n=n, j=j, lam=complex(lam), resonance_adjusted=adjusted)


def shifted_spectrum_arrays(
    params: ModelParams, N: int, apply_resonance_convention: bool = False
) -> dict[int, np.ndarray]:
    """lambda(n, j) for n = -N..-1, 1..N as arrays keyed by branch.

    Each array is indexed by position over the mode list [-N..-1, 1..N].  This
    is the one place that shifts the roots into the moving frame and applies
    the resonance convention, which replaces lambda(-n_c, 2).
    """
    modes = spectrum_modes(N)
    mus = branch_roots(np.abs(modes), params.M)
    out = {j: 1j * params.c * modes + mus[:, j - 1] for j in BRANCHES}
    if apply_resonance_convention:
        hit = detect_resonance(params, N)
        if hit is not None:
            out[2][N - hit[0]] = resonance_shift(hit[0], params)
    return out


def spectrum_modes(N: int) -> np.ndarray:
    """Mode list [-N..-1, 1..N] matching `shifted_spectrum_arrays` indexing."""
    pos = np.arange(1, N + 1)
    return np.concatenate([-pos[::-1], pos])


# ---------------------------------------------------------------------------
# eigenvectors and the frame matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eigenvector:
    n: int
    j: int
    components: np.ndarray


def eigenvector(n: int, j: int, params: ModelParams) -> Eigenvector:
    """Mode-n eigenvector with components (1, -lambda, 1/(lambda - icn))."""
    lam = shifted_eigenvalue(n, j, params).lam
    comps = np.array([1.0, -lam, 1.0 / (lam - 1j * params.c * n)], dtype=complex)
    return Eigenvector(n=n, j=j, components=comps)


def mode_operator_matrix(n: int, params: ModelParams) -> np.ndarray:
    """Symbol of the moving-frame generator on mode n acting on (phi, eta, psi)."""
    c, M = params.c, params.M
    n2 = float(n) ** 2
    return np.array(
        [
            [0.0, -1.0, 0.0],
            [(1.0 - c * c) * n2, 2.0j * c * n, -M * n2],
            [1.0, 0.0, 1j * c * n],
        ],
        dtype=complex,
    )


def eigenvector_residual(n: int, j: int, params: ModelParams) -> float:
    """Relative residual |A_n v - lambda v| / |lambda v| of the symbol action."""
    v = eigenvector(n, j, params).components
    lam = shifted_eigenvalue(n, j, params).lam
    A = mode_operator_matrix(n, params)
    num = np.linalg.norm(A @ v - lam * v)
    den = np.linalg.norm(lam * v)
    return float(num / den)


def _hermitian3_eigvals(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of 3x3 Hermitian matrices (..., 3, 3) by the
    trigonometric closed form."""
    d = np.diagonal(H, axis1=-2, axis2=-1).real
    q = np.trace(H, axis1=-2, axis2=-1).real / 3.0
    p1 = np.abs(H[..., 0, 1]) ** 2 + np.abs(H[..., 0, 2]) ** 2 + np.abs(H[..., 1, 2]) ** 2
    p2 = (d[..., 0] - q) ** 2 + (d[..., 1] - q) ** 2 + (d[..., 2] - q) ** 2 + 2.0 * p1
    # p2 = 0 only for H = q I, whose eigenvalues are q
    degenerate = p2 <= 0.0
    p = np.where(degenerate, 1.0, np.sqrt(p2 / 6.0))
    B = (H - q[..., None, None] * np.eye(3)) / p[..., None, None]
    r = np.clip(np.linalg.det(B).real / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    e1 = q + 2.0 * p * np.cos(phi)
    e3 = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    eig = np.sort(np.stack([e1, e2, e3], axis=-1), axis=-1)
    return np.where(degenerate[..., None], q[..., None], eig)


@dataclass(frozen=True)
class RieszMatrix:
    """Per-mode frame matrix with rows (1,1,1), (lambda/|n|), (1/(lambda-icn))."""

    n: int
    B: np.ndarray
    singular_values: np.ndarray

    @property
    def det(self) -> complex:
        return complex(np.linalg.det(self.B))


def _riesz_frames(modes: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Frame matrices B_n for the nonzero `modes`, shape (k, 3, 3), and their
    ascending singular values, shape (k, 3)."""
    N = int(np.abs(modes).max())
    arrays = shifted_spectrum_arrays(params, N)
    lam = np.stack([arrays[j][modes + N - (modes > 0)] for j in BRANCHES], axis=1)
    B = np.stack([
        np.ones_like(lam),
        lam / np.abs(modes)[:, None],
        1.0 / (lam - 1j * params.c * modes[:, None]),
    ], axis=1)
    H = np.swapaxes(B.conj(), 1, 2) @ B
    return B, np.sqrt(np.maximum(_hermitian3_eigvals(H), 0.0))


def riesz_matrix(n: int, params: ModelParams) -> RieszMatrix:
    if n == 0:
        raise InvalidParameterError("n must be a nonzero integer")
    B, sv = _riesz_frames(np.array([n]), params)
    return RieszMatrix(n=n, B=B[0], singular_values=sv[0])


def limit_gram_matrix(params: ModelParams) -> np.ndarray:
    """Limit of B_n^* B_n as n -> +inf (real symmetric; positive definite).

    B_n tends to the matrix with rows u = (1, 1, 1), i v and e1/M, where
    v = (c, c+1, c-1), so the limit is u u^T + v v^T + e1 e1^T / M^2.  Its
    determinant is |det B_inf|^2 = |-2i/M|^2 = 4/M^2 for every admissible
    (M, c).
    """
    c, M = params.c, params.M
    u = np.ones(3)
    v = np.array([c, c + 1.0, c - 1.0])
    out = np.outer(u, u) + np.outer(v, v)
    out[0, 0] += 1.0 / M**2
    return out


def singular_value_envelope(params: ModelParams, N: int) -> tuple[float, float]:
    """Smallest and largest singular value of B_n over 1 <= |n| <= N."""
    if N < 1:
        raise InvalidParameterError("N must be a positive integer")
    _, sv = _riesz_frames(spectrum_modes(N), params)
    return float(sv[:, 0].min()), float(sv[:, -1].max())


# ---------------------------------------------------------------------------
# tabulated export
# ---------------------------------------------------------------------------

def spectrum_table(
    params: ModelParams, N: int, apply_resonance_convention: bool = False
) -> list[tuple[int, int, float, float, bool]]:
    """Rows (n, j, Re(lambda), Im(lambda), resonance_adjusted) for |n| <= N."""
    arrays = shifted_spectrum_arrays(params, N, apply_resonance_convention)
    modes = spectrum_modes(N)
    hit = detect_resonance(params, N) if apply_resonance_convention else None
    rows = []
    for j in BRANCHES:
        for i, n in enumerate(modes):
            adj = hit is not None and (int(n), j) == (-hit[0], 2)
            lam = arrays[j][i]
            rows.append((int(n), j, float(lam.real), float(lam.imag), adj))
    rows.sort()
    return rows


def write_spectrum_csv(
    stream: IO[str], params: ModelParams, N: int,
    apply_resonance_convention: bool = False,
) -> None:
    writer = csv.writer(stream)
    writer.writerow(["n", "j", "re_lambda", "im_lambda", "resonance_adjusted"])
    for row in spectrum_table(params, N, apply_resonance_convention):
        writer.writerow([row[0], row[1], f"{row[2]:.17g}", f"{row[3]:.17g}", int(row[4])])
