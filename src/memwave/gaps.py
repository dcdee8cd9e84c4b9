"""Pairwise separation statistics for the moving-frame spectrum.

The real branch is uniformly separated from the oscillatory branches by
|M|/(M^2+1) and from itself by |c|.  Within the oscillatory branches the only
near-collisions happen between lambda(m, 2) and the eigenvalue at the nearest
partner mode n_m ~ (1+c)m/|1-c|, where the distance decays like 1/m^2.  The
report quantifies all of this on a finite window and runs a duplicate census.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .model import InvalidParameterError, ModelParams
from .spectrum import branch_roots, shifted_spectrum_arrays, spectrum_modes

__all__ = [
    "ClosePair",
    "GapReport",
    "nearest_partner",
    "ladder_threshold",
    "gap_report",
    "write_close_pairs_csv",
]


def nearest_partner(m: int, c: float) -> int:
    """Nearest integer to (1+a)m/|1-a| with a = |c|; half ties round to even."""
    if m < 1:
        raise InvalidParameterError("m must be a positive integer")
    a = abs(c)
    if a in (0.0, 1.0):
        raise InvalidParameterError("velocity must avoid {-1, 0, 1}")
    ratio = (1.0 + a) * m / abs(1.0 - a)
    return max(1, round(ratio))


def ladder_threshold(M: float, epsilon: float, n_cap: int = 10**7) -> int:
    """Smallest n with (3/4)mu1(n)^2 / (sqrt((3/4)mu1(n)^2 + n^2) + n) <= epsilon.

    Scans upward in blocks; the left side decays like 3 M^2 / (8 n).
    """
    if epsilon <= 0.0:
        raise InvalidParameterError("epsilon must be positive")
    start = 1
    while start <= n_cap:
        stop = min(n_cap, max(start * 4, 64))
        n = np.arange(start, stop + 1)
        roots = branch_roots(n, M)
        g = 0.75 * roots[:, 0].real ** 2 / (roots[:, 1].imag + n)
        hits = np.nonzero(g <= epsilon)[0]
        if len(hits):
            return int(n[hits[0]])
        start = stop + 1
    raise InvalidParameterError(f"threshold not reached below n = {n_cap}")


@dataclass(frozen=True)
class ClosePair:
    m: int
    n_m: int
    distance: float
    scaled: float  # m^2 * distance


@dataclass(frozen=True)
class GapReport:
    params: ModelParams
    N: int
    min_gap_branch1_cross: float
    min_gap_branch1_self: float
    close_pairs: tuple[ClosePair, ...]
    gamma_fit: float
    epsilon_used: float
    N_epsilon: int
    ladder_ok: bool
    ladder_margins: dict = field(repr=False)
    min_pairwise_distance: float
    coincidences: tuple[tuple[int, int, int, int], ...]
    warnings: tuple[str, ...] = ()

    def to_json(self) -> str:
        payload = {
            "params": json.loads(self.params.to_json()),
            "N": self.N,
            "min_gap_branch1_cross": self.min_gap_branch1_cross,
            "min_gap_branch1_self": self.min_gap_branch1_self,
            "close_pairs": [[p.m, p.n_m, p.distance, p.scaled] for p in self.close_pairs],
            "gamma_fit": self.gamma_fit,
            "epsilon_used": self.epsilon_used,
            "N_epsilon": self.N_epsilon,
            "ladder_ok": self.ladder_ok,
            "ladder_margins": self.ladder_margins,
            "min_pairwise_distance": self.min_pairwise_distance,
            "coincidences": [list(t) for t in self.coincidences],
            "warnings": list(self.warnings),
        }
        return json.dumps(payload, sort_keys=True)


def _ladder_checks(
    lam: dict[int, np.ndarray], N: int, c: float, eps: float, n_eps: int
) -> tuple[bool, dict]:
    """Monotone imaginary-part ladders and their increment bounds.

    Sequences are the positive/negative halves of branches 2 and 3; the
    direction and the increment floors 1+c-eps, |1-c|-eps switch with c <> 1.
    Returns (all_ok, margins dict).
    """
    idx_pos = slice(N, 2 * N)      # n = 1..N
    idx_neg = slice(N - 1, None, -1)  # n = -1..-N walking outward
    im2p = lam[2][idx_pos].imag
    im2n = lam[2][idx_neg].imag
    im3p = lam[3][idx_pos].imag
    im3n = lam[3][idx_neg].imag
    a = abs(c)
    lo = n_eps - 1  # increments with both ends at n >= N_epsilon
    margins: dict = {"regime": "c<1" if a < 1.0 else "c>1"}
    ok = True

    def incr(x: np.ndarray) -> np.ndarray:
        return np.diff(x)

    if a < 1.0:
        ok &= bool(np.all(incr(im2p) > 0.0)) and bool(np.all(im2p >= 1.0 + a - 1e-12))
        ok &= bool(np.all(incr(im3n) < 0.0)) and bool(np.all(im3n <= -1.0 - a + 1e-12))
        fast2 = incr(im2p)[lo:]
        slow2 = incr(im2n)[lo:]
        margins["fast_increment_min"] = float(fast2.min()) if len(fast2) else math.nan
        margins["slow_increment_min"] = float(slow2.min()) if len(slow2) else math.nan
        if len(fast2):
            ok &= bool(np.all(fast2 >= 1.0 + a - eps))
        if len(slow2):
            ok &= bool(np.all(slow2 >= 1.0 - a - eps))
    else:
        ok &= bool(np.all(incr(im2p) > 0.0)) and bool(np.all(im2p >= a + 1.0 - 1e-12))
        ok &= bool(np.all(incr(im3n) < 0.0)) and bool(np.all(im3n <= -1.0 - a + 1e-12))
        fast2 = incr(im2p)[lo:]
        slow3 = incr(im3p)[lo:]   # Im(lambda(n,3)) increases for c > 1 beyond N_eps
        margins["fast_increment_min"] = float(fast2.min()) if len(fast2) else math.nan
        margins["slow_increment_min"] = float(slow3.min()) if len(slow3) else math.nan
        if len(fast2):
            ok &= bool(np.all(fast2 >= a + 1.0 - eps))
        if len(slow3):
            ok &= bool(np.all(slow3 >= a - 1.0 - eps))
    return ok, margins


def _min_gap(points: np.ndarray, others: np.ndarray | None = None) -> float:
    """min |points[i] - others[j]| over all pairs, or over i != j without others.

    Nearest neighbours come from a k-d tree on (Re, Im) (Friedman, Bentley &
    Finkel 1977) in O(n log n) time and O(n) memory.  Each point's distance to
    its neighbour is then recomputed as np.abs of the complex difference, so
    the minimum is the number a dense scan of np.abs returns (barring two
    neighbours whose distances tie to within rounding).
    """
    from scipy.spatial import cKDTree

    tree_pts = points if others is None else others
    tree = cKDTree(np.column_stack([tree_pts.real, tree_pts.imag]))
    _, idx = tree.query(np.column_stack([points.real, points.imag]),
                        k=2 if others is None else 1)
    if others is None:
        # the first neighbour of a point is itself unless it has a duplicate
        idx = np.where(idx[:, 0] == np.arange(len(points)), idx[:, 1], idx[:, 0])
    return float(np.abs(points - tree_pts[idx]).min())


def _equal_pairs(values: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs i < j with values[i] == values[j], in row-major order."""
    order = np.lexsort((values.imag, values.real))
    v = values[order]
    run = np.cumsum(np.concatenate([[True], v[1:] != v[:-1]])) - 1
    pairs = []
    for r in np.flatnonzero(np.bincount(run) > 1):
        group = np.sort(order[run == r])
        pairs += [(int(i), int(j)) for a, i in enumerate(group) for j in group[a + 1:]]
    return sorted(pairs)


def gap_report(params: ModelParams, N: int, epsilon: float | None = None) -> GapReport:
    """Classify all pairwise eigenvalue distances on |n|, |m| <= N.

    Negating the velocity relabels the spectrum by n -> -n without changing
    the set, so the report is computed at |c|; every distance statistic is
    label independent and the ladders refer to the mirrored indexing.

    epsilon defaults to 0.05 * min(|1 - |c||, 1); when the ladder threshold
    exceeds N the report carries a widened-epsilon warning instead of failing.
    """
    if N < 2:
        raise InvalidParameterError("N must be at least 2")
    c = abs(params.c)
    warnings: list[str] = []
    eps = 0.05 * min(abs(1.0 - c), 1.0) if epsilon is None else float(epsilon)
    n_eps = ladder_threshold(params.M, eps)
    if n_eps > N:
        warnings.append(
            f"ladder threshold {n_eps} exceeds N={N}; increment bounds "
            "checked on an empty range (consider a larger epsilon)")

    mirrored = params if params.c > 0 else dataclasses.replace(params, c=c)
    lam = shifted_spectrum_arrays(mirrored, N)
    lam1, lam2, lam3 = lam[1], lam[2], lam[3]

    # branch-1 against branches 2 and 3, and against itself (distinct entries)
    min_cross = _min_gap(lam1, np.concatenate([lam2, lam3]))
    min_self = _min_gap(lam1)

    # close pairs at the nearest partner mode
    modes = spectrum_modes(N)
    index_of = {int(n): i for i, n in enumerate(modes)}
    pairs: list[ClosePair] = []
    for m in range(1, N + 1):
        nm = nearest_partner(m, c)
        if nm > N:
            continue
        if c < 1.0:
            d = abs(lam2[index_of[m]] - lam2[index_of[-nm]])
        else:
            d = abs(lam2[index_of[m]] - lam3[index_of[nm]])
        pairs.append(ClosePair(m=m, n_m=nm, distance=float(d), scaled=float(m * m * d)))
    gamma_fit = min((p.scaled for p in pairs), default=math.nan)

    ladder_ok, margins = _ladder_checks(lam, N, c, eps, n_eps)

    # duplicate census over the whole window
    all_lam = np.concatenate([lam1, lam2, lam3])
    labels = [(int(n), j) for j in (1, 2, 3) for n in modes]
    min_pairwise = _min_gap(all_lam)
    coincidences = [(*labels[i], *labels[j]) for i, j in _equal_pairs(all_lam)]

    return GapReport(
        params=params,
        N=N,
        min_gap_branch1_cross=min_cross,
        min_gap_branch1_self=min_self,
        close_pairs=tuple(pairs),
        gamma_fit=float(gamma_fit),
        epsilon_used=eps,
        N_epsilon=n_eps,
        ladder_ok=ladder_ok,
        ladder_margins=margins,
        min_pairwise_distance=min_pairwise,
        coincidences=tuple(coincidences),
        warnings=tuple(warnings),
    )


def write_close_pairs_csv(stream: IO[str], report: GapReport) -> None:
    writer = csv.writer(stream)
    writer.writerow(["m", "n_m", "distance", "m2_distance"])
    for p in report.close_pairs:
        writer.writerow([p.m, p.n_m, f"{p.distance:.17g}", f"{p.scaled:.17g}"])
