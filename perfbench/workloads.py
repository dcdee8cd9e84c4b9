"""Seeded inputs and task runners for the in-process workloads.

Inputs come in rounds.  Each round fixes the share of tasks with every
property the program's behaviour depends on (velocity class, route, sign of
M) and spreads the continuous parameters by Latin-hypercube stratification,
so two seeds differ in the drawn values but not in the mix.  The task
runners call memwave through module attributes only, so a tracer installed
after import sees every call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from memwave import biorthogonal as bio
from memwave import gaps
from memwave import moment_control as mc
from memwave import simulator as sim
from memwave import spectrum as sp
from memwave.model import FourierField, ModelParams, minimal_control_time

CONTROL_ROUND = 20
WIDE_ROUND = 10
TERMINAL_TOL = 1e-3      # the CLI's terminal_relative_total threshold
FACTOR_TOL = 1e-8        # the CLI's product_factorization_consistency threshold
REAL_TOL = 1e-9          # the CLI's control_real_for_real_data threshold
# refusals with a diagnosis; any other exception is a defect
REFUSALS = (mc.SynthesisConditioningError, bio.ConditioningError)


def _strata(rng, k: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw from each of k equal slices of [lo, hi], shuffled."""
    return lo + (hi - lo) * (rng.permutation(k) + rng.random(k)) / k


def _shares(rng, k: int, counts: dict) -> list:
    """Labels in the given counts (summing to k), in random order."""
    labels = [label for label, n in counts.items() for _ in range(n)]
    assert len(labels) == k
    return [labels[i] for i in rng.permutation(k)]


def _real_field(rng, N: int, power: float) -> FourierField:
    """Real-valued smooth field with coefficients decaying like 1/|n|^power."""
    coeffs = {}
    for n in range(1, N + 1):
        v = complex(rng.standard_normal(), rng.standard_normal()) / n**power
        coeffs[n] = v
        coeffs[-n] = v.conjugate()
    return FourierField.from_coeffs(coeffs, N)


# ---------------------------------------------------------------------------
# control_sweep: time to a certified control
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlTask:
    params: ModelParams
    y0: FourierField
    y1: FourierField
    n_steps: int
    route: str  # "least_norm" or "separated"


def _quartered(rng, values: list, n_pick: int) -> set:
    """Indices of n_pick entries of sorted `values`, one from each equal slice."""
    step = len(values) // n_pick
    return {step * q + int(rng.integers(step)) for q in range(n_pick)}


def control_round(seed: int, k: int) -> list[ControlTask]:
    """Round k of the control sweep: 20 supercritical problems.

    16 tasks take c from +-[1.6, 3] (8 of each sign) and 4 from [0.3, 0.6].
    N takes each value 4..8 four times.  The costs and the failures depend
    on N, on the velocity class and on |M| T, so the draw is stratified
    jointly: the slow class (the longest horizons) takes one N from each
    quarter of the N list; within each class, half the tasks have M < 0,
    |M| from [0.2, 1.2] is stratified within each sign, and the quarter of
    tasks that use the separated form take one N from each quarter of the
    class's N values.
    """
    rng = np.random.default_rng([seed, 1, k])
    N_all = [n for n in range(4, 9) for _ in range(4)]
    slow_at = _quartered(rng, N_all, 4)
    classes = (
        (_strata(rng, 4, 0.3, 0.6), [N_all[i] for i in sorted(slow_at)]),
        (_strata(rng, 16, 1.6, 3.0) * np.array(_shares(rng, 16, {1.0: 8, -1.0: 8})),
         [n for i, n in enumerate(N_all) if i not in slow_at]),
    )
    specs = []
    for cs, Ns in classes:
        size = len(Ns)
        sep_at = _quartered(rng, Ns, size // 4)
        routes = ["separated" if i in sep_at else "least_norm" for i in range(size)]
        Ms = np.concatenate([_strata(rng, size // 2, 0.2, 1.2),
                             -_strata(rng, size // 2, 0.2, 1.2)])
        perm = rng.permutation(size)
        specs += [(float(cs[i]), float(Ms[perm[i]]), Ns[i], routes[i]) for i in range(size)]
    specs = [specs[i] for i in rng.permutation(len(specs))]
    t_factor = _strata(rng, len(specs), 1.03, 1.2)
    arc_len = _strata(rng, len(specs), 0.8, 2.0)
    tasks = []
    for i, (c, M, N, route) in enumerate(specs):
        T = minimal_control_time(c) * float(t_factor[i])
        a = float(rng.uniform(-math.pi, math.pi - arc_len[i]))
        params = ModelParams(M=M, c=c, T=T, omega0=((a, a + float(arc_len[i])),), N=N)
        n_steps = 1 << math.ceil(math.log2(20.0 * T * N))
        tasks.append(ControlTask(params, _real_field(rng, N, 4.0),
                                 _real_field(rng, N, 3.0), n_steps, route))
    return tasks


def moment_threshold(params: ModelParams) -> float:
    """The CLI's moment_residual_max threshold, widened to the quadrature floor."""
    return max(1e-8, 30.0 * 1e-15 * math.exp(abs(params.M) * params.T))


def run_control(task: ControlTask) -> dict:
    """moment_rhs -> synthesis -> constraint check -> simulation -> terminal."""
    p = task.params
    md = mc.moment_rhs(task.y0, task.y1, p, p.N)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if task.route == "least_norm":
                u = mc.mean_zero_correction(mc.synthesize_least_norm(p, md))
            else:
                b = FourierField.from_coeffs(
                    {n: 1.0 / (1.0 + abs(n)) for n in range(-p.N, p.N + 1) if n}, p.N)
                _, u = mc.synthesize_separated(p, md, b)
    except REFUSALS as exc:
        return {"refused": type(exc).__name__, "certified": False}
    moment_max, _, _ = mc.verify_moment_constraints(u, md, p)
    vals = u.evaluate(np.linspace(0.01, 0.99 * p.T, 9)[:, None],
                      np.linspace(-np.pi, np.pi, 33, endpoint=False)[None, :])
    scale = float(np.abs(vals).max())
    imag_rel = float(np.abs(vals.imag).max() / scale) if scale > 0 else 0.0
    norm = u.l2_norm()
    traj = sim.simulate_forward(p, task.y0, task.y1, mc.to_physical_frame(u), task.n_steps)
    terminal = sim.terminal_report(traj, task.y0, task.y1)["relative_total"]
    certified = (terminal <= TERMINAL_TOL and moment_max <= moment_threshold(p)
                 and imag_rel <= REAL_TOL)
    return {"refused": None, "certified": bool(certified), "terminal": float(terminal),
            "moment_max": float(moment_max), "imag_rel": imag_rel,
            "finite": bool(np.isfinite([terminal, moment_max, imag_rel, norm]).all())}


# ---------------------------------------------------------------------------
# wide_window: spectral certification at large truncation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WideTask:
    params: ModelParams
    n_prod: int
    zs: np.ndarray


def wide_round(seed: int, k: int) -> list[WideTask]:
    """Round k of the wide window: 10 gap/product certifications.

    7 tasks take c from +-[1.3, 3] and 3 from +-[0.2, 0.8]; |M| from
    [0.2, 3]; N from 300..1000 and n_prod from 5000..20000, each stratified
    over the round.  One task per round sits at N = 1000, so every round
    reaches the full dense memory of gap_report.  M < 0 makes mu1_array
    slower in proportion to n_prod, so the sign alternates along the n_prod
    order: each sign gets one task of every pair of adjacent n_prod strata.
    """
    rng = np.random.default_rng([seed, 2, k])
    R = WIDE_ROUND
    c_class = _shares(rng, R, {"fast": 7, "slow": 3})
    M_abs = _strata(rng, R, 0.2, 3.0)
    fast = iter(_strata(rng, 7, 1.3, 3.0))
    slow = iter(_strata(rng, 3, 0.2, 0.8))
    Ns = rng.permutation(np.append(np.floor(_strata(rng, R - 1, 300, 1000)), 1000).astype(int))
    n_prods = np.floor(_strata(rng, R, 5000, 20001)).astype(int)
    m_sign = np.empty(R)
    for pair in np.argsort(n_prods).reshape(-1, 2):
        m_sign[pair] = rng.permutation([1.0, -1.0])
    tasks = []
    for i in range(R):
        c = float(next(fast if c_class[i] == "fast" else slow)) * rng.choice([-1.0, 1.0])
        params = ModelParams(M=m_sign[i] * float(M_abs[i]), c=c,
                             T=1.1 * minimal_control_time(c),
                             omega0=((0.0, math.pi / 2.0),), N=int(Ns[i]))
        zs = rng.uniform(-50, 50, 60) + 1j * rng.uniform(-1, 1, 60)
        tasks.append(WideTask(params, int(n_prods[i]), zs))
    return tasks


def run_wide(task: WideTask) -> dict:
    """gap_report with the CLI's gap checks, then the product evaluator checks."""
    p = task.params
    N = p.N
    M, c = p.M, abs(p.c)
    rep = gaps.gap_report(p, N)
    resonant = sp.detect_resonance(p, N) is not None
    failed_checks = [name for name, ok in (
        ("branch1_cross_gap", rep.min_gap_branch1_cross >= abs(M) / (M * M + 1) - 1e-12),
        ("branch1_self_gap", rep.min_gap_branch1_self >= c - 1e-12),
        ("close_pair_scaled_floor", rep.gamma_fit > 0.0),
        ("imaginary_ladders", rep.ladder_ok),
        ("coincidence_census", len(rep.coincidences) == (1 if resonant else 0)),
    ) if not ok]

    ev = bio.ProductEvaluator(p, task.n_prod)
    worst = 0.0
    for z in task.zs:
        value = ev.evaluate(z).value
        worst = max(worst, abs(value - ev.evaluate_factored(z)) / max(abs(value), 1e-300))
    if not worst <= FACTOR_TOL:
        failed_checks.append("product_factorization_consistency")
    try:
        smallest = min(abs(ev.derivative_at_zero(m, j))
                       for m in range(1, 31) for j in (1, 2, 3))
    except bio.DoubleZeroError:
        smallest = 0.0
    if not smallest > 0.0:
        failed_checks.append("derivative_nonzero")
    return {"failed_checks": failed_checks, "factor_dev": float(worst),
            "certified": not failed_checks}


# Warm-up tasks have a fixed shape, smaller than any measured task, so that
# set-up time does not depend on the seed; they pay the first-call costs of
# the task's code paths.

def control_warmup(seed: int) -> ControlTask:
    rng = np.random.default_rng([seed, 1, 1 << 30])
    params = ModelParams(M=0.5, c=2.0, T=1.1 * minimal_control_time(2.0),
                         omega0=((0.0, math.pi / 2.0),), N=4)
    return ControlTask(params, _real_field(rng, 4, 4.0), _real_field(rng, 4, 3.0),
                       1024, "least_norm")


def wide_warmup(seed: int) -> WideTask:
    rng = np.random.default_rng([seed, 2, 1 << 30])
    params = ModelParams(M=1.0, c=2.0, T=1.1 * minimal_control_time(2.0),
                         omega0=((0.0, math.pi / 2.0),), N=100)
    return WideTask(params, 1000, rng.uniform(-50, 50, 60) + 1j * rng.uniform(-1, 1, 60))
