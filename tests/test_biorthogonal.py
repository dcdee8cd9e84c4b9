import io
import math

import mpmath
import numpy as np
import pytest

from memwave.biorthogonal import (
    ConditioningError,
    DoubleZeroError,
    ProductEvaluator,
    _psi1_psi3,
    dual_family_gram,
    family_exponents,
    family_index,
    gauss_legendre,
    summation_inequality_check,
    verify_biorthogonality,
    window_gram,
    write_atoms_csv,
)
from memwave.model import ModelParams, minimal_control_time
from memwave.spectrum import resonance_velocity


@pytest.fixture(scope="module")
def evaluator():
    p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, np.pi / 2),), N=8)
    return p, ProductEvaluator(p, 2000)


class TestNuSequences:
    """The rescaled exponents nu = lam / scales of the evaluator's pair table."""

    def test_conjugate_symmetry(self, evaluator):
        _, ev = evaluator
        # member 1 of each pair branch carries the partner at -n of member 0
        nu_pos = ev.lam[:, 0] / ev.scales[:, None]
        nu_neg = ev.lam[:, 1] / ev.scales[:, None]
        for j in range(3):
            for n in range(1, 41):
                assert nu_neg[j, n - 1] == pytest.approx(np.conj(nu_pos[j, n - 1]))

    def test_limit_constants(self, evaluator):
        p, ev = evaluator
        M, c = p.M, p.c
        # nu(n) - i n at n = n_prod, within the O(1/n) remainder of its limit
        n = ev.n_prod
        tail = ev.lam[:, 0, -1] / ev.scales - 1j * n
        assert tail[0] == pytest.approx(M / c, rel=1e-3)
        assert tail[1] == pytest.approx(-M / (2 * (c + 1)), rel=1e-3)
        assert tail[2] == pytest.approx(-M / (2 * (c - 1)), rel=1e-3)

    def test_deviation_slope(self, evaluator):
        p, ev = evaluator
        M, c = p.M, p.c
        limits = (M / c, -M / (2 * (c + 1)), -M / (2 * (c - 1)))
        nvals = np.arange(1, ev.n_prod + 1, dtype=float)
        for j in range(3):
            dev = np.abs(ev.lam[j, 0] / ev.scales[j] - 1j * nvals - limits[j])
            sel = nvals >= 50
            slope = np.polyfit(np.log(nvals[sel]), np.log(dev[sel]), 1)[0]
            assert slope <= -0.8


@pytest.mark.parametrize("x", [101.0, 2001.0, 5001.0, 20001.0])
def test_polygamma_series_matches_mpmath(x):
    psi1, psi3 = _psi1_psi3(x)
    with mpmath.workdps(40):
        for value, order in ((psi1, 1), (psi3, 3)):
            exact = mpmath.psi(order, x)
            assert abs((mpmath.mpf(value) - exact) / exact) <= 5e-16


class TestProductEvaluator:
    def test_triple_zero_at_origin(self, evaluator):
        _, ev = evaluator
        assert ev.evaluate(0.0).value == 0.0

    def test_vanishes_at_eigen_zeros(self, evaluator):
        _, ev = evaluator
        for (m, j) in [(1, 1), (3, 2), (-7, 3), (500, 2)]:
            z0 = ev.zero_location(m, j)
            val = abs(ev.evaluate(z0).value)
            ring = max(abs(ev.evaluate(z0 + 0.25 * np.exp(2j * np.pi * k / 8)).value)
                       for k in range(8))
            assert val <= 1e-6 * ring

    def test_real_axis_bounded(self, evaluator):
        _, ev = evaluator
        vals = [abs(ev.evaluate(x).value) for x in np.linspace(-100, 100, 81)]
        assert np.isfinite(vals).all()
        # flat trend: the outer half does not blow past the inner half
        inner = max(vals[20:61])
        outer = max(max(vals[:20]), max(vals[61:]))
        assert outer <= 3.0 * inner

    def test_factorization_consistency(self, evaluator):
        _, ev = evaluator
        rng = np.random.default_rng(42)
        zs = rng.uniform(-50, 50, 100) + 1j * rng.uniform(-1.0, 1.0, 100)
        for z in zs:
            direct = ev.evaluate(z).value
            fact = ev.evaluate_factored(z)
            assert abs(direct - fact) <= 1e-10 * max(abs(direct), 1e-12)

    def test_exponential_type_probe(self, evaluator):
        p, ev = evaluator
        target = minimal_control_time(p.c) / 2.0
        for y in (1e3, -1e3):
            probe = ev.evaluate(1j * y).log_abs / abs(y)
            assert abs(probe - target) <= 0.15 * target

    def test_truncation_error_estimate_scales(self, evaluator):
        _, ev = evaluator
        e1 = ev.evaluate(1.0).truncation_error
        e2 = ev.evaluate(10.0).truncation_error
        assert e2 == pytest.approx(100.0 * e1, rel=1e-9)


class TestDerivative:
    def test_positive_at_all_zeros(self, evaluator):
        _, ev = evaluator
        for m in (1, 2, 5, -4, 30):
            for j in (1, 2, 3):
                assert abs(ev.derivative_at_zero(m, j)) > 0

    def test_scaled_floor_osc_branches(self, evaluator):
        _, ev = evaluator
        vals = [m * m * abs(ev.derivative_at_zero(m, j))
                for m in range(1, 31) for j in (2, 3)]
        assert min(vals) > 0

    def test_uniform_floor_real_branch(self, evaluator):
        _, ev = evaluator
        ms = np.arange(1, 31)
        vals = np.array([abs(ev.derivative_at_zero(int(m), 1)) for m in ms])
        assert vals.min() > 0
        # no 1/m^2 loss on the real branch: the trend is flat, not decaying
        slope = np.polyfit(np.log(ms), np.log(vals), 1)[0]
        assert slope >= -0.2

    def test_derivative_matches_finite_difference(self, evaluator):
        # cross-check the analytic product form against differencing, away
        # from any neighboring zero
        _, ev = evaluator
        z0 = ev.zero_location(2, 1)
        h = 1e-6
        fd = (ev.evaluate(z0 + h).value - ev.evaluate(z0 - h).value) / (2 * h)
        assert ev.derivative_at_zero(2, 1) == pytest.approx(fd, rel=1e-5)

    def test_double_zero_error_at_resonance(self):
        v = resonance_velocity(1, 1.0)
        p = ModelParams(M=1.0, c=v, T=30.0, omega0=((0.0, 1.0),), N=4)
        ev = ProductEvaluator(p, 200, apply_resonance_convention=False)
        with pytest.raises(DoubleZeroError):
            ev.derivative_at_zero(1, 3)
        ev_adj = ProductEvaluator(p, 200, apply_resonance_convention=True)
        assert abs(ev_adj.derivative_at_zero(1, 3)) > 0

    def test_one_shot_evaluator(self, params_c2):
        assert abs(ProductEvaluator(params_c2, 200).derivative_at_zero(1, 1)) > 0


class TestLogKernel:
    """The real-kernel log sum against 40-digit logs of the same factors."""

    @pytest.fixture(scope="class")
    def long_product(self):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, np.pi / 2),), N=8)
        return ProductEvaluator(p, 20_000)

    @pytest.mark.parametrize("where", ["large", "near_zero", "imaginary_axis"])
    def test_value_matches_mpmath(self, long_product, where):
        ev = long_product
        z = {"large": 45.3 + 0.6j,
             # a point of the 0.25 ring around a zero, as in the CLI's depth check
             "near_zero": ev.zero_location(5, 3) + 0.25,
             "imaginary_axis": 60j}[where]
        with mpmath.workdps(40):
            log_sum = 3 * mpmath.log(mpmath.mpc(z)) + mpmath.mpc(ev._tail_log(z))
            f = 1.0 - z / ev.roots
            for factors in f[:, 0] * f[:, 1]:
                log_sum += mpmath.fsum(mpmath.log(mpmath.mpc(x)) for x in factors.tolist())
            expected = complex(mpmath.exp(log_sum))
        value = ev.evaluate(z).value
        assert abs(value - expected) <= 5e-13 * abs(expected)


class TestWindowGram:
    def test_single_real_exponent(self):
        # one-element family: theta = e^{-lam t}/||e^{-lam t}||^2
        lam = np.array([0.7 + 0.0j])
        T = 4.0
        G = window_gram(lam, T)
        expected = (math.exp(0.7 * T) - math.exp(-0.7 * T)) / 1.4
        assert G[0, 0] == pytest.approx(expected, rel=1e-14)
        w = 1.0 / G[0, 0]
        nodes, weights = np.polynomial.legendre.leggauss(80)
        t = 0.5 * T * nodes
        wt = 0.5 * T * weights
        pairing = np.sum(wt * (w * np.exp(-0.7 * t)) * np.exp(-0.7 * t))
        assert pairing == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_exponent_sum_limit(self):
        # purely imaginary exponent: s = lam + conj(lam) = 0 on the diagonal
        G = window_gram(np.array([2j]), 3.0)
        assert G[0, 0] == pytest.approx(3.0)
        # near-zero s goes through the series branch smoothly
        G2 = window_gram(np.array([2j + 1e-9]), 3.0)
        assert G2[0, 0] == pytest.approx(3.0, rel=1e-8)

    def test_hermitian(self, rng):
        lam = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        G = window_gram(lam, 2.0)
        assert np.allclose(G, G.conj().T)


class TestDualFamily:
    def test_acceptance_configuration(self):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, np.pi / 2),), N=8)
        fam = dual_family_gram(p, 8, regularization=0.0)
        assert verify_biorthogonality(fam) <= 1e-8
        ms = np.arange(1, 9)
        abs_m = np.abs([m for m, _ in fam.index])
        peak = np.array([fam.norms[abs_m == m].max() for m in ms])
        growth = np.polyfit(np.log(ms), np.log(peak), 1)[0]
        assert growth <= 2.3

    def test_family_indexing(self, params_c2):
        idx = family_index(4)
        assert len(idx) == 24
        lam = family_exponents(params_c2, 4)
        assert len(lam) == 24
        fam = dual_family_gram(params_c2, 4)
        assert fam.coefficients.shape == (24, 24) and fam.norms.shape == (24,)
        # row (m, k) of the coefficients is dual to exponent (m, k): W G = I
        i = fam.index.index((-2, 3))
        assert np.abs(fam.coefficients[i] @ fam.gram - np.eye(24)[i]).max() <= 1e-8

    def test_norm_definition(self, params_c2):
        fam = dual_family_gram(params_c2, 3)
        nodes, weights = np.polynomial.legendre.leggauss(600)
        t = 0.5 * params_c2.T * nodes
        wt = 0.5 * params_c2.T * weights
        samples = np.exp(-np.outer(t, fam.exponents)) @ fam.coefficients[5]
        quad_norm = math.sqrt(float(np.sum(wt * np.abs(samples) ** 2)))
        assert fam.norms[5] == pytest.approx(quad_norm, rel=1e-9)

    def test_exact_collision_raises_conditioning(self):
        v = resonance_velocity(1, 1.0)
        p = ModelParams(M=1.0, c=v, T=30.0, omega0=((0.0, 1.0),), N=3)
        with pytest.raises(ConditioningError):
            dual_family_gram(p, 3, apply_resonance_convention=False)
        # with the splitting the family builds; resonant velocities sit near
        # the excluded c = 1, so the certificate floor is wider than at the
        # default configuration
        fam = dual_family_gram(p, 3, apply_resonance_convention=True)
        assert verify_biorthogonality(fam) <= 1e-6

    def test_norm_spread_gate(self):
        # growing exponentials over a long window span too many orders of
        # magnitude for a certified dual pairing at double precision
        p = ModelParams(M=-2.0, c=0.5, T=40.0, omega0=((0.0, 1.0),), N=4)
        with pytest.raises(ConditioningError, match="norms span"):
            dual_family_gram(p, 4)

    def test_regularization_trades_exactness(self, params_c2):
        fam = dual_family_gram(params_c2, 4, regularization=1e-6)
        dev = verify_biorthogonality(fam)
        assert 1e-12 < dev < 1e-2

    @pytest.mark.parametrize("M, c, N", [(1.0, 2.0, 6), (1.0, 2.0, 8), (-0.8, -2.5, 6)])
    def test_refinement_matches_newton_schulz(self, M, c, N):
        # reference: the inverse refined by two Newton-Schulz steps
        p = ModelParams(M=M, c=c, T=12.0, omega0=((0.0, np.pi / 2),), N=N)
        fam = dual_family_gram(p, N)
        G = fam.gram
        d = 1.0 / np.sqrt(np.abs(np.diag(G).real))
        As = G * d[:, None] * d[None, :]
        eye = np.eye(len(As))
        Ws = np.linalg.solve(As, eye.astype(complex))
        for _ in range(2):
            Ws = Ws + Ws @ (eye - As @ Ws)
        W = Ws * d[:, None] * d[None, :]
        dev = np.abs(fam.coefficients - W).max() / np.abs(W).max()
        assert dev <= 1e-12
        assert fam.norm_spread == pytest.approx(d.max() / d.min(), rel=1e-15)
        assert fam.refinement_residual <= 1e-12

    def test_csv(self, params_c2):
        fam = dual_family_gram(params_c2, 3)
        buf = io.StringIO()
        write_atoms_csv(buf, fam)
        assert buf.getvalue().splitlines()[0] == "m,k,norm,condition_number"


def test_gauss_legendre_cache_is_shared_and_read_only():
    nodes, weights = gauss_legendre(64)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
    again = gauss_legendre(64)
    assert again[0] is nodes and again[1] is weights
    with pytest.raises(ValueError):
        nodes[0] = 0.0


class TestSummationInequality:
    def test_single_coefficient(self, params_c2):
        fam = dual_family_gram(params_c2, 4)
        i = fam.index.index((1, 1))
        lhs, rhs, ratio = summation_inequality_check({(1, 1): 1.0}, fam)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(float(np.real(fam.gram[i, i])), rel=1e-12)
        assert ratio == pytest.approx(lhs / rhs)

    def test_zero_sequence(self, params_c2):
        fam = dual_family_gram(params_c2, 4)
        assert summation_inequality_check({}, fam) == (0.0, 0.0, 0.0)

    def test_seeded_draws_bounded(self):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, np.pi / 2),), N=8)
        fam = dual_family_gram(p, 8)
        rng = np.random.default_rng(42)
        ratios = []
        for _ in range(100):
            a = rng.standard_normal(len(fam.index)) + 1j * rng.standard_normal(len(fam.index))
            a /= np.linalg.norm(a)
            lhs, rhs, ratio = summation_inequality_check(a, fam)
            assert rhs > 0
            ratios.append(ratio)
        assert np.isfinite(ratios).all()
