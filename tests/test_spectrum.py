import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memwave.biorthogonal import ProductEvaluator, family_exponents
from memwave.model import InvalidParameterError, ModelParams
from memwave.spectrum import (
    ResonanceAmbiguityError,
    asymptotic_mu1,
    detect_resonance,
    eigenvector,
    eigenvector_residual,
    limit_gram_matrix,
    mode_operator_matrix,
    mu1_array,
    resonance_shift,
    resonance_velocity,
    riesz_matrix,
    shifted_eigenvalue,
    shifted_spectrum_arrays,
    singular_value_envelope,
    solve_cubic_spectrum,
    spectrum_modes,
    spectrum_table,
    write_spectrum_csv,
)


def mu1_oracle(n: int, M: float, dps: int = 40) -> float:
    """Arbitrary-precision bisection on the characteristic cubic."""
    with mpmath.workdps(dps):
        nn = mpmath.mpf(n) ** 2
        MM = mpmath.mpf(M)
        f = lambda m: m**3 + nn * m - MM * nn
        lo, hi = (mpmath.mpf(0), MM) if M > 0 else (MM, mpmath.mpf(0))
        for _ in range(dps * 4):
            mid = (lo + hi) / 2
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)


def mu1_remainder_oracle(n: int, M: float, dps: int = 40) -> float:
    """|mu1 - (M - M^3/n^2)| resolved in high precision.

    At n = 1e4 the remainder (~3 M^5 / n^4) sits below double resolution of
    the root itself, so the difference must be formed before rounding.
    """
    with mpmath.workdps(dps):
        nn = mpmath.mpf(n) ** 2
        MM = mpmath.mpf(M)
        f = lambda m: m**3 + nn * m - MM * nn
        lo, hi = (mpmath.mpf(0), MM) if M > 0 else (MM, mpmath.mpf(0))
        for _ in range(dps * 4):
            mid = (lo + hi) / 2
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        root = (lo + hi) / 2
        return float(abs(root - (MM - MM**3 / nn)))


def branch2_imag_remainder(n: np.ndarray, M: float) -> np.ndarray:
    """|Im(mu2) - n - 3 M^2/(8n)| via the cancellation-free rearrangement
    Im(mu2) - n = (3 mu1^2/4) / (Im(mu2) + n)."""
    mu = mu1_array(n, M)
    beta = np.sqrt(3 * (mu / 2) ** 2 + n.astype(float) ** 2)
    return np.abs(3 * mu**2 / (4 * (beta + n)) - 3 * M * M / (8 * n))


MU1_11 = 0.6823278038280193  # oracle value for n=1, M=1


class TestCubicRoots:
    def test_frozen_oracle_value(self):
        assert mu1_oracle(1, 1.0) == pytest.approx(MU1_11, abs=1e-15)
        tri = solve_cubic_spectrum(1, 1.0)
        assert tri.mu1 == pytest.approx(MU1_11, abs=1e-14)
        assert tri.mu2 == pytest.approx(-0.3411639019 + 1.1615414000j, abs=1e-9)
        assert tri.mu3 == pytest.approx(np.conj(tri.mu2))

    def test_vieta(self):
        for n in (1, 7, 300):
            for M in (1.0, -2.0, 0.5):
                assert max(solve_cubic_spectrum(n, M).vieta_residuals()) <= 1e-9

    def test_odd_symmetry_in_M(self):
        assert solve_cubic_spectrum(1, -1.0).mu1 == pytest.approx(-MU1_11, abs=1e-14)

    def test_large_n_limit(self):
        # remainder beyond M - M^3/n^2 is fourth order
        mu = solve_cubic_spectrum(100, 1.0).mu1
        assert mu == pytest.approx(1.0 - 1e-4, abs=1e-7)

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidParameterError):
            solve_cubic_spectrum(1, 0.0)
        with pytest.raises(InvalidParameterError):
            solve_cubic_spectrum(0, 1.0)

    def test_matches_oracle_along_sweep(self):
        # the far ratios |M|/n from 1e-3/2e5 to 10 reach both ends of the
        # closed form's asinh argument
        ns = [1, 2, 5, 17, 111, 1024, 200_000]
        for M in (1.0, -2.0, 0.5, 1e-3, -1e-3, 7.0, -10.0):
            mu = mu1_array(np.array(ns), M)
            for k, n in enumerate(ns):
                assert mu[k] == pytest.approx(mu1_oracle(n, M), rel=1e-13)

    @given(M=st.floats(-3.0, 3.0).filter(lambda m: abs(m) > 1e-3),
           n=st.integers(1, 5000))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_vieta_random(self, M, n):
        tri = solve_cubic_spectrum(n, M)
        assert abs(M) / (M * M + 1) - 1e-12 <= abs(tri.mu1) < abs(M)
        assert max(tri.vieta_residuals()) <= 1e-9


class TestAsymptotics:
    def test_formula_values(self):
        assert asymptotic_mu1(10, 1.0) == pytest.approx(0.99)
        assert asymptotic_mu1(1, 0.5) == pytest.approx(0.375)

    def test_remainder_slope(self):
        ns = np.unique(np.geomspace(100, 10_000, 25).astype(int))
        for M in (1.0, -2.0, 0.5):
            dev = [mu1_remainder_oracle(int(n), M) for n in ns]
            slope = np.polyfit(np.log(ns), np.log(dev), 1)[0]
            assert slope <= -3.5

    def test_monotonicity(self):
        n = np.arange(1, 5001)
        for M in (1.0, -2.0, 0.5):
            mu = np.abs(mu1_array(n, M))
            assert np.all(np.diff(mu) > 0)
            assert np.all(np.diff(mu / n) < 0)

    def test_branch2_imag_remainder(self):
        n = np.unique(np.geomspace(100, 10_000, 25).astype(int))
        dev = branch2_imag_remainder(n, 1.0)
        slope = np.polyfit(np.log(n), np.log(dev), 1)[0]
        assert slope <= -2.5

    def test_accumulation_envelope(self):
        # the real branch approaches M inside the 2 M^3/n^2 envelope from
        # some finite mode onward
        n = np.arange(1, 3001)
        for M in (1.0, -2.0, 0.5):
            mu = mu1_array(n, M)
            ok = np.abs(mu - M) <= 2.0 * abs(M) ** 3 / n.astype(float) ** 2
            assert ok.any()
            n0 = int(n[np.argmax(ok)])
            assert np.all(ok[n0 - 1:])
            assert n0 <= 2 * max(1.0, abs(M)) ** 2


class TestShiftedSpectrum:
    def test_basic_shift(self, params_c2):
        lam = shifted_eigenvalue(1, 1, params_c2).lam
        assert lam == pytest.approx(MU1_11 + 2j, abs=1e-12)

    def test_conjugate_link(self, params_c2):
        # lambda(-1, 3) = conj(lambda(1, 2))
        lam = shifted_eigenvalue(-1, 3, params_c2).lam
        assert lam == pytest.approx(-0.3411639019 - 3.1615414000j, abs=1e-9)
        assert lam == pytest.approx(np.conj(shifted_eigenvalue(1, 2, params_c2).lam))

    def test_shift_purely_imaginary(self, params_c2):
        for n in (-4, 2, 9):
            for j in (1, 2, 3):
                lam = shifted_eigenvalue(n, j, params_c2).lam
                mu = solve_cubic_spectrum(abs(n), params_c2.M).roots[j - 1]
                assert lam.real == pytest.approx(mu.real, abs=1e-14)

    def test_arrays_match_scalar_path(self, params_c2):
        arrays = shifted_spectrum_arrays(params_c2, 5)
        modes = spectrum_modes(5)
        for j in (1, 2, 3):
            for i, n in enumerate(modes):
                assert arrays[j][i] == pytest.approx(
                    shifted_eigenvalue(int(n), j, params_c2).lam, abs=1e-13)


class TestEigenvectors:
    def test_symbol_action(self, params_c2):
        for n in list(range(-8, 0)) + list(range(1, 9)):
            for j in (1, 2, 3):
                assert eigenvector_residual(n, j, params_c2) <= 1e-9

    def test_components_structure(self, params_c2):
        v = eigenvector(2, 3, params_c2)
        lam = shifted_eigenvalue(2, 3, params_c2).lam
        assert v.components[0] == 1.0
        assert v.components[1] == pytest.approx(-lam)
        assert v.components[2] == pytest.approx(1.0 / (lam - 1j * params_c2.c * 2))

    def test_operator_matrix_shape(self, params_c2):
        A = mode_operator_matrix(3, params_c2)
        v = eigenvector(3, 1, params_c2).components
        lam = shifted_eigenvalue(3, 1, params_c2).lam
        assert np.abs(A @ v - lam * v).max() <= 1e-9 * np.abs(lam * v).max()


class TestRieszMatrices:
    def test_determinant_nonzero(self, params_c2):
        for n in (-7, 1, 4, 250):
            rm = riesz_matrix(n, params_c2)
            assert abs(rm.det) > 0

    def test_singular_values_against_dense_oracle(self, params_c2):
        for n in (-5, 1, 3, 77):
            rm = riesz_matrix(n, params_c2)
            oracle = np.linalg.svd(rm.B, compute_uv=False)[::-1]
            assert np.allclose(rm.singular_values, oracle, rtol=1e-10, atol=1e-12)
            assert rm.singular_values[0] > 0

    def test_envelope_positive(self, params_c2):
        lo, hi = singular_value_envelope(params_c2, 50)
        assert 0 < lo < hi
        with pytest.raises(InvalidParameterError):
            singular_value_envelope(params_c2, 0)

    def test_envelope_against_dense_svd(self, params_c2):
        # the same 400 frames, assembled here from the scalar eigenvalues and
        # reduced by LAPACK's SVD instead of the closed-form eigenvalues
        for p in (params_c2, ModelParams(M=-2.0, c=0.5, T=30.0, omega0=((0.0, 1.0),), N=2)):
            frames = []
            for n in list(range(-200, 0)) + list(range(1, 201)):
                lam = np.array([shifted_eigenvalue(n, j, p).lam for j in (1, 2, 3)])
                frames.append([np.ones(3), lam / abs(n), 1.0 / (lam - 1j * p.c * n)])
            sv = np.linalg.svd(np.array(frames), compute_uv=False)
            lo, hi = singular_value_envelope(p, 200)
            assert lo == pytest.approx(sv.min(), rel=1e-12)
            assert hi == pytest.approx(sv.max(), rel=1e-12)

    def test_limit_matrix_entrywise(self):
        # imaginary corrections at n decay like C/n with C < 1 for c = 1/2
        p = ModelParams(M=1.0, c=0.5, T=30.0, omega0=((0.0, 1.0),), N=2)
        Bt = limit_gram_matrix(p)
        H = riesz_matrix(10_000, p).B
        assert np.abs(H.conj().T @ H - Bt).max() <= 1e-4

    def test_limit_matrix_determinant(self):
        # det of the limit matrix computes to 4 / M^2 (rank-one-sum structure:
        # det [u v e1/|M|]^2 with u = ones, v = (c, c+1, c-1))
        for M in (1.0, -2.0, 0.5):
            for c in (2.0, 0.5, 3.7):
                p = ModelParams(M=M, c=c, T=30.0, omega0=((0.0, 1.0),), N=2)
                det = np.linalg.det(limit_gram_matrix(p))
                assert det == pytest.approx(4.0 / M**2, rel=1e-10)

    def test_gram_det_converges_to_limit_det(self):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, 1.0),), N=2)
        det_inf = np.linalg.det(limit_gram_matrix(p))
        det_n = abs(np.linalg.det(riesz_matrix(10_000, p).B)) ** 2
        assert det_n == pytest.approx(det_inf, abs=1e-6)

    def test_limit_matrix_positive_definite(self, params_c2):
        evals = np.linalg.eigvalsh(limit_gram_matrix(params_c2))
        assert evals.min() > 0


class TestResonance:
    def test_forward_map_value(self):
        v = resonance_velocity(1, 1.0)
        beta = math.sqrt(3 * (MU1_11 / 2) ** 2 + 1.0)
        assert v == pytest.approx(beta, abs=1e-14)
        assert v == pytest.approx(1.1615414000, abs=1e-9)

    def test_detection_at_constructed_velocity(self):
        v = resonance_velocity(1, 1.0)
        p = ModelParams(M=1.0, c=v, T=30.0, omega0=((0.0, 1.0),), N=8)
        assert detect_resonance(p, 50) == (1, pytest.approx(v))

    def test_no_hit_for_generic_velocities(self, params_c2):
        # all resonant velocities lie in (1, sqrt(1 + 3 M^2 / 4)]
        assert detect_resonance(params_c2, 50) is None
        p = ModelParams(M=1.0, c=0.9, T=30.0, omega0=((0.0, 1.0),), N=8)
        assert detect_resonance(p, 50) is None
        cap = math.sqrt(1 + 3 / 4)
        vs = [resonance_velocity(n, 1.0) for n in range(1, 40)]
        assert all(1.0 < v <= cap for v in vs)

    def test_ambiguity_error(self):
        p = ModelParams(M=1.0, c=1.1, T=30.0, omega0=((0.0, 1.0),), N=8)
        with pytest.raises(ResonanceAmbiguityError):
            detect_resonance(p, 50, tol=0.5)

    def test_collision_is_exact(self):
        v = resonance_velocity(1, 1.0)
        p = ModelParams(M=1.0, c=v, T=30.0, omega0=((0.0, 1.0),), N=4)
        lam_m2 = shifted_eigenvalue(-1, 2, p).lam
        lam_p3 = shifted_eigenvalue(1, 3, p).lam
        assert lam_m2 == lam_p3

    def test_splitting_convention(self):
        v = resonance_velocity(1, 1.0)
        p = ModelParams(M=1.0, c=v, T=30.0, omega0=((0.0, 1.0),), N=4)
        adj = shifted_eigenvalue(-1, 2, p, apply_resonance_convention=True)
        assert adj.resonance_adjusted
        assert adj.lam == pytest.approx(resonance_shift(1, p))
        assert adj.lam == pytest.approx(complex(MU1_11 / 2, -0.5), abs=1e-12)
        untouched = shifted_eigenvalue(1, 2, p, apply_resonance_convention=True)
        assert not untouched.resonance_adjusted

    @given(M=st.floats(0.1, 3.0), sign=st.sampled_from([1.0, -1.0]),
           n_c=st.integers(1, 8), extra=st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_convention_agrees_across_users(self, M, sign, n_c, extra):
        M, N = sign * M, n_c + extra
        p = ModelParams(M=M, c=resonance_velocity(n_c, M), T=30.0,
                        omega0=((0.0, 1.0),), N=N)
        split = resonance_shift(n_c, p)
        at = N - n_c  # position of mode -n_c in spectrum_modes(N)
        plain = shifted_spectrum_arrays(p, N)
        arrays = shifted_spectrum_arrays(p, N, True)
        for j in (1, 2, 3):
            moved = np.nonzero(arrays[j] != plain[j])[0].tolist()
            assert moved == ([at] if j == 2 else [])
        assert arrays[2][at] == split
        assert family_exponents(p, N)[2 * N + at] == split
        ev = ProductEvaluator(p, 100, apply_resonance_convention=True)
        assert ev.resonance_adjusted and ev.lam_b[3][n_c - 1] == split
        lam = shifted_eigenvalue(-n_c, 2, p, apply_resonance_convention=True)
        assert lam.resonance_adjusted and lam.lam == split
        adjusted = [row for row in spectrum_table(p, N, True) if row[4]]
        assert adjusted == [(-n_c, 2, split.real, split.imag, True)]


class TestExport:
    def test_table_and_csv(self, params_c2):
        rows = spectrum_table(params_c2, 3)
        assert len(rows) == 18
        assert all(len(r) == 5 for r in rows)
        buf = io.StringIO()
        write_spectrum_csv(buf, params_c2, 3)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,j,re_lambda,im_lambda,resonance_adjusted"
        assert len(lines) == 19
