import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from memwave.beam import (
    BeamParams,
    beam_energy_report,
    beam_h1_norm,
    beam_residual_norm,
    beam_state,
    beam_sweep,
    energy_centroid,
    fit_loglog_slope,
    normalization_constant,
    richardson_limit,
)
from memwave.model import InvalidParameterError

EPS_SWEEP = (0.05, 0.02, 0.01, 0.005)


@pytest.fixture(scope="module")
def sweep():
    return beam_sweep(EPS_SWEEP, x0=1.0, M=1.0)


class TestNormalization:
    def test_offcenter_formula(self):
        bp = BeamParams(epsilon=0.01, x0=2.0)
        expected = (2.0 / math.pi) ** 0.25 * 0.01 ** (7.0 / 8.0) / 2.0
        assert normalization_constant(bp) == pytest.approx(expected, rel=1e-14)

    def test_center_formula(self):
        bp = BeamParams(epsilon=0.01, x0=0.0)
        expected = (32.0 / math.pi) ** 0.25 * 0.01 ** (5.0 / 8.0)
        assert normalization_constant(bp) == pytest.approx(expected, rel=1e-14)

    def test_h1_close_to_one_offcenter(self):
        assert beam_h1_norm(BeamParams(epsilon=0.01, x0=1.0)) == pytest.approx(1.0, abs=0.05)

    def test_h1_monotone_approach(self, sweep):
        h1 = [d.h1_norm for d in sweep]
        assert all(a > b for a, b in zip(h1, h1[1:]))
        assert abs(h1[-1] - 1.0) <= 0.05

    def test_h1_growth_at_center(self):
        # with the fixed eps^{5/8} amplitude at x0 = 0 the derivative mass
        # scales as eps^{-1/2}, so the norm grows like 2 eps^{-1/4}
        for eps in (0.02, 0.005):
            bp = BeamParams(epsilon=eps, x0=0.0)
            assert beam_h1_norm(bp) * eps**0.25 == pytest.approx(2.0, abs=0.02)

    def test_h1_scales_inversely_with_offcenter_location(self):
        # the norm integrals carry no x0 dependence, so the 1/x0 amplitude
        # factor makes the norm scale as 1/x0; unit normalization holds at
        # x0 = 1 only
        n1 = beam_h1_norm(BeamParams(epsilon=0.01, x0=1.0))
        n3 = beam_h1_norm(BeamParams(epsilon=0.01, x0=3.0))
        assert n3 == pytest.approx(n1 / 3.0, rel=1e-10)


class TestBeamState:
    def test_modulus_is_gaussian(self):
        bp = BeamParams(epsilon=0.02, x0=1.0)
        prof = beam_state(bp, 0.0)
        envelope = prof.c_eps * np.exp(-((prof.x - 1.0) ** 2) / math.sqrt(0.02))
        assert np.abs(np.abs(prof.values) - envelope).max() <= 1e-14

    def test_history_seed_scaling(self):
        bp = BeamParams(epsilon=0.02, x0=1.0)
        prof = beam_state(bp, 0.0)
        assert np.allclose(prof.q0 * bp.time_rate, prof.values)

    def test_time_growth(self):
        bp = BeamParams(epsilon=0.02, x0=1.0)
        p0 = beam_state(bp, 0.0)
        p1 = beam_state(bp, 1.0)
        assert np.allclose(p1.values, p0.values * math.exp(bp.time_rate))

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            BeamParams(epsilon=0.0)
        with pytest.warns(UserWarning, match="asymptotic"):
            BeamParams(epsilon=0.5)


class TestResidual:
    def test_decay_slope(self, sweep):
        slope = fit_loglog_slope(EPS_SWEEP, [d.residual_norm for d in sweep])
        assert slope >= 0.4

    def test_sign_flip_at_initial_time(self):
        r_plus = beam_residual_norm(BeamParams(epsilon=0.02, M=1.0), times=[0.0])
        r_minus = beam_residual_norm(BeamParams(epsilon=0.02, M=-1.0), times=[0.0])
        assert r_plus == pytest.approx(r_minus, rel=1e-14)

    def test_domain_truncation_independence(self):
        bp = BeamParams(epsilon=0.02)
        wide = dataclasses.replace(bp, half_width=2.0 * bp.half_width)
        assert abs(beam_residual_norm(bp) - beam_residual_norm(wide)) <= 1e-10


class TestEnergy:
    def test_initial_energy_closed_form(self):
        # E0 = (kappa^2 eps^2 + 1 + eps^{3/2}) / (2 x0^2), exactly, up to the
        # certifiable Gaussian-tail truncation
        for eps in (0.05, 0.01):
            bp = BeamParams(epsilon=eps, x0=1.0, M=1.0)
            expected = 0.5 * (bp.time_rate**2 * eps**2 + 1.0 + eps**1.5)
            assert beam_energy_report(bp).E0 == pytest.approx(expected, rel=1e-10)

    def test_offray_bound(self, sweep):
        for d in sweep:
            assert d.offray_ratio <= 3.0 * d.offray_bound

    def test_offray_numeric_scale(self):
        # at eps = 0.01 the bound factor is about 1.79e-3
        d = beam_energy_report(BeamParams(epsilon=0.01, x0=1.0))
        assert d.offray_bound == pytest.approx(math.exp(-2.0 * 0.01**-0.25), rel=1e-12)
        assert d.offray_bound == pytest.approx(1.79e-3, rel=0.01)
        assert d.offray_ratio <= 3.0 * 1.79e-3 * 1.01

    def test_monotone_localization(self, sweep):
        off = [d.offray_energy for d in sweep]
        assert all(a > b for a, b in zip(off, off[1:]))

    def test_extrapolated_limit_and_rate(self, sweep):
        lim, rate = richardson_limit(EPS_SWEEP, [d.E0 for d in sweep])
        assert rate >= 0.4
        diffs = [abs(d.E0 - lim) for d in sweep]
        assert fit_loglog_slope(EPS_SWEEP, diffs) >= 0.4

    def test_centroid_stationary(self):
        bp = BeamParams(epsilon=0.01, x0=1.0)
        drift = abs(energy_centroid(bp, 1.0) - energy_centroid(bp, 0.0))
        assert drift <= 0.01 ** 0.125


class TestQuadratureCrossChecks:
    def test_gaussian_moments(self):
        assert quad(lambda z: z**4 * math.exp(-z * z), -np.inf, np.inf)[0] == \
            pytest.approx(3.0 * math.sqrt(math.pi) / 4.0, abs=1e-8)
        assert quad(lambda z: z**2 * math.exp(-z * z), -np.inf, np.inf)[0] == \
            pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-10)

    def test_h1_against_closed_form(self):
        # || . ||^2 = (1 + eps^{3/2} + eps^2) / x0^2 for the off-center amplitude
        eps = 0.02
        bp = BeamParams(epsilon=eps, x0=1.0)
        expected = math.sqrt(1.0 + eps**1.5 + eps**2)
        assert beam_h1_norm(bp) == pytest.approx(expected, rel=1e-10)


class TestClosedFormsAgainstQuadrature:
    """The moment closed forms against quad of the pointwise integrands."""

    @staticmethod
    def l2sq(bp: BeamParams, weight, a: float, b: float) -> float:
        c2 = normalization_constant(bp) ** 2
        val, _ = quad(lambda x: c2 * weight(x) * math.exp(
            -2.0 * (x - bp.x0) ** 2 / math.sqrt(bp.epsilon)), a, b,
            limit=400, epsabs=0.0, epsrel=1e-13)
        return val

    @pytest.mark.parametrize("x0", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("eps", EPS_SWEEP)
    def test_every_integral(self, eps, x0):
        bp = BeamParams(epsilon=eps, x0=x0)
        kappa = bp.time_rate
        ratio = bp.M**3 * eps**2 / kappa
        lo, hi = bp.domain
        thr = eps ** 0.125

        def whole(weight):
            # split at the peak so both halves see the Gaussian's bulk
            return self.l2sq(bp, weight, lo, x0) + self.l2sq(bp, weight, x0, hi)

        def mod2(x):
            d_re = 4.0 * (x - x0) ** 2 / eps - 2.0 / math.sqrt(eps) - 1.0 / eps**2
            d_im = -4.0 * (x - x0) / (eps * math.sqrt(eps))
            return (kappa**2 + ratio * d_re) ** 2 + (ratio * d_im) ** 2

        def energy(x):
            return 0.5 * (kappa**2 + 1.0 / eps**2 + 4.0 * (x - x0) ** 2 / eps)

        h1 = math.sqrt(whole(lambda x: 1.0)
                       + whole(lambda x: 1.0 / eps**2 + 4.0 * (x - x0) ** 2 / eps))
        base = math.sqrt(whole(mod2))
        residual = max(base * math.exp(kappa * t) for t in np.linspace(0.0, 1.0, 9))
        E0 = whole(energy)
        off = self.l2sq(bp, energy, x0 + thr, hi) + self.l2sq(bp, energy, lo, x0 - thr)

        d = beam_energy_report(bp)
        assert beam_h1_norm(bp) == pytest.approx(h1, rel=1e-10)
        assert beam_residual_norm(bp) == pytest.approx(residual, rel=1e-10)
        assert beam_residual_norm(bp, times=[0.0]) == pytest.approx(base, rel=1e-10)
        assert d.h1_norm == pytest.approx(h1, rel=1e-10)
        assert d.residual_norm == pytest.approx(residual, rel=1e-10)
        assert d.E0 == pytest.approx(E0, rel=1e-10)
        assert d.offray_energy == pytest.approx(off, rel=1e-10)
        assert d.offray_ratio == pytest.approx(off / E0, rel=1e-10)
        assert d.offray_bound == pytest.approx(math.exp(-2.0 * eps ** -0.25), rel=1e-15)
        assert d.epsilon == eps

    def test_centroid_is_the_first_moment(self):
        bp = BeamParams(epsilon=0.02, x0=1.0)
        lo, hi = bp.domain

        def energy(x):
            return 0.5 * (bp.time_rate**2 + 1.0 / 0.02**2 + 4.0 * (x - 1.0) ** 2 / 0.02)

        num = self.l2sq(bp, lambda x: x * energy(x), lo, hi)
        den = self.l2sq(bp, energy, lo, hi)
        assert energy_centroid(bp, 0.0) == pytest.approx(num / den, rel=1e-12)
