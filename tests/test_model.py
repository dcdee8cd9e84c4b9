import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from memwave.model import (
    DimensionError,
    FourierField,
    InvalidParameterError,
    ModelParams,
    StateTriple,
    arc_exponential_integral,
    arcs_total_length,
    minimal_control_time,
    normalize_arcs,
    point_in_arcs,
    shift_arcs,
    sobolev_norm,
    state_norm,
)


class TestSobolevNorm:
    def test_single_unit_mode(self):
        f = FourierField.from_coeffs({1: 1.0}, 4)
        assert sobolev_norm(f, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_mode_weight(self):
        f = FourierField.from_coeffs({2: 1.0}, 4)
        assert sobolev_norm(f, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_negative_order(self):
        # direct evaluation of the weighted coefficient sum
        f = FourierField.from_coeffs({1: 1.0, -1: 1.0}, 4)
        expected = math.sqrt(sum(abs(n) ** (-2.0) for n in (1, -1)))
        assert sobolev_norm(f, -1.0) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(math.sqrt(2.0))

    def test_empty_field(self):
        assert sobolev_norm(FourierField.zero(5), 2.0) == 0.0

    @given(scalar=st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                     allow_infinity=False),
           sigma=st.floats(-3.0, 3.0))
    def test_scaling_homogeneity(self, scalar, sigma):
        f = FourierField.from_coeffs({1: 0.7 + 0.1j, -3: 2.0, 2: -1.0j}, 3)
        lhs = sobolev_norm(scalar * f, sigma)
        rhs = abs(scalar) * sobolev_norm(f, sigma)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestStateNorm:
    def test_zero_triple(self):
        assert state_norm(StateTriple.zero(3), 0.0) == 0.0

    def test_single_component(self):
        s = StateTriple(FourierField.from_coeffs({1: 1.0}, 3),
                        FourierField.zero(3), FourierField.zero(3))
        assert state_norm(s, 0.0) == pytest.approx(1.0)

    def test_three_components(self):
        e1 = FourierField.from_coeffs({1: 1.0}, 3)
        assert state_norm(StateTriple(e1, e1, e1), 0.0) == pytest.approx(math.sqrt(3.0))

    def test_component_orders(self):
        # second slot carries the extra -1 of smoothing
        e2 = FourierField.from_coeffs({2: 1.0}, 3)
        s = StateTriple(FourierField.zero(3), e2, FourierField.zero(3))
        assert state_norm(s, 1.0) == pytest.approx(2.0 ** -2)

    def test_truncation_mismatch(self):
        with pytest.raises(DimensionError):
            StateTriple(FourierField.zero(3), FourierField.zero(4), FourierField.zero(3))


class TestFourierField:
    def test_mean_zero_enforced(self):
        with pytest.raises(InvalidParameterError):
            FourierField.from_coeffs({0: 1.0}, 3)
        vals = np.ones(7, dtype=complex)
        f = FourierField(3, vals)
        assert f.coeff(0) == 0.0

    def test_real_valued_flag(self):
        f = FourierField.from_coeffs({1: 1 + 2j, -1: 1 - 2j}, 2)
        assert f.real_valued
        g = FourierField.from_coeffs({1: 1 + 2j, -1: 1 + 2j}, 2)
        assert not g.real_valued

    def test_mode_outside_truncation(self):
        with pytest.raises(DimensionError):
            FourierField.from_coeffs({5: 1.0}, 3)


class TestModelParams:
    def test_rejections(self):
        good = dict(M=1.0, c=2.0, T=1.0, omega0=((0.0, 1.0),), N=2)
        with pytest.raises(InvalidParameterError):
            ModelParams(**{**good, "M": 0.0})
        for c in (-1.0, 0.0, 1.0):
            with pytest.raises(InvalidParameterError):
                ModelParams(**{**good, "c": c})
        with pytest.raises(InvalidParameterError):
            ModelParams(**{**good, "T": 0.0})
        with pytest.raises(InvalidParameterError):
            ModelParams(**{**good, "omega0": ()})

    @given(name=st.sampled_from(["M", "c", "T", "sigma"]),
           value=st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=30, deadline=None)
    def test_nonfinite_rejected(self, name, value):
        good = dict(M=1.0, c=2.0, T=1.0, omega0=((0.0, 1.0),), N=2, sigma=0.0)
        with pytest.raises(InvalidParameterError, match=f"{name} = {value}"):
            ModelParams(**{**good, name: value})

    def test_supercritical_flag(self):
        t0 = 2 * np.pi * (1 / 2 + 1 / 1 + 1 / 3)
        assert minimal_control_time(2.0) == pytest.approx(t0)
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, 1.0),), N=2)
        assert p.supercritical_time
        q = ModelParams(M=1.0, c=2.0, T=11.5, omega0=((0.0, 1.0),), N=2)
        assert not q.supercritical_time

    def test_grid_size_power_of_two(self):
        p = ModelParams(M=1.0, c=2.0, T=1.0, omega0=((0.0, 1.0),), N=6)
        assert p.grid_size == 32
        assert p.grid_size >= 4 * (p.N + 1)

    def test_json_round_trip(self):
        p = ModelParams(M=-2.0, c=0.5, T=3.0, omega0=((0.5, 1.0), (2.0, 2.5)), N=4,
                        sigma=1.0)
        q = ModelParams.from_json(p.to_json())
        assert q == p

    def test_seam_crossing_arc_split(self):
        p = ModelParams(M=1.0, c=2.0, T=1.0, omega0=((3.0, 3.5),), N=2)
        assert len(p.omega0) == 2
        assert arcs_total_length(p.omega0) == pytest.approx(0.5)


class TestArcs:
    def test_normalize_rejects_degenerate(self):
        with pytest.raises(InvalidParameterError):
            normalize_arcs([(1.0, 1.0)])
        with pytest.raises(InvalidParameterError):
            normalize_arcs([(0.0, 7.0)])

    @given(p=st.integers(-12, 12))
    @settings(max_examples=30, deadline=None)
    def test_arc_integral_against_quadrature(self, p):
        arcs = normalize_arcs([(0.2, 1.3), (2.0, 2.9)])
        closed = arc_exponential_integral(arcs, p)
        re = sum(quad(lambda x: math.cos(p * x), a, b)[0] for a, b in arcs)
        im = sum(quad(lambda x: math.sin(p * x), a, b)[0] for a, b in arcs)
        assert closed == pytest.approx(complex(re, im), abs=1e-10)

    @given(delta=st.floats(-20.0, 20.0), x=st.floats(-math.pi, math.pi))
    @settings(max_examples=60, deadline=None)
    def test_shift_preserves_membership(self, delta, x):
        arcs = normalize_arcs([(0.2, 1.3)])
        shifted = shift_arcs(arcs, delta)
        assert arcs_total_length(shifted) == pytest.approx(1.1, abs=1e-9)
        # interior points map to interior points (boundary excluded for safety)
        if point_in_arcs(x, arcs) and min(abs(x - 0.2), abs(x - 1.3)) > 1e-6:
            assert point_in_arcs(x + delta, shifted)
