import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memwave.model import (
    FourierField,
    InvalidParameterError,
    ModelParams,
    arc_exponential_integral,
    point_in_arcs,
)
from memwave.moment_control import (
    ControlAtom,
    ControlField,
    FrameError,
    MomentData,
    UnscalableRowError,
    duality_inequality_probe,
    mean_zero_correction,
    moment_rhs,
    synthesize_least_norm,
    synthesize_separated,
    to_physical_frame,
    verify_moment_constraints,
    write_control_grid_csv,
    _assemble_constraints,
    _representer_gram,
)


MU1_11 = 0.6823278038280193


@pytest.fixture
def control_setup():
    p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, np.pi / 2),), N=6)
    y0 = FourierField.from_coeffs({1: 0.1, -1: 0.1, 2: 0.05, -2: 0.05}, 6)
    y1 = FourierField.zero(6)
    return p, y0, y1, moment_rhs(y0, y1, p, 6)


class TestMomentRhs:
    def test_first_mode_value(self):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, 1.0),), N=3)
        md = moment_rhs(FourierField.from_coeffs({1: 1.0}, 3), FourierField.zero(3), p, 3)
        assert md.rhs[(1, 1)] == pytest.approx(-2 * np.pi * MU1_11, rel=1e-12)
        assert md.rhs[(3, 2)] == 0.0

    def test_zero_data(self):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, 1.0),), N=3)
        md = moment_rhs(FourierField.zero(3), FourierField.zero(3), p, 3)
        assert len(md.rhs) == 6 * md.N
        assert all(v == 0.0 for v in md.rhs.values())

    def test_velocity_only_data(self):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, 1.0),), N=3)
        md = moment_rhs(FourierField.zero(3), FourierField.from_coeffs({2: 1.0}, 3), p, 3)
        for j in (1, 2, 3):
            assert md.rhs[(2, j)] == pytest.approx(-2 * np.pi)
        assert all(md.rhs[(n, j)] == 0.0
                   for n in (-3, -2, -1, 1, 3) for j in (1, 2, 3))

    def test_rejects_unrepresented_modes(self):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, 1.0),), N=2)
        tall = FourierField.from_coeffs({3: 1.0}, 3)
        with pytest.raises(InvalidParameterError):
            moment_rhs(tall, FourierField.zero(3), p, 2)

    def test_data_norm_report(self, control_setup):
        _, y0, _, md = control_setup
        expected = math.sqrt(2 * (1.0 * 0.1**2) + 2 * (2.0**6 * 0.05**2))
        assert md.data_norms[0] == pytest.approx(expected)
        assert md.data_norms[1] == 0.0


class TestLeastNormSynthesis:
    def test_zero_data_zero_control(self):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, 1.0),), N=4)
        md = moment_rhs(FourierField.zero(4), FourierField.zero(4), p, 4)
        u = synthesize_least_norm(p, md)
        assert u.l2_norm() == pytest.approx(0.0, abs=1e-12)

    def test_constraint_residuals(self, control_setup):
        p, _, _, md = control_setup
        u = synthesize_least_norm(p, md)
        mx, rms, _ = verify_moment_constraints(u, md, p)
        assert mx <= 1e-8
        assert rms <= mx

    def test_real_control_for_real_data(self, control_setup):
        p, _, _, md = control_setup
        u = mean_zero_correction(synthesize_least_norm(p, md))
        ts = np.linspace(0.1, 11.9, 8)
        xs = np.linspace(-np.pi, np.pi, 31, endpoint=False)
        vals = u.evaluate(ts[:, None], xs[None, :])
        assert np.abs(vals.imag).max() <= 1e-9 * np.abs(vals).max()

    def test_norm_grows_toward_threshold(self):
        # recorded trend: the minimum-norm control grows as T decreases
        norms = []
        for T in (12.0, 11.7, 11.55):
            p = ModelParams(M=1.0, c=2.0, T=T, omega0=((0.0, np.pi / 2),), N=6)
            y0 = FourierField.from_coeffs({1: 0.1, -1: 0.1, 2: 0.05, -2: 0.05}, 6)
            md = moment_rhs(y0, FourierField.zero(6), p, 6)
            norms.append(synthesize_least_norm(p, md).l2_norm())
        assert norms[0] < norms[1] < norms[2]

    def test_subcritical_warns(self):
        p = ModelParams(M=1.0, c=2.0, T=11.0, omega0=((0.0, np.pi / 2),), N=2)
        md = moment_rhs(FourierField.from_coeffs({1: 0.1, -1: 0.1}, 2),
                        FourierField.zero(2), p, 2)
        with pytest.warns(UserWarning, match="threshold"):
            synthesize_least_norm(p, md)


def inline_least_norm_atoms(p: ModelParams, md: MomentData) -> tuple:
    """Reference: the least-norm equilibrate -> solve -> refine, written out inline."""
    index, modes, rates, labels = _assemble_constraints(p, md.N)
    carrier = ControlField(frame="moving", atoms=(), support0=p.omega0, velocity=p.c, T=p.T)
    S = _representer_gram(modes, rates, carrier, p.T)
    rhs = np.array([md.rhs[key] for key in index] + [0.0] * len(index), dtype=complex)
    A = S.T.copy()
    d = 1.0 / np.sqrt(np.abs(np.diag(A).real))
    As = A * d[:, None] * d[None, :]
    y = np.linalg.solve(As, d * rhs)
    for _ in range(2):
        y = y + np.linalg.solve(As, d * rhs - As @ y)
    kappa = d * y
    return tuple(
        ControlAtom(mode=n if kind == "mode" else None, rate=complex(rates[k]),
                    weight=complex(kappa[k]))
        for k, (kind, n, j) in enumerate(labels) if kappa[k] != 0.0)


class TestSharedSolver:
    @pytest.mark.parametrize("M, c, omega0", [
        (1.0, 2.0, ((0.0, np.pi / 2),)), (-0.8, -2.5, ((0.3, 1.5),))])
    def test_least_norm_atoms_bit_identical_to_inline_solve(self, M, c, omega0):
        p = ModelParams(M=M, c=c, T=12.0, omega0=omega0, N=6)
        y0 = FourierField.from_coeffs({1: 0.1, -1: 0.1, 2: 0.05, -2: 0.05}, 6)
        md = moment_rhs(y0, FourierField.zero(6), p, 6)
        assert synthesize_least_norm(p, md).atoms == inline_least_norm_atoms(p, md)


class TestL2Norm:
    @staticmethod
    def dense_norm(u: ControlField) -> float:
        """Reference: w S conj(w) with the atoms x atoms representer Gram S."""
        modes, rates, w = u.atom_arrays()
        S = _representer_gram(modes, rates, u, u.T)
        return float(np.sqrt(np.real(w @ S @ np.conj(w))))

    @pytest.fixture(scope="class")
    def setup_n8(self):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, np.pi / 2),), N=8)
        y0 = FourierField.from_coeffs({1: 0.1, -1: 0.1, 2: 0.05, -2: 0.05}, 8)
        return p, moment_rhs(y0, FourierField.zero(8), p, 8)

    def test_least_norm_control(self, setup_n8):
        p, md = setup_n8
        u = mean_zero_correction(synthesize_least_norm(p, md))
        assert u.l2_norm() == pytest.approx(self.dense_norm(u), rel=1e-10)

    def test_separated_control(self, setup_n8):
        p, md = setup_n8
        b = FourierField.from_coeffs({n: 1.0 / (1 + abs(n)) for n in range(-8, 9) if n}, 8)
        _, u = synthesize_separated(p, md, b)
        assert len(u.atoms) == 16 * 48
        assert u.l2_norm() == pytest.approx(self.dense_norm(u), rel=1e-10)


class TestMeanZeroCorrection:
    def test_constant_in_x_becomes_zero(self):
        u = ControlField(frame="moving",
                         atoms=(ControlAtom(mode=None, rate=0.5 + 1j, weight=2.0),),
                         support0=((0.0, 1.0),), velocity=2.0, T=4.0)
        v = mean_zero_correction(u)
        assert v.l2_norm() == pytest.approx(0.0, abs=1e-14)

    def test_idempotent(self):
        u = ControlField(frame="moving",
                         atoms=(ControlAtom(mode=2, rate=0.3 + 2j, weight=1.0 + 0.5j),
                                ControlAtom(mode=-1, rate=0.1 - 1j, weight=0.7)),
                         support0=((0.0, 1.0),), velocity=2.0, T=4.0)
        once = mean_zero_correction(u)
        twice = mean_zero_correction(once)
        assert once.atoms == twice.atoms

    def test_mean_vanishes_pointwise(self):
        u = ControlField(frame="moving",
                         atoms=(ControlAtom(mode=2, rate=0.3 + 2j, weight=1.0 + 0.5j),),
                         support0=((0.0, 1.0),), velocity=2.0, T=4.0)
        v = mean_zero_correction(u)
        h = 1.0 / 4000
        xs = (np.arange(4000) + 0.5) * h  # midpoint rule over the full arc
        for t in (0.0, 1.3, 3.9):
            vals = v.evaluate(np.full(xs.shape, t), xs)
            mean = h * vals.sum()
            assert abs(mean) <= 1e-6 * max(np.abs(vals).max(), 1e-12)

    def test_mode_rows_invariant(self, control_setup):
        p, _, _, md = control_setup
        u = synthesize_least_norm(p, md)
        before = verify_moment_constraints(u, md, p)[2][: 6 * md.N]
        after = verify_moment_constraints(mean_zero_correction(u), md, p)[2][: 6 * md.N]
        assert np.abs(before - after).max() <= 1e-10

    def test_already_mean_zero_unchanged(self, control_setup):
        # the minimum-norm control is mean-zero already: the correction is a
        # representation-level no-op up to roundoff
        p, _, _, md = control_setup
        u = mean_zero_correction(synthesize_least_norm(p, md))
        again = mean_zero_correction(u)
        ts = np.linspace(0.0, p.T, 5)
        xs = np.linspace(0.0, np.pi / 2, 7)[1:-1]
        v1 = u.evaluate(ts[:, None], xs[None, :])
        v2 = again.evaluate(ts[:, None], xs[None, :])
        assert np.abs(v1 - v2).max() <= 1e-14 * max(1.0, np.abs(v1).max())

    def test_requires_moving_frame(self):
        u = ControlField(frame="physical", atoms=(), support0=((0.0, 1.0),),
                         velocity=2.0, T=4.0)
        with pytest.raises(FrameError):
            mean_zero_correction(u)


class TestFrameChange:
    def test_norm_preserved(self, control_setup):
        p, _, _, md = control_setup
        u = mean_zero_correction(synthesize_least_norm(p, md))
        up = to_physical_frame(u)
        assert up.l2_norm() == pytest.approx(u.l2_norm(), rel=1e-12)

    def test_time_zero_agreement(self, control_setup):
        p, _, _, md = control_setup
        u = synthesize_least_norm(p, md)
        up = to_physical_frame(u)
        xs = np.linspace(-np.pi, np.pi, 41)
        assert np.allclose(up.evaluate(np.zeros_like(xs), xs),
                           u.evaluate(np.zeros_like(xs), xs))

    @given(t=st.floats(0.0, 12.0), x=st.floats(-math.pi, math.pi))
    @settings(max_examples=80, deadline=None)
    def test_support_membership(self, t, x):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, np.pi / 2),), N=2)
        u = ControlField(frame="physical",
                         atoms=(ControlAtom(mode=None, rate=0.0, weight=1.0),),
                         support0=p.omega0, velocity=p.c, T=p.T)
        val = complex(u.evaluate(t, x))
        inside = point_in_arcs(x + p.c * t, p.omega0)
        boundary = min(abs((x + p.c * t) % (2 * np.pi) - a % (2 * np.pi))
                       for arc in p.omega0 for a in arc)
        if boundary > 1e-9:
            assert (val != 0.0) == inside

    def test_json_round_trip(self, control_setup):
        p, _, _, md = control_setup
        u = synthesize_least_norm(p, md)
        v = ControlField.from_json(u.to_json())
        assert v == u

    def test_grid_csv(self, control_setup):
        p, _, _, md = control_setup
        u = synthesize_least_norm(p, md)
        buf = io.StringIO()
        write_control_grid_csv(buf, u, n_t=3, n_x=4)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,x,re_u,im_u"
        assert len(lines) == 1 + 3 * 4


class TestModeProjection:
    @staticmethod
    def per_atom_sum(u: ControlField, n: int, t: np.ndarray) -> np.ndarray:
        acc = np.zeros(t.shape, dtype=complex)
        for atom in u.atoms:
            m = atom.mode if atom.mode is not None else 0
            arc = arc_exponential_integral(u.support0, m - n) if u.support0 is not None \
                else (2 * np.pi if m == n else 0.0)
            acc += atom.weight * arc * np.exp(-atom.rate * t)
        if u.frame == "physical":
            acc = acc * np.exp(1j * n * u.velocity * t)
        return acc / (2 * np.pi)

    @pytest.mark.parametrize("frame", ["moving", "physical"])
    @pytest.mark.parametrize("support", [((-2.0, -1.2), (0.3, 1.9)), None])
    def test_matrix_form_matches_per_atom_sum(self, rng, frame, support):
        # shared rates, constant atoms and growing atoms, as synthesis produces
        rates = [0.4 + 3j, -0.6 + 1j, 0.1 - 2j]
        atoms = tuple(
            ControlAtom(mode=[None, -3, 0, 2, 5][k % 5], rate=rates[k % 3],
                        weight=complex(rng.standard_normal(), rng.standard_normal()))
            for k in range(17))
        u = ControlField(frame=frame, atoms=atoms, support0=support, velocity=-1.7, T=9.0)
        t = np.linspace(0.0, 9.0, 5001)  # spans two evaluation blocks
        modes = np.array([-6, -1, 0, 2, 4])
        rows = u.mode_samples(modes, t)
        for i, n in enumerate(modes):
            ref = self.per_atom_sum(u, int(n), t)
            for got in (u.mode_projection(int(n), t), rows[i]):
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestSeparatedSynthesis:
    def test_zero_data_zero_profile(self):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, 1.0),), N=2)
        md = moment_rhs(FourierField.zero(2), FourierField.zero(2), p, 2)
        b = FourierField.from_coeffs({n: 1.0 for n in (-2, -1, 1, 2)}, 2)
        profile, field = synthesize_separated(p, md, b)
        assert profile.evaluate(np.linspace(0, 12, 5)).max() == pytest.approx(0.0, abs=1e-12)
        assert field.l2_norm() == pytest.approx(0.0, abs=1e-12)

    def test_vanishing_profile_coefficient_rejected(self):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, 1.0),), N=2)
        md = moment_rhs(FourierField.zero(2), FourierField.zero(2), p, 2)
        b = FourierField.from_coeffs({1: 1.0, -1: 1.0, 2: 1.0}, 2)
        with pytest.raises(UnscalableRowError, match="-2"):
            synthesize_separated(p, md, b)

    def test_single_active_row(self):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, np.pi / 2),), N=2)
        rhs = {(n, j): (1.0 + 0.0j if (n, j) == (1, 1) else 0.0j)
               for n in (-2, -1, 1, 2) for j in (1, 2, 3)}
        md = MomentData(N=2, rhs=rhs, data_norms=(0.0, 0.0))
        b = FourierField.from_coeffs({n: 1.0 for n in (-2, -1, 1, 2)}, 2)
        _, field = synthesize_separated(p, md, b)
        mx, _, _ = verify_moment_constraints(field, md, p)
        assert mx <= 1e-8

    def test_constraints_satisfied(self, control_setup):
        p, y0, y1, md = control_setup
        b = FourierField.from_coeffs(
            {n: 1.0 / (1 + n * n) for n in range(-6, 7) if n != 0}, 6)
        _, field = synthesize_separated(p, md, b)
        mx, _, _ = verify_moment_constraints(field, md, p)
        assert mx <= 1e-8


class TestDualityInequality:
    def test_finite_and_stable_across_truncations(self):
        maxima = {}
        for N in (4, 6, 8):
            p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, np.pi / 2),), N=N)
            y0 = FourierField.from_coeffs({1: 0.1, -1: 0.1}, N)
            y1 = FourierField.zero(N)
            ratios = duality_inequality_probe(p, y0, y1, N, n_draws=100, seed=42)
            assert np.isfinite(ratios).all()
            maxima[N] = ratios.max()
        assert maxima[8] <= 100.0 * maxima[4]
