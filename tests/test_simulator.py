import io
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from memwave.model import (
    FourierField,
    InvalidParameterError,
    ModelParams,
    StateTriple,
    arc_exponential_integral,
    minimal_control_time,
    sobolev_norm,
)
from memwave.moment_control import (
    ControlAtom,
    ControlField,
    FrameError,
    mean_zero_correction,
    moment_rhs,
    synthesize_least_norm,
    synthesize_separated,
    to_physical_frame,
)
from memwave.simulator import (
    adjoint_physical_frame,
    duality_residual,
    expand_in_eigenbasis,
    simulate_adjoint_exact,
    simulate_forward,
    terminal_report,
    write_trajectory_csv,
    z_consistency_residual,
)
from memwave.spectrum import eigenvector, mu1_array, shifted_eigenvalue, spectrum_modes

from conftest import random_field


def forward_generator(n: int, M: float) -> np.ndarray:
    return np.array([[0, 1, 0], [-n * n, 0, -M], [-n * n, 0, 0]], dtype=complex)


def adjoint_generator(n: int, M: float) -> np.ndarray:
    return np.array([[0, 1, 0], [-n * n, 0, M * n * n], [-1, 0, 0]], dtype=complex)


@pytest.fixture
def p8():
    return ModelParams(M=1.0, c=2.0, T=5.0, omega0=((0.0, np.pi / 2),), N=8)


class TestForwardFree:
    def test_zero_everything(self, p8):
        traj = simulate_forward(p8, FourierField.zero(8), FourierField.zero(8),
                                None, 64, store_stride=16)
        assert np.abs(traj.states).max() == 0.0

    def test_single_mode_matches_matrix_exponential(self, p8):
        y0 = FourierField.from_coeffs({1: 1.0}, 8)
        traj = simulate_forward(p8, y0, FourierField.zero(8), None, 400, store_stride=80)
        i = list(traj.modes).index(1)
        A = forward_generator(1, 1.0)
        for k, t in enumerate(traj.times):
            oracle = expm(A * t) @ np.array([1, 0, 0], dtype=complex)
            assert np.abs(traj.states[i, :, k] - oracle).max() <= 1e-8

    def test_all_low_modes_match_oracle(self, p8):
        worst = 0.0
        for n in list(range(-8, 0)) + list(range(1, 9)):
            y0 = FourierField.from_coeffs({n: 1.0}, 8)
            traj = simulate_forward(p8, y0, FourierField.zero(8), None, 250,
                                    store_stride=50)
            i = list(traj.modes).index(n)
            A = forward_generator(n, 1.0)
            for k, t in enumerate(traj.times):
                oracle = expm(A * t) @ np.array([1, 0, 0], dtype=complex)
                scale = max(np.abs(oracle).max(), 1.0)
                worst = max(worst, np.abs(traj.states[i, :, k] - oracle).max() / scale)
        assert worst <= 1e-8

    def test_growth_rate_is_real_branch(self):
        p = ModelParams(M=1.0, c=2.0, T=20.0, omega0=((0.0, 1.0),), N=1)
        y0 = FourierField.from_coeffs({1: 1.0}, 1)
        traj = simulate_forward(p, y0, FourierField.zero(1), None, 2000, store_stride=20)
        i = list(traj.modes).index(1)
        amps = np.abs(traj.states[i, 0, :])
        late = traj.times > 10
        slope = np.polyfit(traj.times[late], np.log(amps[late]), 1)[0]
        assert slope == pytest.approx(0.6823278, abs=5e-3)

    def test_rk4_agrees_with_exponential(self, p8, rng):
        y0, y1 = random_field(rng, 8), random_field(rng, 8)
        a = simulate_forward(p8, y0, y1, None, 4000, store_stride=1000)
        b = simulate_forward(p8, y0, y1, None, 4000, store_stride=1000, method="rk4")
        assert np.abs(a.states - b.states).max() <= 1e-6 * np.abs(a.states).max()

    def test_resolution_rule_warning(self, p8):
        # the rule bounds the per-step source quadrature of the stepping methods
        with pytest.warns(UserWarning, match="resolution"):
            simulate_forward(p8, FourierField.zero(8), FourierField.zero(8), None, 16,
                             method="exponential")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate_forward(p8, FourierField.zero(8), FourierField.zero(8), None, 16)


class TestForcedRuns:
    def test_moving_frame_control_rejected(self, p8):
        u = ControlField(frame="moving", atoms=(), support0=p8.omega0,
                         velocity=p8.c, T=p8.T)
        with pytest.raises(FrameError):
            simulate_forward(p8, FourierField.zero(8), FourierField.zero(8), u, 64)

    def test_truncation_mismatch(self, p8):
        with pytest.raises(Exception):
            simulate_forward(p8, FourierField.zero(4), FourierField.zero(8), None, 64)

    def test_grid_projection_converges_to_closed_form(self, p8):
        u = ControlField(
            frame="physical",
            atoms=(ControlAtom(mode=2, rate=0.5 + 1j, weight=1.0),),
            support0=p8.omega0, velocity=p8.c, T=p8.T)
        t = np.linspace(0.0, 1.0, 7)
        exact = u.mode_projection(1, t)
        errs = []
        for K in (256, 1024, 4096):
            approx = np.empty_like(exact)
            x = 2 * np.pi * np.arange(K) / K
            for k, tk in enumerate(t):
                spec = np.fft.fft(u.evaluate(np.full(K, tk), x)) / K
                approx[k] = spec[1 % K]
            errs.append(np.abs(approx - exact).max())
        assert errs[2] < errs[0]
        assert errs[2] <= 5e-3 * max(np.abs(exact).max(), 1e-12)

    def test_forcing_paths_cross_validate(self, p8, rng):
        u = ControlField(
            frame="physical",
            atoms=(ControlAtom(mode=1, rate=0.2 + 2j, weight=0.5),
                   ControlAtom(mode=-3, rate=-0.1 + 1j, weight=0.25j)),
            support0=p8.omega0, velocity=p8.c, T=p8.T)
        y0, y1 = random_field(rng, 8, 0.1), random_field(rng, 8, 0.1)
        a = simulate_forward(p8, y0, y1, u, 600, store_stride=600)
        b = simulate_forward(p8, y0, y1, u, 600, store_stride=600,
                             method="exponential", forcing_path="grid")
        dev = np.abs(a.states[:, :, -1] - b.states[:, :, -1]).max()
        assert dev <= 5e-3 * np.abs(a.states[:, :, -1]).max()

    def test_z_consistency_dense(self, p8, rng):
        u = ControlField(
            frame="physical",
            atoms=(ControlAtom(mode=1, rate=0.2 + 2j, weight=0.5),),
            support0=p8.omega0, velocity=p8.c, T=p8.T)
        y0, y1 = random_field(rng, 8), random_field(rng, 8)
        traj = simulate_forward(p8, y0, y1, u, 1024, store_stride=1)
        assert z_consistency_residual(traj) <= 1e-8

    def test_scale_invariance_of_energy_bound(self, p8, rng):
        # the realized stability constant sup_t ||state|| / (data + control)
        # is invariant under joint rescaling of data and control
        y0, y1 = random_field(rng, 8), random_field(rng, 8)
        u = ControlField(
            frame="physical",
            atoms=(ControlAtom(mode=2, rate=0.1 + 1j, weight=1.0),),
            support0=p8.omega0, velocity=p8.c, T=p8.T)

        def realized_constant(scale: float) -> float:
            traj = simulate_forward(
                p8, scale * y0, scale * y1,
                ControlField(frame="physical",
                             atoms=tuple(ControlAtom(a.mode, a.rate, scale * a.weight)
                                         for a in u.atoms),
                             support0=u.support0, velocity=u.velocity, T=u.T),
                512, store_stride=64)
            sup = max(
                sobolev_norm(traj.state_at(k).first, 1.0)
                + sobolev_norm(traj.state_at(k).second, 0.0)
                for k in range(len(traj.times)))
            data = (sobolev_norm(y0, 1.0) + sobolev_norm(y1, 0.0)) * scale
            return sup / (data + scale * u.l2_norm())

        c1, c7 = realized_constant(1.0), realized_constant(7.0)
        assert c1 == pytest.approx(c7, rel=1e-10)


def forced_mode_oracle(p: ModelParams, u: ControlField, n: int, state0: np.ndarray,
                       t: float) -> np.ndarray:
    """expm of the mode-n generator augmented by one decaying state per atom."""
    R = len(u.atoms)
    A = np.zeros((3 + R, 3 + R), dtype=complex)
    A[:3, :3] = forward_generator(n, p.M)
    for r, atom in enumerate(u.atoms):
        m = atom.mode if atom.mode is not None else 0
        arc = arc_exponential_integral(u.support0, m - n)
        A[1, 3 + r] = atom.weight * arc / (2 * np.pi)
        A[3 + r, 3 + r] = -(atom.rate - 1j * u.velocity * n)
    return (expm(A * t) @ np.concatenate([state0, np.ones(R)]))[:3]


class TestExactRoute:
    def test_free_modes_match_oracle_to_roundoff(self, p8):
        worst = 0.0
        for n in list(range(-8, 0)) + list(range(1, 9)):
            y0 = FourierField.from_coeffs({n: 1.0}, 8)
            y1 = FourierField.from_coeffs({n: -0.5j}, 8)
            traj = simulate_forward(p8, y0, y1, None, 10, store_stride=2)
            i = list(traj.modes).index(n)
            for k, t in enumerate(traj.times):
                oracle = expm(forward_generator(n, p8.M) * t) @ np.array([1, -0.5j, 0])
                worst = max(worst, np.abs(traj.states[i, :, k] - oracle).max()
                            / max(np.abs(oracle).max(), 1.0))
        assert worst <= 1e-12

    def test_forced_modes_match_augmented_oracle(self, p8, rng):
        u = ControlField(
            frame="physical",
            atoms=(ControlAtom(mode=1, rate=0.2 + 2j, weight=0.5),
                   ControlAtom(mode=-3, rate=-0.1 + 1j, weight=0.25j),
                   ControlAtom(mode=None, rate=0.2 + 2j, weight=-0.3)),
            support0=p8.omega0, velocity=p8.c, T=p8.T)
        y0, y1 = random_field(rng, 8, 0.1), random_field(rng, 8, 0.1)
        traj = simulate_forward(p8, y0, y1, u, 8, store_stride=4)
        for n in (-8, -3, 1, 2, 7):
            i = list(traj.modes).index(n)
            state0 = np.array([y0.coeff(n), y1.coeff(n), 0.0])
            for k, t in enumerate(traj.times):
                oracle = forced_mode_oracle(p8, u, n, state0, t)
                assert np.abs(traj.states[i, :, k] - oracle).max() <= 1e-12 * max(
                    np.abs(oracle).max(), 1.0)

    @pytest.mark.parametrize("offset", [0.0, 1e-11, 1e-6])
    def test_removable_singularity(self, p8, offset):
        # at offset 0 the atom's rate makes mu(1, 1) + rate - ic vanish: the
        # mode-1 forcing resonates with the growing branch and the response is
        # t e^{mu t}; 1e-6 sits just above the switch to the series form
        mu1 = mu1_array([1], p8.M)[0]
        u = ControlField(
            frame="physical",
            atoms=(ControlAtom(mode=1, rate=complex(-mu1 + offset, p8.c), weight=1.0),),
            support0=p8.omega0, velocity=p8.c, T=p8.T)
        traj = simulate_forward(p8, FourierField.zero(8), FourierField.zero(8), u, 10,
                                store_stride=5)
        assert np.isfinite(traj.states).all()
        for n in (1, -1, 2):
            i = list(traj.modes).index(n)
            for k, t in enumerate(traj.times):
                oracle = forced_mode_oracle(p8, u, n, np.zeros(3), t)
                assert np.abs(traj.states[i, :, k] - oracle).max() <= 1e-9 * max(
                    np.abs(oracle).max(), 1.0)

    def test_simpson_converges_to_exact_at_fourth_order(self):
        p = ModelParams(M=0.991, c=-1.74, T=1.1 * minimal_control_time(-1.74),
                        omega0=((-0.4, 1.0),), N=4)
        y0 = FourierField.from_coeffs({1: 0.1, -1: 0.1, 2: 0.03j, -2: -0.03j}, 4)
        y1 = FourierField.from_coeffs({1: -0.05, -1: -0.05}, 4)
        u = to_physical_frame(mean_zero_correction(
            synthesize_least_norm(p, moment_rhs(y0, y1, p, 4))))
        exact = simulate_forward(p, y0, y1, u, 2048).states[:, :, -1]
        size = sobolev_norm(y0, 1.0) + sobolev_norm(y1, 0.0)
        errs = [np.abs(simulate_forward(p, y0, y1, u, nt, store_stride=nt,
                                        method="exponential").states[:, :, -1]
                       - exact).max() / size
                for nt in (1024, 2048, 4096, 8192)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all((orders > 3.9) & (orders < 4.1)), (errs, orders)
        rep = terminal_report(simulate_forward(p, y0, y1, u, 2048), y0, y1)
        assert rep["relative_total"] <= 1e-3 * errs[-1]

    def test_grid_forcing_refused(self, p8):
        u = ControlField(frame="physical", atoms=(), support0=p8.omega0,
                         velocity=p8.c, T=p8.T)
        with pytest.raises(InvalidParameterError, match="stepping method"):
            simulate_forward(p8, FourierField.zero(8), FourierField.zero(8), u, 64,
                             forcing_path="grid")


class TestAdjointExact:
    def test_zero_terminal(self, p8):
        traj = simulate_adjoint_exact(p8, StateTriple.zero(8), np.linspace(0, 5, 6))
        assert np.abs(traj.states).max() == 0.0

    def test_eigenvector_terminal_evolves_by_exponential(self, p8):
        ev = eigenvector(1, 1, p8).components
        vals = np.zeros((3, 17), dtype=complex)
        for c in range(3):
            vals[c, 1 + 8] = ev[c]
        term = StateTriple(*[FourierField(8, vals[c]) for c in range(3)])
        ts = np.linspace(0, 5, 11)
        traj = simulate_adjoint_exact(p8, term, ts)
        lam = shifted_eigenvalue(1, 1, p8).lam
        i = list(traj.modes).index(1)
        expected = np.exp(lam * (5.0 - ts))[None, :] * ev[:, None]
        assert np.abs(traj.states[i] - expected).max() <= 1e-12

    def test_expansion_round_trip(self, p8, rng):
        term = StateTriple(random_field(rng, 8), random_field(rng, 8),
                           random_field(rng, 8))
        b = expand_in_eigenbasis(p8, term)
        from memwave.simulator import _psi_basis

        _, P = _psi_basis(p8, 8)
        rec = np.einsum("mij,mj->mi", P, b)
        idx = spectrum_modes(8) + 8
        orig = np.stack([term.first.values[idx], term.second.values[idx],
                         term.third.values[idx]], axis=1)
        assert np.abs(rec - orig).max() <= 1e-10 * max(1.0, np.abs(orig).max())

    def test_physical_frame_against_matrix_exponential(self, p8, rng):
        term = StateTriple(random_field(rng, 8), random_field(rng, 8),
                           random_field(rng, 8))
        ts = np.linspace(0, 5, 9)
        adj = adjoint_physical_frame(p8, term, ts)
        for n in (-5, 1, 3):
            A = adjoint_generator(n, p8.M)
            i = list(adj.modes).index(n)
            tv = np.array([term.first.coeff(n), term.second.coeff(n),
                           term.third.coeff(n)])
            for k, t in enumerate(ts):
                oracle = expm(A * (t - 5.0)) @ tv
                assert np.abs(adj.states[i, :, k] - oracle).max() <= 1e-10 * max(
                    1.0, np.abs(oracle).max())


class TestDuality:
    def test_trivial_zero(self, p8):
        out = duality_residual(p8, FourierField.zero(8), FourierField.zero(8),
                               None, StateTriple.zero(8), 64)
        assert out["residual"] == 0.0

    def test_seeded_random_within_tolerance(self, rng):
        p4 = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, np.pi / 2),), N=4)
        y0, y1 = random_field(rng, 4), random_field(rng, 4)
        u = ControlField(
            frame="physical",
            atoms=tuple(ControlAtom(mode=int(rng.integers(-4, 5)),
                                    rate=complex(0.3 * rng.standard_normal(),
                                                 3.0 * rng.standard_normal()),
                                    weight=complex(rng.standard_normal(),
                                                   rng.standard_normal()))
                        for _ in range(5)),
            support0=p4.omega0, velocity=p4.c, T=p4.T)
        term = StateTriple(random_field(rng, 4), random_field(rng, 4),
                           random_field(rng, 4))
        for method in ("exponential", "rk4"):
            out = duality_residual(p4, y0, y1, u, term, 4096, method=method)
            assert out["residual"] <= 1e-6

    def test_rk4_fourth_order_decay(self, rng):
        p4 = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, np.pi / 2),), N=4)
        y0, y1 = random_field(rng, 4), random_field(rng, 4)
        u = ControlField(
            frame="physical",
            atoms=(ControlAtom(mode=1, rate=0.1 + 2j, weight=1.0),),
            support0=p4.omega0, velocity=p4.c, T=p4.T)
        term = StateTriple(random_field(rng, 4), random_field(rng, 4),
                           random_field(rng, 4))
        res = [duality_residual(p4, y0, y1, u, term, nt, method="rk4")["residual"]
               for nt in (512, 2048, 8192)]
        assert res[0] > res[1] > res[2]
        order = np.log(res[0] / res[2]) / np.log(16.0)
        assert order >= 3.5


class TestTerminalReport:
    def test_zero_trajectory(self, p8):
        traj = simulate_forward(p8, FourierField.zero(8), FourierField.zero(8),
                                None, 64, store_stride=64)
        rep = terminal_report(traj, FourierField.zero(8), FourierField.zero(8))
        assert rep["h1_y"] == rep["l2_yt"] == rep["l2_z"] == 0.0

    def test_uncontrolled_run_stays_excited(self, p8, rng):
        y0 = random_field(rng, 8)
        traj = simulate_forward(p8, y0, FourierField.zero(8), None, 256,
                                store_stride=256)
        rep = terminal_report(traj, y0, FourierField.zero(8))
        assert rep["h1_y"] > 0 and rep["l2_yt"] > 0 and rep["l2_z"] > 0
        assert rep["relative_total"] > 1e-2

    def test_controlled_end_to_end(self):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, np.pi / 2),), N=4)
        y0 = FourierField.from_coeffs({1: 0.1, -1: 0.1, 2: 0.05, -2: 0.05}, 4)
        y1 = FourierField.zero(4)
        md = moment_rhs(y0, y1, p, 4)
        u = to_physical_frame(mean_zero_correction(synthesize_least_norm(p, md)))
        traj = simulate_forward(p, y0, y1, u, 4096)
        rep = terminal_report(traj, y0, y1)
        assert rep["relative_total"] <= 1e-3

    def test_separated_route_matches_least_norm_smallness(self):
        p = ModelParams(M=1.0, c=2.0, T=12.0, omega0=((0.0, np.pi / 2),), N=4)
        y0 = FourierField.from_coeffs({1: 0.1, -1: 0.1, 2: 0.05, -2: 0.05}, 4)
        y1 = FourierField.zero(4)
        md = moment_rhs(y0, y1, p, 4)
        u_ln = to_physical_frame(mean_zero_correction(synthesize_least_norm(p, md)))
        rep_ln = terminal_report(simulate_forward(p, y0, y1, u_ln, 4096), y0, y1)
        b = FourierField.from_coeffs(
            {n: (1.0 if abs(n) == 1 else 0.3) / (1 + n * n)
             for n in range(-4, 5) if n != 0}, 4)
        _, u_sep = synthesize_separated(p, md, b)
        rep_sep = terminal_report(
            simulate_forward(p, y0, y1, to_physical_frame(u_sep), 4096), y0, y1)
        assert rep_sep["relative_total"] <= 1e-3
        assert rep_sep["relative_total"] <= 10.0 * max(rep_ln["relative_total"], 1e-7)

    def test_csv_export(self, p8, rng):
        traj = simulate_forward(p8, random_field(rng, 8), FourierField.zero(8),
                                None, 32, store_stride=16)
        buf = io.StringIO()
        write_trajectory_csv(buf, traj)
        header = buf.getvalue().splitlines()[0]
        assert header.startswith("t,mode,re_first")
