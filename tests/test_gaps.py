import dataclasses
import io
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memwave.gaps import (
    gap_report,
    ladder_threshold,
    nearest_partner,
    write_close_pairs_csv,
)
from memwave.model import ModelParams
from memwave.spectrum import (
    mu1_array,
    resonance_velocity,
    shifted_spectrum_arrays,
    spectrum_modes,
)


def dense_census(params: ModelParams, N: int) -> dict:
    """The (6N)^2 pairwise-distance scan that gap_report's k-d tree replaces."""
    c = abs(params.c)
    lam = shifted_spectrum_arrays(dataclasses.replace(params, c=c), N)
    cross = np.abs(lam[1][:, None] - np.concatenate([lam[2], lam[3]])[None, :])
    self1 = np.abs(lam[1][:, None] - lam[1][None, :])
    np.fill_diagonal(self1, np.inf)
    all_lam = np.concatenate([lam[1], lam[2], lam[3]])
    labels = [(int(n), j) for j in (1, 2, 3) for n in spectrum_modes(N)]
    dist = np.abs(all_lam[:, None] - all_lam[None, :])
    np.fill_diagonal(dist, np.inf)
    ii, jj = np.nonzero(dist == 0.0)
    return {
        "min_gap_branch1_cross": float(cross.min()),
        "min_gap_branch1_self": float(self1.min()),
        "min_pairwise_distance": float(dist.min()),
        "coincidences": [[*labels[i], *labels[j]] for i, j in zip(ii, jj) if i < j],
    }


def assert_matches_dense(params: ModelParams, N: int) -> None:
    payload = gap_report(params, N).to_json()
    expected = {**json.loads(payload), **dense_census(params, N)}
    assert payload == json.dumps(expected, sort_keys=True)


class TestNearestPartner:
    def test_integer_ratios(self):
        assert nearest_partner(3, 2.0) == 9      # ratio exactly 3
        assert nearest_partner(1, 0.5) == 3      # (3/2)/(1/2)
        assert nearest_partner(2, 3.0) == 4      # ratio 2

    def test_half_tie_rounds_to_even(self):
        # c = 3/7 gives ratio (1+c)/(1-c) = 2.5 exactly
        c = 3.0 / 7.0
        assert abs((1 + c) / (1 - c) - 2.5) < 1e-15
        assert nearest_partner(1, c) == 2
        assert nearest_partner(3, c) == 8  # 7.5 -> even

    def test_sign_of_velocity_irrelevant(self):
        assert nearest_partner(4, -2.0) == nearest_partner(4, 2.0)

    @given(m=st.integers(1, 500), c=st.floats(0.05, 4.0).filter(
        lambda v: abs(v - 1.0) > 1e-3))
    @settings(max_examples=80, deadline=None)
    def test_is_nearest(self, m, c):
        nm = nearest_partner(m, c)
        target = (1 + c) * m / abs(1 - c)
        assert abs(nm - target) <= 0.5 + 1e-12


class TestLadderThreshold:
    def test_defining_inequality(self):
        for M, eps in ((1.0, 0.05), (-2.0, 0.02), (0.5, 0.1)):
            n_eps = ladder_threshold(M, eps)
            n = np.arange(max(1, n_eps - 1), n_eps + 1)
            mu = mu1_array(n, M)
            g = 0.75 * mu**2 / (np.sqrt(0.75 * mu**2 + n.astype(float) ** 2) + n)
            assert g[-1] <= eps
            if n_eps > 1:
                assert g[0] > eps


class TestGapReport:
    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_branch1_bounds(self, c):
        p = ModelParams(M=1.0, c=c, T=30.0, omega0=((0.0, 1.0),), N=4)
        rep = gap_report(p, 50)
        assert rep.min_gap_branch1_cross >= 0.5 - 1e-12
        assert rep.min_gap_branch1_self >= abs(c) - 1e-12

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_ladders_and_pairs(self, c):
        p = ModelParams(M=1.0, c=c, T=30.0, omega0=((0.0, 1.0),), N=4)
        rep = gap_report(p, 60)
        assert rep.ladder_ok
        assert rep.gamma_fit > 0
        for pair in rep.close_pairs:
            assert pair.distance >= rep.gamma_fit / pair.m**2 - 1e-12

    def test_close_pair_at_m10(self):
        p = ModelParams(M=1.0, c=2.0, T=30.0, omega0=((0.0, 1.0),), N=4)
        rep = gap_report(p, 50)
        entry = next(cp for cp in rep.close_pairs if cp.m == 10)
        assert entry.n_m == 30
        assert entry.distance > 0

    def test_census_generic_distinct(self):
        p = ModelParams(M=1.0, c=2.0, T=30.0, omega0=((0.0, 1.0),), N=4)
        rep = gap_report(p, 40)
        assert rep.min_pairwise_distance > 0
        assert rep.coincidences == ()

    def test_census_resonant_single_coincidence(self):
        v = resonance_velocity(1, 1.0)
        p = ModelParams(M=1.0, c=v, T=30.0, omega0=((0.0, 1.0),), N=4)
        rep = gap_report(p, 40)
        assert rep.min_pairwise_distance == 0.0
        assert rep.coincidences == ((-1, 2, 1, 3),)

    def test_negative_velocity_mirror(self):
        # negating c relabels the spectrum without changing the set, so the
        # report statistics coincide with those at |c|
        pm = ModelParams(M=1.0, c=-2.0, T=30.0, omega0=((0.0, 1.0),), N=4)
        pp = ModelParams(M=1.0, c=2.0, T=30.0, omega0=((0.0, 1.0),), N=4)
        rm, rp = gap_report(pm, 30), gap_report(pp, 30)
        assert rm.ladder_ok
        assert rm.min_gap_branch1_cross == rp.min_gap_branch1_cross
        assert rm.min_gap_branch1_self == rp.min_gap_branch1_self
        assert rm.gamma_fit == rp.gamma_fit

    def test_widened_epsilon_warning(self):
        p = ModelParams(M=1.0, c=2.0, T=30.0, omega0=((0.0, 1.0),), N=4)
        rep = gap_report(p, 3, epsilon=1e-4)
        assert rep.warnings

    def test_json_and_csv(self):
        p = ModelParams(M=1.0, c=2.0, T=30.0, omega0=((0.0, 1.0),), N=4)
        rep = gap_report(p, 20)
        payload = rep.to_json()
        assert '"gamma_fit"' in payload
        buf = io.StringIO()
        write_close_pairs_csv(buf, rep)
        assert buf.getvalue().splitlines()[0] == "m,n_m,distance,m2_distance"

    @given(c=st.floats(0.1, 3.0).filter(lambda v: abs(v - 1.0) > 0.05))
    @settings(max_examples=20, deadline=None)
    def test_invariants_random_velocity(self, c):
        p = ModelParams(M=1.0, c=c, T=30.0, omega0=((0.0, 1.0),), N=4)
        rep = gap_report(p, 12)
        assert rep.min_gap_branch1_cross >= 0.5 - 1e-12
        assert rep.min_gap_branch1_self >= abs(c) - 1e-12
        assert len(rep.coincidences) <= 1


class TestTreeCensus:
    @given(M=st.floats(0.2, 3.0), M_sign=st.sampled_from([1.0, -1.0]),
           c=st.floats(0.1, 3.0).filter(lambda v: abs(v - 1.0) > 0.05),
           c_sign=st.sampled_from([1.0, -1.0]), N=st.integers(2, 200))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_census(self, M, M_sign, c, c_sign, N):
        p = ModelParams(M=M * M_sign, c=c * c_sign, T=30.0, omega0=((0.0, 1.0),), N=4)
        assert_matches_dense(p, N)

    def test_matches_dense_census_resonant(self):
        p = ModelParams(M=1.0, c=resonance_velocity(1, 1.0), T=30.0,
                        omega0=((0.0, 1.0),), N=4)
        assert len(dense_census(p, 150)["coincidences"]) == 1
        assert_matches_dense(p, 150)

    def test_large_window_memory(self):
        p = ModelParams(M=1.3, c=2.2, T=30.0, omega0=((0.0, 1.0),), N=4)
        tracemalloc.start()
        try:
            rep = gap_report(p, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.min_pairwise_distance > 0.0
        assert rep.coincidences == ()
        assert peak < 200e6

    def test_import_leaves_scipy_spatial_unloaded(self):
        # gap_report imports the k-d tree lazily, so importing gaps (as the
        # control pipeline does) does not pay for scipy.spatial
        code = "import sys, memwave.gaps; print('scipy.spatial' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"
