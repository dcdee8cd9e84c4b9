"""Forward evolution, exact adjoint evolution, and terminal certification.

The forward system per Fourier mode n is the 3-dimensional ODE

    y'' = -n^2 y - M z + f_n(t),      z' = -n^2 y,     z(0) = 0,

whose homogeneous flow is diagonalized exactly by the characteristic-cubic
roots (the mode ODE shares its characteristic polynomial with the spectrum).
Every control is a finite sum of exponential atoms, so each forcing f_n is an
exponential sum and the Duhamel integral has a closed form in the per-mode
eigencoordinates.  The production route (`method="exact"`) evaluates it at
the stored times directly: no time stepping, no forcing samples, and no
discretization error.  Two stepping integrators stay as independent checks:
the exponential integrator advances the exact flow and quadratures only the
forcing (Simpson per step), and a classical RK4 path steps the full system.

The adjoint systems are evolved with no time-stepping error at all: the
moving-frame adjoint is a closed-form eigenvector expansion, and the fixed
frame is reached from it by the change of variables x -> x + ct.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from typing import IO

import numpy as np

from .model import (
    FourierField,
    InvalidParameterError,
    ModelParams,
    StateTriple,
    sobolev_norm,
)
from .moment_control import ControlField, FrameError, _halfline_time_integral
from .spectrum import branch_roots, shifted_spectrum_arrays, spectrum_modes

__all__ = [
    "Trajectory",
    "BasisDegeneracyError",
    "simulate_forward",
    "simulate_adjoint_exact",
    "adjoint_physical_frame",
    "duality_residual",
    "terminal_report",
    "z_consistency_residual",
    "write_trajectory_csv",
]


class BasisDegeneracyError(RuntimeError):
    """A per-mode eigenvector system is numerically singular."""


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Stored evolution of per-mode coefficient triples.

    `states[i, :, k]` is the (first, second, third) coefficient triple of the
    mode `modes[i]` at time `times[k]`; the roles are (y, y_t, z) for forward
    runs and (phi, phi_t, psi) for adjoint runs.
    """

    params: ModelParams
    modes: np.ndarray
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.modes, self.times, self.states):
            arr.setflags(write=False)

    @property
    def N(self) -> int:
        return int(self.modes.max())

    def state_at(self, k: int) -> StateTriple:
        N = self.N
        comps = []
        for c in range(3):
            vals = np.zeros(2 * N + 1, dtype=complex)
            for i, n in enumerate(self.modes):
                vals[int(n) + N] = self.states[i, c, k]
            comps.append(FourierField(N, vals))
        return StateTriple(*comps)

    @property
    def terminal(self) -> StateTriple:
        return self.state_at(len(self.times) - 1)


# ---------------------------------------------------------------------------
# forward integrator
# ---------------------------------------------------------------------------

def _mode_eigensystem(params: ModelParams, modes: np.ndarray):
    """Eigenvalues and eigenvector frames of the per-mode forward generators."""
    absn = np.abs(modes)
    mu = branch_roots(absn, params.M)
    m = len(modes)
    V = np.empty((m, 3, 3), dtype=complex)
    V[:, 0, :] = 1.0
    V[:, 1, :] = mu
    V[:, 2, :] = -(absn.astype(float) ** 2)[:, None] / mu
    Vinv = np.linalg.inv(V)
    return mu, V, Vinv


def _forcing_samples(
    u: ControlField | None,
    params: ModelParams,
    modes: np.ndarray,
    tgrid: np.ndarray,
    path: str,
) -> np.ndarray:
    """Mode projections of the indicator-masked control on the sample grid."""
    if u is None:
        return np.zeros((len(modes), len(tgrid)), dtype=complex)
    if path == "closed_form":
        return u.mode_samples(modes, tgrid)
    F = np.zeros((len(modes), len(tgrid)), dtype=complex)
    K = params.grid_size
    x = 2.0 * np.pi * np.arange(K) / K
    for k, t in enumerate(tgrid):
        spec = np.fft.fft(u.evaluate(np.full(K, t), x)) / K
        for i, n in enumerate(modes):
            F[i, k] = spec[int(n) % K]
    return F


def _exact_states(
    params: ModelParams,
    modes: np.ndarray,
    state0: np.ndarray,
    u: ControlField | None,
    times: np.ndarray,
) -> np.ndarray:
    """Closed-form Duhamel solution at `times` in the per-mode eigencoordinates.

    The forcing of mode n is f_n(t) = e^{icnt} sum_r A[n, r] e^{-rate_r t}
    (`ControlField.projection_matrix`), so each eigencoordinate of
    w' = mu w + g f_n solves to

        w(t) = e^{mu t} w0 + g sum_r A[n, r] (e^{mu t} - e^{-s_r t}) / (mu + s_r),

    with s_r = rate_r - icn.  The sum over rates is contracted as two matrix
    products, so memory stays O(modes * rates + rates * times).  Where
    |mu + s_r| T falls below 1e-8 the removable singularity is evaluated as
    e^{mu t} int_0^t e^{-(mu + s_r) tau} dtau instead.
    """
    mu, V, Vinv = _mode_eigensystem(params, modes)
    w0 = np.einsum("mij,mj->mi", Vinv, state0)
    growth = np.exp(mu[:, :, None] * times)                         # (m, 3, k)
    w = w0[:, :, None] * growth
    if u is not None and u.atoms:
        rates, A = u.projection_matrix(modes)                       # (m, r)
        icn = 1j * u.velocity * modes
        sigma = mu[:, :, None] + (rates[None, None, :] - icn[:, None, None])
        singular = np.abs(sigma) * times[-1] < 1e-8
        K = A[:, None, :] / np.where(singular, 1.0, sigma)          # (m, 3, r)
        K[singular] = 0.0
        decay = np.exp(-np.outer(rates, times))                     # (r, k)
        phase = np.exp(1j * np.outer(modes * u.velocity, times))    # (m, k)
        duhamel = (growth * K.sum(axis=2)[:, :, None]
                   - phase[:, None, :] * (K @ decay))
        for i, j, r in zip(*np.nonzero(singular)):
            duhamel[i, j] += A[i, r] * growth[i, j] * _halfline_time_integral(
                sigma[i, j, r], times)
        w += Vinv[:, :, 1][:, :, None] * duhamel  # the source enters y_t
    return np.einsum("mij,mjk->mik", V, w)


def simulate_forward(
    params: ModelParams,
    y0: FourierField,
    y1: FourierField,
    u: ControlField | None,
    n_steps: int,
    store_stride: int | None = None,
    method: str = "exact",
    forcing_path: str = "closed_form",
) -> Trajectory:
    """Evolve (y, y_t, z) from (y0, y1, 0) under the physical-frame control.

    States are stored at the times k T / n_steps for every `store_stride`-th
    k, and at T.  The default `method="exact"` is the production route: the
    closed-form Duhamel integral of the exponential-atom control in the
    per-mode eigencoordinates, evaluated at the stored times only (no
    stepping, no forcing samples).  The two stepping methods are checks:
    `"exponential"` advances the exact 3x3 homogeneous flow and enters the
    source through per-step Simpson quadrature in the eigencoordinates, and
    `"rk4"` takes classical fourth-order steps on the same forcing samples.
    `forcing_path="grid"` samples the forcing by FFT of the pointwise control
    instead of the closed-form projections; it feeds a stepping method only.
    """
    N = params.N
    if y0.N != N or y1.N != N:
        raise InvalidParameterError("data truncation must match params.N")
    if n_steps < 1:
        raise InvalidParameterError("n_steps must be positive")
    if method not in ("exact", "exponential", "rk4"):
        raise InvalidParameterError(f"unknown method {method!r}")
    if forcing_path not in ("closed_form", "grid"):
        raise InvalidParameterError(f"unknown forcing path {forcing_path!r}")
    if method == "exact" and forcing_path == "grid":
        raise InvalidParameterError(
            "the exact route takes no forcing samples; forcing_path='grid' "
            "needs a stepping method ('exponential' or 'rk4')")
    if u is not None and u.frame != "physical":
        raise FrameError("simulate_forward drives the fixed frame; pass a "
                         "physical-frame control (see to_physical_frame)")
    if method != "exact" and n_steps < 10.0 * params.T * N:
        warnings.warn(
            f"n_steps = {n_steps} is below the resolution rule 10*T*N = "
            f"{10.0 * params.T * N:.0f}; source quadrature may dominate",
            stacklevel=2)
    stride = store_stride if store_stride is not None else max(1, math.ceil(n_steps / 200))
    modes = spectrum_modes(N)
    h = params.T / n_steps

    idx = modes + N
    state0 = np.stack(
        [y0.values[idx], y1.values[idx], np.zeros(len(modes), dtype=complex)], axis=1)

    stored_ks = list(range(0, n_steps + 1, stride))
    if stored_ks[-1] != n_steps:
        stored_ks.append(n_steps)
    times = np.array([k * h for k in stored_ks])

    if method == "exact":
        states = _exact_states(params, modes, state0, u, times)
        states[:, :, 0] = state0
        return Trajectory(params=params, modes=modes, times=times, states=states)

    tgrid = 0.5 * h * np.arange(2 * n_steps + 1)
    F = _forcing_samples(u, params, modes, tgrid, forcing_path)
    states = np.empty((len(modes), 3, len(stored_ks)), dtype=complex)
    if method == "exponential":
        mu, V, Vinv = _mode_eigensystem(params, modes)
        E_full = np.exp(mu * h)
        E_half = np.exp(mu * h / 2.0)
        g = Vinv[:, :, 1]  # source enters the second component
        w = np.einsum("mij,mj->mi", Vinv, state0)
        pos = 0
        if stored_ks[0] == 0:
            states[:, :, 0] = state0
            pos = 1
        for k in range(n_steps):
            f0 = F[:, 2 * k][:, None]
            fh = F[:, 2 * k + 1][:, None]
            f1 = F[:, 2 * k + 2][:, None]
            quad = (h / 6.0) * (E_full * f0 + 4.0 * E_half * fh + f1)
            w = E_full * w + g * quad
            if pos < len(stored_ks) and stored_ks[pos] == k + 1:
                states[:, :, pos] = np.einsum("mij,mj->mi", V, w)
                pos += 1
    else:
        n2 = (np.abs(modes).astype(float) ** 2)[:, None]
        M = params.M

        def rhs(s: np.ndarray, f: np.ndarray) -> np.ndarray:
            out = np.empty_like(s)
            out[:, 0] = s[:, 1]
            out[:, 1] = -n2[:, 0] * s[:, 0] - M * s[:, 2] + f
            out[:, 2] = -n2[:, 0] * s[:, 0]
            return out

        s = state0.copy()
        pos = 0
        if stored_ks[0] == 0:
            states[:, :, 0] = s
            pos = 1
        for k in range(n_steps):
            f0, fh, f1 = F[:, 2 * k], F[:, 2 * k + 1], F[:, 2 * k + 2]
            k1 = rhs(s, f0)
            k2 = rhs(s + 0.5 * h * k1, fh)
            k3 = rhs(s + 0.5 * h * k2, fh)
            k4 = rhs(s + h * k3, f1)
            s = s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if pos < len(stored_ks) and stored_ks[pos] == k + 1:
                states[:, :, pos] = s
                pos += 1

    return Trajectory(params=params, modes=modes, times=times, states=states)


# ---------------------------------------------------------------------------
# adjoint evolutions (closed form)
# ---------------------------------------------------------------------------

def _psi_basis(params: ModelParams, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode eigenvector matrices of the moving-frame generator.

    Returns (lam, P) with lam[i, j-1] the branch-j eigenvalue at mode i and
    P[i] the 3x3 matrix whose columns are (1, -lambda, 1/(lambda - icn)).
    """
    modes = spectrum_modes(N)
    arrays = shifted_spectrum_arrays(params, N)
    lam = np.stack([arrays[j] for j in (1, 2, 3)], axis=1)
    icn = 1j * params.c * modes.astype(float)
    P = np.empty((len(modes), 3, 3), dtype=complex)
    P[:, 0, :] = 1.0
    P[:, 1, :] = -lam
    P[:, 2, :] = 1.0 / (lam - icn[:, None])
    return lam, P


def simulate_adjoint_exact(
    params: ModelParams, terminal: StateTriple, times: np.ndarray
) -> Trajectory:
    """Moving-frame adjoint evolved backward from its terminal triple.

    The terminal data are expanded in the per-mode eigenvector frames and the
    trajectory is the exact exponential combination; no stepping error.
    """
    N = terminal.N
    modes = spectrum_modes(N)
    lam, P = _psi_basis(params, N)
    idx = modes + N
    term = np.stack([terminal.first.values[idx],
                     terminal.second.values[idx],
                     terminal.third.values[idx]], axis=1)
    conds = np.linalg.cond(P)
    if np.any(~np.isfinite(conds)) or conds.max() > 1e13:
        raise BasisDegeneracyError(
            "eigenvector frame numerically singular; split the resonant "
            "eigenvalue before expanding terminal data")
    b = np.linalg.solve(P, term[:, :, None])[:, :, 0]
    times = np.asarray(times, dtype=float)
    decay = np.exp(lam[:, :, None] * (params.T - times)[None, None, :])
    states = np.einsum("mij,mjk->mik", P, b[:, :, None] * decay)
    return Trajectory(params=params, modes=modes, times=times, states=states)


def expand_in_eigenbasis(params: ModelParams, triple: StateTriple) -> np.ndarray:
    """Coefficients b[i, j] of the triple over the per-mode eigenvector frames."""
    N = triple.N
    modes = spectrum_modes(N)
    _, P = _psi_basis(params, N)
    idx = modes + N
    term = np.stack([triple.first.values[idx],
                     triple.second.values[idx],
                     triple.third.values[idx]], axis=1)
    return np.linalg.solve(P, term[:, :, None])[:, :, 0]


def adjoint_physical_frame(
    params: ModelParams, terminal: StateTriple, times: np.ndarray
) -> Trajectory:
    """Fixed-frame adjoint (p, p_t, q) via the moving-frame expansion.

    Terminal data map through x -> x + cT, the moving-frame solution is
    evaluated exactly, and the states map back with the phase e^{inct}
    (p_t picks up the transport term c p_x.)
    """
    N = terminal.N
    modes = spectrum_modes(N).astype(float)
    idx = spectrum_modes(N) + N
    phase_T = np.exp(-1j * modes * params.c * params.T)
    icn = 1j * params.c * modes
    phi0 = terminal.first.values[idx] * phase_T
    phit0 = terminal.second.values[idx] * phase_T - icn * phi0
    psi0 = terminal.third.values[idx] * phase_T

    N_ = N
    vals = np.zeros((3, 2 * N_ + 1), dtype=complex)
    vals[0, idx] = phi0
    vals[1, idx] = phit0
    vals[2, idx] = psi0
    moving_terminal = StateTriple(
        FourierField(N_, vals[0]), FourierField(N_, vals[1]), FourierField(N_, vals[2]))
    traj = simulate_adjoint_exact(params, moving_terminal, times)

    phase_t = np.exp(icn[:, None] * np.asarray(times)[None, :])
    states = np.empty_like(traj.states)
    states[:, 0, :] = traj.states[:, 0, :] * phase_t
    states[:, 1, :] = (traj.states[:, 1, :] + icn[:, None] * traj.states[:, 0, :]) * phase_t
    states[:, 2, :] = traj.states[:, 2, :] * phase_t
    return Trajectory(params=params, modes=traj.modes, times=traj.times, states=states)


# ---------------------------------------------------------------------------
# the duality identity
# ---------------------------------------------------------------------------

def duality_residual(
    params: ModelParams,
    y0: FourierField,
    y1: FourierField,
    u: ControlField | None,
    adjoint_terminal: StateTriple,
    n_steps: int,
    method: str = "exponential",
) -> dict:
    """Relative mismatch of the five-term integration-by-parts identity.

    Left side: int_0^T int u conj(p); right side: the terminal/initial duality
    pairings plus the memory term -M * 2pi sum_n z_n(T) conj(q0_n).  Forward
    states come from the integrator at n_steps; the adjoint is exact; the
    time integral on the left is composite Simpson on the same grid.

    With the exponential integrator the per-step source quadrature pairs off
    against the left-side quadrature exactly (same kernel, same nodes), so
    the residual sits at roundoff for any n_steps; the rk4 path exposes the
    expected fourth-order decay instead.
    """
    N = params.N
    traj = simulate_forward(params, y0, y1, u, n_steps, store_stride=n_steps,
                            method=method)
    h = params.T / n_steps
    tgrid = 0.5 * h * np.arange(2 * n_steps + 1)
    adj = adjoint_physical_frame(params, adjoint_terminal, tgrid)

    modes = spectrum_modes(N)
    F = _forcing_samples(u, params, modes, tgrid, "closed_form")
    integrand = 2.0 * np.pi * np.sum(F * np.conj(adj.states[:, 0, :]), axis=0)
    wts = np.ones(len(tgrid))
    wts[1::2] = 4.0
    wts[2:-1:2] = 2.0
    lhs = complex((h / 6.0) * np.sum(wts * integrand))

    idx = modes + N
    yT = traj.states[:, 0, -1]
    ytT = traj.states[:, 1, -1]
    zT = traj.states[:, 2, -1]
    p0 = adjoint_terminal.first.values[idx]
    p1 = adjoint_terminal.second.values[idx]
    q0 = adjoint_terminal.third.values[idx]
    p_at0 = adj.states[:, 0, 0]
    pt_at0 = adj.states[:, 1, 0]
    terms = {
        "yt_T_vs_p0": 2.0 * np.pi * np.sum(ytT * np.conj(p0)),
        "y_T_vs_p1": -2.0 * np.pi * np.sum(yT * np.conj(p1)),
        "y1_vs_p(0)": -2.0 * np.pi * np.sum(y1.values[idx] * np.conj(p_at0)),
        "y0_vs_pt(0)": 2.0 * np.pi * np.sum(y0.values[idx] * np.conj(pt_at0)),
        "memory_vs_q0": -params.M * 2.0 * np.pi * np.sum(zT * np.conj(q0)),
    }
    rhs = complex(sum(terms.values()))
    scale = max(abs(lhs), abs(rhs), max(abs(v) for v in terms.values()), 1e-300)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "terms": terms,
        "residual": abs(lhs - rhs) / scale,
    }


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def terminal_report(traj: Trajectory, y0: FourierField, y1: FourierField) -> dict:
    """Terminal norms ||y(T)||_{H^1}, ||y_t(T)||_{L^2}, ||z(T)||_{L^2}.

    The third component accumulates the memory integral, so its terminal
    smallness certifies that the history was shut down, not just the state.
    Relative values are taken against the initial data size.
    """
    term = traj.terminal
    h1 = sobolev_norm(term.first, 1.0)
    l2t = sobolev_norm(term.second, 0.0)
    l2z = sobolev_norm(term.third, 0.0)
    initial = sobolev_norm(y0, 1.0) + sobolev_norm(y1, 0.0)
    rel = (h1 + l2t + l2z) / initial if initial > 0.0 else math.inf if (h1 + l2t + l2z) else 0.0
    return {
        "h1_y": h1,
        "l2_yt": l2t,
        "l2_z": l2z,
        "initial_size": initial,
        "relative_total": rel,
    }


def z_consistency_residual(traj: Trajectory) -> float:
    """Deviation of z(t) from the running integral -n^2 int_0^t y.

    Requires densely stored snapshots (uniform grid); composite Simpson
    accumulates the integral on the stored times.  The deviation is relative
    to the trajectory scale max(1, max |z|, max n^2 |y|) since the free
    dynamics grow exponentially.
    """
    times = traj.times
    if len(times) < 3:
        raise InvalidParameterError("need at least three stored snapshots")
    h = times[1] - times[0]
    if not np.allclose(np.diff(times), h):
        raise InvalidParameterError("z-consistency check needs a uniform stored grid")
    y = traj.states[:, 0, :]
    n2 = (np.abs(traj.modes).astype(float) ** 2)[:, None]
    scale = max(1.0, float(np.abs(traj.states[:, 2, :]).max()),
                float((n2 * np.abs(y)).max()))
    worst = 0.0
    # composite Simpson over even snapshot counts from the start
    for k in range(2, len(times), 2):
        wts = np.ones(k + 1)
        wts[1:k:2] = 4.0
        wts[2:k:2] = 2.0
        integral = (h / 3.0) * (y[:, : k + 1] @ wts)
        dev = np.abs(traj.states[:, 2, k] + n2[:, 0] * integral)
        worst = max(worst, float(dev.max()))
    return worst / scale


def write_trajectory_csv(stream: IO[str], traj: Trajectory) -> None:
    writer = csv.writer(stream)
    writer.writerow(["t", "mode", "re_first", "im_first", "re_second",
                     "im_second", "re_third", "im_third"])
    for k, t in enumerate(traj.times):
        for i, n in enumerate(traj.modes):
            row = [f"{t:.12g}", int(n)]
            for c in range(3):
                v = traj.states[i, c, k]
                row += [f"{v.real:.17g}", f"{v.imag:.17g}"]
            writer.writerow(row)


def terminal_report_json(report: dict) -> str:
    return json.dumps({k: float(v) for k, v in report.items()}, sort_keys=True)
