"""Span tracer that wraps memwave's public callables from outside the package.

Every target is replaced at each place memwave binds it: the home module,
every memwave module that imported it by name, the CLI's command table, and
the class attribute for methods.  A wrapper records one span per call and
keeps per-callable totals in memory:

    calls    number of calls
    incl_s   summed span durations
    self_s   summed span durations minus the part covered by child spans
    errors   exceptions that left the call
    <work>   a work count computed from the call's arguments (see WORK)

Self times of all spans plus the time outside any span add up to the traced
wall time, which is how the benchmark checks that nothing is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYER_MODULES = ("model", "spectrum", "gaps", "biorthogonal", "moment_control",
                 "simulator", "beam", "cli")

CLI_COMMANDS = ("spectrum", "gaps", "riesz", "biorth", "control", "simulate", "beam")

# (module, qualified name) of every traced callable; methods are "Class.method"
TARGETS = (
    [("spectrum", name) for name in (
        "mu1_array", "solve_cubic_spectrum", "shifted_eigenvalue", "riesz_matrix",
        "singular_value_envelope", "shifted_spectrum_arrays", "detect_resonance",
        "eigenvector_residual")]
    + [("gaps", "gap_report")]
    + [("biorthogonal", "ProductEvaluator." + name) for name in (
        "__init__", "evaluate", "evaluate_factored", "derivative_at_zero")]
    + [("biorthogonal", name) for name in (
        "family_exponents", "window_gram", "dual_family_gram", "verify_biorthogonality")]
    + [("moment_control", name) for name in (
        "moment_rhs", "synthesize_least_norm", "synthesize_separated",
        "mean_zero_correction", "verify_moment_constraints")]
    + [("moment_control", "ControlField." + name) for name in (
        "mode_projection", "evaluate", "l2_norm")]
    + [("simulator", name) for name in (
        "simulate_forward", "terminal_report", "duality_residual",
        "simulate_adjoint_exact", "z_consistency_residual")]
    + [("beam", name) for name in ("beam_sweep", "beam_energy_report", "energy_centroid")]
    + [("cli", "cmd_" + name) for name in CLI_COMMANDS]
    + [("cli", "Report.write")]
)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _mu1_modes(args, kwargs):
    import numpy as np

    return int(np.size(_arg(args, kwargs, 0, "n")))


def _gap_dense_bytes(args, kwargs):
    # gap_report forms three pairwise-distance matrices over the 2N modes of
    # each branch: branch 1 x branches 2+3 (2N x 4N), branch 1 x itself
    # (2N x 2N) and all x all (6N x 6N); each is a complex128 difference
    # (16 bytes/entry) followed by its float64 modulus (8 bytes/entry)
    N = int(_arg(args, kwargs, 1, "N"))
    return 24 * (8 + 4 + 36) * N * N


def _pair_factors(args, kwargs):
    # one conjugate-pair factor per mode and pair branch
    return 3 * args[0].n_prod


def _quad_evals(args, kwargs):
    # control atoms evaluated on the Gauss-Legendre grid: n_quad time nodes
    # times 64 nodes per support arc
    u = _arg(args, kwargs, 0, "u")
    n_quad = int(_arg(args, kwargs, 3, "n_quad", 800))
    n_arcs = 1 if u.support0 is None else len(u.support0)
    return n_quad * 64 * n_arcs * len(u.atoms)


def _mode_steps(args, kwargs):
    params = _arg(args, kwargs, 0, "params")
    return 2 * params.N * int(_arg(args, kwargs, 4, "n_steps"))


# work counts computed from the arguments, keyed by traced name
WORK = {
    "spectrum.mu1_array": ("modes", _mu1_modes),
    "gaps.gap_report": ("dense_bytes", _gap_dense_bytes),
    "biorthogonal.ProductEvaluator.evaluate": ("pair_factors", _pair_factors),
    "moment_control.verify_moment_constraints": ("quad_evals", _quad_evals),
    "simulator.simulate_forward": ("mode_steps", _mode_steps),
}


class Tracer:
    """Installs span-recording wrappers on memwave; `uninstall` restores them."""

    def __init__(self):
        self.stats = {f"{mod}.{name}": {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                        "errors": 0}
                      for mod, name in TARGETS}
        for key, (quantity, _) in WORK.items():
            self.stats[key][quantity] = 0
        # child time accumulated by each open span, innermost last
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stats = self.stats[key]
        work = WORK.get(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                stats[work[0]] += work[1](args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats["errors"] += 1
                raise
            finally:
                span = clock() - t0
                child = stack.pop()
                stats["calls"] += 1
                stats["incl_s"] += span
                stats["self_s"] += span - child
                if stack:
                    stack[-1] += span

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        modules = [importlib.import_module(f"memwave.{m}") for m in LAYER_MODULES]
        for mod_name, qualname in TARGETS:
            home = sys.modules[f"memwave.{mod_name}"]
            key = f"{mod_name}.{qualname}"
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name)
                self._set(cls, meth, self._wrap(key, cls.__dict__[meth]))
                continue
            orig = getattr(home, qualname)
            wrapped = self._wrap(key, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, attr, wrapped)
            commands = sys.modules["memwave.cli"].COMMANDS
            for cmd, fn in list(commands.items()):
                if fn is orig:
                    self._undo.append((commands, cmd, fn))
                    commands[cmd] = wrapped
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
