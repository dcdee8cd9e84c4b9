#!/usr/bin/env python3
"""memwave benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload verify_all|control_sweep|wide_window \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from src/ and
nothing is installed.  Every step runs in its own process with BLAS pinned
to one thread (MEMWAVE_THREADS=1).  The run prints a table of every metric
by name and unit, the environment stamp, and as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The exit code is 0
when every output check passed, 1 when one failed, 2 on a usage error or a
checkout without src/memwave.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_all", "control_sweep", "wide_window")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0
# CLI seeds of the cold verify-all runs; reference/ holds their reports as
# written by the unchanged code, so every run can be diffed value by value
CLI_SEEDS = tuple(range(8))
# a reported value "moved" when it differs by more than roundoff
REL_ROUNDOFF = 1e-9
ABS_ROUNDOFF = 1e-13


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

class RunFailed(Exception):
    """A child process timed out or exited non-zero where that is an error."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["MEMWAVE_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONWARNINGS"] = "ignore"
    return env


class Runner:
    """Starts children one at a time under one deadline, logging to tmp/."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = child_env()
        self.log = tmp / "children.log"

    def run(self, cmd: list[str]) -> tuple[int, float, float]:
        """(exit code, wall seconds, peak RSS in MB) of one child."""
        with open(self.log, "ab") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=fh,
                                    stderr=subprocess.STDOUT)
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > self.deadline:
                        raise RunFailed(f"time limit reached running {cmd[1:3]}")
                    time.sleep(0.002)
            finally:
                if not pid:
                    proc.kill()
                    os.wait4(proc.pid, 0)
                    proc.returncode = -signal.SIGKILL
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def worker(self, *args: str) -> tuple[int, float, float]:
        return self.run([sys.executable, str(HERE / "worker.py"), *args])

    def tail(self, lines: int = 30) -> str:
        text = self.log.read_text(errors="replace") if self.log.exists() else ""
        return "\n".join(text.splitlines()[-lines:])


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[float, int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    ordered = sorted(values)
    return float(p), n, ordered[min(n - 1, math.ceil(p / 100.0 * n) - 1)]


def digits(err: float) -> float:
    """Decimal digits of an error; an exact zero counts as double precision."""
    return -math.log10(err) if err > 0.0 else 16.0


# ---------------------------------------------------------------------------
# verify_all: cold end-to-end runs of the command line
# ---------------------------------------------------------------------------

def load_reports(out_dir: Path) -> dict:
    reports = {}
    for path in sorted(out_dir.glob("report_*.json")):
        data = json.loads(path.read_text())
        data.pop("timestamp", None)
        reports[data["command"]] = data
    return reports


def count_changed(ref, new) -> int:
    """Leaves of two report trees that differ by more than roundoff."""
    if isinstance(ref, dict) and isinstance(new, dict):
        keys = set(ref) | set(new)
        return sum(count_changed(ref.get(k), new.get(k)) if k in ref and k in new
                   else 1 for k in keys)
    if isinstance(ref, list) and isinstance(new, list):
        return sum(count_changed(a, b) for a, b in zip(ref, new)) + abs(len(ref) - len(new))
    numbers = (int, float)
    if isinstance(ref, numbers) and isinstance(new, numbers) \
            and not isinstance(ref, bool) and not isinstance(new, bool):
        return int(abs(ref - new) > REL_ROUNDOFF * max(abs(ref), abs(new)) + ABS_ROUNDOFF)
    return int(ref != new)


def check_value(reports: dict, command: str, name: str) -> float:
    for entry in reports[command]["checks"]:
        if entry["name"] == name:
            return float(entry["value"])
    raise KeyError(f"{command}.{name}")


def measure_verify_all(runner: Runner, seed: int, seconds: float, trace: int) -> dict:
    """Cold `memwave verify-all` runs, one at a time, in a fresh interpreter each.

    Untraced runs carry the reference-kernel sampler; their work time is the
    wall time minus the sampler's share.
    """
    commands = ("beam", "biorth", "control", "gaps", "riesz", "simulate", "spectrum")

    def one(i: int, traced: bool) -> dict:
        cli_seed = CLI_SEEDS[(seed + i) % len(CLI_SEEDS)]
        out = runner.tmp / f"out{i}{'t' if traced else ''}"
        args = ["verify-all", "--seed", str(cli_seed), "--out", str(out)]
        stats_path = runner.tmp / f"stats{i}.json"
        code, wall, rss = runner.worker("cli", "--trace", str(int(traced)),
                                        "--stats", str(stats_path), "--", *args)
        stats = json.loads(stats_path.read_text())
        reports = load_reports(out)
        asserted = [c for r in reports.values() for c in r["checks"]
                    if c["passed"] is not None]
        run = {"code": code, "wall": wall, "rss": rss, "asserted": len(asserted),
               "failed_checks": sum(1 for c in asserted if c["passed"] is False),
               "all_pass": (code == 0 and sorted(reports) == sorted(commands)
                            and all(r["status"] == "pass" for r in reports.values()))}
        if run["all_pass"]:
            run["terminal_digits"] = digits(check_value(reports, "control",
                                                        "terminal_relative_total"))
            run["moment_digits"] = digits(check_value(reports, "control",
                                                      "moment_residual_max"))
            run["product_digits"] = digits(check_value(
                reports, "biorth", "product_factorization_consistency"))
        ref_path = HERE / "reference" / f"verify_all_seed{cli_seed}.json"
        run["changed"] = count_changed(json.loads(ref_path.read_text()), reports)
        if traced:
            run["stats"] = stats
        else:
            run["wall"] = wall - stats["ref_s"]
            run["ref"] = stats["ref_s"] / stats["ref_calls"]
        shutil.rmtree(out, ignore_errors=True)
        run["tasks"] = [{"seconds": run["wall"], "certified": run["all_pass"]}]
        return run

    def loop(count: int | None, traced: bool) -> list[dict]:
        runs = []
        start = time.perf_counter()
        while (len(runs) < count) if count is not None else (
                not runs or time.perf_counter() - start
                + statistics.median(r["wall"] for r in runs) <= budget):
            runs.append(one(len(runs), traced))
        return runs

    budget = seconds / 2.0 if trace else seconds
    res = {"iterations": loop(None, False)}
    if trace:
        res["traced"] = loop(len(res["iterations"]), True)
        res["stats"] = sum_stats([r["stats"] for r in res["traced"]])
    return res


def sum_stats(parts: list[dict]) -> dict:
    total = {}
    for part in parts:
        for key, fields in part.items():
            acc = total.setdefault(key, dict.fromkeys(fields, 0))
            for field, value in fields.items():
                acc[field] += value
    return total


def summarize_verify_all(res: dict) -> dict:
    runs = res["iterations"] + res.get("traced", [])
    asserted = sum(r["asserted"] for r in runs)
    failed = sum(r["failed_checks"] for r in runs)
    passed = [r for r in runs if r["all_pass"]]
    acc = {}
    if passed:
        acc = {name: statistics.median(r[f"{name}_digits"] for r in passed)
               for name in ("terminal", "moment", "product")}
    return {
        "correct": len(passed) == len(runs),
        "attempted": max(asserted, 1),
        "failed": failed if asserted else 1,
        "certified_ratio": (asserted - failed) / asserted if asserted else 0.0,
        "peak_rss_mb": max(r["rss"] for r in runs),
        "accuracy": acc,
        "report_values_changed": sum(r["changed"] for r in runs),
        "exit_codes": sorted({r["code"] for r in runs}),
    }


# ---------------------------------------------------------------------------
# control_sweep / wide_window: in-process task rounds
# ---------------------------------------------------------------------------

def rounds(tasks: list[dict]) -> list[dict]:
    """Group tasks into their rounds: work seconds and mean reference time."""
    grouped = {}
    for task in tasks:
        grouped.setdefault(task["round"], []).append(task)
    return [{"wall": sum(t["seconds"] for t in ts),
             "ref": sum(t["ref_s"] for t in ts) / max(1, sum(t["ref_calls"] for t in ts)),
             "tasks": ts} for ts in grouped.values()]


def summarize_rounds(workload: str, res: dict) -> dict:
    tasks = res["tasks"] + res.get("traced_tasks", [])
    certified = sum(1 for t in tasks if t["certified"])
    failed = len(tasks) - certified
    acc = {}
    if workload == "control_sweep":
        solved = [t for t in tasks if not t["refused"]]
        # a task may fail certification, but its diagnostics must be finite
        correct = all(t["finite"] for t in solved)
        acc["terminal"] = statistics.median(
            0.0 if t["refused"] else digits(t["terminal"]) for t in tasks)
        acc["moment"] = statistics.median(digits(t["moment_max"]) for t in solved) \
            if solved else 0.0
    else:
        # every wide-window check holds for every admissible input
        correct = failed == 0
        acc["product"] = min(digits(t["factor_dev"]) for t in tasks)
    return {
        "correct": correct,
        "attempted": len(tasks),
        "failed": failed,
        "certified_ratio": certified / len(tasks),
        "peak_rss_mb": res["rss"],
        "accuracy": acc,
        "failed_checks": sorted({c for t in tasks for c in t.get("failed_checks", ())}),
    }


def timing(iterations: list[dict]) -> dict:
    """Iteration and task times, raw and in units of the reference kernel."""
    walls = [it["wall"] for it in iterations]
    norm = [it["wall"] / it["ref"] for it in iterations]
    task_s = [t["seconds"] for it in iterations for t in it["tasks"]]
    task_norm = [t["seconds"] / it["ref"] for it in iterations for t in it["tasks"]]
    certified = sum(1 for it in iterations for t in it["tasks"] if t["certified"])
    return {
        "wall_s": statistics.median(walls),
        "wall_ref": statistics.median(norm),
        "task_p50_s": statistics.median(task_s),
        "task_p50_ref": statistics.median(task_norm),
        "tasks_per_s": certified / sum(walls),
        "tasks_per_kref": 1000.0 * certified / sum(norm),
        "task_tail": tail_percentile(task_s),
        "task_count": len(task_s),
        "ref_ms": 1000.0 * statistics.median(it["ref"] for it in iterations),
    }


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment(runner: Runner) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "memwave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "MEMWAVE_THREADS": runner.env["MEMWAVE_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(summary: dict, setup_s: float) -> dict:
    acc = summary["accuracy"]
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_ref": metric(summary["wall_ref"], "ref"),
        "task_p50_ref": metric(summary["task_p50_ref"], "ref"),
        "tasks_per_kref": metric(summary["tasks_per_kref"], "1/kref"),
        "certified_ratio": metric(summary["certified_ratio"], "ratio"),
        "peak_rss_mb": metric(summary["peak_rss_mb"], "MB"),
        "accuracy_digits": metric(statistics.fmean(acc.values()) if acc else 0.0,
                                  "digits"),
    }


def per_layer(summary: dict, stats: dict, untraced: list, traced: list,
              imports: dict) -> dict:
    """Span totals per traced iteration, import times and the trace balance."""
    from tracer import LAYER_MODULES, WORK

    out = {}
    per_iter = {key: {f: v / len(traced) for f, v in fields.items()}
                for key, fields in stats.items()}
    units = {"calls": "count", "incl_s": "s", "self_s": "s", "errors": "count",
             "dense_bytes": "bytes"}
    for key, fields in per_iter.items():
        names = ["calls", "self_s"]
        if key.startswith("cli.cmd_"):
            names.append("incl_s")
        if key.split(".")[0] in ("biorthogonal", "moment_control") and key.count(".") == 1:
            names.append("errors")
        if key in WORK:
            names.append(WORK[key][0])
        for field in names:
            out[f"{key}.{field}"] = metric(fields[field], units.get(field, "count"))
    for name in LAYER_MODULES:
        out[f"import.{name}_s"] = metric(imports[name], "s")
    acc = summary["accuracy"]
    out["simulator.terminal_digits_p50"] = metric(acc.get("terminal", 0.0), "digits")
    out["moment_control.moment_digits_p50"] = metric(acc.get("moment", 0.0), "digits")
    out["biorthogonal.product_digits_min"] = metric(acc.get("product", 0.0), "digits")
    out["cli.report_values_changed"] = metric(summary.get("report_values_changed", 0),
                                              "count")
    traced_wall = statistics.fmean(it["wall"] for it in traced)
    self_total = sum(fields["self_s"] for fields in per_iter.values())
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.unattributed_s"] = metric(traced_wall - self_total, "s")
    out["trace.overhead_s"] = metric(
        traced_wall - statistics.fmean(it["wall"] for it in untraced), "s")
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def print_table(workload: str, seed: int, summary: dict, setup_runs: list,
                metrics: dict, env: dict) -> None:
    print(f"memwave benchmark: workload={workload} seed={seed} "
          f"closed loop, 1 client, MEMWAVE_THREADS={env['MEMWAVE_THREADS']}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"  setup runs (s): {', '.join(f'{s:.4f}' for s in setup_runs)}")
    print(f"  tasks: {summary['task_count']} timed, attempted {summary['attempted']}, "
          f"failed {summary['failed']}, "
          f"fail_ratio {summary['failed'] / summary['attempted']:.6g} ratio")
    print(f"  wall_s {summary['wall_s']:.6g} s  task_p50_s {summary['task_p50_s']:.6g} s  "
          f"tasks_per_s {summary['tasks_per_s']:.6g} 1/s  "
          f"(reference kernel {summary['ref_ms']:.4g} ms = 1 ref)")
    tail = summary.get("task_tail")
    if tail is not None:
        p, n, value = tail
        print(f"  task_tail_s {value:.6g} s  (p{p:g} of {n} tasks)")
    else:
        print(f"  task_tail_s n/a  (only {summary['task_count']} tasks; "
              "needs 11 for a percentile with ten beyond it)")
    for name, value in summary["accuracy"].items():
        label = {"terminal": "terminal_digits_p50", "moment": "moment_digits_p50",
                 "product": "product_digits_min"}[name]
        print(f"  {label} {value:.6g} digits")
    if "report_values_changed" in summary:
        print(f"  cli.report_values_changed {summary['report_values_changed']} count  "
              f"(exit codes {summary['exit_codes']})")
    if summary.get("failed_checks"):
        print(f"  failed checks: {', '.join(summary['failed_checks'])}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "memwave" / "__init__.py").is_file():
        print(f"no memwave sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    runner = Runner(tmp, time.monotonic() + RUN_LIMIT_S)
    seed, wl = str(args.seed), args.workload
    try:
        # compiles the package's bytecode once, so no timed step pays for it
        runner.run([sys.executable, "-c", "import memwave.cli"])
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            code, wall, _ = runner.worker("setup", "--workload", wl, "--seed", seed)
            if code != 0:
                raise RunFailed(f"set-up exited with {code}")
            setup_runs.append(wall)
        if wl == "verify_all":
            res = measure_verify_all(runner, args.seed, args.seconds, args.trace)
            summary = summarize_verify_all(res)
            untraced, traced = res["iterations"], res.get("traced", [])
        else:
            out = tmp / "measure.json"
            code, _, rss = runner.worker("measure", "--workload", wl, "--seed", seed,
                                         "--seconds", str(args.seconds),
                                         "--trace", str(args.trace), "--out", str(out))
            if code != 0:
                raise RunFailed(f"measurement exited with {code}")
            res = json.loads(out.read_text())
            res["rss"] = rss
            summary = summarize_rounds(wl, res)
            untraced, traced = rounds(res["tasks"]), rounds(res.get("traced_tasks", []))
        summary.update(timing(untraced))
        setup_s = statistics.median(setup_runs)
        if args.trace:
            imports = []
            for i in range(SETUP_REPEATS):
                path = tmp / f"imports{i}.json"
                if runner.worker("imports", "--out", str(path))[0] != 0:
                    raise RunFailed("import timing failed")
                imports.append(json.loads(path.read_text()))
            imports = {k: statistics.median(d[k] for d in imports) for k in imports[0]}
            metrics = per_layer(summary, res["stats"], untraced, traced, imports)
        else:
            metrics = end_to_end(summary, setup_s)
        env = environment(runner)
    except (RunFailed, OSError, KeyError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        print(runner.tail(), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print_table(wl, args.seed, summary, setup_runs, metrics, env)
    correct = bool(summary["correct"])
    if args.trace:
        # self times and the unattributed remainder must add up to the wall
        correct &= metrics["trace.unattributed_s"]["value"] >= -1e-6
    print(json.dumps({"correct": correct, "attempted": int(summary["attempted"]),
                      "failed": int(summary["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
