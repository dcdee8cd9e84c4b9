"""Subprocess entry points of the benchmark; run.py starts one per step.

    worker.py setup   --workload W --seed S
        cold set-up only: imports, input generation and one warm-up task
    worker.py measure --workload W --seed S --seconds X --trace 0|1 --out F
        set-up, then whole rounds of tasks for X seconds, one at a time;
        with --trace 1 the first half runs untraced and the same rounds are
        then repeated under the tracer
    worker.py cli --trace 0|1 --stats F -- <memwave arguments>
        the memwave command line in this process, sampled by the reference
        kernel (--trace 0) or under the tracer (--trace 1); totals go to F
    worker.py imports --out F
        import time of each layer module, in load order, in this fresh interpreter

The environment (PYTHONPATH, thread counts) is set by run.py.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time

from tracer import LAYER_MODULES, Tracer


def _round_source(workload: str):
    import workloads

    if workload == "control_sweep":
        return workloads.control_round, workloads.run_control, workloads.control_warmup
    return workloads.wide_round, workloads.run_wide, workloads.wide_warmup


def setup(workload: str, seed: int):
    """Imports, the first round of inputs and one untimed warm-up task."""
    if workload == "verify_all":
        for name in LAYER_MODULES:
            importlib.import_module(f"memwave.{name}")
        return None
    make_round, run_task, warmup = _round_source(workload)
    rounds = [make_round(seed, 0)]
    run_task(warmup(seed))
    return rounds


def _run_rounds(workload, seed, rounds, budget, count=None, sampler=None):
    """Run whole rounds closed-loop until `budget` seconds or `count` rounds.

    With a sampler, each task's time excludes the sampler's share and the
    task records the reference-kernel time and calls that fell inside it.
    """
    make_round, run_task, _ = _round_source(workload)
    tasks, walls = [], []
    start = time.perf_counter()
    k = 0
    while True:
        if count is not None and k >= count:
            break
        if count is None and walls and \
                time.perf_counter() - start + statistics.median(walls) > budget:
            break
        if k == len(rounds):
            rounds.append(make_round(seed, k))
        t_round = time.perf_counter()
        for task in rounds[k]:
            ref_s, ref_calls = (sampler.seconds, sampler.calls) if sampler else (0.0, 0)
            t0 = time.perf_counter()
            out = run_task(task)
            elapsed = time.perf_counter() - t0
            if sampler:
                ref_s, ref_calls = sampler.seconds - ref_s, sampler.calls - ref_calls
            out.update(round=k, seconds=elapsed - ref_s, ref_s=ref_s, ref_calls=ref_calls)
            tasks.append(out)
        walls.append(time.perf_counter() - t_round)
        k += 1
    return tasks


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    from refkernel import Sampler

    rounds = setup(workload, seed)
    result = {}
    budget = seconds / 2.0 if trace else seconds
    with Sampler() as sampler:
        result["tasks"] = _run_rounds(workload, seed, rounds, budget, sampler=sampler)
    if trace:
        tracer = Tracer().install()
        try:
            result["traced_tasks"] = _run_rounds(
                workload, seed, rounds, None, count=result["tasks"][-1]["round"] + 1)
        finally:
            tracer.uninstall()
        result["stats"] = tracer.stats
    return result


def imports() -> dict:
    out = {}
    for name in LAYER_MODULES:
        t0 = time.perf_counter()
        importlib.import_module(f"memwave.{name}")
        out[name] = time.perf_counter() - t0
    return out


def run_cli(stats_path: str, trace: int, argv: list[str]) -> int:
    """memwave's command line in this process, under the tracer or the sampler.

    The span totals (traced) or the sampler's time and calls go to stats_path.
    """
    from refkernel import Sampler

    if trace:
        tracer = Tracer().install()
        try:
            code = _cli_main(argv)
        finally:
            tracer.uninstall()
        stats = tracer.stats
    else:
        with Sampler() as sampler:
            code = _cli_main(argv)
        stats = {"ref_s": sampler.seconds, "ref_calls": sampler.calls}
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


def _cli_main(argv: list[str]) -> int:
    from memwave import cli

    return cli.main(argv)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "cli", "imports"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--stats")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]
    if args.mode == "cli":
        return run_cli(args.stats, args.trace, cli_args)
    if args.mode == "setup":
        setup(args.workload, args.seed)
        return 0
    payload = (measure(args.workload, args.seed, args.seconds, args.trace)
               if args.mode == "measure" else imports())
    with open(args.out, "w") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
