#!/usr/bin/env python3
"""Capture the verify-all reports that run.py diffs each cold run against.

    python3 perfbench/capture_reference.py

Runs `memwave verify-all` once per CLI seed in run.CLI_SEEDS and stores the
reports, without their timestamp, as reference/verify_all_seed<k>.json.
Run it only on code whose reports are the intended reference; a change that
moves a reported value shows up as cli.report_values_changed until then.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    tmp = run.ROOT / ".perfbench_tmp" / "capture"
    tmp.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(tmp, float("inf"))
    try:
        for seed in run.CLI_SEEDS:
            out = tmp / f"out{seed}"
            code, wall, _ = runner.run([sys.executable, "-m", "memwave.cli", "verify-all",
                                        "--seed", str(seed), "--out", str(out)])
            if code != 0:
                print(runner.tail(), file=sys.stderr)
                return 1
            path = run.HERE / "reference" / f"verify_all_seed{seed}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(run.load_reports(out), indent=1, sort_keys=True) + "\n")
            print(f"seed {seed}: {wall:.2f} s -> {path.relative_to(run.ROOT)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
