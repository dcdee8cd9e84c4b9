#!/usr/bin/env python3
"""Compare the JSON reports and CSV sidecars of two `memwave ... --out <dir>` runs.

    python scripts/report_diff.py OLD_DIR NEW_DIR [--rtol 0]

Every `*.json` file in either directory is walked leaf by leaf; the
`timestamp` field is ignored, and list entries that carry a `name` (the
checks of a report) are matched by that name rather than by position.
Every `*.csv` file is compared cell by cell, rows by position and columns by
header name, with cells that parse as numbers compared as numbers.  One line
is printed per leaf or cell that differs: file, path (`row[i].column` for a
cell), old value, new value and the relative change of numbers.  Numbers
within `--rtol` of each other (relative to the larger magnitude) count as
equal; the default 0 reports every bit that moved.  Exit status: 0 when
nothing differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

IGNORED = {"timestamp"}


def _keyed(items: list) -> dict | None:
    """Named list entries keyed by name, or None when the list is not of that form."""
    if items and all(isinstance(x, dict) and "name" in x for x in items):
        names = [x["name"] for x in items]
        if len(set(names)) == len(names):
            return {f"[{name}]": x for name, x in zip(names, items)}
    return None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def diff(old, new, path: str, rtol: float, out: list) -> None:
    """Append (path, old, new) for every leaf that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if key in IGNORED:
                continue
            sub = f"{path}.{key}" if path else key
            if key not in old or key not in new:
                out.append((sub, old.get(key, "<absent>"), new.get(key, "<absent>")))
            else:
                diff(old[key], new[key], sub, rtol, out)
        return
    if isinstance(old, list) and isinstance(new, list):
        ko, kn = _keyed(old), _keyed(new)
        if ko is not None and kn is not None:
            for key in list(ko) + [k for k in kn if k not in ko]:
                if key not in ko or key not in kn:
                    out.append((path + key, ko.get(key, "<absent>"), kn.get(key, "<absent>")))
                else:
                    diff(ko[key], kn[key], path + key, rtol, out)
            return
        for i in range(max(len(old), len(new))):
            a = old[i] if i < len(old) else "<absent>"
            b = new[i] if i < len(new) else "<absent>"
            diff(a, b, f"{path}[{i}]", rtol, out)
        return
    if _is_number(old) and _is_number(new):
        both_nan = math.isnan(old) and math.isnan(new)
        if not (both_nan or math.isclose(old, new, rel_tol=rtol, abs_tol=0.0)):
            out.append((path, old, new))
        return
    if old != new:
        out.append((path, old, new))


def _csv_rows(path: Path) -> list[dict]:
    """Data rows as {column: cell}, with cells that parse as numbers as floats."""
    with path.open(newline="") as fh:
        header, *body = list(csv.reader(fh)) or [[]]

    def cell(v: str):
        try:
            return float(v)
        except ValueError:
            return v

    return [{col: cell(v) for col, v in zip(header, row)} for row in body]


def compare_dirs(old_dir: Path, new_dir: Path, rtol: float) -> list[tuple[str, str, object, object]]:
    rows = []
    names = sorted({p.name for d in (old_dir, new_dir)
                    for pattern in ("*.json", "*.csv") for p in d.glob(pattern)})
    for name in names:
        a, b = old_dir / name, new_dir / name
        if not a.exists() or not b.exists():
            rows.append((name, "", "<absent>" if not a.exists() else "<file>",
                         "<absent>" if not b.exists() else "<file>"))
            continue
        found: list = []
        if name.endswith(".csv"):
            ra, rb = _csv_rows(a), _csv_rows(b)
            for i in range(max(len(ra), len(rb))):
                diff(ra[i] if i < len(ra) else "<absent>", rb[i] if i < len(rb) else "<absent>",
                     f"row[{i}]", rtol, found)
        else:
            diff(json.loads(a.read_text()), json.loads(b.read_text()), "", rtol, found)
        rows += [(name, path, x, y) for path, x, y in found]
    return rows


def _relative(old, new) -> str:
    if _is_number(old) and _is_number(new) and max(abs(old), abs(new)) > 0:
        return f"{(new - old) / max(abs(old), abs(new)):+.2e}"
    return ""


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--rtol", type=float, default=0.0,
                    help="relative tolerance under which numbers count as equal")
    args = ap.parse_args(argv)
    for d in (args.old, args.new):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")
    rows = compare_dirs(args.old, args.new, args.rtol)
    for name, path, old, new in rows:
        print(f"{name}  {path}  {old!r} -> {new!r}  {_relative(old, new)}".rstrip())
    print(f"{len(rows)} value(s) differ")
    return 1 if rows else 0


if __name__ == "__main__":
    sys.exit(main())
