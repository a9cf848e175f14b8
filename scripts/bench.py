#!/usr/bin/env python3
"""Record a benchmark delta as BENCH_<n>.json.

    python3 scripts/bench.py --n 9 --parent ../parent --pairs 10 --seconds 30 \
        --criteria c05,c09,c13

Runs each checkout's own ``perfbench/run.py`` (unchanged, ``--trace 0``) in
alternating pairs, the parent first in odd pairs, with one seed per pair,
and writes for every workload and column the median and quartiles of the
five end-to-end metrics and of each op's median seconds (the ``op NAME
median X s`` lines run.py prints), each checkout's `src/` line count, every
run's values, and in how many pairs the change read lower.  It also runs
each listed acceptance criterion (``pytest tests/test_acceptance.py -k
c05``, ...) once in each checkout, and records its pytest call time and the
line it printed.  Without ``--parent`` only
the change column is written.

Give each side a fresh ``git clone``: runs set PYTHONDONTWRITEBYTECODE, so
neither side reads or writes bytecode caches.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "ok_frac")
WORKLOADS = ("engine", "enumerate", "ovoid", "construct")


def env(extra: dict | None = None) -> dict:
    out = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out.pop("PYTHONPATH", None)
    out.update(extra or {})
    return out


# the per-op line run.py prints before its result line
OP_LINE = re.compile(r"^\s*op (.+?)\s+median\s+([\d.]+) s over")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run.py run: its correctness, end-to-end metrics and the median
    seconds of each op over the run's passes."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env(), capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    ops = {m.group(1): float(m.group(2)) for m in map(OP_LINE.match, lines[:-1]) if m}
    return {"correct": res["correct"], **{m: res["metrics"][m]["value"] for m in METRICS}, "ops": ops}


def run_criterion(checkout: Path, name: str, c5_budget: str | None) -> dict:
    """One pytest run of criterion `name` (c05, c09, ...): exit code, call
    and process seconds, and the ``criterion N:`` line it printed."""
    budget = c5_budget if name == "c05" else None
    extra = {"PYTHONPATH": "src"} | ({"POLARSPREAD_C5_BUDGET": budget} if budget else {})
    cmd = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
           "tests/test_acceptance.py", "-k", f"test_{name}_", "--durations=0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env(extra), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    call = re.search(rf"([\d.]+)s call\s+\S*test_{name}_", proc.stdout)
    mark = re.compile(rf"criterion\s+{int(name[1:])}:")
    line = next((ln.strip() for ln in proc.stdout.splitlines() if mark.search(ln)), None)
    out = {"exit": proc.returncode, "call_s": float(call.group(1)) if call else None,
           "wall_s": round(wall, 2), "report": line}
    if name == "c05":
        out["budget_s"] = budget or "default"
    return out


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "runs": values}


def revision(checkout: Path) -> dict:
    """The checkout's commit, the tree of its src/, which outlives an
    amended commit message, and the line count of src/polarspread/*.py (as
    ``wc -l`` totals it)."""
    def rev(name):
        proc = subprocess.run(["git", "rev-parse", name], cwd=checkout, capture_output=True, text=True)
        return proc.stdout.strip() or None

    src_lines = sum(f.read_bytes().count(b"\n") for f in (checkout / "src/polarspread").glob("*.py"))
    return {"commit": rev("HEAD"), "src_tree": rev("HEAD:src"), "src_lines": src_lines}


def machine() -> dict:
    model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                      if ln.startswith("model name")), None)
    import numpy

    return {"platform": platform.platform(), "cpu": model or platform.processor(),
            "cpus": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, required=True, help="writes BENCH_<n>.json")
    ap.add_argument("--change", type=Path, default=ROOT, help="checkout of the change")
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    ap.add_argument("--criteria", default="c05",
                    help="comma-separated acceptance criteria to time once per side, '' for none")
    ap.add_argument("--c5-budget", help="POLARSPREAD_C5_BUDGET for criterion 5 (default: none)")
    ap.add_argument("--out", type=Path, help="default: BENCH_<n>.json in the change checkout")
    a = ap.parse_args(argv)

    sides = {"change": a.change.resolve()}
    if a.parent:
        sides = {"parent": a.parent.resolve(), **sides}
    out = {
        "n": a.n,
        "machine": machine(),
        "settings": {"pairs": a.pairs, "seconds": a.seconds, "first_seed": a.seed,
                     "command": "perfbench/run.py --trace 0"},
        "columns": {name: revision(path) for name, path in sides.items()},
        "workloads": {},
    }
    for workload in a.workloads.split(","):
        runs: dict[str, list[dict]] = {name: [] for name in sides}
        for i in range(a.pairs):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for name in order:
                res = run_bench(sides[name], workload, a.seed + i, a.seconds)
                runs[name].append(res)
                shown = {k: v for k, v in res.items() if k != "ops"}
                print(f"{workload} pair {i + 1} {name}: {shown}", file=sys.stderr)
        entry = {name: {"correct": all(r["correct"] for r in rs),
                        **{m: summary([r[m] for r in rs]) for m in METRICS},
                        "ops": {op: summary([r["ops"][op] for r in rs if op in r["ops"]])
                                for op in rs[0]["ops"]}}
                 for name, rs in runs.items()}
        if "parent" in runs:
            entry["change_lower"] = {
                m: f"{sum(c[m] < p[m] for p, c in zip(runs['parent'], runs['change']))}/{a.pairs}"
                for m in METRICS
            }
        out["workloads"][workload] = entry
    criteria = [c for c in a.criteria.split(",") if c]
    if criteria:
        out["criteria"] = {
            c: {name: run_criterion(path, c, a.c5_budget) for name, path in sides.items()}
            for c in criteria
        }
    path = a.out or sides["change"] / f"BENCH_{a.n}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
