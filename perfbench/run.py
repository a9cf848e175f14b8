"""polarspread benchmark: certification workloads through the public API.

    python3 perfbench/run.py --workload engine --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py for the ops and why each was chosen):

    engine     check_maximal_spread on eight families; the search engine works
    enumerate  maximal t.s./t.i. enumeration on fresh spaces; the enumerator works
    ovoid      check_maximal_ovoid scans and a hyperplane census; field arithmetic works
    construct  cli.main construct/verify/transform into a work directory

Each workload is one closed-loop, single-thread client (jobs=1): it issues
its ops one after another, each when the previous one has returned.  A pass
runs every op once in a fresh interpreter (worker.py); the run repeats
passes for ``--seconds`` seconds, starting another only if it should end in
time, and always runs at least one.  With ``--trace 0`` it reports, as the
median over passes:

    wall_s       s      first timed op to the end of the last
    cpu_s        s      user+sys CPU of the pass process over the same span
    setup_s      s      process start to the first timed op (interpreter,
                        imports, benchmark-side preparation); the median
                        also takes five processes that stop there
    peak_rss_mb  MB     peak resident memory of the pass process
    ok_frac      ratio  ops that returned the recorded answer / ops attempted

An op fails if it raises, exits non-zero or answers other than
answers.json records.  With ``--trace 1`` the run makes one untraced pass and
one traced pass (tracer.py) and reports the per-layer metrics of the traced
one, plus the tracing overhead.  Spans of the traced pass go to
perfbench/.traces/<workload>.npz.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Lines before it give the provenance and per-op times.

    python3 perfbench/run.py --record    # rewrite answers.json from this checkout
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ANSWERS = HERE / "answers.json"
WORKLOADS = ("engine", "enumerate", "ovoid", "construct", "tiny")  # tiny: for selftest.py

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]
# traced minus untraced wall_s of the same workload, and the spans recorded
TRACE_METRICS = [("trace.overhead_s", "s"), ("trace.spans", "count")]
# per-op counts the traced pass prints next to each op
REPORTED_COUNTS = (
    "verify.check_maximal_spread.nodes",
    "spaces.maximal_totally_singular.results",
    "verify.check_maximal_ovoid.candidates",
)
PASS_TIMEOUT_S = 150
SETUP_PROBES = 5

SEED_NOTE = "ignored: every workload runs the same exhaustive ops for every seed (see workloads.py)"


def run_pass(workload: str, trace: bool, answers: Path, *flags: str) -> dict:
    """Run one pass in a fresh interpreter; return its figures, or a dict
    with an "error" key if the pass process failed.  ``flags`` go to the
    worker (--record, --setup-only)."""
    workdir = HERE / ".work" / f"{os.getpid()}-{time.monotonic_ns()}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--trace", str(int(trace)),
        "--answers", str(answers), "--workdir", str(workdir),
    ]
    cmd += flags
    t_spawn = time.monotonic()
    # a fixed hash seed keeps set and dict orders, and so the work done, the
    # same from pass to pass
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"pass exceeded {PASS_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"pass exited {proc.returncode}: {err.strip()[-2000:]}"}
    res = json.loads(lines[-1])
    res["setup_s"] = res["t_first"] - t_spawn
    res["elapsed_s"] = time.monotonic() - t_spawn
    return res


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 of {n} samples beyond it"
    pct = 100 * (n - 10) // n
    return f"p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.4f}"


def provenance(workload: str, seed: int, trace: bool, passes: list[dict]) -> dict:
    try:
        cpu_model = next(
            (ln.split(":", 1)[1].strip() for ln in open("/proc/cpuinfo") if ln.startswith("model name")),
            platform.processor() or "unknown",
        )
    except OSError:
        cpu_model = platform.processor() or "unknown"
    rev, dirty = "none (not a git checkout)", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        status = subprocess.run(
            git + ["status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True
        ).stdout
        dirty = bool(status.strip())
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polarspread").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seed_rule": SEED_NOTE,
        "trace": int(trace),
        "passes": len(passes),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": next((p["numpy"] for p in passes if "numpy" in p), "unknown"),
        "git_revision": rev,
        "git_dirty": dirty,
        "src_sha256": src.hexdigest(),
    }


def count_ops(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure messages); a pass whose process failed
    counts as that many failed ops as a full pass has, or one if none did."""
    full = max((len(p["ops"]) for p in passes if "ops" in p), default=1)
    attempted = failed = 0
    errors = []
    for p in passes:
        if "error" in p:
            attempted += full
            failed += full
            errors.append(p["error"])
            continue
        attempted += len(p["ops"])
        for op in p["ops"]:
            if not op["ok"]:
                failed += 1
                errors.append(f"{op['name']}: {op['error']}")
    return attempted, failed, errors


def report_ops(passes: list[dict]) -> None:
    times: dict[str, list[float]] = {}
    counts: dict[str, dict] = {}
    for p in passes:
        for op in p.get("ops", []):
            times.setdefault(op["name"], []).append(op["seconds"])
            if "counts" in op:
                counts[op["name"]] = op["counts"]
    for name, ts in times.items():
        shown = {k: v for k, v in counts.get(name, {}).items() if k in REPORTED_COUNTS}
        extra = "".join(f" {k}={v}" for k, v in shown.items())
        print(f"  op {name:45s} median {statistics.median(ts):8.4f} s over {len(ts)} passes{extra}")


def measure(workload: str, seconds: float, answers: Path) -> tuple[list[dict], dict]:
    deadline = time.monotonic() + seconds
    # set-up is short and noisy, so it gets extra samples from processes
    # that stop where the timed ops would start
    setups = [run_pass(workload, False, answers, "--setup-only") for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    while True:
        passes.append(run_pass(workload, False, answers))
        took = [p["elapsed_s"] for p in passes if "elapsed_s" in p]
        if not took or time.monotonic() + statistics.median(took) > deadline:
            break
    good = [p for p in passes if "error" not in p]
    metrics = {}
    if good:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = statistics.median(p[name] for p in good)
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in setups + good if "setup_s" in p)
    return passes, metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, answers: Path) -> int:
    """Measure one workload and print its report; the last line is the
    result object."""
    if trace:
        plain = run_pass(workload, False, answers)
        traced = run_pass(workload, True, answers)
        passes = [plain, traced]
    else:
        passes, measured = measure(workload, seconds, answers)
    attempted, failed, errors = count_ops(passes)
    if any("error" in p for p in passes) and (trace or all("error" in p for p in passes)):
        for e in errors:
            print(e, file=sys.stderr)
        return 1

    print(json.dumps({"provenance": provenance(workload, seed, trace, passes)}))
    report_ops(passes)
    for e in errors:
        print(f"  FAILED {e}")

    if trace:
        from tracer import LAYER_METRICS

        layers = dict(traced["layers"])
        layers["trace.spans"] = traced["spans"]
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        print(f"  traced pass: {traced['spans']} spans, wall {traced['wall_s']:.4f} s;"
              f" untraced pass: wall {plain['wall_s']:.4f} s")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS + TRACE_METRICS}
    else:
        good = [p for p in passes if "error" not in p]
        walls = [p["wall_s"] for p in good]
        print(f"  wall_s median {measured['wall_s']:.4f} s over {len(good)} passes"
              f" ({', '.join(f'{w:.3f}' for w in walls)}); {tail(walls)}")
        print(f"  setup_s median {measured['setup_s']:.4f} s over {SETUP_PROBES + len(good)} set-ups")
        measured["ok_frac"] = (attempted - failed) / attempted
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="polarspread benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), help="all: the four real workloads in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--answers", type=Path, default=ANSWERS, help="recorded answers to check against")
    ap.add_argument("--record", action="store_true", help="rewrite the recorded answers")
    a = ap.parse_args(argv)

    if not (ROOT / "src" / "polarspread" / "__init__.py").is_file():
        print(f"error: no polarspread sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if a.record:
        return record(a.answers)
    if a.workload is None:
        ap.error("--workload is required")
    if not a.answers.is_file():
        print(f"error: no recorded answers at {a.answers}", file=sys.stderr)
        return 2
    todo = WORKLOADS[:4] if a.workload == "all" else (a.workload,)
    return max(run_workload(w, a.seed, a.seconds, bool(a.trace), a.answers) for w in todo)


def record(path: Path) -> int:
    """Run one pass of every workload and write its answers."""
    answers = {}
    for workload in WORKLOADS:
        res = run_pass(workload, False, path, "--record")
        bad = [op for op in res.get("ops", []) if not op["ok"]]
        if "error" in res or bad:
            print(f"error: {workload}: {res.get('error') or bad}", file=sys.stderr)
            return 1
        answers[workload] = res["answers"]
        print(f"recorded {len(res['answers'])} answers for {workload}")
    path.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
