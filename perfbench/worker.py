"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --trace 0|1 \
        --answers perfbench/answers.json --workdir DIR [--record | --setup-only]

The pass imports polarspread from the checkout's ``src/``, times the
workload's ops back to back, then checks every op's answer against the
recorded one (or, with ``--record``, reports the answers instead).  The
last line of standard output is one JSON object with the pass's figures; a
traced pass also saves its spans to perfbench/.traces/<workload>.npz.
A fresh interpreter per pass matters: the library's module-level and
per-space caches would otherwise turn every pass after the first into
cache hits, which a command-line user never gets.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _normal(obj):
    """The value as it reads back from JSON (tuples become lists, ...)."""
    return json.loads(json.dumps(obj, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--answers", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help="stop where the timed ops would start")
    a = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import polarspread  # noqa: F401  (imported here so set-up holds the import)

    from tracer import Tracer
    from workloads import WORKLOADS

    recorded = {} if a.record else json.loads(Path(a.answers).read_text())[a.workload]
    workdir = Path(a.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[a.workload](workdir)
    if a.setup_only:
        print(json.dumps({"workload": a.workload, "t_first": time.monotonic()}))
        return 0
    tracer = None
    if a.trace:
        tracer = Tracer()
        tracer.install()

    done = []
    t_first = time.monotonic()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for op in ops:
        first_span = len(tracer.names) if tracer else 0
        start = time.perf_counter()
        try:
            res, err = op.run(), None
        except Exception as e:  # an op that raises is a failed op, not a failed pass
            res, err = None, f"{type(e).__name__}: {e}"
        done.append((op, res, err, time.perf_counter() - start, first_span))
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    nspans = len(tracer.names) if tracer else 0

    report, answers = [], {}
    for i, (op, res, err, secs, first_span) in enumerate(done):
        if err is None:
            try:
                got = _normal(op.answer(res))
            except Exception as e:
                err = f"answer: {type(e).__name__}: {e}"
            else:
                answers[op.name] = got
                if not a.record and got != recorded.get(op.name):
                    err = f"answer differs from the recorded one: {json.dumps(got)[:200]}"
        report.append({"name": op.name, "seconds": secs, "ok": err is None, "error": err})
        if tracer:
            end_span = done[i + 1][4] if i + 1 < len(done) else nspans
            report[-1]["counts"] = tracer.op_counts(first_span, end_span)

    out = {
        "workload": a.workload,
        "t_first": t_first,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "numpy": numpy.__version__,
        "ops": report,
    }
    if tracer:
        tracer.truncate(nspans)  # answer checks after the timed region are not traced work
        out["layers"] = tracer.metrics()
        out["spans"] = nspans
        tracer.write(HERE / ".traces" / f"{a.workload}.npz")
    if a.record:
        out["answers"] = answers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
