"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs the ``tiny`` workload (one small op per workload: a thm3.1(2,1) engine
check, the Sp(6,2) enumeration, the thm9.1(7,1) scan and ``construct thm3.1
--q 3 --m 1``) through run.py, the same path the real workloads take, and
checks that

- every end-to-end metric, and with --trace 1 every per-layer metric, is
  printed with its unit, and the names and units match BENCHMARK.json;
- a deliberately wrong recorded answer is counted as a failed op;
- the benchmark refuses to run where there are no polarspread sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, TRACE_METRICS  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def check_metrics(result: dict, expected: list[tuple[str, str]]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == dict(expected), set(got) ^ {n for n, _ in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS + TRACE_METRICS

    rc, res = bench("--workload", "tiny", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert rc == 0 and res is not None, rc
    check_metrics(res, END_TO_END)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 4, res
    assert res["metrics"]["ok_frac"]["value"] == 1.0

    rc, res = bench("--workload", "tiny", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert rc == 0 and res is not None, rc
    check_metrics(res, LAYER_METRICS + TRACE_METRICS)
    assert res["correct"] and res["failed"] == 0
    assert res["metrics"]["verify.check_maximal_spread.calls"]["value"] == 1
    assert res["metrics"]["spaces.maximal_totally_singular.results"]["value"] == 135
    assert res["metrics"]["verify.check_maximal_ovoid.candidates"]["value"] == 400
    assert res["metrics"]["cli.main.calls"]["value"] == 1

    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        answers = json.loads((HERE / "answers.json").read_text())
        answers["tiny"]["engine thm3.1(2,1)"]["verdict"] = "extendable"
        wrong = Path(tmp) / "answers.json"
        wrong.write_text(json.dumps(answers))
        rc, res = bench("--workload", "tiny", "--seed", "0", "--seconds", "1", "--trace", "0",
                        "--answers", str(wrong))
        assert rc == 0 and res is not None, rc
        passes = res["attempted"] // 4
        assert not res["correct"] and res["failed"] == passes, res
        assert res["metrics"]["ok_frac"]["value"] == 0.75

        bare = Path(tmp) / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", ".traces"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, res = bench("--workload", "tiny", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
        assert rc != 0 and res is None, rc

    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
