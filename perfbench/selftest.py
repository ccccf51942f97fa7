"""Toy-scale self-test of the benchmark itself.

Usage, from the repository root::

    python3 perfbench/selftest.py

For every workload in ``workloads.py``, at toy sizes and one second per run,
each in a fresh process:

* the untraced run prints every end-to-end metric of ``BENCHMARK.json`` with
  its unit, and ``success_rate`` is 1.0;
* two traced runs under different ``PYTHONHASHSEED`` values print every
  per-layer metric with its unit, and every ``count`` metric is identical;
* a run with one answer deliberately corrupted reports ``correct: false``
  and a ``success_rate`` below 1.0.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, trace: int, *, corrupt: bool = False, hash_seed: str = "1") -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "toy",
    ]
    if corrupt:
        command.append("--corrupt")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _missing(result: dict, specs: list) -> list:
    metrics = result["metrics"]
    return [
        spec["name"] for spec in specs
        if metrics.get(spec["name"], {}).get("unit") != spec["unit"]
    ]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = []
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        plain = _run(workload, 0)
        if _missing(plain, spec["end_to_end"]):
            failures.append(f"{workload}: end-to-end metrics missing {_missing(plain, spec['end_to_end'])}")
        if plain["metrics"]["success_rate"]["value"] != 1.0 or not plain["correct"]:
            failures.append(f"{workload}: clean run not fully correct: {plain}")

        traced = [_run(workload, 1, hash_seed=seed) for seed in ("1", "2")]
        if _missing(traced[0], spec["per_layer"]):
            failures.append(f"{workload}: per-layer metrics missing {_missing(traced[0], spec['per_layer'])}")
        counts = [
            {name: m["value"] for name, m in run["metrics"].items() if m["unit"] == "count"}
            for run in traced
        ]
        if counts[0] != counts[1]:
            differing = {k: (counts[0][k], counts[1].get(k)) for k in counts[0] if counts[0][k] != counts[1].get(k)}
            failures.append(f"{workload}: traced counts differ between runs: {differing}")

        broken = _run(workload, 0, corrupt=True)
        if broken["correct"] or broken["metrics"]["success_rate"]["value"] >= 1.0:
            failures.append(f"{workload}: a corrupted answer went unnoticed: {broken}")
        print(f"{workload}: checked", file=sys.stderr)
    for failure in failures:
        print("FAIL", failure, file=sys.stderr)
    print("selftest", "failed" if failures else "passed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
