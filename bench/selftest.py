"""Self-test of the benchmark: every workload at tiny sizes, every check on.

    python3 bench/selftest.py

For each workload it runs the benchmark untraced and then traced twice with
the same seed, for a second each, and fails unless every run is correct with
no failed operation, prints every metric BENCHMARK.json names, and the two
traced runs report the same per-layer counts. Takes about a minute.
"""
import json
import os
import subprocess
import sys

from common import HERE, PYTHON, ROOT

COUNTS = ("core.parse_rational_calls", "core.filter_checks", "intview.builds",
          "filter_opt.walk_steps", "filter_opt.pivot_q_calls", "simplex.linear_solves",
          "oracle.grid_points")


def bench(workload: str, trace: int) -> dict:
    argv = [PYTHON, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain, traced, again = bench(workload, 0), bench(workload, 1), bench(workload, 1)
        for label, result, wanted in (("untraced", plain, spec["end_to_end"]),
                                      ("traced", traced, spec["per_layer"])):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} {label}: {result}")
            missing = {m["name"] for m in wanted} - set(result["metrics"])
            if missing:
                problems.append(f"{workload} {label}: missing metrics {sorted(missing)}")
        for name in COUNTS:
            a, b = traced["metrics"][name]["value"], again["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} differs between traced runs: {a} != {b}")
        print(f"{workload}: ok" if not problems else f"{workload}: FAILED", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
