"""Run every workload and print each named metric with its unit.

    python3 perfbench/all.py [--seed N] [--seconds S] [--trace] [--tiny]

Runs `run.py` once per workload with tracing off and prints every
end-to-end metric of BENCHMARK.json, plus the report-only ones (op latency
percentiles where a workload has many ops, and fail_frac). With `--trace`
it also makes two traced runs per workload and prints the per-layer
metrics of the first.

`--tiny` is the benchmark's self-check: it implies `--trace`, runs at sizes
that finish in seconds, and defaults to one second per run.

Either way the script asserts that BENCHMARK.json and workloads.py name the
same workloads, that every named metric is printed with its declared unit, that fail_frac is 0 on every workload, and that count
metrics repeat exactly across the two traced runs. It exits with status 1
if any assertion fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads
from tracer import COUNT_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, args, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _check_named(declared: list[dict], metrics: dict, where: str) -> list[str]:
    problems = []
    for spec in declared:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"{where}: {spec['name']} not printed")
        elif got.get("unit") != spec["unit"]:
            problems.append(f"{where}: {spec['name']} has unit {got.get('unit')!r}, not {spec['unit']!r}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Run every benchmark workload.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.tiny else bench["run_seconds"]
    trace = args.trace or args.tiny

    problems: list[str] = []
    declared = [w["name"] for w in bench["workloads"]]
    if sorted(declared) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json declares {declared}, workloads.py defines {list(workloads.WORKLOADS)}")
    for workload in declared:
        report, result = _run(workload, args, 0)
        print(f"== {workload} (seed {args.seed}, {report['env']})")
        for name, metric in result["metrics"].items():
            print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}")
        samples = report["op_samples"]
        for name in ("op_ms_p50", "op_ms_p90"):
            if name in report:
                print(f"  {name:42s} {report[name]:>16.6g} ms  ({samples} ops)")
        print(f"  {'fail_frac':42s} {report['fail_frac']:>16.6g} ratio  "
              f"({result['failed']} of {result['attempted']} checks)")
        problems += _check_named(bench["end_to_end"], result["metrics"], workload)
        if result["failed"] or not result["correct"]:
            problems.append(f"{workload}: fail_frac {report['fail_frac']}: {report['problems']}")
        if not trace:
            continue
        (_, first), (_, second) = _run(workload, args, 1), _run(workload, args, 1)
        for name, metric in first["metrics"].items():
            print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}")
        problems += _check_named(bench["per_layer"], first["metrics"], f"{workload} traced")
        for name, metric in first["metrics"].items():
            if metric["unit"] in COUNT_UNITS and second["metrics"].get(name) != metric:
                problems.append(f"{workload}: count {name} differs between two traced runs")
        if first["failed"] or second["failed"]:
            problems.append(f"{workload}: a traced run failed {first['failed'] + second['failed']} checks")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
