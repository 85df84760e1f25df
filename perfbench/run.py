"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from `src/`
there and writes only under `.perfbench_out/`. Workload inputs are derived
from `--seed`; the program only sees the generated inputs.

With `--trace 0` it starts several fresh processes that only set up (for
`setup_s`) and one that sets up and then runs full datasets back to back
for `--seconds` (for `wall_s`, `units_per_s` and `peak_rss_mb`). With
`--trace 1` it starts one process that runs the workload untraced, then
once traced, and reports the per-layer metrics; its spans are written to
`.perfbench_out/spans-<workload>-seed<seed>.csv.gz`. Dataset times are
corrected for the host's momentary speed (see worker.py), and so are
set-up times (see `_setup_samples`).

The next-to-last line of standard output is a JSON report (environment,
op latencies, fail_frac, CSV hashes); the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probes
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "cavityqubits"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5
# The speed correction is refused when the median ratio of the probe right
# after a dataset to the settled probe after it is off 1 by more than this:
# then the program, not the host, moved the probe. A shift s biases the
# factor by about s / 2, so this keeps the bias under a third of the 0.25
# bound; over 80 runs on the development host the shift had a standard
# deviation of 0.019 and never passed 0.067. Checked from this many
# datasets on; a tiny self-check run has fewer.
PROBE_GATE = 0.15
PROBE_GATE_MIN_DATASETS = 10
# Every process this run starts must end within this many seconds of its start.
BUDGET_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def _worker(mode: str, args, workdir: Path, deadline: float, index: int = 0) -> dict:
    result = ROOT / workdir / f"{mode}-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", str(workdir),
           "--result", str(result)]
    if args.tiny:
        cmd.append("--tiny")
    if mode == "trace":
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} process ran out of time")
    if proc.returncode != 0 or not result.is_file():
        raise WorkerFailed(f"{mode} process exited with {proc.returncode}")
    return json.loads(result.read_text())


def _reference(deadline: float) -> float:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "probes.py")], cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        return float(proc.stdout)
    except (subprocess.TimeoutExpired, ValueError):
        raise WorkerFailed("set-up reference process failed")


def _setup_samples(args, workdir: Path, deadline: float) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, each with its speed factor.

    Set-up is half loading numpy and half running Python, and the host
    slows the two by different factors: at times numpy's import alone takes
    1.8x as long while the rest does not move. So every sample runs between
    two set-up reference processes (`probes.py`) that do the same mix of
    work without the program, and its factor is the nominal reference time
    over their mean time. The references never load the program, so it
    cannot move them.
    """
    refs = [_reference(deadline)]
    setups = []
    for i in range(args.setup_samples):
        setups.append(_worker("setup", args, workdir, deadline, i)["setup_s"])
        refs.append(_reference(deadline))
    return setups, [2 * probes.SETUP_REFERENCE_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _measure(args, workdir: Path, deadline: float) -> tuple[dict, dict]:
    setups, setup_speeds = _setup_samples(args, workdir, deadline)
    run = _worker("measure", args, workdir, deadline)
    probe_shift = statistics.median(run["settle_ratios"]) - 1
    if len(run["settle_ratios"]) >= PROBE_GATE_MIN_DATASETS and abs(probe_shift) > PROBE_GATE:
        raise WorkerFailed(f"the probe after each dataset differs from the settled probe by "
                           f"{probe_shift:+.3f} (median); the speed correction does not hold")
    walls = [w * speed for w, speed in zip(run["walls"], run["speeds"])]
    ops = run["op_s"]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "units_per_s": (statistics.median(u / w for u, w in zip(run["units"], walls)), "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(s * f for s, f in zip(setups, setup_speeds)), "s"),
    }
    report = {
        "datasets": len(walls),
        "units": sum(run["units"]),
        "raw_wall_s": statistics.median(run["walls"]),
        "raw_setup_s": statistics.median(setups),
        "setup_s_samples": setups,
        "setup_speed_factors": setup_speeds,
        "speed_factor_median": statistics.median(run["speeds"]),
        "probe_shift": probe_shift,
        "speed_factors": run["speeds"],
        "op_samples": len(ops),
    }
    # Op latency only for a body of many separately timed ops, so that the
    # 90th percentile has at least ten samples beyond it.
    if len(ops) >= 100:
        report["op_ms_p50"] = statistics.median(ops) * 1000
        report["op_ms_p90"] = statistics.quantiles(ops, n=10)[8] * 1000
    return run, {"metrics": metrics, "report": report}


def _trace(args, workdir: Path, deadline: float) -> tuple[dict, dict]:
    run = _worker("trace", args, workdir, deadline)
    metrics = {name: (value, unit) for name, (value, unit) in run["layers"].items()}
    return run, {"metrics": metrics, "report": {}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true", help="self-check sizes: seconds, not minutes")
    args = parser.parse_args(argv)
    args.setup_samples = 2 if args.tiny else SETUP_SAMPLES

    if not (PACKAGE / "__init__.py").is_file():
        print(f"run.py: no program source at {PACKAGE}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    # A fixed, relative output path: the CSVs echo it in their metadata, and
    # their hashes should only change when the program's output does.
    workdir = OUT.relative_to(ROOT) / f"work-{args.workload}"
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    (ROOT / workdir).mkdir(parents=True)
    try:
        run, out = (_trace if args.trace else _measure)(args, workdir, deadline)
    except WorkerFailed as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)

    attempted, failed = run["attempted"], run["failed"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {"commit": _commit(), "nproc": len(os.sched_getaffinity(0)), **run["env"]},
        "fail_frac": failed / attempted if attempted else 1.0,
        "problems": run["problems"],
        "csv_sha256": run["csv_sha256"],
        **out["report"],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
