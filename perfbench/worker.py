"""One benchmark process: set up a workload, then measure or trace it.

`run.py` starts a fresh process of this script for every set-up sample and
for every measurement, so set-up time and peak memory belong to a single
workload. The result goes to `--result` as JSON.

Modes:
  setup    set up, report the set-up time and exit
  measure  set up, then run full datasets until `--seconds` have passed
  trace    set up, run the first TRACE_DATASETS datasets untraced for half
           of `--seconds`, then once more with tracing on

Speed correction: right before and right after every dataset the worker
times the probe of the workload's kind of work (`Workload.probe`, one of
probes.PROBES); each dataset's time is reported with its speed factor
nominal probe time / probe time, and `run.py` multiplies the two.

The program must not move the probe either. So after each dataset's
closing probe the worker runs the probe's kernel back to back for
SETTLE_S, long enough for any thread the program left spinning (OpenBLAS's
workers spin about 0.13 s after a call) to stop, and times the probe
again: that settled probe opens the next dataset. The ratio of the fastest
timings of each closing probe and the settled one after it is reported,
and `run.py` refuses the run when their median is off 1 by more than its
gate.
"""

from time import perf_counter

START = perf_counter()  # set-up time counts from here: before numpy and the program load

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from probes import PROBES, keep_busy, probe  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Kernel runs between a dataset's closing probe and the settled probe. Idle
# time would not do: after a sleep, or with the second vCPU idle during a
# busy wait, the probe runs up to 12 % slower or faster, 2x for `eigh`.
SETTLE_S = 0.2
# Datasets a traced run covers: enough that one-off calls (the optimal tau
# of a fig4 call) do not dominate the counts.
TRACE_DATASETS = 5


def _blas_info() -> dict:
    """OpenBLAS build and thread count, read from the library numpy loaded."""
    import ctypes

    import numpy as np

    info: dict = {"numpy": np.__version__}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line and "/" in line})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                get_threads = getattr(lib, symbol)
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                info["blas_threads"] = get_threads()
                return info
    return info


def _run_until(workload, seed: int, seconds: float, workdir: Path, checks) -> tuple[list, list, list]:
    """Run datasets back to back, each with fresh inputs, until `seconds`
    have passed (at least one). Returns the datasets, the speed factor of
    each from the probes right before and right after it, and the ratio of
    each closing probe to the settled probe SETTLE_S later."""
    nominal = PROBES[workload.probe][1]
    datasets, speeds, settle_ratios = [], [], []
    before, _ = probe(workload.probe)
    begin = perf_counter()
    while not datasets or perf_counter() - begin < seconds:
        datasets.append(workload.run(seed, len(datasets), workdir, checks))
        after, after_fastest = probe(workload.probe)
        speeds.append(2 * nominal / (before + after))
        keep_busy(workload.probe, SETTLE_S)
        before, before_fastest = probe(workload.probe)
        # Fastest timings: a host stall in one probe is not the program's doing.
        settle_ratios.append(after_fastest / before_fastest)
    return datasets, speeds, settle_ratios


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.tiny)
    workload.setup(args.seed)
    setup_s = perf_counter() - START

    import cavityqubits

    if not Path(cavityqubits.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"cavityqubits was imported from {cavityqubits.__file__}, not from {SRC}")

    result: dict = {"setup_s": setup_s}
    if args.mode != "setup":
        args.workdir.mkdir(parents=True, exist_ok=True)
        checks = workloads.Checks()
        result["env"] = {"python": platform.python_version(), **_blas_info()}
        if args.mode == "measure":
            datasets, speeds, settle_ratios = _run_until(workload, args.seed, args.seconds,
                                                         args.workdir, checks)
            result.update(
                walls=[d.wall_s for d in datasets],
                speeds=speeds,
                settle_ratios=settle_ratios,
                op_s=[t * speed for d, speed in zip(datasets, speeds) for t in d.op_s],
                units=[d.units for d in datasets],
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
        else:
            from tracer import ROOT, Tracer

            # The traced pass and the untraced ones run the same datasets,
            # so their difference is the tracing overhead and every count
            # repeats exactly for a given seed.
            def traced_datasets(tracer=None):
                for repeat in range(TRACE_DATASETS):
                    workload.run(args.seed, repeat, args.workdir, checks, tracer)

            untraced = []
            begin = perf_counter()
            while not untraced or perf_counter() - begin < args.seconds / 2:
                start = perf_counter()
                traced_datasets()
                untraced.append(perf_counter() - start)
            tracer = Tracer()
            tracer.install()
            try:
                tracer.wrap(traced_datasets, ROOT)(tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.metrics(statistics.median(untraced))
            result["layers"] = {name: [value, unit] for name, (value, unit) in metrics.items()}
            if args.spans is not None:
                tracer.write_spans(args.spans)
        result.update(
            attempted=checks.attempted,
            failed=checks.failed,
            problems=checks.problems,
            csv_sha256=checks.csv_sha256,
        )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
