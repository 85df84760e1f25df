"""Speed references: fixed kernels of the benchmark's own, timed to tell how
fast the host runs right now for one kind of work.

The host these numbers come from (2 vCPUs on a shared machine) changes
speed by up to 2x within seconds, and not by the same factor for every
kind of work. So each workload is corrected with a kernel of the same kind
of work as its hot layer (PROBES), and set-up, which is half library
loading and half Python, with a reference process of the same mix (run
this file as a script). No change to the program can make these faster.

    python3 perfbench/probes.py    # one set-up reference; prints its seconds
"""

import gc
from time import perf_counter

# Calls of python_kernel in a set-up reference: about as long as the part of
# set-up that follows numpy's import.
SETUP_REFERENCE_KERNELS = 20
# The set-up reference's time on the development host (2 vCPUs, Python
# 3.11.7) in a quiet stretch. A scale: it cancels when two runs are compared.
SETUP_REFERENCE_NOMINAL_S = 0.2


def python_kernel() -> None:
    """Dict, list and tuple churn and small-array numpy calls: the kind of
    work in protocol's per-atom path."""
    import numpy as np

    table: dict = {}
    for i in range(3000):
        table[i % 97] = [i, float(i) * 0.5, (i, i + 1)]
        sum(table[i % 97][:2])
    a = np.arange(11.0)
    for i in range(400):
        float((np.sqrt(a * i + 1.0) * a).sum())


def rng_kernel() -> None:
    """Normal and uniform variates and vector arithmetic on 40,000 elements:
    the kind of work in trapping's Monte Carlo rounds."""
    import numpy as np

    rng = np.random.default_rng(1)
    x = rng.normal(1.0, 0.1, size=40_000)
    float(np.where(rng.random(40_000) < np.cos(x) ** 2, x, -x).sum())


_EIGH_MATRIX = []


def eigh_kernel() -> None:
    """Threaded LAPACK eigh of a fixed 160 x 160 symmetric matrix: the kind of
    work in fockspace's dense evolve."""
    import numpy as np

    if not _EIGH_MATRIX:
        m = np.random.default_rng(2).random((160, 160))
        _EIGH_MATRIX.append(m + m.T)
    np.linalg.eigh(_EIGH_MATRIX[0])


# kernel and its median time on the development host (2 vCPUs, Python 3.11.7)
PROBES = {
    "python": (python_kernel, 4.7e-3),
    "rng": (rng_kernel, 2.8e-3),
    "eigh": (eigh_kernel, 3.4e-3),
}


def probe(kind: str) -> tuple[float, float]:
    """Median and fastest of three timings of a fixed kernel: the host's
    speed now for that kind of work. The median is the speed the program
    met, host stalls included; the fastest leaves out a stall that hits only
    some of the timings. An untimed first call wakes whatever went idle since the
    last one (OpenBLAS's parked threads, an idle vCPU)."""
    kernel = PROBES[kind][0]
    kernel()
    times = []
    gc.disable()  # a collection would time the program's heap, not the host
    try:
        for _ in range(3):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
    finally:
        gc.enable()
    times.sort()
    return times[1], times[0]


def keep_busy(kind: str, seconds: float) -> None:
    """Run the kernel back to back for `seconds`. The host stays as busy as
    during a probe (both OpenBLAS threads for `eigh`), so nothing goes idle
    before the next probe, while threads the program left spinning stop."""
    kernel = PROBES[kind][0]
    end = perf_counter() + seconds
    while perf_counter() < end:
        kernel()


if __name__ == "__main__":
    start = perf_counter()
    import argparse  # noqa: F401
    import csv  # noqa: F401
    import dataclasses  # noqa: F401

    import numpy  # noqa: F401

    for _ in range(SETUP_REFERENCE_KERNELS):
        python_kernel()
    print(perf_counter() - start)
