"""The search behind `protocol.optimal_tau`: the interaction time in
(0, pi/gamma] that maximizes the excitation probability of a mixture.

A fixed grid scan, then golden-section refinement of the best bracket; every
value compared is `protocol.excite_prob`'s at its tau, bit for bit. Optima
are stored only in the transition trees (`transitions`), not here.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .cloning import ordered_sum

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Points of the scan grid over [0, pi/gamma], tau = 0 included.
TAU_GRID_POINTS = 2000


@lru_cache(maxsize=16)
def tau_grid(gamma: float) -> np.ndarray:
    """The positive points of the scan grid (read-only)."""
    grid = np.linspace(0.0, math.pi / gamma, TAU_GRID_POINTS)
    grid = grid[grid > 0]
    grid.flags.writeable = False
    return grid


# A row holds one float per grid point, 16 KB. One search needs a row per
# remaining photon count, up to 1001 at `config.MAX_PHOTON_NUMBER`, so the
# cache keeps 1024 rows: at most 16 MB.
@lru_cache(maxsize=1024)
def grid_row(remaining: int, gamma: float) -> np.ndarray:
    """sin^2 of the Rabi phase of a branch with `remaining` photons at every
    point of the scan grid (read-only): one row of excite_prob's table, from
    `protocol._rabi_factor`'s float expression. It does not depend on the
    weights."""
    row = np.sin(np.sqrt(remaining) * (gamma * tau_grid(gamma))) ** 2
    row.flags.writeable = False
    return row


def search(remaining: np.ndarray, w: np.ndarray, gamma: float) -> float:
    """`protocol.optimal_tau`'s search for a mixture with weights `w` and
    `remaining` (int) photons per branch."""
    grid = tau_grid(gamma)
    # excite_prob's curve at the grid from the cached rows, as 0.0 + x == x
    values = np.zeros(len(grid))
    for r, w_r in zip(remaining.tolist(), w.tolist()):
        values += grid_row(r, gamma) * w_r
    best = int(np.argmax(values))  # first max = smallest tau on ties

    freq = np.sqrt(remaining)

    def excite(tau) -> float:  # excite_prob at one tau
        return float(ordered_sum(np.sin(freq * (gamma * tau)) ** 2 * w))

    # Python floats: the same IEEE arithmetic as numpy scalars, but cheaper
    a = float(grid[best - 1] if best > 0 else grid[0])
    b = float(grid[best + 1] if best + 1 < len(grid) else grid[-1])
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = excite(c), excite(d)
    # The state (a, b, c, d, fc, fd) alone fixes the next iteration, so once
    # it equals the state two iterations back it repeats with period 2 (or
    # 1): stop there, on the state the last of the 80 iterations lands on.
    prev = older = None
    for i in range(80):
        if fc >= fd:  # keep the left interval on ties
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = excite(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = excite(d)
        state = (a, b, c, d, fc, fd)
        if state == older:
            if (79 - i) % 2:
                a, b, c, d, fc, fd = prev
            break
        older, prev = prev, state
    candidates = [(float(grid[best]), float(values[best])), (c, fc), (d, fd)]
    best_value = max(v for _, v in candidates)
    return min(t for t, v in candidates if v >= best_value)
