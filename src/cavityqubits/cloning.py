"""Optimal-cloning fidelity bookkeeping.

The universal n -> m cloner bounds the single-copy fidelity at
(nm + n + m) / (m (n + 2)); a mixture over clone counts averages these
values because the trace is linear. `quality` compares the achieved
average against the optimum for the number of clones actually produced.
"""

from __future__ import annotations

import math

import numpy as np

# Allowed distance of a weight total from 1, shared by the ensemble, the
# fidelity bookkeeping and the config validator.
WEIGHT_TOL = 1e-12


def clone_fidelity(n_originals: int, m_clones):
    """Best single-copy fidelity of an n -> m universal cloner, for an int
    or an int array of clone counts. An int64 array divides as Python's ints
    do: both sides are below 2^53, so the quotient is correctly rounded."""
    if n_originals < 1:
        raise ValueError(f"need at least one original, got {n_originals}")
    if np.any(m_clones < n_originals):
        raise ValueError(
            f"cloner cannot shrink: m_clones={m_clones} < n_originals={n_originals}"
        )
    n, m = n_originals, m_clones
    return (n * m + n + m) / (m * (n + 2))


def atom_fidelity(photon_numbers, weights, n_originals: int = 1):
    """F_atom, the average clone fidelity, of each row of `weights`, a (..., K)
    stack of mixtures over the K clone counts `photon_numbers`: an array of
    the leading shape, a float for one row. A row's total and F_atom
    accumulate left to right from 0.0, so a zero weight adds exactly 0.0
    (from Python 3.12 on, `sum()` would compensate the rounding). Raises
    `ValueError` for a total more than `WEIGHT_TOL` from 1, NaN included,
    and for a nonzero weight on fewer clones than `n_originals`."""
    weights = np.asarray(weights, dtype=float)
    columns = list(zip(map(int, photon_numbers), np.moveaxis(weights, -1, 0), strict=True))
    total, f_atom = np.zeros(weights.shape[:-1]), np.zeros(weights.shape[:-1])
    for _, w in columns:
        total += w
    off = total[~(np.abs(total - 1.0) <= WEIGHT_TOL)]  # a NaN total fails too
    if off.size:
        raise ValueError(f"weights must sum to 1, got {float(off[0])!r}")
    for m, w in columns:
        if m < n_originals and (w != 0).any():
            clone_fidelity(n_originals, m)  # raises: the cloner cannot shrink
    fidelity = clone_fidelity(n_originals, np.maximum([m for m, _ in columns], n_originals))
    for (_, w), f in zip(columns, fidelity.tolist()):
        f_atom += w * f  # below n_originals w is zero, and adds exactly 0.0
    return f_atom[()]


def quality(f_atom, n_originals: int, m_transferred):
    """Achieved fidelity relative to the optimum for m_transferred clones,
    for a float and an int or for arrays of them.

    May exceed 1 mid-run: the mixture average can sit above the optimal
    fidelity of the clones eventually produced. Undefined before the first
    transfer.
    """
    if np.any(m_transferred < 1):
        raise ValueError("quality is undefined before any qubit has been transferred")
    return f_atom / clone_fidelity(n_originals, m_transferred)


def binomial_distribution(n_max: int) -> dict[int, float]:
    """Binomial weights p_n = C(n_max-1, n-1) / 2**(n_max-1) for n = 1..n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    scale = 2 ** (n_max - 1)
    return {n: math.comb(n_max - 1, n - 1) / scale for n in range(1, n_max + 1)}


def uniform_distribution(n_min: int, n_max: int) -> dict[int, float]:
    """Flat weights over n = n_min..n_max."""
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    count = n_max - n_min + 1
    return {n: 1.0 / count for n in range(n_min, n_max + 1)}

