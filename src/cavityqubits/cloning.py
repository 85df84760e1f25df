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


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Each row's total of `terms`, a fresh (..., K) array, added left to right
    over its last axis in place: the one order of every weighted total here,
    so a row has the same bits alone or in any stack, on any BLAS."""
    return np.add.accumulate(terms, axis=-1, out=terms)[..., -1].copy()


def atom_fidelity(photon_numbers, weights, n_originals: int = 1):
    """F_atom, the average clone fidelity, of each row of `weights`, a (..., K)
    stack of mixtures over the K clone counts `photon_numbers`: an array of
    the leading shape, a float for one row. A row's total and F_atom are
    `ordered_sum`s, where a zero weight adds exactly 0.0. Raises `ValueError`
    for a total more than `WEIGHT_TOL` from 1, NaN included, and for a
    nonzero weight on fewer clones than `n_originals`."""
    weights = np.asarray(weights, dtype=float)
    ms = np.array(photon_numbers, dtype=int)
    if ms.shape != weights.shape[-1:]:
        raise ValueError(f"{ms.size} clone counts for {weights.shape[-1]} weight columns")
    fidelity = clone_fidelity(n_originals, np.maximum(ms, n_originals))
    rows = weights.reshape(-1, ms.size)
    total, f_atom = np.empty(len(rows)), np.empty(len(rows))
    block = max(1, 2**16 // ms.size)  # rows at a time: 512 KB temporaries at most
    for i in range(0, len(rows), block):
        total[i : i + block] = ordered_sum(rows[i : i + block].copy())
        f_atom[i : i + block] = ordered_sum(rows[i : i + block] * fidelity)
    off = total[~(np.abs(total - 1.0) <= WEIGHT_TOL)]  # a NaN total fails too
    if off.size:
        raise ValueError(f"weights must sum to 1, got {float(off[0])!r}")
    for k in np.flatnonzero(ms < n_originals).tolist():
        if (weights[..., k] != 0).any():
            clone_fidelity(n_originals, int(ms[k]))  # raises: the cloner cannot shrink
    return f_atom.reshape(weights.shape[:-1])[()]


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

