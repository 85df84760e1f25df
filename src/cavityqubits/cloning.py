"""Optimal-cloning fidelity bookkeeping.

The universal n -> m cloner bounds the single-copy fidelity at
(nm + n + m) / (m (n + 2)); a mixture over clone counts averages these
values because the trace is linear. `quality` compares the achieved
average against the optimum for the number of clones actually produced.
"""

from __future__ import annotations

import numpy as np

# Allowed distance of a weight total from 1, `check_weights`'s tolerance.
WEIGHT_TOL = 1e-12


def clone_fidelity(n_originals: int, m_clones):
    """Best single-copy fidelity of an n -> m universal cloner, for an int
    or an int array of clone counts. An int64 array divides as Python's ints
    do: both sides are below 2^53, so the quotient is correctly rounded."""
    if n_originals < 1:
        raise ValueError(f"need at least one original, got {n_originals}")
    if np.any(m_clones < n_originals):
        raise ValueError(f"cloner cannot shrink: m_clones={m_clones} < n_originals={n_originals}")
    n, m = n_originals, m_clones
    return (n * m + n + m) / (m * (n + 2))


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Each row's total of `terms`, a fresh (..., K) array, added left to right
    over its last axis in place: the one order of every weighted total here,
    so a row has the same bits alone or in any stack, on any BLAS."""
    return np.add.accumulate(terms, axis=-1, out=terms)[..., -1].copy()


def check_weights(photon_numbers: np.ndarray, weights: np.ndarray, transferred=0) -> None:
    """The rules of a mixture, for one (K,) row of `weights` over the K
    branches `photon_numbers` with its transferred count, or for a (..., K)
    stack with one count per row: the count is >= 0, every weight is a
    non-negative number (a NaN is none), each row's `ordered_sum` lies within
    `WEIGHT_TOL` of 1, and no weight sits on a branch with n < transferred.
    Raises `ValueError` for the first rule broken."""
    transferred = np.asarray(transferred)
    if (transferred < 0).any():
        raise ValueError("transferred count must be non-negative")
    if not (weights >= 0).all():  # written so that a NaN fails it
        raise ValueError("weights must be non-negative numbers that sum to 1")
    rows = weights.reshape(-1, weights.shape[-1])
    block = max(1, 2**16 // rows.shape[1])  # rows at a time: 512 KB copies at most
    for i in range(0, len(rows), block):
        total = ordered_sum(rows[i : i + block].copy())
        off = ~(np.abs(total - 1.0) <= WEIGHT_TOL)
        if off.any():
            raise ValueError(f"weights must sum to 1, got {float(total[off][0])!r}")
    dead = ((photon_numbers < transferred[..., None]) & (weights != 0)).any(axis=-1)
    if dead.any():
        m = int(np.ravel(transferred)[np.argmax(dead)])
        raise ValueError(f"branches with n < transferred={m} must carry zero weight")


def atom_fidelity(photon_numbers, weights, n_originals: int = 1):
    """F_atom, the average clone fidelity, of each row of `weights`, a (..., K)
    stack of mixtures over the K clone counts `photon_numbers`: an array of
    the leading shape, a float for one row: an `ordered_sum`, where a zero
    weight adds exactly 0.0. Raises `ValueError` for a row `check_weights`
    refuses, and for a nonzero weight on fewer clones than `n_originals`."""
    weights = np.asarray(weights, dtype=float)
    ms = np.array(photon_numbers, dtype=int)
    if ms.shape != weights.shape[-1:]:
        raise ValueError(f"{ms.size} clone counts for {weights.shape[-1]} weight columns")
    check_weights(ms, weights)
    fidelity = clone_fidelity(n_originals, np.maximum(ms, n_originals))
    rows = weights.reshape(-1, ms.size)
    f_atom = np.empty(len(rows))
    block = max(1, 2**16 // ms.size)  # rows at a time: 512 KB temporaries at most
    for i in range(0, len(rows), block):
        f_atom[i : i + block] = ordered_sum(rows[i : i + block] * fidelity)
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
    """Binomial weights p_n = C(n_max-1, n-1) / 2**(n_max-1) for n = 1..n_max,
    each binomial coefficient an exact int from the one before."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    scale = 2 ** (n_max - 1)
    weights, c = {}, 1
    for k in range(n_max):  # c = C(n_max-1, k)
        weights[k + 1] = c / scale
        c = c * (n_max - 1 - k) // (k + 1)
    return weights


def uniform_distribution(n_min: int, n_max: int) -> dict[int, float]:
    """Flat weights over n = n_min..n_max."""
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    count = n_max - n_min + 1
    return {n: 1.0 / count for n in range(n_min, n_max + 1)}

