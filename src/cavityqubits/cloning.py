"""Optimal-cloning fidelity bookkeeping.

The universal n -> m cloner bounds the single-copy fidelity at
(nm + n + m) / (m (n + 2)); a mixture over clone counts averages these
values because the trace is linear. `quality` compares the achieved
average against the optimum for the number of clones actually produced.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .symstate import binom

# Allowed distance of a weight total from 1, shared by the ensemble, the
# fidelity bookkeeping and the config validator.
WEIGHT_TOL = 1e-12


def clone_fidelity(n_originals: int, m_clones: int) -> float:
    """Best single-copy fidelity of an n -> m universal cloner."""
    if n_originals < 1:
        raise ValueError(f"need at least one original, got {n_originals}")
    if m_clones < n_originals:
        raise ValueError(
            f"cloner cannot shrink: m_clones={m_clones} < n_originals={n_originals}"
        )
    n, m = n_originals, m_clones
    return (n * m + n + m) / (m * (n + 2))


def ordered_sum(values: Iterable[float]) -> float:
    """Float sum accumulated left to right, as `sum()` does up to Python
    3.11. From 3.12 on `sum()` compensates its rounding, which would change
    the printed F_atom and quality values."""
    total = 0.0
    for value in values:
        total += value
    return total


def atom_fidelity(clone_weights: Mapping[int, float], n_originals: int = 1) -> float:
    """Average clone fidelity of a mixture over clone counts."""
    total = ordered_sum(clone_weights.values())
    if not abs(total - 1.0) <= WEIGHT_TOL:  # a NaN total fails too
        raise ValueError(f"weights must sum to 1, got {total!r}")
    return ordered_sum(
        p * clone_fidelity(n_originals, m) for m, p in clone_weights.items() if p != 0
    )


def quality(f_atom: float, n_originals: int, m_transferred: int) -> float:
    """Achieved fidelity relative to the optimum for m_transferred clones.

    May exceed 1 mid-run: the mixture average can sit above the optimal
    fidelity of the clones eventually produced. Undefined before the first
    transfer.
    """
    if m_transferred < 1:
        raise ValueError("quality is undefined before any qubit has been transferred")
    return f_atom / clone_fidelity(n_originals, m_transferred)


def binomial_distribution(n_max: int) -> dict[int, float]:
    """Binomial weights p_n = C(n_max-1, n-1) / 2**(n_max-1) for n = 1..n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    scale = 2 ** (n_max - 1)
    return {n: binom(n_max - 1, n - 1) / scale for n in range(1, n_max + 1)}


def uniform_distribution(n_min: int, n_max: int) -> dict[int, float]:
    """Flat weights over n = n_min..n_max."""
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    count = n_max - n_min + 1
    return {n: 1.0 / count for n in range(n_min, n_max + 1)}

