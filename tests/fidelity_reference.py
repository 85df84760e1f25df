"""The dict form of `cloning.atom_fidelity`, one mixture at a time: the
tests' independent reference for the array kernel's float order and its
refusals."""

from typing import Mapping

from cavityqubits.cloning import WEIGHT_TOL, clone_fidelity


def atom_fidelity(clone_weights: Mapping[int, float], n_originals: int = 1) -> float:
    """Average clone fidelity of a mixture over clone counts, accumulated
    left to right in the mapping's order over its nonzero weights."""
    total = 0.0
    for p in clone_weights.values():
        total += p
    if not abs(total - 1.0) <= WEIGHT_TOL:  # a NaN total fails too
        raise ValueError(f"weights must sum to 1, got {total!r}")
    f_atom = 0.0
    for m, p in clone_weights.items():
        if p != 0:
            f_atom += p * clone_fidelity(n_originals, m)
    return f_atom
