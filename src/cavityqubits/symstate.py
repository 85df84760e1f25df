"""Symmetric n-qubit states and their subset decomposition.

A symmetric state is fixed (up to phase) by the number of qubits in |0>.
We work with two storage modes:

* exhaustive -- full 2**n amplitude vector over the computational basis,
  used only for brute-force cross-checks (n <= 12),
* dicke -- the n+1 coefficients over the zero-count labels, which is all
  the ensemble-level machinery ever needs.

All amplitudes are kept real and non-negative; global phase carries no
information here, and fixing it lets tests compare vectors with plain
equality instead of equality-up-to-phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 2**12 amplitudes is the largest exhaustive vector we allow; everything
# bigger belongs in dicke mode.
MAX_EXHAUSTIVE_QUBITS = 12

NORM_TOL = 1e-12


def binom(a: int, b: int) -> int:
    """Exact binomial coefficient C(a, b); 0 when b is out of range."""
    if a < 0:
        raise ValueError(f"binom: a must be non-negative, got {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


@dataclass(frozen=True)
class SymLabel:
    """Label of a symmetric basis state: `zeros` qubits in |0> out of `total`."""

    zeros: int
    total: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise ValueError(f"SymLabel: total qubit count must be >= 1, got {self.total}")
        if not 0 <= self.zeros <= self.total:
            raise ValueError(
                f"SymLabel: zeros must lie in [0, {self.total}], got {self.zeros}"
            )

    @property
    def ones(self) -> int:
        return self.total - self.zeros


@dataclass(frozen=True)
class SymmetricStateVector:
    """Normalized symmetric state, either exhaustive (2**n) or dicke (n+1).

    Exhaustive amplitudes are indexed with qubit 0 as the most significant
    bit, matching np.kron tensor ordering.
    """

    n_qubits: int
    amplitudes: np.ndarray
    mode: str = "exhaustive"

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if self.mode not in ("exhaustive", "dicke"):
            raise ValueError(f"unknown mode {self.mode!r}")
        expected = 2**self.n_qubits if self.mode == "exhaustive" else self.n_qubits + 1
        if amps.shape != (expected,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({expected},)"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: ||amps|| = {norm!r}")
        if self.mode == "exhaustive":
            self._check_exchange_symmetry(amps)

    def _check_exchange_symmetry(self, amps: np.ndarray) -> None:
        # Adjacent transpositions generate the full permutation group.
        n = self.n_qubits
        tensor = amps.reshape((2,) * n)
        for q in range(n - 1):
            swapped = np.swapaxes(tensor, q, q + 1)
            if not np.allclose(tensor, swapped, atol=NORM_TOL, rtol=0.0):
                raise ValueError(f"amplitudes not symmetric under swapping qubits {q},{q+1}")

    def to_exhaustive(self) -> "SymmetricStateVector":
        """Expand a dicke-mode state onto the full computational basis."""
        if self.mode == "exhaustive":
            return self
        n = self.n_qubits
        amps = np.zeros(2**n, dtype=complex)
        for zeros, coeff in enumerate(self.amplitudes):
            if coeff != 0:
                basis = symmetric_basis_state(SymLabel(zeros, n))
                amps += coeff * basis.amplitudes
        return SymmetricStateVector(n, amps, mode="exhaustive")


@dataclass(frozen=True)
class DecompositionTerm:
    """One term of the two-subset expansion of a symmetric state.

    `split_zeros` of the |0> qubits land in the first (left) subset; the
    coefficient is sqrt(C(m,k) C(n-m, j-k) / C(n,j)).
    """

    split_zeros: int
    coefficient: float
    left: SymLabel
    right: SymLabel


def zeros_of_bitstring(index: int, n_qubits: int) -> int:
    """Number of qubits in |0> for computational basis index `index`."""
    return n_qubits - int(index).bit_count()


def symmetric_basis_state(label: SymLabel) -> SymmetricStateVector:
    """Equal-weight sum over all basis strings with `label.zeros` zeros."""
    n, j = label.total, label.zeros
    if n > MAX_EXHAUSTIVE_QUBITS:
        raise ValueError(
            f"exhaustive mode capped at {MAX_EXHAUSTIVE_QUBITS} qubits, got {n}"
        )
    amp = 1.0 / math.sqrt(binom(n, j))
    amps = np.zeros(2**n, dtype=complex)
    for idx in range(2**n):
        if zeros_of_bitstring(idx, n) == j:
            amps[idx] = amp
    return SymmetricStateVector(n, amps, mode="exhaustive")


def decompose(label: SymLabel, subset_size: int) -> list[DecompositionTerm]:
    """Expand |S(j, n-j)> over symmetric states of the first `subset_size`
    qubits tensor the remaining ones.

    Terms whose right-subset binomial vanishes are omitted; the surviving
    squared coefficients sum to 1.
    """
    n, j = label.total, label.zeros
    m = subset_size
    if not 1 <= m <= n - 1:
        raise ValueError(f"subset size must lie in [1, {n - 1}], got {m}")
    total = binom(n, j)
    terms = []
    for k in range(max(0, j - (n - m)), min(m, j) + 1):
        weight = binom(m, k) * binom(n - m, j - k)
        if weight == 0:
            continue
        terms.append(
            DecompositionTerm(
                split_zeros=k,
                coefficient=math.sqrt(weight / total),
                left=SymLabel(k, m),
                right=SymLabel(j - k, n - m),
            )
        )
    return terms
