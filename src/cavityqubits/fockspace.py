"""Brute-force state-vector oracle for the cavity + atoms system.

The joint Hilbert space is (three atomic levels)^atoms x (two-mode Fock
space truncated at n0 + n1 <= n_max). Everything here is exact. Each
atom-cavity interaction conserves the total excitation number
N = (# excited atoms) + n0 + n1, so the space splits into N sectors that
never mix and the truncation costs nothing. `evolve` diagonalizes only the
sector blocks the state occupies, never forming a full propagator, and
raises ValueError for a Hamiltonian that links a sector to the rest of the
space. `evolution_operator` is the dense exp(-iHt), kept as the reference.

Work is done once and shared. The basis tables of each (atoms, n_max) are
built once per process and kept. Operators (Hamiltonians, ladder matrices)
are shared by every JointSpace of the same shape, and each sector block's
eigensystem is keyed by the block's exact bytes, so a changed or perturbed
matrix never meets a stale eigensystem. Both sit in one least-recently-used
store of at most CACHE_BYTES; an array larger than that is not stored, and
only the JointSpace that built it holds it. Tables, operators and
eigensystems are read-only. Operators are dense over the whole space, so
memory grows as dim^2: one Hamiltonian at 6 atoms x 6 photons would take
3.3 GB.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import IntEnum
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .protocol import MeasurementOutcome

NORM_TOL = 1e-10
# Bytes the shared store of operators and sector eigensystems may hold.
CACHE_BYTES = 64 * 2**20


class AtomLevel(IntEnum):
    """Three-level V configuration: one ground level, two degenerate excited
    levels that carry the qubit."""

    GROUND = 0
    EXC0 = 1  # excited level representing qubit |0>
    EXC1 = 2  # excited level representing qubit |1>


class FockLabel(NamedTuple):
    n0: int
    n1: int


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Store:
    """Least-recently-used map from keys to arrays or tuples of arrays,
    holding at most `limit` bytes of arrays and of `bytes` in keys. Values
    are made read-only. `fetch` builds a missing entry outside the lock, so
    concurrent callers may build the same entry twice; the results are equal
    and either one is kept."""

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()  # key -> (value, nbytes)
        self._lock = threading.Lock()

    def fetch(self, key: tuple, build):
        """The value under `key`, from `build()` on a miss; a value larger
        than the limit is returned and not kept."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
        value = build()
        arrays = tuple(map(_read_only, value if isinstance(value, tuple) else (value,)))
        nbytes = sum(a.nbytes for a in arrays) + sum(len(k) for k in key if isinstance(k, bytes))
        if nbytes <= self.limit:
            with self._lock:
                old = self._entries.pop(key, None)
                self.nbytes += nbytes - (old[1] if old else 0)
                self._entries[key] = (value, nbytes)
                while self.nbytes > self.limit:
                    _, (_, evicted) = self._entries.popitem(last=False)
                    self.nbytes -= evicted
        return value


_STORE = _Store(CACHE_BYTES)


@functools.cache
def _basis_tables(atom_count: int, n_max: int) -> tuple:
    """(basis, index, levels, n0, n1, level_stride, sectors) of every
    JointSpace(atom_count, n_max), built once."""
    fock = [FockLabel(n0, n1) for n0 in range(n_max + 1) for n1 in range(n_max + 1 - n0)]
    level_rows = list(itertools.product(tuple(AtomLevel), repeat=atom_count))
    basis = tuple((lv, f.n0, f.n1) for lv in level_rows for f in fock)
    levels = np.repeat(np.array(level_rows, dtype=int), len(fock), axis=0)
    n0, n1 = np.tile(np.array(fock, dtype=int).T, len(level_rows))
    # position = level code * len(fock) + Fock position, the level code
    # reading the atoms' levels as base-3 digits, atom 0 most significant
    level_stride = 3 ** np.arange(atom_count - 1, -1, -1) * len(fock)
    excitations = np.count_nonzero(levels, axis=1) + n0 + n1
    sectors = tuple(
        _read_only(np.flatnonzero(excitations == n)) for n in range(excitations.max() + 1)
    )
    index = MappingProxyType({b: i for i, b in enumerate(basis)})
    return (basis, index, *map(_read_only, (levels, n0, n1, level_stride)), sectors)


class JointSpace:
    """Basis bookkeeping for `atom_count` atoms and a two-mode cavity.

    `basis[i]` is (levels, n0, n1), levels a tuple of AtomLevel and
    n0 + n1 <= n_max; `index()` inverts it. As arrays it is (levels[i], n0[i],
    n1[i]), and `sectors[N]` lists the positions of total excitation N. All
    of these are read-only and shared by every space of the same shape."""

    def __init__(self, atom_count: int, n_max: int):
        # integers before any lookup: (3, 2.0) would find the tables of (3, 2)
        atom_count, n_max = operator.index(atom_count), operator.index(n_max)
        if atom_count < 0:
            raise ValueError(f"atom_count must be >= 0, got {atom_count}")
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.atom_count = atom_count
        self.n_max = n_max
        (self.basis, self._index, self.levels, self.n0, self.n1, self._level_stride,
         self.sectors) = _basis_tables(atom_count, n_max)
        self.dim = len(self.basis)
        # operators this space has handed out, including any too large to store
        self._operators: dict[tuple, np.ndarray] = {}

    def index(self, levels, n0: int, n1: int) -> int:
        return self._index[(tuple(AtomLevel(l) for l in levels), n0, n1)]

    def _lowered(self, src: np.ndarray, mode: int) -> np.ndarray:
        """Positions of elements `src` with one photon fewer in `mode`. In the
        Fock order (n1 fastest, row n0 holding n_max + 1 - n0 labels) that is
        1 step back for mode 1 and n_max + 2 - n0 steps back for mode 0."""
        return src - (self.n_max + 2 - self.n0[src] if mode == 0 else 1)

    def _operator(self, key: tuple, build) -> np.ndarray:
        """Operator `key`, shared through the store by every space of this
        shape and kept by this space; `build()` makes it on a miss."""
        op = self._operators.get(key)
        if op is None:
            op = self._operators[key] = _STORE.fetch((self.atom_count, self.n_max, *key), build)
        return op

    def excitation_numbers(self) -> np.ndarray:
        """Total excitation N = (# atoms not in ground) + n0 + n1, per basis
        element. The interaction Hamiltonian commutes with this."""
        return np.count_nonzero(self.levels, axis=1) + self.n0 + self.n1

    def annihilation_matrix(self, mode: int) -> np.ndarray:
        """Dense matrix of the ladder operator for cavity mode 0 or 1."""
        mode = operator.index(mode)  # 0.0 must not find the operator of 0
        if mode not in (0, 1):
            raise ValueError(f"mode must be 0 or 1, got {mode}")

        def build():
            n = (self.n0, self.n1)[mode]
            src = np.flatnonzero(n > 0)
            op = np.zeros((self.dim, self.dim))
            op[self._lowered(src, mode), src] = np.sqrt(n[src])
            return op

        return self._operator(("mode", mode), build)

    def hamiltonian(self, atom_index: int, gamma: float) -> np.ndarray:
        """Coupling `gamma` (units 1/time, hbar = 1) is shared by both
        excited-to-ground transitions."""
        atom_index = operator.index(atom_index)
        if not 0 <= atom_index < self.atom_count:
            raise IndexError(f"atom_index {atom_index} out of range [0, {self.atom_count})")
        if not gamma > 0:
            raise ValueError(f"gamma must be positive, got {gamma}")

        def build():
            h = np.zeros((self.dim, self.dim))
            ground = self.levels[:, atom_index] == AtomLevel.GROUND
            # a0 |e0><g| and a1 |e1><g| on the addressed atom, plus h.c.
            for mode, n in enumerate((self.n0, self.n1)):
                src = np.flatnonzero(ground & (n > 0))
                tgt = self._lowered(src, mode) + (1 + mode) * self._level_stride[atom_index]
                h[tgt, src] = h[src, tgt] = gamma * np.sqrt(n[src])
            return h

        return self._operator(("hamiltonian", atom_index, gamma), build)


@dataclass(frozen=True)
class JointPureState:
    """Amplitude vector over a JointSpace basis.

    Normalization is not enforced here because ladder-operator outputs are
    legitimately unnormalized; physical states keep unit norm and the
    evolution/measurement routines check it where it matters.
    """

    space: JointSpace
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.space.dim},)"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "JointPureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "JointPureState") -> float:
        return abs(self.overlap(other)) ** 2


@dataclass(frozen=True)
class MeasurementResult:
    outcome: MeasurementOutcome
    probability: float
    post_state: JointPureState


def basis_state(space: JointSpace, levels, n0: int, n1: int) -> JointPureState:
    amps = np.zeros(space.dim, dtype=complex)
    amps[space.index(levels, n0, n1)] = 1.0
    return JointPureState(space, amps)


def qubit_register_state(
    space: JointSpace, qubit_amplitudes: np.ndarray, n0: int = 0, n1: int = 0
) -> JointPureState:
    """Embed a 2**atoms qubit-register vector into the joint basis, with the
    cavity in |n0, n1>. Qubit |0> maps to EXC0, |1> to EXC1; qubit 0 is the
    most significant bit (np.kron ordering, as in `symstate`)."""
    m = space.atom_count
    qubit_amplitudes = np.asarray(qubit_amplitudes, dtype=complex)
    if qubit_amplitudes.shape != (2**m,):
        raise ValueError(f"expected {2**m} register amplitudes")
    bits = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1  # atom q: EXC0 + bit q
    fock = space.index((AtomLevel.GROUND,) * m, n0, n1)  # level code 0
    amps = np.zeros(space.dim, dtype=complex)
    amps[(AtomLevel.EXC0 + bits) @ space._level_stride + fock] = qubit_amplitudes
    return JointPureState(space, amps)


def annihilate(state: JointPureState, mode: int) -> JointPureState:
    """Apply the ladder operator of the given cavity mode (unnormalized)."""
    op = state.space.annihilation_matrix(mode)
    return JointPureState(state.space, op @ state.amplitudes)


def interaction_hamiltonian(space: JointSpace, atom_index: int, gamma: float = 1.0) -> np.ndarray:
    """Dense Hermitian matrix of gamma*(a0 |e0><g| + a1 |e1><g| + h.c.)
    acting on the addressed atom. Commutes with the total excitation
    number, so each N sector evolves independently."""
    return space.hamiltonian(atom_index, gamma)


def evolution_operator(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) by Hermitian eigendecomposition (hbar = 1)."""
    w, v = np.linalg.eigh(hamiltonian)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def evolve(state: JointPureState, hamiltonian: np.ndarray, t: float) -> JointPureState:
    """exp(-i H t) applied one excitation sector at a time. Every sector the
    state occupies must be closed under H, with no element linking it to the
    rest of the space; otherwise ValueError."""
    space = state.space
    if hamiltonian.shape != (space.dim, space.dim):
        raise ValueError(f"hamiltonian shape {hamiltonian.shape} does not match dim {space.dim}")
    out = np.zeros(space.dim, dtype=complex)
    for n, idx in enumerate(space.sectors):
        psi = state.amplitudes[idx]
        if not psi.any():
            continue
        rows = hamiltonian[idx]
        block = rows[:, idx]
        inside = np.count_nonzero(block)
        if np.count_nonzero(rows) != inside or np.count_nonzero(hamiltonian[:, idx]) != inside:
            raise ValueError(f"hamiltonian couples excitation sector N={n} to other sectors")
        w, v = _sector_eigh(block)
        out[idx] = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi))
    return JointPureState(space, out)


def _sector_eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of one sector block, stored under the block's exact bytes: a hit
    compares the whole key, so only an identical matrix reuses a result."""
    key = ("eigh", block.shape, block.dtype.str, block.tobytes())
    return _STORE.fetch(key, lambda: tuple(np.linalg.eigh(block)))


def measure_atom_energy(
    state: JointPureState,
    atom_index: int,
    rng: np.random.Generator | None = None,
    outcome: MeasurementOutcome | None = None,
) -> MeasurementResult:
    """Projective energy measurement of one atom.

    The two excited levels are degenerate, so the excited branch projects
    onto their joint span and leaves any qubit superposition intact. Pass
    `rng` to sample the branch, or force one with `outcome`; forcing a
    zero-probability branch raises.
    """
    space = state.space
    if not 0 <= atom_index < space.atom_count:
        raise IndexError(f"atom_index {atom_index} out of range [0, {space.atom_count})")
    if (rng is None) == (outcome is None):
        raise ValueError("pass exactly one of rng or outcome")

    ground_mask = space.levels[:, atom_index] == AtomLevel.GROUND
    p_ground = np.sum(np.abs(state.amplitudes[ground_mask]) ** 2) / state.norm() ** 2
    p_ground = min(max(float(p_ground), 0.0), 1.0)

    if outcome is None:
        outcome = (
            MeasurementOutcome.GROUND if rng.random() < p_ground else MeasurementOutcome.EXCITED
        )
    prob = p_ground if outcome is MeasurementOutcome.GROUND else 1.0 - p_ground
    if prob <= 0.0:
        raise ValueError(f"branch {outcome.value} has zero probability")

    keep = ground_mask if outcome is MeasurementOutcome.GROUND else ~ground_mask
    post = np.where(keep, state.amplitudes, 0.0)
    post = post / np.linalg.norm(post)
    return MeasurementResult(outcome, prob, JointPureState(space, post))


def reduced_atom_state(state: JointPureState, atom_index: int) -> np.ndarray:
    """3x3 density matrix of one atom, tracing out everything else."""
    space = state.space
    if not 0 <= atom_index < space.atom_count:
        raise IndexError(f"atom_index {atom_index} out of range [0, {space.atom_count})")
    # the atom's level is one base-3 digit of the position: axis 1 here
    amps = state.amplitudes.reshape(3**atom_index, 3, -1)
    return np.einsum("ixr,iyr->xy", amps, amps.conj()) / state.norm() ** 2


def partially_transferred_state(
    space: JointSpace,
    zeros: int,
    total: int,
    transferred: int,
    gamma: float = 1.0,
) -> JointPureState:
    """Physical representation of the symmetric state with `zeros` of
    `total` qubits in |0>, after `transferred` qubits have been moved onto
    the first atoms (the rest of the photons stay in the cavity).

    Built by applying H_k / (sqrt(total - k + 1) * gamma) for k = 1..m to
    |g..g> |zeros, total - zeros>; each application moves one qubit and
    preserves the norm, which is asserted.
    """
    if not 0 <= zeros <= total:
        raise ValueError(f"zeros must lie in [0, {total}], got {zeros}")
    if total > space.n_max:
        raise ValueError(f"total={total} exceeds the space truncation n_max={space.n_max}")
    if not 0 <= transferred <= min(total, space.atom_count):
        raise ValueError(f"transferred={transferred} not representable in this space")
    levels = (AtomLevel.GROUND,) * space.atom_count
    state = basis_state(space, levels, zeros, total - zeros)
    for k in range(1, transferred + 1):
        amps = space.hamiltonian(k - 1, gamma) @ state.amplitudes
        state = JointPureState(space, amps / (math.sqrt(total - k + 1) * gamma))
    assert abs(state.norm() - 1.0) < NORM_TOL, "transfer chain should preserve the norm"
    return state
