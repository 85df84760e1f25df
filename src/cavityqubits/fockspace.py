"""Brute-force state-vector oracle for the cavity + atoms system.

The joint Hilbert space is (three atomic levels)^atoms x (two-mode Fock
space truncated at n0 + n1 <= n_max). Everything here is exact. Each
atom-cavity interaction conserves the total excitation number
N = (# excited atoms) + n0 + n1, so the truncation costs nothing.

Atom k couples only to the cavity, so its Hamiltonian is local: a
`LocalOperator` holding one 3F x 3F block over (atom k's level, Fock label),
F = (n_max + 1)(n_max + 2) / 2 Fock labels, with its eigensystem. `evolve`
and `measure_atom_energy` work on the state reshaped to
(3**k, 3, 3**(atoms - k - 1), F), so no d x d array is formed: one `evolve`
at 6 atoms x 6 photons (d = 20412) needs an 84 x 84 `eigh`, where a dense
Hamiltonian would take 3.3 GB. The dense `JointSpace.hamiltonian`,
`annihilation_matrix` and `evolution_operator` stay as the reference.

Work is done once and shared. The basis tables of each (atoms, n_max) are
built once per process and kept. Operators, dense and local, are shared by
every JointSpace of the same shape through one least-recently-used store of
at most CACHE_BYTES; an operator larger than that is not stored, and only
the JointSpace that built it holds it. Tables and operators are read-only.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import IntEnum
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .protocol import MeasurementOutcome

NORM_TOL = 1e-10
# Bytes the shared store of operators may hold.
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
    """Least-recently-used map from keys to read-only values with an
    `nbytes`, holding at most `limit` of those bytes. `fetch` builds a
    missing entry outside the lock, so concurrent callers may build the same
    entry twice; the results are equal and either one is kept."""

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
        nbytes = value.nbytes
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
    """(basis, index, levels, n0, n1, level_stride) of every
    JointSpace(atom_count, n_max), built once."""
    fock = [FockLabel(n0, n1) for n0 in range(n_max + 1) for n1 in range(n_max + 1 - n0)]
    level_rows = list(itertools.product(tuple(AtomLevel), repeat=atom_count))
    basis = tuple((lv, f.n0, f.n1) for lv in level_rows for f in fock)
    levels = np.repeat(np.array(level_rows, dtype=int), len(fock), axis=0)
    n0, n1 = np.tile(np.array(fock, dtype=int).T, len(level_rows))
    # position = level code * len(fock) + Fock position, the level code
    # reading the atoms' levels as base-3 digits, atom 0 most significant
    level_stride = 3 ** np.arange(atom_count - 1, -1, -1) * len(fock)
    index = MappingProxyType({b: i for i, b in enumerate(basis)})
    return (basis, index, *map(_read_only, (levels, n0, n1, level_stride)))


class JointSpace:
    """Basis bookkeeping for `atom_count` atoms and a two-mode cavity.

    `basis[i]` is (levels, n0, n1), levels a tuple of AtomLevel and
    n0 + n1 <= n_max; `index()` inverts it. As arrays it is (levels[i], n0[i],
    n1[i]). All of these are read-only and shared by every space of the same
    shape."""

    def __init__(self, atom_count: int, n_max: int):
        # integers before any lookup: (3, 2.0) would find the tables of (3, 2)
        atom_count, n_max = operator.index(atom_count), operator.index(n_max)
        if atom_count < 0:
            raise ValueError(f"atom_count must be >= 0, got {atom_count}")
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.atom_count = atom_count
        self.n_max = n_max
        (self.basis, self._index, self.levels, self.n0, self.n1,
         self._level_stride) = _basis_tables(atom_count, n_max)
        self.dim = len(self.basis)
        # operators this space has handed out, including any too large to store
        self._operators: dict[tuple, object] = {}

    def index(self, levels, n0: int, n1: int) -> int:
        return self._index[(tuple(AtomLevel(l) for l in levels), n0, n1)]

    def _lowered(self, src: np.ndarray, mode: int) -> np.ndarray:
        """Positions of elements `src` with one photon fewer in `mode`. In the
        Fock order (n1 fastest, row n0 holding n_max + 1 - n0 labels) that is
        1 step back for mode 1 and n_max + 2 - n0 steps back for mode 0."""
        return src - (self.n_max + 2 - self.n0[src] if mode == 0 else 1)

    def _operator(self, key: tuple, build):
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
            return _read_only(op)

        return self._operator(("mode", mode), build)

    def _coupling(self, atom_index: int, gamma: float) -> int:
        """`atom_index` as an int, after checking it and `gamma`."""
        atom_index = operator.index(atom_index)  # 0.0 must not find the operator of 0
        if not 0 <= atom_index < self.atom_count:
            raise IndexError(f"atom_index {atom_index} out of range [0, {self.atom_count})")
        if not gamma > 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        return atom_index

    def hamiltonian(self, atom_index: int, gamma: float) -> np.ndarray:
        """Dense d x d matrix of gamma*(a0 |e0><g| + a1 |e1><g| + h.c.) on
        the addressed atom, the reference for `interaction_hamiltonian`.
        Coupling `gamma` (units 1/time, hbar = 1) is shared by both
        excited-to-ground transitions."""
        atom_index = self._coupling(atom_index, gamma)

        def build():
            h = np.zeros((self.dim, self.dim))
            ground = self.levels[:, atom_index] == AtomLevel.GROUND
            # a0 |e0><g| and a1 |e1><g| on the addressed atom, plus h.c.
            for mode, n in enumerate((self.n0, self.n1)):
                src = np.flatnonzero(ground & (n > 0))
                tgt = self._lowered(src, mode) + (1 + mode) * self._level_stride[atom_index]
                h[tgt, src] = h[src, tgt] = gamma * np.sqrt(n[src])
            return _read_only(h)

        return self._operator(("hamiltonian", atom_index, gamma), build)


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """Hermitian operator on atom `atom_index` and the cavity, identity on
    the other atoms. `block` is 3F x 3F over (level, Fock label) at level
    code x F + Fock position, the order of a one-atom JointSpace; a read-only
    copy is kept with its eigensystem, computed here once."""

    atom_index: int
    block: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        atom_index = operator.index(self.atom_index)
        if atom_index < 0:
            raise ValueError(f"atom_index must be >= 0, got {atom_index}")
        block = _read_only(np.array(self.block))
        if block.ndim != 2 or block.shape[0] != block.shape[1] or block.shape[0] % 3:
            raise ValueError(f"block must be square with a side divisible by 3, got {block.shape}")
        # eigh reads one triangle only, so an asymmetric block would go unseen
        if not np.array_equal(block, block.conj().T):
            raise ValueError("block is not Hermitian")
        w, v = np.linalg.eigh(block)
        object.__setattr__(self, "atom_index", atom_index)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "eigenvalues", _read_only(w))
        object.__setattr__(self, "eigenvectors", _read_only(v))

    @property
    def nbytes(self) -> int:
        return self.block.nbytes + self.eigenvalues.nbytes + self.eigenvectors.nbytes


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


def interaction_hamiltonian(
    space: JointSpace, atom_index: int, gamma: float = 1.0
) -> LocalOperator:
    """gamma*(a0 |e0><g| + a1 |e1><g| + h.c.) on the addressed atom, as a
    LocalOperator whose block is JointSpace(1, n_max).hamiltonian(0, gamma).
    Every JointSpace of the same shape gets the same object."""
    atom_index = space._coupling(atom_index, gamma)
    return space._operator(
        ("local", atom_index, gamma),
        lambda: LocalOperator(atom_index, JointSpace(1, space.n_max).hamiltonian(0, gamma)),
    )


def evolution_operator(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """Dense exp(-i H t) by Hermitian eigendecomposition (hbar = 1), the
    reference for `evolve`."""
    w, v = np.linalg.eigh(hamiltonian)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _apply_local(
    space: JointSpace, atom_index: int, amplitudes: np.ndarray, apply
) -> np.ndarray:
    """`apply(columns)` of a 3F x 3F operator on atom `atom_index` and the
    cavity, for a vector over `space`: that atom's level is axis 1 and the
    Fock label axis 3 of amplitudes.reshape(3**k, 3, 3**(atoms - k - 1), F),
    and `columns` is that array as 3F rows, one column per (i, j)."""
    fock = space.dim // 3**space.atom_count
    psi = amplitudes.reshape(3**atom_index, 3, -1, fock)
    out = apply(psi.transpose(1, 3, 0, 2).reshape(3 * fock, -1))
    return out.reshape(3, fock, 3**atom_index, -1).transpose(2, 0, 3, 1).reshape(-1)


def evolve(state: JointPureState, hamiltonian: LocalOperator, t: float) -> JointPureState:
    """exp(-i H t) of a local operator, V exp(-i w t) V^dagger from its
    eigensystem, applied to atom H.atom_index and the cavity. An operator
    whose Fock truncation or atom does not fit the state's space raises
    ValueError."""
    if not isinstance(hamiltonian, LocalOperator):
        raise TypeError(f"hamiltonian must be a LocalOperator, got {type(hamiltonian).__name__}")
    space = state.space
    k, side = hamiltonian.atom_index, len(hamiltonian.block)
    if side != 3 * (space.dim // 3**space.atom_count) or k >= space.atom_count:
        raise ValueError(
            f"operator on atom {k} with a {side} x {side} block does not fit "
            f"{space.atom_count} atoms at n_max = {space.n_max}"
        )
    w, v = hamiltonian.eigenvalues, hamiltonian.eigenvectors
    phases = np.exp(-1j * t * w)[:, None]
    out = _apply_local(space, k, state.amplitudes, lambda x: v @ (phases * (v.conj().T @ x)))
    return JointPureState(space, out)


def _level_axis(state: JointPureState, atom_index: int) -> np.ndarray:
    """The amplitudes as (3**k, 3, rest), atom k's level on axis 1: that
    level is one base-3 digit of the position."""
    atom_count = state.space.atom_count
    if not 0 <= atom_index < atom_count:
        raise IndexError(f"atom_index {atom_index} out of range [0, {atom_count})")
    return state.amplitudes.reshape(3**atom_index, 3, -1)


def _checked_norm_squared(norm_squared: float) -> float:
    if not 0.0 < norm_squared < math.inf:
        raise ValueError(f"state norm must be positive and finite, got {math.sqrt(norm_squared)}")
    return norm_squared


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
    amps = _level_axis(state, atom_index)
    if (rng is None) == (outcome is None):
        raise ValueError("pass exactly one of rng or outcome")

    populations = np.einsum("ixr,ixr->x", amps, amps.conj()).real
    ground = float(populations[AtomLevel.GROUND])
    excited = float(populations[AtomLevel.EXC0 :].sum())
    total = _checked_norm_squared(ground + excited)
    if outcome is None:
        sampled_ground = rng.random() < ground / total
        outcome = MeasurementOutcome.GROUND if sampled_ground else MeasurementOutcome.EXCITED
    kept = ground if outcome is MeasurementOutcome.GROUND else excited
    if kept <= 0.0:
        raise ValueError(f"branch {outcome.value} has zero probability")

    post = amps.copy()
    if outcome is MeasurementOutcome.GROUND:
        post[:, AtomLevel.EXC0 :] = 0.0
    else:
        post[:, AtomLevel.GROUND] = 0.0
    post /= math.sqrt(kept)
    return MeasurementResult(outcome, kept / total, JointPureState(state.space, post.reshape(-1)))


def reduced_atom_state(state: JointPureState, atom_index: int) -> np.ndarray:
    """3x3 density matrix of one atom, tracing out everything else."""
    amps = _level_axis(state, atom_index)
    rho = np.einsum("ixr,iyr->xy", amps, amps.conj())
    return rho / _checked_norm_squared(rho.trace().real)


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
        h = interaction_hamiltonian(space, k - 1, gamma)
        amps = _apply_local(space, k - 1, state.amplitudes, h.block.__matmul__)
        state = JointPureState(space, amps / (math.sqrt(total - k + 1) * gamma))
    assert abs(state.norm() - 1.0) < NORM_TOL, "transfer chain should preserve the norm"
    return state
