"""Brute-force state-vector oracle for the cavity + atoms system.

The joint Hilbert space is (three atomic levels)^atoms x (two-mode Fock
space truncated at n0 + n1 <= n_max). Everything here is exact. Each
atom-cavity interaction conserves the total excitation number
N = (# excited atoms) + n0 + n1, so the truncation costs nothing.

Position i of the basis is level code x F + Fock position: the level code
reads the atoms' levels as base-3 digits, atom 0 most significant, and the
F = (n_max + 1)(n_max + 2) / 2 Fock labels run n0-major, n1 fastest. So
`JointSpace.index` is arithmetic, and the per-element tables `levels`, `n0`
and `n1` are numpy arrays, built once per (atoms, n_max) and read-only.

Atom k couples only to the cavity, so its Hamiltonian is local: a
`LocalOperator` holding one real symmetric 3F x 3F block over (atom k's
level, Fock label) with its eigensystem. The block depends on n_max and
gamma alone, and the last LOCAL_OPERATORS_CACHED of them are kept. `evolve`
and `measure_atom_energy` (which forces the outcome it is given) work on the
state reshaped to (3**k, 3, 3**(atoms - k - 1), F), so no d x d array is
formed: one `evolve` at 6 atoms x 6 photons (d = 20412) needs an 84 x 84
`eigh`, where a dense Hamiltonian would take 3.3 GB. The dense
`JointSpace.hamiltonian` builds the one-atom block, and is the tests'
reference on larger spaces.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .protocol import MeasurementOutcome

NORM_TOL = 1e-10
# Local operators kept, one per (n_max, atom, gamma). One holds 16 (3F)^2
# bytes, about 0.6 MB at n_max = 10, so the cache holds at most about 40 MB
# at n_max = 10.
LOCAL_OPERATORS_CACHED = 64


class AtomLevel(IntEnum):
    """Three-level V configuration: one ground level, two degenerate excited
    levels that carry the qubit."""

    GROUND = 0
    EXC0 = 1  # excited level representing qubit |0>
    EXC1 = 2  # excited level representing qubit |1>


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _fock_position(n0, n1, n_max: int):
    """Position of the Fock label (n0, n1): row n0, holding n_max + 1 - n0
    labels, starts at n0 (n_max + 1) - n0 (n0 - 1) / 2."""
    return n0 * (n_max + 1) - n0 * (n0 - 1) // 2 + n1


@functools.cache
def _basis_tables(atom_count: int, n_max: int) -> tuple:
    """(levels, n0, n1, level_stride) of every JointSpace(atom_count, n_max),
    built once and read-only."""
    rows = np.arange(n_max + 1)
    fock_n0 = np.repeat(rows, n_max + 1 - rows)
    fock_n1 = np.arange(len(fock_n0)) - _fock_position(fock_n0, 0, n_max)
    powers = 3 ** np.arange(atom_count - 1, -1, -1)
    level_codes = np.arange(3**atom_count)
    levels = np.repeat(level_codes[:, None] // powers % 3, len(fock_n0), axis=0)
    n0, n1 = np.tile(fock_n0, len(level_codes)), np.tile(fock_n1, len(level_codes))
    return tuple(map(_read_only, (levels, n0, n1, powers * len(fock_n0))))


class JointSpace:
    """Basis bookkeeping for `atom_count` atoms and a two-mode cavity.

    Element i is (levels[i], n0[i], n1[i]), one AtomLevel per atom and
    n0 + n1 <= n_max; `index()` inverts it. The arrays are read-only and
    shared by every space of the same shape."""

    def __init__(self, atom_count: int, n_max: int):
        # integers before any lookup: (3, 2.0) would find the tables of (3, 2)
        atom_count, n_max = operator.index(atom_count), operator.index(n_max)
        if atom_count < 0:
            raise ValueError(f"atom_count must be >= 0, got {atom_count}")
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.atom_count = atom_count
        self.n_max = n_max
        self.levels, self.n0, self.n1, self._level_stride = _basis_tables(atom_count, n_max)
        self.dim = len(self.n0)

    def index(self, levels, n0: int, n1: int) -> int:
        """Position of (levels, n0, n1). A level that is not an AtomLevel
        raises ValueError, a label outside the space KeyError."""
        levels = tuple(AtomLevel(level) for level in levels)
        n0, n1 = operator.index(n0), operator.index(n1)
        if len(levels) != self.atom_count or min(n0, n1) < 0 or n0 + n1 > self.n_max:
            raise KeyError((levels, n0, n1))
        code = 0
        for level in levels:
            code = 3 * code + level
        return code * (self.dim // 3**self.atom_count) + _fock_position(n0, n1, self.n_max)

    def _coupling(self, atom_index: int, gamma: float) -> int:
        """`atom_index` as an int, after checking it and `gamma`."""
        atom_index = operator.index(atom_index)  # 0.0 must not find the operator of 0
        if not 0 <= atom_index < self.atom_count:
            raise IndexError(f"atom_index {atom_index} out of range [0, {self.atom_count})")
        if not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma}")
        return atom_index

    def hamiltonian(self, atom_index: int, gamma: float) -> np.ndarray:
        """Dense d x d matrix of gamma*(a0 |e0><g| + a1 |e1><g| + h.c.) on
        the addressed atom, the reference for `interaction_hamiltonian`.
        Coupling `gamma` (units 1/time, hbar = 1) is shared by both
        excited-to-ground transitions."""
        atom_index = self._coupling(atom_index, gamma)
        h = np.zeros((self.dim, self.dim))
        ground = self.levels[:, atom_index] == AtomLevel.GROUND
        # a0 |e0><g| and a1 |e1><g| on the addressed atom, plus h.c. One photon
        # fewer is 1 step back in the Fock order for mode 1, and n_max + 2 - n0
        # steps back for mode 0, as row n0 holds n_max + 1 - n0 labels
        for mode, n in enumerate((self.n0, self.n1)):
            src = np.flatnonzero(ground & (n > 0))
            lowered = src - (self.n_max + 2 - self.n0[src] if mode == 0 else 1)
            tgt = lowered + (1 + mode) * self._level_stride[atom_index]
            h[tgt, src] = h[src, tgt] = gamma * np.sqrt(n[src])
        return h


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """Real symmetric operator on atom `atom_index` and the cavity, identity
    on the other atoms. `block` is 3F x 3F over (level, Fock label) at level
    code x F + Fock position, the order of a one-atom JointSpace; a read-only
    copy is kept with its real eigensystem, computed here once."""

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
        if np.iscomplexobj(block) or not np.array_equal(block, block.T):
            raise ValueError("block is not real symmetric")
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
        # contiguous, so that the kernels can read its float64 view
        object.__setattr__(self, "amplitudes", np.ascontiguousarray(amps))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "JointPureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "JointPureState") -> float:
        return abs(self.overlap(other)) ** 2


def _state(space: JointSpace, amplitudes: np.ndarray) -> JointPureState:
    """A `JointPureState` without `__post_init__`'s checks, for a contiguous
    complex (space.dim,) array made inside this module: the public
    constructors check what enters, the kernels do not check what they made."""
    state = object.__new__(JointPureState)
    state.__dict__.update(space=space, amplitudes=amplitudes)
    return state


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


def interaction_hamiltonian(
    space: JointSpace, atom_index: int, gamma: float = 1.0
) -> LocalOperator:
    """gamma*(a0 |e0><g| + a1 |e1><g| + h.c.) on the addressed atom, as a
    LocalOperator whose block is JointSpace(1, n_max).hamiltonian(0, gamma).
    Every space with the same n_max gets the same object for the same
    atom_index and gamma."""
    atom_index = space._coupling(atom_index, gamma)
    return _local_operator(space.n_max, atom_index, gamma)


@functools.lru_cache(maxsize=LOCAL_OPERATORS_CACHED)
def _local_operator(n_max: int, atom_index: int, gamma: float) -> LocalOperator:
    return LocalOperator(atom_index, JointSpace(1, n_max).hamiltonian(0, gamma))


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


def _propagate(v: np.ndarray, phases: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """V diag(phases) V^T of complex `columns`, for the real eigenvector
    matrix V of a real symmetric block: V^T and V act as real matrices on
    the columns' float64 view, (real, imaginary) pairs side by side, with
    the phases multiplied in between. That is one real product each, half
    the flops of a complex one, and no complex copy of V."""
    rotated = (v.T @ np.ascontiguousarray(columns).view(np.float64)).view(complex)
    rotated *= phases
    return (v @ rotated.view(np.float64)).view(complex)


def evolve(state: JointPureState, hamiltonian: LocalOperator, t: float) -> JointPureState:
    """exp(-i H t) of a local operator, V exp(-i w t) V^T from its
    eigensystem, applied to atom H.atom_index and the cavity. An operator
    whose Fock truncation or atom does not fit the state's space, or a time
    that is not finite, raises ValueError."""
    if not isinstance(hamiltonian, LocalOperator):
        raise TypeError(f"hamiltonian must be a LocalOperator, got {type(hamiltonian).__name__}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    space = state.space
    k, side = hamiltonian.atom_index, len(hamiltonian.block)
    if side != 3 * (space.dim // 3**space.atom_count) or k >= space.atom_count:
        raise ValueError(
            f"operator on atom {k} with a {side} x {side} block does not fit "
            f"{space.atom_count} atoms at n_max = {space.n_max}"
        )
    v, phases = hamiltonian.eigenvectors, np.exp(-1j * t * hamiltonian.eigenvalues)[:, None]
    out = _apply_local(space, k, state.amplitudes, lambda x: _propagate(v, phases, x))
    return _state(space, out)


def _level_axis(state: JointPureState, atom_index: int) -> np.ndarray:
    """The amplitudes as (3**k, 3, rest), atom k's level on axis 1: that
    level is one base-3 digit of the position."""
    atom_count = state.space.atom_count
    if not 0 <= atom_index < atom_count:
        raise IndexError(f"atom_index {atom_index} out of range [0, {atom_count})")
    return state.amplitudes.reshape(3**atom_index, 3, -1)


# 1 on the levels an outcome keeps, 0 on the rest, as a (level, 1) column
_KEEP = {
    MeasurementOutcome.GROUND: _read_only(np.array([[1.0], [0.0], [0.0]])),
    MeasurementOutcome.EXCITED: _read_only(np.array([[0.0], [1.0], [1.0]])),
}


def _checked_norm_squared(norm_squared: float) -> float:
    if not 0.0 < norm_squared < math.inf:
        raise ValueError(f"state norm must be positive and finite, got {math.sqrt(norm_squared)}")
    return norm_squared


def measure_atom_energy(
    state: JointPureState, atom_index: int, outcome: MeasurementOutcome
) -> MeasurementResult:
    """Projective energy measurement of one atom, forced to `outcome`.

    The two excited levels are degenerate, so the excited branch projects
    onto their joint span and leaves any qubit superposition intact. A
    branch of zero probability raises.
    """
    amps = _level_axis(state, atom_index)
    floats = amps.view(np.float64)  # (3**k, 3, 2 rest): real, imaginary
    populations = np.square(floats).sum(axis=(0, 2))
    ground, exc0, exc1 = populations.tolist()  # in AtomLevel order
    excited = exc0 + exc1
    total = _checked_norm_squared(ground + excited)
    kept = ground if outcome is MeasurementOutcome.GROUND else excited
    if kept <= 0.0:  # a sum of exact zeros, never a rounded one
        raise ValueError(f"branch {outcome.value} has zero probability")

    post = (floats * (_KEEP[outcome] / math.sqrt(kept))).view(complex).reshape(-1)
    return MeasurementResult(outcome, kept / total, _state(state.space, post))


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
