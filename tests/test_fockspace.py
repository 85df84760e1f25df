import gc
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from cavityqubits import fockspace
from cavityqubits.fockspace import (
    AtomLevel,
    JointPureState,
    JointSpace,
    LocalOperator,
    annihilate,
    basis_state,
    evolve,
    evolution_operator,
    interaction_hamiltonian,
    measure_atom_energy,
    partially_transferred_state,
    qubit_register_state,
    reduced_atom_state,
)
from cavityqubits.protocol import MeasurementOutcome
from cavityqubits.symstate import SymLabel, symmetric_basis_state

G = AtomLevel.GROUND
E0 = AtomLevel.EXC0
E1 = AtomLevel.EXC1


def random_state(space, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return JointPureState(space, amps / np.linalg.norm(amps))


def one_excitation_target(space, zeros, total):
    """(sqrt(j)|e0; j-1, n-j> + sqrt(n-j)|e1; j, n-j-1>) / sqrt(n)."""
    j, n = zeros, total
    amps = np.zeros(space.dim, dtype=complex)
    if j > 0:
        amps[space.index((E0,), j - 1, n - j)] = math.sqrt(j / n)
    if n - j > 0:
        amps[space.index((E1,), j, n - j - 1)] = math.sqrt((n - j) / n)
    return JointPureState(space, amps)


# --- space bookkeeping ------------------------------------------------------


def test_space_dimensions():
    space = JointSpace(2, 3)
    assert space.dim == 9 * 10  # 3^2 atom levels, C(5,2) fock labels
    for i, (lv, n0, n1) in enumerate(space.basis):
        assert n0 + n1 <= 3
        assert space.index(lv, n0, n1) == i


def test_space_sizes_must_be_integers():
    JointSpace(3, 2)
    # (3, 2.0) == (3, 2): the size check must come before the shared tables
    for atoms, n_max in [(3, 2.0), (3.0, 2), (1, 0.5)]:
        with pytest.raises(TypeError):
            JointSpace(atoms, n_max)
    space = JointSpace(1, 2)
    space.hamiltonian(0, 1.0)
    space.annihilation_matrix(0)
    with pytest.raises(TypeError):
        space.hamiltonian(0.0, 1.0)
    with pytest.raises(TypeError):
        space.annihilation_matrix(0.0)
    with pytest.raises(ValueError):
        JointSpace(-1, 2)


def test_coupling_params_validation():
    space = JointSpace(2, 2)
    for gamma in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="gamma must be positive"):
            interaction_hamiltonian(space, 0, gamma)
        with pytest.raises(ValueError, match="gamma must be positive"):
            partially_transferred_state(space, 1, 2, 1, gamma)


# --- ladder operators ---------------------------------------------------------


def test_annihilate_single_photon():
    space = JointSpace(0, 1)
    out = annihilate(basis_state(space, (), 1, 0), 0)
    assert out.amplitudes[space.index((), 0, 0)] == 1.0
    assert out.norm() == pytest.approx(1.0)


def test_annihilate_ladder_coefficient():
    space = JointSpace(0, 3)
    out = annihilate(basis_state(space, (), 2, 1), 0)
    assert out.amplitudes[space.index((), 1, 1)] == pytest.approx(math.sqrt(2))
    assert np.count_nonzero(out.amplitudes) == 1


def test_annihilate_vacuum_gives_zero():
    space = JointSpace(0, 2)
    out = annihilate(basis_state(space, (), 0, 2), 0)
    assert out.norm() == 0.0


def test_annihilate_fock_state_matches_transfer_formula():
    # the untouched cavity state |2,1> is the trivial transferred state
    # with zero atoms; mode-0 annihilation scales by sqrt((n-m) j / n)
    space = JointSpace(0, 3)
    src = partially_transferred_state(space, zeros=2, total=3, transferred=0)
    out = annihilate(src, 0)
    expected = math.sqrt((3 - 0) * 2 / 3)
    assert out.amplitudes[space.index((), 1, 1)] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
def test_annihilation_closed_forms(n, m):
    space = JointSpace(m, n)
    for j in range(n + 1):
        src = partially_transferred_state(space, j, n, m)
        for mode, coeff, target_zeros in (
            (0, math.sqrt((n - m) * j / n), j - 1),
            (1, math.sqrt((n - m) * (n - j) / n), j),
        ):
            got = annihilate(src, mode)
            if coeff == 0.0:
                assert got.norm() < 1e-12
                continue
            target = partially_transferred_state(space, target_zeros, n - 1, m)
            np.testing.assert_allclose(
                got.amplitudes, coeff * target.amplitudes, atol=1e-12
            )


# --- interaction Hamiltonian ---------------------------------------------------


def test_hamiltonian_matrix_elements():
    gamma = 1.3
    space = JointSpace(1, 2)
    h = space.hamiltonian(0, gamma)
    assert h[space.index((E0,), 0, 0), space.index((G,), 1, 0)] == pytest.approx(gamma)
    assert h[space.index((E1,), 1, 0), space.index((G,), 1, 1)] == pytest.approx(gamma)


@pytest.mark.parametrize("atoms,n_max", [(1, 2), (1, 4), (2, 3)])
def test_hamiltonian_hermitian(atoms, n_max):
    space = JointSpace(atoms, n_max)
    for atom in range(atoms):
        h = space.hamiltonian(atom, 1.0)
        np.testing.assert_array_equal(h, h.conj().T)


def test_hamiltonian_blocks_by_excitation_number():
    space = JointSpace(2, 2)
    excitations = space.excitation_numbers()
    h = space.hamiltonian(1, 1.0)
    different = excitations[:, None] != excitations[None, :]
    assert np.all(h[different] == 0)


def reference_operators(space, gamma):
    """Mode ladders and per-atom Hamiltonians built one element at a time."""
    ladders = [np.zeros((space.dim, space.dim)) for _ in range(2)]
    hams = [np.zeros((space.dim, space.dim)) for _ in range(space.atom_count)]
    for src, (lv, n0, n1) in enumerate(space.basis):
        for mode, (level, n, lower) in enumerate(
            [(E0, n0, (n0 - 1, n1)), (E1, n1, (n0, n1 - 1))]
        ):
            if n == 0:
                continue
            ladders[mode][space.index(lv, *lower), src] = math.sqrt(n)
            for k in range(space.atom_count):
                if lv[k] == G:
                    tgt = space.index(lv[:k] + (level,) + lv[k + 1 :], *lower)
                    hams[k][tgt, src] = hams[k][src, tgt] = gamma * math.sqrt(n)
    return ladders, hams


@pytest.mark.parametrize("atoms,n_max", [(0, 3), (1, 4), (2, 3), (3, 2)])
def test_operators_match_element_by_element_reference(atoms, n_max):
    space, twin = JointSpace(atoms, n_max), JointSpace(atoms, n_max)
    ladders, hams = reference_operators(space, 1.3)
    ops = [space.annihilation_matrix(mode) for mode in (0, 1)]
    ops += [space.hamiltonian(k, 1.3) for k in range(atoms)]
    for op, reference in zip(ops, ladders + hams):
        np.testing.assert_array_equal(op, reference)
    # built once, shared by every space of the shape, and read-only
    twins = [twin.annihilation_matrix(mode) for mode in (0, 1)]
    twins += [twin.hamiltonian(k, 1.3) for k in range(atoms)]
    for op, shared in zip(ops, twins):
        assert shared is op
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 1.0


def test_basis_arrays_and_sectors():
    space = JointSpace(2, 3)
    twin = JointSpace(2, 3)
    assert twin.basis is space.basis and twin.levels is space.levels
    for table in (space.levels, space.n0, space.n1, space._level_stride):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
    with pytest.raises(TypeError):
        space.basis[0] = space.basis[1]
    with pytest.raises(TypeError):
        space._index[space.basis[0]] = 1
    for i, (lv, n0, n1) in enumerate(space.basis):
        assert tuple(space.levels[i]) == lv
        assert (space.n0[i], space.n1[i]) == (n0, n1)
    # the excitation sectors: N = (atoms not in ground) + n0 + n1
    excitations = space.excitation_numbers()
    for i, (lv, n0, n1) in enumerate(space.basis):
        assert excitations[i] == sum(level != G for level in lv) + n0 + n1


@pytest.mark.parametrize("atoms,n_max", [(1, 3), (2, 2), (3, 4)])
def test_interaction_hamiltonian_is_one_shared_local_block(atoms, n_max):
    space = JointSpace(atoms, n_max)
    reference = JointSpace(1, n_max).hamiltonian(0, 1.3)
    state = random_state(space, atoms)
    for k in range(atoms):
        h = interaction_hamiltonian(space, k, 1.3)
        assert h.atom_index == k
        np.testing.assert_array_equal(h.block, reference)
        # built once per shape, shared by a second space, read-only
        assert interaction_hamiltonian(JointSpace(atoms, n_max), k, 1.3) is h
        assert weakref.ref(h)() is h
        assert h.nbytes == h.block.nbytes + h.eigenvalues.nbytes + h.eigenvectors.nbytes
        for array in (h.block, h.eigenvalues, h.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        v, w = h.eigenvectors, h.eigenvalues
        np.testing.assert_allclose((v * w) @ v.conj().T, h.block, rtol=0, atol=1e-12)
        # the block on atom k equals the dense reference on the whole space
        np.testing.assert_allclose(
            fockspace._apply_local(space, k, state.amplitudes, h.block.__matmul__),
            space.hamiltonian(k, 1.3) @ state.amplitudes,
            rtol=0,
            atol=1e-12,
        )


def test_hamiltonian_index_out_of_range():
    with pytest.raises(IndexError):
        interaction_hamiltonian(JointSpace(1, 1), 1)


def test_hamiltonian_couples_only_addressed_atom():
    space = JointSpace(2, 1)
    h = space.hamiltonian(0, 1.0)
    src = space.index((G, G), 1, 0)
    tgt_other = space.index((G, E0), 0, 0)
    assert h[tgt_other, src] == 0
    assert h[space.index((E0, G), 0, 0), src] != 0


# --- evolution -------------------------------------------------------------------


def test_half_period_transfer():
    space = JointSpace(1, 1)
    h = interaction_hamiltonian(space, 0)
    out = evolve(basis_state(space, (G,), 1, 0), h, math.pi / 2)
    expected = -1j * basis_state(space, (E0,), 0, 0).amplitudes
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_full_period_sign_flip():
    for n, j in [(1, 0), (2, 1), (3, 2), (4, 4)]:
        space = JointSpace(1, n)
        h = interaction_hamiltonian(space, 0)
        start = basis_state(space, (G,), j, n - j)
        out = evolve(start, h, math.pi / math.sqrt(n))
        np.testing.assert_allclose(out.amplitudes, -start.amplitudes, atol=1e-10)


def test_two_photon_half_period_superposition():
    space = JointSpace(1, 2)
    h = interaction_hamiltonian(space, 0)
    out = evolve(basis_state(space, (G,), 1, 1), h, math.pi / (2 * math.sqrt(2)))
    np.testing.assert_allclose(
        out.amplitudes, -1j * one_excitation_target(space, 1, 2).amplitudes, atol=1e-12
    )


def test_block_rabi_law():
    rng = np.random.default_rng(42)
    for n in range(1, 7):
        space = JointSpace(1, n)
        h = interaction_hamiltonian(space, 0)
        for j in range(n + 1):
            start = basis_state(space, (G,), j, n - j)
            target = one_excitation_target(space, j, n)
            for t in rng.uniform(0.0, 2 * math.pi, size=5):
                out = evolve(start, h, t)
                phase = math.sqrt(n) * t
                assert start.overlap(out) == pytest.approx(math.cos(phase), abs=1e-9)
                assert target.overlap(out) == pytest.approx(-1j * math.sin(phase), abs=1e-9)


def test_evolution_preserves_norm_and_excitations():
    space = JointSpace(2, 2)
    h = interaction_hamiltonian(space, 0)
    excitations = space.excitation_numbers()
    state = random_state(space, 7)
    before = np.array(
        [np.sum(np.abs(state.amplitudes[excitations == k]) ** 2) for k in range(6)]
    )
    out = evolve(state, h, 0.83)
    after = np.array(
        [np.sum(np.abs(out.amplitudes[excitations == k]) ** 2) for k in range(6)]
    )
    assert out.norm() == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(after, before, atol=1e-9)


def test_evolution_operator_unitary():
    space = JointSpace(1, 3)
    u = evolution_operator(space.hamiltonian(0, 1.0), 1.7)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(space.dim), atol=1e-12)


def sector_spanning_state(space, seed):
    """Random state on a few N sectors, every other sector left empty."""
    rng = np.random.default_rng(seed)
    excitations = space.excitation_numbers()
    keep = np.isin(excitations, rng.choice(excitations.max() + 1, 3, replace=False))
    amps = np.where(keep, rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim), 0.0)
    return JointPureState(space, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("atoms,n_max", [(1, 4), (2, 3), (3, 4)])
def test_sector_evolve_matches_dense_propagator(atoms, n_max):
    space = JointSpace(atoms, n_max)
    for atom in range(atoms):
        h = interaction_hamiltonian(space, atom, 1.3)
        dense = space.hamiltonian(atom, 1.3)
        for seed, t in [(atom, 0.37), (atom + 10, 2.9)]:
            for state in (sector_spanning_state(space, seed), random_state(space, seed)):
                expected = evolution_operator(dense, t) @ state.amplitudes
                got = evolve(state, h, t).amplitudes
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    # on one atom the block is the whole space, so a perturbed block is its
    # own reference; built after the original, it owns its eigensystem
    single = JointSpace(1, n_max)
    h = interaction_hamiltonian(single, 0, 1.3)
    noise = np.random.default_rng(n_max).normal(size=h.block.shape)
    perturbed = LocalOperator(0, h.block + 0.1 * (noise + noise.T))
    phases = np.triu(np.exp(1j * noise), 1)
    complex_block = LocalOperator(0, h.block * (phases + phases.conj().T + np.eye(len(phases))))
    for op in (perturbed, complex_block):
        for seed, t in [(1, 0.37), (2, 2.9)]:
            state = random_state(single, seed)
            expected = evolution_operator(op.block, t) @ state.amplitudes
            got = evolve(state, op, t).amplitudes
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    changed = evolve(random_state(single, 0), perturbed, 0.37).amplitudes
    original = evolve(random_state(single, 0), h, 0.37).amplitudes
    assert np.abs(changed - original).max() > 1e-3


def test_evolve_at_six_atoms_six_photons_stays_small():
    # d = 20412: a dense Hamiltonian would take 3.3 GB, the local block 56 KB
    space = JointSpace(6, 6)
    state = random_state(space, 6)
    h = interaction_hamiltonian(space, 3)
    tracemalloc.start()
    try:
        out = evolve(state, h, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    # the atom's level populations move, the other atoms' stay put
    for k in range(6):
        before, after = reduced_atom_state(state, k), reduced_atom_state(out, k)
        assert np.allclose(np.diag(before), np.diag(after), atol=1e-12) == (k != 3)


def run_threads(target, count):
    """Run target(i) on `count` threads with a short switch interval."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)


def test_evolve_from_many_threads_matches_serial(monkeypatch):
    # more threads than cores, each call on a new space so that every lookup
    # goes to a store small enough that entries are evicted while others are
    # being added
    space = JointSpace(3, 3)
    jobs = [(k, random_state(space, k), t) for k in range(3) for t in (0.4, 1.9)]
    serial = [evolve(state, interaction_hamiltonian(space, k, 0.7), t).amplitudes
              for k, state, t in jobs]
    store = fockspace._Store(30_000)
    monkeypatch.setattr(fockspace, "_STORE", store)
    results = [[None] * len(jobs) for _ in range(8)]

    def work(row):
        for i, (k, state, t) in enumerate(jobs):
            h = interaction_hamiltonian(JointSpace(3, 3), k, 0.7)
            results[row][i] = evolve(state, h, t).amplitudes

    run_threads(work, 8)
    for row in results:
        for got, expected in zip(row, serial):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    # many small entries: a lost update would leave the byte count off
    def churn(seed):
        for size in np.random.default_rng(seed).integers(1, 40, size=3000).tolist():
            assert store.fetch(("churn", size), lambda: np.zeros(size)).shape == (size,)

    store = fockspace._Store(4000)
    run_threads(churn, 8)
    assert store.nbytes == sum(size for _, size in store._entries.values()) <= store.limit


def test_store_keeps_at_most_its_bound(monkeypatch):
    assert fockspace._STORE.limit == fockspace.CACHE_BYTES
    small = JointSpace(2, 2)
    limit = 2 * small.hamiltonian(0, 1.0).nbytes
    store = fockspace._Store(limit)
    monkeypatch.setattr(fockspace, "_STORE", store)
    small = JointSpace(2, 2)
    evolve(random_state(small, 0), interaction_hamiltonian(small, 0, 2.0), 0.5)
    kept = dict(store._entries)
    big = JointSpace(3, 3)  # each Hamiltonian alone is above the bound
    hams = [big.hamiltonian(k, 1.0) for k in range(3)]
    assert store._entries.keys() == kept.keys()  # not stored, and nothing evicted for them
    for k, h in enumerate(hams):
        assert h.nbytes > limit and not h.flags.writeable
        assert big.hamiltonian(k, 1.0) is h  # the space keeps what it built
        evolve(random_state(big, k), interaction_hamiltonian(big, k, 1.0), 0.5)
        assert 0 < store.nbytes <= limit
    # an operator too large to store goes with the space that built it
    gone = weakref.ref(hams[0])
    del big, h, hams
    gc.collect()
    assert gone() is None


def test_local_operator_rejects_non_hermitian_block():
    block = JointSpace(1, 2).hamiltonian(0, 1.0).copy()
    block[0, 3] += 0.1  # one element, in one direction only
    with pytest.raises(ValueError, match="not Hermitian"):
        LocalOperator(0, block)
    with pytest.raises(ValueError, match="not Hermitian"):
        LocalOperator(0, 1j * np.eye(3))
    for shape in [(4, 4), (3, 6), (9,)]:
        with pytest.raises(ValueError, match="square"):
            LocalOperator(0, np.zeros(shape))
    with pytest.raises(ValueError, match="atom_index"):
        LocalOperator(-1, np.eye(3))
    with pytest.raises(TypeError):
        LocalOperator(0.0, np.eye(3))
    # the operator keeps its own copy: a later write to the input is not seen
    source = JointSpace(1, 2).hamiltonian(0, 1.0).copy()
    op = LocalOperator(0, source)
    source[0, 0] = 5.0
    assert op.block[0, 0] == 0.0


def test_evolve_rejects_operator_of_another_space():
    state = random_state(JointSpace(2, 2), 5)
    for wrong in (
        interaction_hamiltonian(JointSpace(2, 3), 0),  # n_max 3 on an n_max 2 state
        interaction_hamiltonian(JointSpace(2, 1), 1),  # n_max 1
        interaction_hamiltonian(JointSpace(3, 2), 2),  # atom 2 of a 2-atom state
    ):
        with pytest.raises(ValueError, match="does not fit"):
            evolve(state, wrong, 0.4)
    # atom 1 of a 3-atom space is also atom 1 of a 2-atom one
    h = interaction_hamiltonian(JointSpace(3, 2), 1)
    np.testing.assert_array_equal(
        evolve(state, h, 0.4).amplitudes,
        evolve(state, interaction_hamiltonian(state.space, 1), 0.4).amplitudes,
    )
    with pytest.raises(TypeError, match="LocalOperator"):
        evolve(state, state.space.hamiltonian(0, 1.0), 0.4)


# --- measurement ------------------------------------------------------------------


def test_measurement_probability_follows_rotation():
    space = JointSpace(1, 1)
    h = interaction_hamiltonian(space, 0)
    theta = 0.7
    out = evolve(basis_state(space, (G,), 1, 0), h, theta)
    result = measure_atom_energy(out, 0, outcome=MeasurementOutcome.GROUND)
    assert result.probability == pytest.approx(math.cos(theta) ** 2, abs=1e-12)
    result = measure_atom_energy(out, 0, outcome=MeasurementOutcome.EXCITED)
    assert result.probability == pytest.approx(math.sin(theta) ** 2, abs=1e-12)


def test_measurement_on_definite_state():
    space = JointSpace(1, 0)
    state = basis_state(space, (E0,), 0, 0)
    result = measure_atom_energy(state, 0, rng=np.random.default_rng(0))
    assert result.outcome is MeasurementOutcome.EXCITED
    assert result.probability == 1.0
    np.testing.assert_allclose(result.post_state.amplitudes, state.amplitudes)
    with pytest.raises(ValueError, match="zero probability"):
        measure_atom_energy(state, 0, outcome=MeasurementOutcome.GROUND)


def test_measurement_keeps_excited_superposition():
    space = JointSpace(1, 2)
    h = interaction_hamiltonian(space, 0)
    out = evolve(basis_state(space, (G,), 1, 1), h, math.pi / (2 * math.sqrt(2)))
    result = measure_atom_energy(out, 0, outcome=MeasurementOutcome.EXCITED)
    assert result.probability == pytest.approx(1.0, abs=1e-12)
    assert result.post_state.fidelity(one_excitation_target(space, 1, 2)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_measurement_requires_rng_xor_outcome():
    space = JointSpace(1, 0)
    state = basis_state(space, (G,), 0, 0)
    with pytest.raises(ValueError):
        measure_atom_energy(state, 0)
    with pytest.raises(ValueError):
        measure_atom_energy(
            state, 0, rng=np.random.default_rng(0), outcome=MeasurementOutcome.GROUND
        )


def test_zero_norm_state_cannot_be_measured():
    space = JointSpace(1, 1)
    vacuum = annihilate(basis_state(space, (G,), 0, 0), 0)
    assert vacuum.norm() == 0.0
    for state in (vacuum, JointPureState(space, np.full(space.dim, np.nan))):
        for outcome in MeasurementOutcome:
            with pytest.raises(ValueError, match="norm"):
                measure_atom_energy(state, 0, outcome=outcome)
        with pytest.raises(ValueError, match="norm"):
            measure_atom_energy(state, 0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="norm"):
            reduced_atom_state(state, 0)


def test_measurement_branches_sum_to_one():
    space = JointSpace(2, 2)
    state = random_state(space, 3)
    for atom in range(2):
        pg = measure_atom_energy(state, atom, outcome=MeasurementOutcome.GROUND).probability
        pe = measure_atom_energy(state, atom, outcome=MeasurementOutcome.EXCITED).probability
        assert pg + pe == pytest.approx(1.0, abs=1e-12)


# --- reduced states -----------------------------------------------------------------


def test_reduced_state_of_product():
    space = JointSpace(2, 1)
    state = basis_state(space, (E0, G), 1, 0)
    rho = reduced_atom_state(state, 0)
    expected = np.zeros((3, 3))
    expected[E0, E0] = 1.0
    np.testing.assert_allclose(rho, expected, atol=1e-14)


def test_reduced_state_after_half_period():
    space = JointSpace(1, 2)
    h = interaction_hamiltonian(space, 0)
    out = evolve(basis_state(space, (G,), 1, 1), h, math.pi / (2 * math.sqrt(2)))
    rho = reduced_atom_state(out, 0)
    np.testing.assert_allclose(rho, np.diag([0.0, 0.5, 0.5]), atol=1e-12)


def test_reduced_state_is_density_matrix():
    space = JointSpace(2, 2)
    for seed in range(4):
        rho = reduced_atom_state(random_state(space, seed), 1)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(rho).min() > -1e-12


@pytest.mark.parametrize("atoms,n_max", [(1, 3), (2, 2), (3, 2)])
def test_reduced_state_matches_grouping_reference(atoms, n_max):
    # sum |psi(level, rest)><psi(level', rest)| over the rest, one basis
    # element at a time
    space = JointSpace(atoms, n_max)
    state = random_state(space, atoms)
    for k in range(atoms):
        groups = {}
        for amp, (lv, n0, n1) in zip(state.amplitudes, space.basis):
            vec = groups.setdefault((lv[:k] + lv[k + 1 :], n0, n1), np.zeros(3, dtype=complex))
            vec[lv[k]] += amp
        expected = sum(np.outer(vec, vec.conj()) for vec in groups.values())
        np.testing.assert_allclose(reduced_atom_state(state, k), expected, rtol=0, atol=1e-14)


# --- transferred states ----------------------------------------------------------------


def test_fully_transferred_state_is_symmetric_register():
    # moving every qubit onto atoms leaves the cavity in vacuum and the
    # register in the symmetric state
    for n in range(1, 4):
        space = JointSpace(n, n)
        for j in range(n + 1):
            state = partially_transferred_state(space, j, n, n)
            register = symmetric_basis_state(SymLabel(j, n)).amplitudes
            target = qubit_register_state(space, register, 0, 0)
            assert state.fidelity(target) == pytest.approx(1.0, abs=1e-12)


def test_partially_transferred_validation():
    space = JointSpace(1, 2)
    with pytest.raises(ValueError):
        partially_transferred_state(space, 3, 2, 0)
    with pytest.raises(ValueError):
        partially_transferred_state(space, 1, 3, 1)  # exceeds truncation
    with pytest.raises(ValueError):
        partially_transferred_state(space, 1, 2, 2)  # more transfers than atoms
