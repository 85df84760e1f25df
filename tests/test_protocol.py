import math
import sys
import threading
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from fidelity_reference import atom_fidelity
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavityqubits import fockspace, optimum, protocol, transitions
from cavityqubits.cloning import binomial_distribution, quality
from cavityqubits.config import MAX_PHOTON_NUMBER, DistributionSpec, ExperimentConfig, split_rng
from cavityqubits.protocol import (
    FixedTau,
    HalfRabiTau,
    JitteredTau,
    MeasurementOutcome,
    OptimalEachStep,
    StopReason,
    WeightedEnsemble,
    excite_prob,
    optimal_tau,
    policy_tau,
    run,
    run_batch,
    step,
    update_weights,
)

GROUND = MeasurementOutcome.GROUND
EXCITED = MeasurementOutcome.EXCITED


def make_config(**overrides):
    defaults = dict(
        experiment="custom",
        distribution=DistributionSpec("binomial", n_max=6),
        gamma=1.0,
        policy="fixed",
        tau=0.825,
        cutoff=10,
        atom_budget=10_000,
        seed=0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@st.composite
def ensembles(draw):
    transferred = draw(st.integers(0, 3))
    ns = draw(
        st.lists(st.integers(transferred, transferred + 6), min_size=1, max_size=6, unique=True)
    )
    raw = [draw(st.floats(0.01, 1.0)) for _ in ns]
    total = sum(raw)
    return WeightedEnsemble.from_weights(
        {n: w / total for n, w in zip(ns, raw)}, transferred=transferred
    )


# --- ensemble type -----------------------------------------------------------


def test_ensemble_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        WeightedEnsemble.from_weights({1: 0.5, 2: 0.4})
    with pytest.raises(ValueError, match="non-negative"):
        WeightedEnsemble.from_weights({1: 1.5, 2: -0.5})
    with pytest.raises(ValueError, match="zero weight"):
        WeightedEnsemble.from_weights({1: 0.5, 2: 0.5}, transferred=2)
    raw = {3: 1.0, 2: 3.0}
    ens = WeightedEnsemble.from_weights({n: w / 4.0 for n, w in raw.items()})
    assert ens.photon_numbers.tolist() == [2, 3]  # branches in ascending n
    assert ens.as_dict() == {2: 0.75, 3: 0.25}


@pytest.mark.parametrize("weights", [[math.nan, math.nan], [math.nan, 1.0], [0.5, math.nan]])
def test_ensemble_rejects_nan_weights(weights):
    with pytest.raises(ValueError, match="non-negative numbers"):
        WeightedEnsemble(np.array([1, 2]), np.array(weights))


def test_vacuum_certainty():
    assert WeightedEnsemble.from_weights({2: 1.0}, transferred=2).is_vacuum_certain()
    assert not WeightedEnsemble.from_weights({2: 1.0}, transferred=1).is_vacuum_certain()
    assert not WeightedEnsemble.from_weights(
        {2: 0.5, 3: 0.5}, transferred=2
    ).is_vacuum_certain()


# --- excitation probability -----------------------------------------------------


def test_excite_prob_half_period_is_certain():
    ens = WeightedEnsemble.from_weights({1: 1.0})
    assert excite_prob(ens, 1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-12)


def test_excite_prob_empty_cavity_is_zero():
    ens = WeightedEnsemble.from_weights({3: 1.0}, transferred=3)
    assert excite_prob(ens, 1.0, 0.9) == 0.0


def test_excite_prob_direct_sum():
    weights = binomial_distribution(6)
    ens = WeightedEnsemble.from_weights(weights)
    tau = 0.825
    expected = sum(p * math.sin(math.sqrt(n) * tau) ** 2 for n, p in weights.items())
    assert excite_prob(ens, 1.0, tau) == pytest.approx(expected, abs=1e-14)


def test_excite_prob_uses_remaining_photons():
    ens = WeightedEnsemble.from_weights({3: 1.0}, transferred=1)
    tau = 0.4
    assert excite_prob(ens, 1.0, tau) == pytest.approx(
        math.sin(math.sqrt(2) * tau) ** 2, abs=1e-14
    )


def test_excite_prob_accepts_tau_arrays():
    ens = WeightedEnsemble.from_weights(binomial_distribution(4))
    taus = np.array([0.1, 0.5, 1.0])
    curve = excite_prob(ens, 1.0, taus)
    assert curve.shape == (3,)
    for t, v in zip(taus, curve):
        assert v == excite_prob(ens, 1.0, float(t))


# --- weight updates ----------------------------------------------------------------


def test_ground_update_removes_certain_branch():
    # at tau = pi/2 the single-photon branch excites with certainty, so a
    # ground result rules it out
    ens = WeightedEnsemble.from_weights({1: 0.5, 2: 0.5})
    post = update_weights(ens, 1.0, math.pi / 2, GROUND)
    assert post.as_dict()[1] == pytest.approx(0.0, abs=1e-30)
    assert post.as_dict()[2] == pytest.approx(1.0, abs=1e-12)
    assert post.transferred == 0


def test_single_branch_renormalizes_to_one():
    ens = WeightedEnsemble.from_weights({3: 1.0})
    for outcome in (GROUND, EXCITED):
        post = update_weights(ens, 1.0, 0.33, outcome)
        assert post.as_dict()[3] == pytest.approx(1.0, abs=1e-15)


def test_excited_update_increments_and_kills_empty_branch():
    ens = WeightedEnsemble.from_weights({1: 0.5, 2: 0.5}, transferred=1)
    post = update_weights(ens, 1.0, 0.8, EXCITED)
    assert post.transferred == 2
    assert post.as_dict()[1] == 0.0


def test_zero_probability_outcome_raises():
    ens = WeightedEnsemble.from_weights({2: 1.0}, transferred=2)
    with pytest.raises(ValueError, match="zero-probability"):
        update_weights(ens, 1.0, 0.7, EXCITED)


def test_update_matches_fockspace_branch_simulation():
    # one atom, forced outcome: posterior from the full state-vector
    # simulation must match the closed-form Bayes update
    weights = {1: 0.2, 2: 0.5, 3: 0.3}
    tau = 0.734
    zeros = {1: 1, 2: 1, 3: 2}  # arbitrary branch states |j, n-j>
    for outcome in (GROUND, EXCITED):
        likelihood = {}
        for n, j in zeros.items():
            space = fockspace.JointSpace(1, n)
            state = fockspace.basis_state(space, (fockspace.AtomLevel.GROUND,), j, n - j)
            h = fockspace.interaction_hamiltonian(space, 0)
            evolved = fockspace.evolve(state, h, tau)
            likelihood[n] = fockspace.measure_atom_energy(evolved, 0, outcome=outcome).probability
        total = sum(weights[n] * likelihood[n] for n in weights)
        oracle = {n: weights[n] * likelihood[n] / total for n in weights}

        post = update_weights(WeightedEnsemble.from_weights(weights), 1.0, tau, outcome)
        for n in weights:
            assert post.as_dict()[n] == pytest.approx(oracle[n], abs=1e-12)


def _check_against_oracle(ens, states, atom, atoms, tau):
    """Pass atom `atom` on the closed form and on the oracle's branch states
    {n: state}, compare, then recurse into both outcomes. Returns the number
    of atom passes checked."""
    if atom == atoms:
        return 0
    p_ground = {}
    for n, state in states.items():
        h = fockspace.interaction_hamiltonian(state.space, atom)
        states[n] = fockspace.evolve(state, h, tau)
        p_ground[n] = fockspace.measure_atom_energy(states[n], atom, outcome=GROUND).probability
        # branch n alone follows the Rabi law at its remaining photon number
        rabi = math.sin(math.sqrt(n - ens.transferred) * tau) ** 2
        assert 1.0 - p_ground[n] == pytest.approx(rabi, abs=1e-12)
    weights = ens.as_dict()
    p_excited = sum(weights[n] * (1.0 - p) for n, p in p_ground.items())
    assert excite_prob(ens, 1.0, tau) == pytest.approx(p_excited, abs=1e-12)
    checked = 1
    for outcome in (GROUND, EXCITED):
        likelihood = {n: p if outcome is GROUND else 1.0 - p for n, p in p_ground.items()}
        total = sum(weights[n] * q for n, q in likelihood.items())
        posterior = update_weights(ens, 1.0, tau, outcome)
        for n, w in posterior.as_dict().items():
            oracle = weights[n] * likelihood[n] / total if n in likelihood else 0.0
            assert w == pytest.approx(oracle, abs=1e-12)
        # a branch the outcome rules out leaves the mixture for good
        branches = {
            n: fockspace.measure_atom_energy(states[n], atom, outcome=outcome).post_state
            for n, q in likelihood.items()
            if q > 1e-14
        }
        checked += _check_against_oracle(posterior, branches, atom + 1, atoms, tau)
    return checked


def test_binomial_six_matches_oracle_on_every_outcome_path():
    # fig2's config (binomial:6, tau = 0.825, gamma = 1) for three atoms and
    # for six, the paper's scale, down every branch of the outcome tree; each
    # photon-number branch starts in a random superposition of its two-mode
    # Fock states |j, n - j>
    tau = 0.825
    for atoms in (3, 6):
        rng = np.random.default_rng(6)
        ground = (fockspace.AtomLevel.GROUND,) * atoms
        tracemalloc.start()
        try:
            states = {}
            for n in range(1, 7):
                space = fockspace.JointSpace(atoms, n)
                coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
                amps = np.zeros(space.dim, dtype=complex)
                for j, c in enumerate(coeffs / np.linalg.norm(coeffs)):
                    amps[space.index(ground, j, n - j)] = c
                states[n] = fockspace.JointPureState(space, amps)
            ens = WeightedEnsemble.from_weights(binomial_distribution(6))
            assert _check_against_oracle(ens, states, 0, atoms, tau) == 2**atoms - 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dense d x d operator at six atoms and six photons (d = 20412)
        # would take 3.3 GB; the sector-wise oracle stays far below
        assert peak < 64e6


@settings(max_examples=100, deadline=None)
@given(ensembles(), st.floats(0.01, 3.0))
def test_outcome_average_restores_prior(ens, tau):
    p_e = excite_prob(ens, 1.0, tau)
    averaged = np.zeros_like(ens.weights)
    if p_e > 0:
        averaged += p_e * update_weights(ens, 1.0, tau, EXCITED).weights
    if p_e < 1:
        averaged += (1 - p_e) * update_weights(ens, 1.0, tau, GROUND).weights
    np.testing.assert_allclose(averaged, ens.weights, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(ensembles(), st.floats(0.01, 3.0), st.booleans())
def test_update_keeps_normalization(ens, tau, excited):
    outcome = EXCITED if excited else GROUND
    p_e = excite_prob(ens, 1.0, tau)
    if (p_e == 0 and outcome is EXCITED) or (p_e == 1 and outcome is GROUND):
        return
    post = update_weights(ens, 1.0, tau, outcome)
    assert post.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(post.weights >= 0)


@st.composite
def many_branch_ensembles(draw):
    """1 to 12 or 900 to 1001 consecutive photon numbers in random order,
    with dead (n < transferred), empty (n = transferred) and zero-weight
    branches; the weights come from a drawn seed, a power of 20 making most
    of them tiny."""
    size = draw(st.integers(1, 12) | st.integers(900, 1001))
    low = draw(st.integers(0, 5))
    transferred = draw(st.integers(0, low + min(size - 1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ns = rng.permutation(np.arange(low, low + size))
    raw = rng.random(size) ** draw(st.sampled_from([1.0, 20.0]))
    raw[rng.random(size) < draw(st.sampled_from([0.0, 0.5, 0.99]))] = 0.0
    raw[ns < transferred] = 0.0
    if not raw.any():
        raw[np.argmax(ns)] = 1.0
    return WeightedEnsemble(ns, raw / raw.sum(), transferred)


@settings(max_examples=100, deadline=None)
@given(many_branch_ensembles(), st.floats(0.01, 20.0), st.floats(0.1, 3.0), st.booleans())
@example(WeightedEnsemble(np.array([2]), np.array([1 - 5e-13]), 2), 0.6, 1.0, True)
@example(WeightedEnsemble(np.array([2]), np.array([1 - 5e-13]), 2), 0.6, 1.0, False)
def test_update_weights_returns_a_valid_ensemble(ens, tau, gamma, excited):
    # update_weights builds its posterior unchecked, so the ensemble rules
    # must hold by construction
    outcome = EXCITED if excited else GROUND
    live = ens.photon_numbers[ens.weights > 0]
    # only sin^2(0) is exactly 0, and cos^2 never is: the excited outcome is
    # impossible when every live branch is empty, and no other outcome is
    if excited and (live == ens.transferred).all():
        with pytest.raises(ValueError, match="cannot condition on zero-probability outcome"):
            update_weights(ens, gamma, tau, outcome)
        return
    post = update_weights(ens, gamma, tau, outcome)
    protocol._check_weights(post.photon_numbers, post.weights, post.transferred)
    assert post.photon_numbers is ens.photon_numbers
    assert post.transferred == ens.transferred + excited


def test_update_weights_refuses_outcomes_it_cannot_condition_on():
    with pytest.raises(ValueError, match="cannot condition on zero-probability outcome excited"):
        update_weights(WeightedEnsemble.from_weights({0: 0.0, 3: 1.0}, 3), 1.0, 0.5, EXCITED)
    # an infinite phase makes every factor NaN; the unchecked posterior must not carry it
    with pytest.raises(ValueError, match="cannot condition"), np.errstate(invalid="ignore"):
        update_weights(WeightedEnsemble.from_weights({1: 0.5, 2: 0.5}), 1.0, math.inf, GROUND)


# --- policies ---------------------------------------------------------------------


def test_half_rabi_policy_times():
    ens = WeightedEnsemble.from_weights({4: 1.0}, transferred=1)
    rng = split_rng(0)
    tau = policy_tau(HalfRabiTau(4), ens, 2.0, rng)
    assert tau == pytest.approx(math.pi / (2 * math.sqrt(3) * 2.0))
    with pytest.raises(ValueError, match="empty"):
        policy_tau(
            HalfRabiTau(1), WeightedEnsemble.from_weights({1: 1.0}, transferred=1), 1.0, rng
        )


def test_jittered_policy_truncates_to_positive():
    rng = split_rng(123)
    policy = JitteredTau(center=0.05, sigma=1.0)
    draws = [policy_tau(policy, None, 1.0, rng) for _ in range(500)]
    assert min(draws) > 0


def test_fixed_policy_validation():
    with pytest.raises(ValueError):
        FixedTau(0.0)
    with pytest.raises(ValueError):
        JitteredTau(center=-1.0, sigma=0.1)


# --- optimal tau ------------------------------------------------------------------


def test_optimal_tau_single_branch():
    for n in (1, 2, 5):
        ens = WeightedEnsemble.from_weights({n: 1.0})
        assert optimal_tau(ens, 1.0) == pytest.approx(
            math.pi / (2 * math.sqrt(n)), abs=1e-6
        )


def test_optimal_tau_binomial_six():
    ens = WeightedEnsemble.from_weights(binomial_distribution(6))
    assert optimal_tau(ens, 1.0) == pytest.approx(0.825, abs=0.005)


def test_optimal_tau_scales_with_gamma():
    ens = WeightedEnsemble.from_weights(binomial_distribution(6))
    assert optimal_tau(ens, 2.0) == pytest.approx(optimal_tau(ens, 1.0) / 2.0, abs=1e-6)


def test_reoptimized_tau_after_excitation():
    ens = WeightedEnsemble.from_weights(binomial_distribution(6))
    conditioned = update_weights(ens, 1.0, 0.825, EXCITED)
    retuned = optimal_tau(conditioned, 1.0)
    assert abs(retuned - 0.825) > 0.01
    # brute-force grid oracle
    grid = np.linspace(1e-6, math.pi, 200_001)
    oracle = grid[np.argmax(excite_prob(conditioned, 1.0, grid))]
    assert retuned == pytest.approx(oracle, abs=1e-4)


def reference_optimal_tau(ens, gamma):
    """optimal_tau as a grid scan and golden section made of plain
    excite_prob calls: the reference the cached version must match bit for
    bit."""
    grid = np.linspace(0.0, math.pi / gamma, 2000)
    grid = grid[grid > 0]
    values = excite_prob(ens, gamma, grid)
    best = int(np.argmax(values))
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a = grid[best - 1] if best > 0 else grid[0]
    b = grid[best + 1] if best + 1 < len(grid) else grid[-1]
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc = excite_prob(ens, gamma, c)
    fd = excite_prob(ens, gamma, d)
    for _ in range(80):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = excite_prob(ens, gamma, c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = excite_prob(ens, gamma, d)
    candidates = [(float(grid[best]), float(values[best])), (float(c), float(fc)), (float(d), float(fd))]
    best_value = max(v for _, v in candidates)
    return min(t for t, v in candidates if v >= best_value)


@st.composite
def wide_ensembles(draw):
    """1 to 12 or 33 to 99 branches up to n = 160, some of them dead or
    empty."""
    size = draw(st.integers(1, 12) | st.integers(33, 99))
    ns = draw(st.lists(st.integers(0, 160), min_size=size, max_size=size, unique=True))
    transferred = draw(st.integers(0, max(ns)))
    raw = [
        draw(st.sampled_from([0.0, 1.0]) | st.floats(1e-6, 1.0)) if n >= transferred else 0.0
        for n in ns
    ]
    if sum(raw) == 0:
        raw[ns.index(max(ns))] = 1.0
    return WeightedEnsemble(np.array(ns), np.array(raw) / sum(raw), transferred)


@settings(max_examples=150, deadline=None)
@given(wide_ensembles(), st.floats(0.05, 5.0))
# vacuum-certain: the curve is all zeros, so the best grid point is the first
@example(WeightedEnsemble.from_weights({1: 1.0}, transferred=1), 1.0)
# an empty branch; the same as a -0.0 weight, with the top weight one float
# lower, and at another transferred count
@example(WeightedEnsemble.from_weights({0: 0.0, 1: 0.5, 3: 0.5}), 1.0)
@example(WeightedEnsemble(np.array([0, 1, 3]), np.array([-0.0, 0.5, 0.5])), 1.0)
@example(WeightedEnsemble(np.array([0, 1, 3]), np.array([0.0, np.nextafter(0.5, 0.0), 0.5])), 1.0)
@example(WeightedEnsemble.from_weights({0: 0.0, 1: 0.5, 3: 0.5}, transferred=1), 1.0)
def test_optimal_tau_equals_the_plain_excite_prob_reference(ens, gamma):
    assert optimal_tau(ens, gamma) == reference_optimal_tau(ens, gamma)


def golden_section_states(ens, gamma):
    """The (a, b, c, d, fc, fd) state after each of reference_optimal_tau's
    80 golden-section iterations, from the same plain excite_prob calls."""
    grid = np.linspace(0.0, math.pi / gamma, 2000)
    grid = grid[grid > 0]
    best = int(np.argmax(excite_prob(ens, gamma, grid)))
    assert 0 < best < len(grid) - 1
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = grid[best - 1], grid[best + 1]
    c, d = b - golden * (b - a), a + golden * (b - a)
    fc, fd = excite_prob(ens, gamma, c), excite_prob(ens, gamma, d)
    states = []
    for _ in range(80):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = excite_prob(ens, gamma, c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = excite_prob(ens, gamma, d)
        states.append((a, b, c, d, fc, fd))
    return states


@pytest.mark.parametrize("n_max, parity", [(3, 0), (1, 1)])
def test_optimal_tau_stops_at_its_two_cycle_on_either_parity(n_max, parity):
    # the loop stops once the state equals the one two iterations back and
    # keeps the state the 80th iteration would have landed on
    ens = WeightedEnsemble.from_weights(binomial_distribution(n_max))
    states = golden_section_states(ens, 1.0)
    start = next(i for i in range(2, 80) if states[i] == states[i - 2])
    assert start % 2 == parity and start < 78
    assert states[start] != states[start - 1]  # a true 2-cycle, not a fixed point
    assert states[79] == states[start if (79 - start) % 2 == 0 else start - 1]
    assert optimal_tau(ens, 1.0) == reference_optimal_tau(ens, 1.0)


@pytest.mark.parametrize("n_max", [6, 10, 1000])
def test_the_search_compares_excite_probs_curve_and_scalar_forms(n_max):
    # the scan compares excite_prob's curve at the grid, the refinement its
    # value at one tau; both are one left-to-right sum, so at a grid point
    # they are the same float
    ens = WeightedEnsemble.from_weights(binomial_distribution(n_max))
    grid = optimum.tau_grid(1.0)
    curve = excite_prob(ens, 1.0, grid)
    assert curve.tolist() == [excite_prob(ens, 1.0, tau) for tau in grid.tolist()]


def stored_nodes() -> int:
    """Nodes stored in every transition tree the process keeps."""
    return sum(tree.nodes for tree in transitions.trees.values())


def test_optimal_each_step_builds_each_grid_row_once(tmp_path):
    from cavityqubits import cli

    optimum.grid_row.cache_clear()
    # a stored transition builds no row
    transitions.trees.clear()
    out = tmp_path / "run.csv"
    assert cli.main(["custom", "--nmax", "6", "--policy", "optimal-each-step", "--seed", "8",
                     "--out", str(out)]) == 0
    info = optimum.grid_row.cache_info()
    # one row per remaining photon count 0..6, however many atoms re-optimize
    assert info.misses <= 7
    assert info.hits > 10 * info.misses


def test_grid_rows_of_one_search_at_the_photon_cap_stay_cached():
    assert optimum.grid_row.cache_info().maxsize >= MAX_PHOTON_NUMBER + 1
    optimum.grid_row.cache_clear()
    ens = WeightedEnsemble.from_weights(binomial_distribution(MAX_PHOTON_NUMBER))
    optimal_tau(ens, 1.0)
    optimal_tau(update_weights(ens, 1.0, 0.05, EXCITED), 1.0)
    info = optimum.grid_row.cache_info()
    # rows 1..1000, then 0..999 one photon down: each row is built once
    assert (info.misses, info.hits) == (MAX_PHOTON_NUMBER + 1, MAX_PHOTON_NUMBER - 1)


def test_a_warm_tree_writes_the_same_csv(tmp_path):
    from cavityqubits import cli

    out = tmp_path / "run.csv"
    argv = ["custom", "--nmax", "6", "--policy", "optimal-each-step", "--out", str(out)]
    transitions.trees.clear()
    assert cli.main([*argv, "--seed", "8"]) == 0
    cold = out.read_bytes()
    for seed in range(20):
        assert cli.main([*argv, "--seed", str(seed)]) == 0
    (tree,) = transitions.trees.values()
    nodes, misses, hits = tree.nodes, tree.misses, tree.hits
    assert cli.main([*argv, "--seed", "8"]) == 0
    assert out.read_bytes() == cold
    # the second seed-8 run followed stored transitions only
    assert (tree.nodes, tree.misses) == (nodes, misses) and tree.hits > hits


def test_a_stored_prior_optimum_keeps_no_array():
    transitions.trees.clear()
    # a row of a weight stack is a view of the whole stack, which must not outlive the run
    stack = np.array([[0.25, 0.75], [0.5, 0.5]])
    prior = WeightedEnsemble(np.array([1, 2]), stack[1])
    tau = protocol.prior_optimal_tau(prior, 1.0)
    assert tau == optimal_tau(WeightedEnsemble(np.array([1, 2]), np.array([0.5, 0.5])), 1.0)
    alive = weakref.ref(stack)
    del stack, prior
    assert alive() is None


def test_trapping_safe_tau_values():
    # below pi / (gamma sqrt(n_max)) no occupied branch sits on a trapping
    # point; at it the top branch does
    gamma, n_max = 1.3, 6
    safe = math.pi / (gamma * math.sqrt(n_max))
    branches = [WeightedEnsemble.from_weights({n: 1.0}) for n in range(1, n_max + 1)]
    assert min(excite_prob(ens, gamma, 0.99 * safe) for ens in branches) > 0
    assert excite_prob(branches[-1], gamma, safe) < 1e-30


# --- stepping and runs -------------------------------------------------------------


def test_step_half_rabi_always_excites():
    ens = WeightedEnsemble.from_weights({3: 1.0})
    rng = split_rng(5)
    for expected_m in (1, 2, 3):
        tau = policy_tau(HalfRabiTau(3), ens, 1.0, rng)
        assert excite_prob(ens, 1.0, tau) == pytest.approx(1.0, abs=1e-12)
        outcome, ens, _, _ = step(ens, HalfRabiTau(3), 1.0, rng)
        assert outcome is EXCITED
        assert ens.transferred == expected_m
    assert ens.is_vacuum_certain()


def test_step_refuses_vacuum_certain():
    ens = WeightedEnsemble.from_weights({1: 1.0}, transferred=1)
    with pytest.raises(ValueError, match="vacuum"):
        step(ens, FixedTau(0.5), 1.0, split_rng(0))


def test_step_at_trapping_point_never_excites():
    # gamma tau = pi/sqrt(4): the n=4 branch sits at a trapping point
    ens = WeightedEnsemble.from_weights({4: 1.0})
    rng = split_rng(9)
    for _ in range(50):
        outcome, ens, _, _ = step(ens, FixedTau(math.pi / 2), 1.0, rng)
        assert outcome is GROUND
    assert ens.transferred == 0


def test_step_seeded_reproducibility():
    ens = WeightedEnsemble.from_weights(binomial_distribution(6))
    policy = JitteredTau(center=0.825, sigma=0.05)
    runs = []
    for _ in range(2):
        rng = split_rng(17)
        state = ens
        record = []
        for _ in range(20):
            if state.is_vacuum_certain():
                break
            outcome, state, tau, _ = step(state, policy, 1.0, rng)
            record.append((outcome, tau, tuple(state.weights)))
        runs.append(record)
    assert runs[0] == runs[1]


def test_run_half_rabi_reaches_vacuum():
    config = make_config(
        distribution=DistributionSpec("explicit", weights={2: 1.0}),
        policy="half-rabi",
        tau=None,
    )
    trace = run(config, split_rng(1))
    assert len(trace.events) == 2
    assert all(e.outcome is EXCITED for e in trace.events)
    assert trace.reason is StopReason.VACUUM_CERTAIN
    assert trace.final.transferred == 2
    f_atom = atom_fidelity(trace.final.as_dict())
    assert quality(f_atom, 1, trace.final.transferred) == pytest.approx(1.0, abs=1e-12)


def test_run_trapped_terminates_at_cutoff():
    config = make_config(
        distribution=DistributionSpec("explicit", weights={4: 1.0}),
        tau=math.pi / 2,
        cutoff=15,
    )
    trace = run(config, split_rng(2))
    assert trace.reason is StopReason.CUTOFF
    assert len(trace.events) == 15
    assert trace.final.transferred == 0


def test_run_respects_atom_budget():
    config = make_config(cutoff=10_000, atom_budget=7)
    trace = run(config, split_rng(3))
    assert trace.reason is StopReason.ATOM_BUDGET
    assert len(trace.events) == 7


def test_run_seeded_traces_identical():
    config = make_config(policy="jittered", sigma_rel=0.05, cutoff=20)
    t1 = run(config, split_rng(11))
    t2 = run(config, split_rng(11))
    assert t1.events == t2.events
    assert np.array_equal(t1.weights, t2.weights)
    assert t1.reason is t2.reason


def test_run_events_stay_normalized():
    config = make_config(policy="optimal-each-step", tau=None, cutoff=12)
    trace = run(config, split_rng(21))
    assert trace.weights.shape == (len(trace.events) + 1, 6)
    assert np.allclose(trace.weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert trace.transferred.max() <= 6
    for event in trace.events:
        assert 0.0 <= event.p_excite_before <= 1.0


def test_run_staircase_and_collapse():
    config = make_config(cutoff=20, seed=7)
    trace = run(config, split_rng(7))
    transfers = trace.transferred.tolist()
    assert transfers == sorted(transfers)
    top_n, top_p = max(trace.final.as_dict().items(), key=lambda kv: kv[1])
    assert top_p > 0.99
    assert top_n == trace.final.transferred


# --- concentration of the mixture ------------------------------------------------


def entropy(weights: np.ndarray) -> float:
    live = weights[weights > 0]
    return float(-np.sum(live * np.log(live)))


def test_expected_entropy_never_increases():
    # exact conditional-entropy inequality, branch-weighted
    rng = np.random.default_rng(31)
    for _ in range(200):
        ns = rng.choice(np.arange(1, 9), size=rng.integers(2, 6), replace=False)
        ws = rng.random(len(ns))
        ens = WeightedEnsemble.from_weights(dict(zip(ns.tolist(), ws / ws.sum())))
        tau = rng.uniform(0.05, 2.5)
        p_e = excite_prob(ens, 1.0, tau)
        expected = 0.0
        if p_e > 0:
            expected += p_e * entropy(update_weights(ens, 1.0, tau, EXCITED).weights)
        if p_e < 1:
            expected += (1 - p_e) * entropy(update_weights(ens, 1.0, tau, GROUND).weights)
        assert expected <= entropy(ens.weights) + 1e-12


def test_entropy_decreases_along_sampled_runs():
    # Monte Carlo version: mean per-step entropy change over 10^4 sampled
    # steps must not be significantly positive (3 sigma)
    rng = split_rng(47)
    tau = 0.6  # trapping-safe for n_max = 6
    deltas = []
    ens = WeightedEnsemble.from_weights(binomial_distribution(6))
    while len(deltas) < 10_000:
        if ens.is_vacuum_certain():
            ens = WeightedEnsemble.from_weights(binomial_distribution(6))
        before = entropy(ens.weights)
        _, ens, _, _ = step(ens, FixedTau(tau), 1.0, rng)
        deltas.append(entropy(ens.weights) - before)
    deltas = np.array(deltas)
    stderr = deltas.std(ddof=1) / math.sqrt(len(deltas))
    assert deltas.mean() <= 3 * stderr


# --- runs against the step loop, and the lockstep batch ---------------------------


def reference_run(initial, policy, cutoff, atom_budget, rng, gamma=1.0):
    """`run`'s stop rules iterated over `step`: the reference for `run` and
    for every row of `run_batch`. Returns (final ensemble, stop reason,
    per-atom records)."""
    ens, streak, records = initial, 0, []
    while True:
        if ens.is_vacuum_certain():
            return ens, StopReason.VACUUM_CERTAIN, records
        if len(records) >= atom_budget:
            return ens, StopReason.ATOM_BUDGET, records
        outcome, ens, tau, p_e = step(ens, policy, gamma, rng)
        records.append((tau, outcome is EXCITED, p_e, tuple(ens.weights), ens.transferred))
        streak = 0 if outcome is EXCITED else streak + 1
        if streak >= cutoff:
            return ens, StopReason.CUTOFF, records


def run_config(weights, policy, cutoff, atom_budget, gamma=1.0):
    """What `run` reads of a config, for any policy object."""
    return SimpleNamespace(
        initial_weights=lambda: weights, tau_policy=lambda initial: policy, gamma=gamma,
        cutoff=cutoff, atom_budget=atom_budget,
    )


def event_records(trace):
    """`trace`'s events and posteriors as `reference_run` records them."""
    return [
        (e.tau, e.outcome is EXCITED, e.p_excite_before, tuple(w), m)
        for e, w, m in zip(trace.events, trace.weights[1:].tolist(), trace.transferred[1:].tolist())
    ]


def assert_batch_matches_run(weights, policy, cutoffs, n_rows, atom_budget, seed, gamma=1.0):
    """`run` with each cutoff on stream `split_rng(seed, r)` equals the step
    loop with that cutoff on the same stream, atom by atom; under `FixedTau`
    row r of the lockstep batch equals it too, at each cutoff. All of it
    twice: from an empty transition tree, then from the tree the first pass
    left, which must then store no new node."""
    transitions.trees.clear()
    reasons = assert_batch_matches_run_once(
        weights, policy, cutoffs, n_rows, atom_budget, seed, gamma
    )
    nodes = stored_nodes()
    assert assert_batch_matches_run_once(
        weights, policy, cutoffs, n_rows, atom_budget, seed, gamma
    ) == reasons
    assert stored_nodes() == nodes
    return reasons


def assert_batch_matches_run_once(weights, policy, cutoffs, n_rows, atom_budget, seed, gamma):
    initial = WeightedEnsemble.from_weights(weights)
    levels = sorted(set(cutoffs))
    lockstep = isinstance(policy, FixedTau)
    if lockstep:
        final = run_batch(
            initial, policy, gamma, cutoffs, atom_budget,
            [split_rng(seed, r) for r in range(n_rows)],
        )
        assert final.weights.shape == (len(levels), n_rows, len(initial.weights))
        assert final.transferred.shape == final.atoms.shape == final.reasons.shape
        assert final.transferred.shape == (len(levels), n_rows)
    reasons = set()
    for row in range(n_rows):
        for level, cutoff in enumerate(levels):
            ens, reason, expected = reference_run(
                initial, policy, cutoff, atom_budget, split_rng(seed, row), gamma
            )
            trace = run(run_config(weights, policy, cutoff, atom_budget, gamma),
                        split_rng(seed, row))
            assert event_records(trace) == expected
            assert trace.reason is reason
            assert np.array_equal(trace.weights[0], initial.weights)
            assert trace.transferred[0] == initial.transferred
            assert np.array_equal(trace.final.weights, ens.weights)
            assert trace.final.transferred == ens.transferred
            # the run returns copies: writing to them must not reach the tree
            trace.weights[:] = np.nan
            if lockstep:
                assert final.atoms[level, row] == len(expected)
                assert final.transferred[level, row] == ens.transferred
                assert final.reasons[level, row] is reason
                assert np.array_equal(final.weights[level, row], ens.weights)
            reasons.add(reason)
    return reasons


def test_batch_matches_run_on_cutoff_stops():
    weights = binomial_distribution(10)
    tau = optimal_tau(WeightedEnsemble.from_weights(weights), 1.0)
    # cutoffs up to 40 take most rows past one block of draws; unsorted, with a duplicate
    reasons = assert_batch_matches_run(
        weights, FixedTau(tau), [20, 1, 5, 2, 40, 10, 5], 8, 10_000, 5
    )
    assert reasons == {StopReason.CUTOFF}
    # gamma != 1: gamma * tau is then a rounded product, not tau itself
    reasons = assert_batch_matches_run(weights, FixedTau(tau / 1.3), [1, 5, 20], 4, 10_000, 6, 1.3)
    assert reasons == {StopReason.CUTOFF}


def test_batch_matches_run_on_vacuum_and_cutoff_stops():
    # a known photon number empties for certain; short cutoffs stop some rows first
    reasons = assert_batch_matches_run({3: 1.0}, FixedTau(0.6), [1, 2, 4, 8], 6, 10_000, 4)
    assert reasons == {StopReason.CUTOFF, StopReason.VACUUM_CERTAIN}


def test_batch_matches_run_on_budget_stops():
    weights = binomial_distribution(6)
    reasons = assert_batch_matches_run(weights, FixedTau(0.825), [3, 50], 10, 37, 6)
    assert StopReason.ATOM_BUDGET in reasons


def test_batch_single_photon_is_vacuum_certain_after_one_atom():
    final = run_batch(
        WeightedEnsemble.from_weights({1: 1.0}), FixedTau(math.pi / 2), 1.0, [5, 1], 100,
        [split_rng(0, 1), split_rng(0, 2)],
    )
    assert final.reasons.tolist() == [[StopReason.VACUUM_CERTAIN] * 2] * 2
    assert final.atoms.tolist() == [[1, 1], [1, 1]]
    assert final.transferred.tolist() == [[1, 1], [1, 1]]
    assert_batch_matches_run({1: 1.0}, FixedTau(math.pi / 2), [1, 5, 9], 3, 100, 7)


@pytest.mark.parametrize("policy", [FixedTau(0.6), OptimalEachStep()])
def test_batch_stops_a_lone_weight_below_one_as_vacuum(policy):
    # the lone weight is its row's sum, within WEIGHT_TOL of 1 but not 1.0:
    # a vacuum test only for weights equal to 1.0 would pass it one atom
    trace = run(run_config({0: 1 - 5e-13}, policy, 4, 100), split_rng(0, 1))
    assert (trace.events, trace.reason) == ([], StopReason.VACUUM_CERTAIN)
    assert trace.final.weights.tolist() == [1 - 5e-13]
    if isinstance(policy, FixedTau):
        ens = WeightedEnsemble(np.array([2]), np.array([1 - 5e-13]), 2)
        assert ens.is_vacuum_certain()
        final = run_batch(ens, policy, 1.0, [1, 4], 100, [split_rng(0, 1), split_rng(0, 2)])
        assert final.reasons.tolist() == [[StopReason.VACUUM_CERTAIN] * 2] * 2
        assert final.atoms.tolist() == [[0, 0], [0, 0]]
        assert final.transferred.tolist() == [[2, 2], [2, 2]]
        assert final.weights.tolist() == [[[1 - 5e-13]] * 2] * 2


def test_batch_cutoff_on_the_last_budgeted_atom_is_a_cutoff_stop():
    # budget 1: a ground result at cutoff 1 stops on the cutoff, any other
    # row and cutoff on the budget
    reasons = assert_batch_matches_run({1: 0.5, 2: 0.5}, FixedTau(0.4), [1, 2], 20, 1, 8)
    assert reasons == {StopReason.CUTOFF, StopReason.ATOM_BUDGET}


def test_batch_rejects_bad_inputs():
    ens = WeightedEnsemble.from_weights({1: 1.0})
    for cutoffs in ([], [0, 2], [3, -1]):
        with pytest.raises(ValueError, match="need at least one cutoff, each >= 1"):
            run_batch(ens, FixedTau(0.5), 1.0, cutoffs, 10, [split_rng(0)])
    with pytest.raises(ValueError, match="tau must be positive"):
        run_batch(ens, FixedTau(0.0), 1.0, [1], 10, [split_rng(0)])


@pytest.mark.parametrize("policy", [OptimalEachStep(), HalfRabiTau(1), JitteredTau(0.5, 0.0)])
def test_batch_refuses_a_policy_other_than_fixed_tau(policy):
    # the lockstep shares one tau among its rows; other policies run alone
    ens = WeightedEnsemble.from_weights({1: 1.0})
    with pytest.raises(TypeError, match="fixed-tau runs only"):
        run_batch(ens, policy, 1.0, [1], 10, [split_rng(0)])


@pytest.mark.parametrize("policy", ["fixed", "optimal-each-step", "half-rabi", "jittered"])
def test_run_is_the_step_loop(policy):
    # half-rabi needs a single known photon number
    weights = {4: 1.0} if policy == "half-rabi" else binomial_distribution(6)
    config = make_config(
        distribution=DistributionSpec("explicit", weights=weights), policy=policy, tau=None,
        sigma_rel=0.2,
    )
    initial = WeightedEnsemble.from_weights(config.initial_weights())
    trace = run(config, split_rng(9))
    ens, reason, expected = reference_run(
        initial, config.tau_policy(initial), config.cutoff, config.atom_budget, split_rng(9)
    )
    assert event_records(trace) == expected
    assert [e.atom_index for e in trace.events] == list(range(len(expected)))
    assert trace.reason is reason
    assert np.array_equal(trace.final.weights, ens.weights)
    assert trace.final.transferred == ens.transferred


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.integers(1, 6), st.floats(0.01, 1.0), min_size=1, max_size=4),
    st.sampled_from(["fixed", "optimal-each-step", "half-rabi", "jittered"]),
    st.floats(0.05, 3.0),
    st.floats(0.0, 1.0),
    st.lists(st.integers(1, 8), min_size=1, max_size=6),
    st.integers(1, 6),
    st.integers(1, 70),
    st.integers(0, 2**32 - 1),
    # gamma != 1: gamma * tau is then a rounded product, not tau itself
    st.sampled_from([1.0]) | st.floats(0.2, 5.0),
)
def test_batch_matches_run_property(
    raw, name, tau, sigma_rel, cutoffs, n_rows, atom_budget, seed, gamma
):
    if name == "half-rabi":  # needs a single known photon number
        raw = {max(raw): 1.0}
    total = sum(raw.values())
    weights = {n: p / total for n, p in raw.items()}
    WeightedEnsemble.from_weights(weights)  # hypothesis only draws valid mixtures
    policy = {
        "fixed": FixedTau(tau),
        "optimal-each-step": OptimalEachStep(),
        "half-rabi": HalfRabiTau(max(raw)),
        "jittered": JitteredTau(tau, sigma_rel * tau),
    }[name]
    assert_batch_matches_run(weights, policy, cutoffs, n_rows, atom_budget, seed, gamma)


def test_concurrent_runs_from_one_prior_match_serial_runs():
    config = make_config(policy="optimal-each-step", tau=None)
    seeds = range(60)

    def traces(rngs):
        return [
            (t.events, t.reason, t.weights.tolist(), t.transferred.tolist())
            for t in (run(config, rng) for rng in rngs)
        ]

    transitions.trees.clear()
    serial = traces(split_rng(s) for s in seeds)
    (tree,) = transitions.trees.values()
    stored = (tree.nodes, tree.nbytes, tree.hits + tree.misses)
    assert stored[2] == sum(len(events) for events, *_ in serial)

    transitions.trees.clear()
    results = {}
    # four threads on the same seeds, so they race to store the same nodes
    threads = [
        threading.Thread(target=lambda k: results.__setitem__(k, traces(map(split_rng, seeds))),
                         args=(k,))
        for k in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-walk
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(results[k] == serial for k in range(4))
    # every posterior the runs reach is stored once, and every pass counted
    (tree,) = transitions.trees.values()
    assert (tree.nodes, tree.nbytes, tree.hits + tree.misses) == (*stored[:2], 4 * stored[2])

def test_a_full_tree_stays_within_its_bound():
    # binomial:1000: a node is about 8.3 KB, so a run of 1500 atoms passes
    # the bound; it must still equal a lockstep row
    weights = binomial_distribution(1000)
    initial = WeightedEnsemble.from_weights(weights)
    policy, budget = FixedTau(0.05), 1500
    transitions.trees.clear()
    for seed in (0, 1):
        trace = run(run_config(weights, policy, 10**6, budget), split_rng(seed, 0))
        lockstep = run_batch(
            initial, policy, 1.0, [10**6], budget, [split_rng(seed, 0), split_rng(seed, 1)]
        )
        assert trace.reason is lockstep.reasons[0, 0] is StopReason.ATOM_BUDGET
        assert len(trace.events) == lockstep.atoms[0, 0] == budget
        assert np.array_equal(trace.final.weights, lockstep.weights[0, 0])
        assert trace.final.transferred == lockstep.transferred[0, 0]
        (tree,) = transitions.trees.values()
        assert tree.nbytes <= transitions.TREE_BYTES
        assert tree.nodes < budget
