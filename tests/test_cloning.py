import math
import tracemalloc

import numpy as np
import pytest
from fidelity_reference import atom_fidelity as dict_atom_fidelity
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cavityqubits.cloning import (
    atom_fidelity,
    binomial_distribution,
    check_weights,
    clone_fidelity,
    quality,
    uniform_distribution,
)
from cavityqubits.protocol import (
    MeasurementOutcome,
    WeightedEnsemble,
    excite_prob,
    update_weights,
)


def test_clone_fidelity_values():
    assert clone_fidelity(1, 2) == 5 / 6
    assert clone_fidelity(1, 1) == 1.0
    assert clone_fidelity(1, 10**6) == pytest.approx(2 / 3, abs=1e-5)


def test_clone_fidelity_errors():
    with pytest.raises(ValueError, match="shrink"):
        clone_fidelity(3, 2)
    with pytest.raises(ValueError):
        clone_fidelity(0, 1)


def test_clone_fidelity_monotonicity_grid():
    for n in range(1, 51):
        for m in range(n, 51):
            f = clone_fidelity(n, m)
            if m > n:
                assert f < clone_fidelity(n, m - 1)
            if n > 1 and m >= n:
                assert f > clone_fidelity(n - 1, m)


def test_single_original_fidelity_bounds():
    for m in (1, 2, 7, 100, 10**6):
        assert 2 / 3 <= clone_fidelity(1, m) <= 1.0


def graded(weights: dict[int, float], n_originals: int = 1) -> float:
    """`atom_fidelity` of one mixture given as {clone count: weight}."""
    return atom_fidelity(list(weights), list(weights.values()), n_originals)


def test_atom_fidelity_point_mass():
    assert atom_fidelity([2], [1.0]) == 5 / 6


def test_atom_fidelity_two_term_average():
    assert atom_fidelity([1, 2], [0.5, 0.5]) == pytest.approx(11 / 12, abs=1e-15)
    assert atom_fidelity([2, 3], [0.5, 0.5]) == pytest.approx((5 / 6 + 7 / 9) / 2)


def test_atom_fidelity_can_exceed_final_fidelity():
    assert graded(binomial_distribution(6)) > clone_fidelity(1, 6)


def test_atom_fidelity_requires_normalized_weights():
    with pytest.raises(ValueError, match="sum to 1"):
        atom_fidelity([1, 2], [0.7, 0.7])


@pytest.mark.parametrize(
    "weights", [{1: math.nan}, {1: math.nan, 2: math.nan}, {1: 1.0, 2: math.nan}]
)
def test_atom_fidelity_rejects_nan_weights(weights):
    with pytest.raises(ValueError, match="sum to 1"):
        graded(weights)


def test_check_weights_sums_each_row_left_to_right():
    # 16 weights that numpy's pairwise sum puts at 1 - 1e-12, inside the
    # tolerance, and that add up to 1 - 1.0000001e-12 left to right
    ws = np.array([
        0.04920575699143284, 0.06252391197700993, 0.07182728711641907, 0.10434623376518054,
        0.05303575256188085, 0.10799205760592634, 0.07428107549231647, 0.10038091037767922,
        0.060282089510204466, 0.08381875814630989, 0.041033851067699495, 0.06328041665361384,
        0.026170543823172347, 0.012188635176589637, 0.00467244116878784, 0.08496027856477723,
    ])
    assert ws.sum() == 0.999999999999
    with pytest.raises(ValueError, match="weights must sum to 1, got 0.9999999999989999$"):
        check_weights(np.arange(1, 17), ws)
    # a weight of 2^-40 past the tolerance: refused alone and in any stack row
    off = np.array([0.5, 0.5 + 1e-12 + 2**-40])
    total = 0.5 + float(off[1])
    with pytest.raises(ValueError, match=f"weights must sum to 1, got {total!r}$"):
        check_weights(np.array([1, 2]), off)
    # rows past the first block of 2^16 weights are judged too
    stack = np.tile([0.5, 0.5], (7 * 2**14, 1))  # 3.5 blocks
    check_weights(np.array([1, 2]), stack)
    stack[-1] = off
    with pytest.raises(ValueError, match=f"got {total!r}$"):
        check_weights(np.array([1, 2]), stack.reshape(-1, 7, 2))
    for row in ([1.5, -0.5], [0.5, math.nan]):  # a NaN is no non-negative number
        with pytest.raises(ValueError, match="non-negative numbers that sum to 1"):
            check_weights(np.array([1, 2]), np.array(row))
    with pytest.raises(ValueError, match="transferred=2 must carry zero weight"):
        check_weights(np.array([1, 2]), stack[:2], np.array([0, 2]))


def test_check_weights_copies_no_stack():
    # it sums blocks of 2^16 weights: a stack of a million holds one block at
    # a time, beside a few bool arrays of one byte a weight
    stack = np.full((2**17, 8), 0.125)
    tracemalloc.start()
    try:
        check_weights(np.arange(1, 9), stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * stack.size + 2**20  # a copy of the stack is 8 bytes a weight


def test_atom_fidelity_grades_a_stack():
    stack = np.array([[[1.0, 0.0], [0.5, 0.5]], [[0.0, 1.0], [0.25, 0.75]]])
    f_atom = atom_fidelity([2, 3], stack)
    assert f_atom.shape == (2, 2)
    assert f_atom.tolist() == [
        [dict_atom_fidelity(dict(zip([2, 3], row))) for row in rows] for rows in stack.tolist()
    ]
    assert atom_fidelity([2, 3], np.empty((0, 2))).shape == (0,)
    with pytest.raises(ValueError, match="sum to 1, got 1.5"):
        atom_fidelity([2, 3], np.array([[0.5, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError, match="cannot shrink: m_clones=2 < n_originals=3"):
        atom_fidelity([2, 3], stack, 3)
    with pytest.raises(ValueError):  # one clone count per weight column
        atom_fidelity([2], stack)
    # a zero weight below n_originals is no clone count at all
    assert atom_fidelity([2, 3], stack[1, :1], 3).tolist() == [clone_fidelity(3, 3)]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=8, unique=True),
    st.lists(st.integers(0, 3), max_size=2),
    st.integers(1, 3),
    st.floats(0.0, 0.9),
    st.integers(0, 2**32 - 1),
)
def test_atom_fidelity_equals_the_dict_reference(branches, lead, n_originals, zeros, seed):
    # random (*lead, K) stacks, about `zeros` of their weights zero: every row
    # equals the left-to-right dict reference bit for bit, and each of the
    # reference's refusals raises for the whole stack
    ns = sorted(branches)
    assume(ns[-1] >= 1)
    n_originals = min(n_originals, ns[-1])
    rng = np.random.default_rng(seed)
    w = rng.random((*lead, len(ns)))
    w[rng.random(w.shape) < zeros] = 0.0
    below = np.array(ns) < n_originals
    w[..., below] = 0.0
    w[..., -1] += w.sum(axis=-1) == 0  # every row carries some weight
    w /= w.sum(axis=-1, keepdims=True)
    f_atom = atom_fidelity(ns, w, n_originals)
    assert np.shape(f_atom) == tuple(lead)
    rows = w.reshape(-1, len(ns)).tolist()
    expected = [dict_atom_fidelity(dict(zip(ns, row)), n_originals) for row in rows]
    assert [x.hex() for x in np.ravel(f_atom).tolist()] == [x.hex() for x in expected]

    if not rows:
        return
    row = (rng.integers(len(rows)),)
    for bad, match in ((1.5, "sum to 1"), (math.nan, "sum to 1")):
        off = w.reshape(-1, len(ns)).copy()
        off[row] *= bad
        with pytest.raises(ValueError, match=match):
            dict_atom_fidelity(dict(zip(ns, off[row].tolist())), n_originals)
        with pytest.raises(ValueError, match=match):
            atom_fidelity(ns, off.reshape(w.shape), n_originals)
    if below.any():
        low = w.reshape(-1, len(ns)).copy()
        low[row] = 0.0
        low[row + (0,)] = 1.0  # all on ns[0] < n_originals
        with pytest.raises(ValueError, match="cannot shrink"):
            dict_atom_fidelity(dict(zip(ns, low[row].tolist())), n_originals)
        with pytest.raises(ValueError, match="cannot shrink"):
            atom_fidelity(ns, low.reshape(w.shape), n_originals)


def test_sums_run_left_to_right_on_every_python():
    # Python >= 3.12's sum() compensates rounding like math.fsum, and differs
    # from left to right here; the golden F_atom and fig4 bytes hold the
    # left-to-right values
    weights = binomial_distribution(10)
    assert graded(weights, 1) == 0.7332682291666666
    assert math.fsum(p * clone_fidelity(1, n) for n, p in weights.items()) == 0.7332682291666667


@settings(max_examples=60)
@given(st.floats(0.0, 1.0), st.integers(1, 8), st.integers(1, 8))
def test_atom_fidelity_linear_in_weights(lam, a, b):
    mix = {a: lam, b: 1 - lam} if a != b else {a: 1.0}
    direct = graded(mix)
    combined = lam * clone_fidelity(1, a) + (1 - lam) * clone_fidelity(1, b)
    assert direct == pytest.approx(combined, abs=1e-12)


def test_binomial_distribution_values():
    weights = binomial_distribution(6)
    assert weights[1] == 1 / 32
    assert weights[4] == 10 / 32
    assert sum(weights.values()) == 1.0
    assert binomial_distribution(1) == {1: 1.0}


@pytest.mark.parametrize("n_max", [1, 2, 6, 10, 1000])
def test_binomial_distribution_equals_the_comb_form(n_max):
    scale = 2 ** (n_max - 1)
    assert binomial_distribution(n_max) == {
        n: math.comb(n_max - 1, n - 1) / scale for n in range(1, n_max + 1)
    }


def test_uniform_distribution():
    weights = uniform_distribution(2, 5)
    assert set(weights) == {2, 3, 4, 5}
    assert all(p == 0.25 for p in weights.values())
    with pytest.raises(ValueError):
        uniform_distribution(3, 2)


def test_quality_values():
    assert quality(clone_fidelity(1, 3), 1, 3) == 1.0
    assert quality(5 / 6, 1, 3) == pytest.approx(15 / 14, abs=1e-15)
    f_atom = atom_fidelity([2, 3], [0.5, 0.5])
    assert quality(f_atom, 1, 2) == pytest.approx(f_atom / (5 / 6))


def test_quality_undefined_without_transfers():
    with pytest.raises(ValueError):
        quality(0.9, 1, 0)


def test_atom_fidelity_is_martingale_over_outcomes():
    # outcome-averaged posterior fidelity equals the prior fidelity: the
    # mid-run value is the expectation of what the run will end up with
    ens = WeightedEnsemble.from_weights(binomial_distribution(5))
    tau = 0.9
    p_e = excite_prob(ens, 1.0, tau)
    ns = ens.photon_numbers
    averaged = p_e * atom_fidelity(
        ns, update_weights(ens, 1.0, tau, MeasurementOutcome.EXCITED).weights
    ) + (1 - p_e) * atom_fidelity(
        ns, update_weights(ens, 1.0, tau, MeasurementOutcome.GROUND).weights
    )
    assert averaged == pytest.approx(atom_fidelity(ns, ens.weights), abs=1e-12)
