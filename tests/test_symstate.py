import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqubits.symstate import (
    SymLabel,
    SymmetricStateVector,
    binom,
    decompose,
    symmetric_basis_state,
    zeros_of_bitstring,
)


def permutation_sum_oracle(zeros: int, total: int) -> np.ndarray:
    """Brute-force symmetric state: sum distinct bit patterns, normalize."""
    bits = [0] * zeros + [1] * (total - zeros)
    vec = np.zeros(2**total)
    for pattern in set(itertools.permutations(bits)):
        idx = int("".join(map(str, pattern)), 2)
        vec[idx] = 1.0
    return vec / np.linalg.norm(vec)


# --- binom ------------------------------------------------------------------


def test_binom_values():
    assert binom(6, 3) == 20
    assert binom(5, 0) == 1
    assert binom(4, 7) == 0
    assert binom(4, -1) == 0
    assert binom(62, 31) == math.comb(62, 31)


def test_binom_bounds():
    # exact Python integers, past the 64-bit range too
    assert binom(63, 2) == 1953
    assert binom(63, 31) == 916312070471295267
    assert binom(200, 100) == 90548514656103281165404177077484163874504589675413336841320
    with pytest.raises(ValueError):
        binom(-1, 0)


@given(st.integers(1, 62), st.integers(-2, 64))
def test_binom_pascal_identity(a, b):
    assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)


# --- symmetric basis states ---------------------------------------------------


def test_bell_type_state():
    state = symmetric_basis_state(SymLabel(1, 2))
    expected = np.array([0, 1, 1, 0]) / math.sqrt(2)
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_all_ones_state():
    state = symmetric_basis_state(SymLabel(0, 3))
    assert state.amplitudes[0b111] == 1
    assert np.count_nonzero(state.amplitudes) == 1


def test_two_zeros_of_four():
    state = symmetric_basis_state(SymLabel(2, 4))
    support = np.nonzero(state.amplitudes)[0]
    assert len(support) == 6
    np.testing.assert_allclose(state.amplitudes[support], 1 / math.sqrt(6), atol=1e-15)
    np.testing.assert_allclose(state.amplitudes, permutation_sum_oracle(2, 4), atol=1e-15)


def test_capacity_error():
    with pytest.raises(ValueError, match="exhaustive"):
        symmetric_basis_state(SymLabel(3, 13))


def test_invalid_labels():
    with pytest.raises(ValueError):
        SymLabel(3, 2)
    with pytest.raises(ValueError):
        SymLabel(-1, 2)
    with pytest.raises(ValueError):
        SymLabel(0, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_swap_invariance(n, data):
    j = data.draw(st.integers(0, n))
    state = symmetric_basis_state(SymLabel(j, n))
    tensor = state.amplitudes.reshape((2,) * n)
    if n > 1:
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        np.testing.assert_array_equal(tensor, np.swapaxes(tensor, a, b))


def test_matches_oracle_up_to_n6():
    for n in range(1, 7):
        for j in range(n + 1):
            got = symmetric_basis_state(SymLabel(j, n)).amplitudes
            np.testing.assert_allclose(got, permutation_sum_oracle(j, n), atol=1e-14)


# --- state-vector type ---------------------------------------------------------


def test_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        SymmetricStateVector(1, np.array([1.0, 1.0]))


def test_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        SymmetricStateVector(2, np.array([0, 1.0, 0, 0]))


def test_dicke_mode_roundtrip():
    coeffs = np.array([0.5, 0.5, math.sqrt(0.5)])
    compact = SymmetricStateVector(2, coeffs, mode="dicke")
    full = compact.to_exhaustive()
    expected = sum(
        c * symmetric_basis_state(SymLabel(j, 2)).amplitudes for j, c in enumerate(coeffs)
    )
    np.testing.assert_allclose(full.amplitudes, expected, atol=1e-15)


# --- decomposition --------------------------------------------------------------


def test_decompose_one_of_two():
    terms = decompose(SymLabel(1, 2), 1)
    assert [t.split_zeros for t in terms] == [0, 1]
    for t in terms:
        assert t.coefficient == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_decompose_no_zeros():
    terms = decompose(SymLabel(0, 5), 2)
    assert len(terms) == 1
    assert terms[0].split_zeros == 0
    assert terms[0].coefficient == 1.0
    assert terms[0].left == SymLabel(0, 2)
    assert terms[0].right == SymLabel(0, 3)


def test_decompose_two_of_four():
    terms = decompose(SymLabel(2, 4), 2)
    squared = {t.split_zeros: t.coefficient**2 for t in terms}
    assert squared == pytest.approx({0: 1 / 6, 1: 4 / 6, 2: 1 / 6}, abs=1e-15)


def test_decompose_invalid_subset():
    with pytest.raises(ValueError):
        decompose(SymLabel(1, 3), 0)
    with pytest.raises(ValueError):
        decompose(SymLabel(1, 3), 3)


def test_coefficient_formula():
    for n in range(2, 7):
        for j in range(n + 1):
            for m in range(1, n):
                for t in decompose(SymLabel(j, n), m):
                    k = t.split_zeros
                    expected = math.sqrt(binom(m, k) * binom(n - m, j - k) / binom(n, j))
                    assert t.coefficient == pytest.approx(expected, abs=1e-15)
                    assert binom(n - m, j - k) != 0  # vanishing terms are omitted


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.data())
def test_decomposition_completeness(n, data):
    j = data.draw(st.integers(0, n))
    m = data.draw(st.integers(1, n - 1))
    terms = decompose(SymLabel(j, n), m)
    assert sum(t.coefficient**2 for t in terms) == pytest.approx(1.0, abs=1e-12)


def test_reconstruction():
    # summing coefficient * left (x) right reproduces the full state
    for n in range(2, 7):
        for j in range(n + 1):
            for m in range(1, n):
                rebuilt = np.zeros(2**n)
                for t in decompose(SymLabel(j, n), m):
                    left = symmetric_basis_state(t.left).amplitudes.real
                    right = symmetric_basis_state(t.right).amplitudes.real
                    rebuilt += t.coefficient * np.kron(left, right)
                expected = symmetric_basis_state(SymLabel(j, n)).amplitudes.real
                np.testing.assert_allclose(rebuilt, expected, atol=1e-12)


def test_zeros_of_bitstring():
    assert zeros_of_bitstring(0b0101, 4) == 2
    assert zeros_of_bitstring(0, 5) == 5
