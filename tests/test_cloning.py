import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqubits.cloning import (
    atom_fidelity,
    binomial_distribution,
    clone_fidelity,
    ordered_sum,
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


def test_atom_fidelity_point_mass():
    assert atom_fidelity({2: 1.0}) == 5 / 6


def test_atom_fidelity_two_term_average():
    assert atom_fidelity({1: 0.5, 2: 0.5}) == pytest.approx(11 / 12, abs=1e-15)
    assert atom_fidelity({2: 0.5, 3: 0.5}) == pytest.approx((5 / 6 + 7 / 9) / 2)


def test_atom_fidelity_can_exceed_final_fidelity():
    weights = binomial_distribution(6)
    assert atom_fidelity(weights) > clone_fidelity(1, 6)


def test_atom_fidelity_requires_normalized_weights():
    with pytest.raises(ValueError, match="sum to 1"):
        atom_fidelity({1: 0.7, 2: 0.7})


@pytest.mark.parametrize(
    "weights", [{1: math.nan}, {1: math.nan, 2: math.nan}, {1: 1.0, 2: math.nan}]
)
def test_atom_fidelity_rejects_nan_weights(weights):
    with pytest.raises(ValueError, match="sum to 1"):
        atom_fidelity(weights)


def test_sums_run_left_to_right_on_every_python():
    # Python >= 3.12's sum() compensates rounding like math.fsum, and differs
    # from left to right on both cases; the golden F_atom and fig4 bytes hold
    # the left-to-right values
    assert ordered_sum([0.1, 0.2, 0.3, 1e16, -1e16]) == 0.0
    assert math.fsum([0.1, 0.2, 0.3, 1e16, -1e16]) == 0.6
    weights = binomial_distribution(10)
    assert atom_fidelity(weights, 1) == 0.7332682291666666
    assert math.fsum(p * clone_fidelity(1, n) for n, p in weights.items()) == 0.7332682291666667


@settings(max_examples=60)
@given(st.floats(0.0, 1.0), st.integers(1, 8), st.integers(1, 8))
def test_atom_fidelity_linear_in_weights(lam, a, b):
    mix = {a: lam, b: 1 - lam} if a != b else {a: 1.0}
    direct = atom_fidelity(mix)
    combined = lam * clone_fidelity(1, a) + (1 - lam) * clone_fidelity(1, b)
    assert direct == pytest.approx(combined, abs=1e-12)


def test_binomial_distribution_values():
    weights = binomial_distribution(6)
    assert weights[1] == 1 / 32
    assert weights[4] == 10 / 32
    assert sum(weights.values()) == 1.0
    assert binomial_distribution(1) == {1: 1.0}


def test_uniform_distribution():
    weights = uniform_distribution(2, 5)
    assert set(weights) == {2, 3, 4, 5}
    assert all(p == 0.25 for p in weights.values())
    with pytest.raises(ValueError):
        uniform_distribution(3, 2)


def test_quality_values():
    assert quality(clone_fidelity(1, 3), 1, 3) == 1.0
    assert quality(5 / 6, 1, 3) == pytest.approx(15 / 14, abs=1e-15)
    f_atom = atom_fidelity({2: 0.5, 3: 0.5})
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
    averaged = p_e * atom_fidelity(
        update_weights(ens, 1.0, tau, MeasurementOutcome.EXCITED).as_dict()
    ) + (1 - p_e) * atom_fidelity(
        update_weights(ens, 1.0, tau, MeasurementOutcome.GROUND).as_dict()
    )
    assert averaged == pytest.approx(atom_fidelity(ens.as_dict()), abs=1e-12)
