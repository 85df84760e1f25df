import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from cavityqubits.config import split_rng
from cavityqubits.trapping import (
    TrapSpec,
    escape_mean_rate,
    mean_atoms_rel,
    mean_success_prob,
    monte_carlo_escape,
)


def gaussian_success_quadrature(n: int, sigma: float, gamma: float = 1.0) -> float:
    """Independent oracle: integrate Normal(tau0, sigma) * sin^2(sqrt(n)
    gamma tau) with tau0 on a trapping point. The untruncated Gaussian has
    no mass beyond ~10 sigma at the tolerances used here."""
    tau0 = 2 * math.pi / (gamma * math.sqrt(n))

    def integrand(tau):
        weight = math.exp(-((tau - tau0) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
        return weight * math.sin(math.sqrt(n) * gamma * tau) ** 2

    value, err = integrate.quad(
        integrand, tau0 - 12 * sigma, tau0 + 12 * sigma, limit=2000, epsabs=1e-13, epsrel=1e-13
    )
    assert err < 1e-10
    return value


# --- closed forms -------------------------------------------------------------


def test_mean_success_prob_without_jitter_is_zero():
    assert mean_success_prob(1, 0.0) == 0.0


def test_mean_success_prob_saturates_at_half():
    assert mean_success_prob(1, 100.0) == pytest.approx(0.5, abs=1e-15)


def test_mean_success_prob_closed_form_value():
    assert mean_success_prob(1, 0.5, 1.0) == pytest.approx(
        0.5 * (1 - math.exp(-0.5)), abs=1e-15
    )


def test_mean_success_prob_matches_quadrature():
    assert mean_success_prob(1, 0.5) == pytest.approx(
        gaussian_success_quadrature(1, 0.5), abs=1e-10
    )


def test_mean_success_prob_monotone_in_sigma():
    values = [mean_success_prob(2, s) for s in np.linspace(0.01, 2.0, 40)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_mean_atoms_rel_reference_point():
    # one Rabi cycle, six percent relative jitter: about eight atoms
    value = mean_atoms_rel(1, 0.06)
    assert value == pytest.approx(8.0835, abs=1e-3)
    assert 7.8 <= value <= 8.4


def test_mean_atoms_rel_limit_two():
    assert mean_atoms_rel(3, 1.0) == pytest.approx(2.0, abs=1e-6)
    assert mean_atoms_rel(1, 0.0) == math.inf


def test_mean_atoms_rel_monotone_and_bounded():
    assert mean_atoms_rel(2, 0.06) < mean_atoms_rel(1, 0.06)
    # strict decrease on a grid where the exponential is still resolvable;
    # beyond that the value saturates at exactly 2.0 in float64
    grid = np.linspace(0.01, 0.2, 30)
    for m in (1, 2, 3):
        values = [mean_atoms_rel(m, s) for s in grid]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(v > 2.0 for v in values)
    assert mean_atoms_rel(3, 5.0) >= 2.0


@settings(max_examples=100)
@given(
    st.integers(1, 40),
    st.integers(1, 5),
    st.floats(0.001, 2.0),
    st.floats(0.1, 5.0),
)
def test_relative_form_independent_of_photon_number(n, m, sigma_rel, gamma):
    # substituting sigma = sigma_rel * tau_center makes n and gamma cancel
    sigma = sigma_rel * 2 * math.pi * m / (gamma * math.sqrt(n))
    assert mean_atoms_rel(m, sigma_rel) == pytest.approx(
        1 / mean_success_prob(n, sigma, gamma), rel=1e-12
    )


@pytest.mark.parametrize("n", [1, 4, 9])
@pytest.mark.parametrize("gamma_sigma", [0.01, 0.1, 0.5, 1.0, 2.0])
def test_quadrature_identity(n, gamma_sigma):
    sigma = gamma_sigma / math.sqrt(n)  # keep the dimensionless spread fixed
    assert gaussian_success_quadrature(n, sigma) == pytest.approx(
        mean_success_prob(n, sigma), abs=1e-9
    )


# --- TrapSpec ------------------------------------------------------------------


def test_trapspec_center_sits_on_trapping_point():
    spec = TrapSpec(photon_number=3, rabi_cycles=2, sigma_rel=0.1)
    phase = math.sqrt(3) * spec.gamma * spec.tau_center
    assert math.sin(phase) ** 2 < 1e-28
    assert spec.tau_center == pytest.approx(4 * math.pi / math.sqrt(3))


def test_trapspec_sigma_conversions():
    rel = TrapSpec(photon_number=4, rabi_cycles=1, sigma_rel=0.06)
    assert rel.sigma == 0.06 * rel.tau_center
    assert rel.sigma == pytest.approx(0.06 * math.pi)


def test_trapspec_validation():
    with pytest.raises(TypeError, match="sigma_rel"):
        TrapSpec(photon_number=1, rabi_cycles=1)
    with pytest.raises(ValueError, match="sigma_rel must be non-negative"):
        TrapSpec(photon_number=1, rabi_cycles=1, sigma_rel=-0.1)
    with pytest.raises(ValueError, match="gamma must be positive"):
        TrapSpec(photon_number=1, rabi_cycles=1, sigma_rel=0.1, gamma=0.0)
    with pytest.raises(ValueError):
        TrapSpec(photon_number=0, rabi_cycles=1, sigma_rel=0.1)
    with pytest.raises(ValueError):
        TrapSpec(photon_number=1, rabi_cycles=0, sigma_rel=0.1)


# --- Monte Carlo -----------------------------------------------------------------


def test_monte_carlo_agrees_with_closed_form():
    spec = TrapSpec(photon_number=4, rabi_cycles=1, sigma_rel=0.06)
    estimate = monte_carlo_escape(spec, 20_000, split_rng(101))
    assert abs(estimate.mean - mean_atoms_rel(1, 0.06)) < 3 * estimate.stderr


def test_monte_carlo_near_uniform_limit():
    spec = TrapSpec(photon_number=1, rabi_cycles=1, sigma_rel=0.5)
    estimate = monte_carlo_escape(spec, 20_000, split_rng(7))
    assert abs(estimate.mean - mean_atoms_rel(1, 0.5)) < 3 * estimate.stderr
    assert estimate.mean == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("trials", [1, 5, 50])
@pytest.mark.parametrize("mu", [2.0, 7.5, 253.0])
def test_escape_mean_rate_bounds_the_exact_tails(mu, trials):
    # the total of `trials` geometric counts is trials + a negative binomial
    failures = stats.nbinom(trials, 1.0 / mu)
    assert escape_mean_rate(mu, mu) == 0.0
    for factor in (0.3, 0.6, 0.9, 1.2, 2.0, 4.0):
        total = math.ceil(factor * mu * trials)
        if total < trials:
            continue
        a = total / trials
        if a < mu:
            tail = failures.cdf(total - trials)  # P(mean <= a)
        else:
            tail = failures.sf(total - trials - 1)  # P(mean >= a)
        assert tail <= math.exp(-trials * escape_mean_rate(mu, a)) * (1 + 1e-9)
    assert escape_mean_rate(mu, 0.5) == math.inf  # below any count
    assert escape_mean_rate(mu, math.nan) == math.inf
    assert escape_mean_rate(math.inf, mu) == math.inf  # never escapes


def test_monte_carlo_seeded_determinism():
    spec = TrapSpec(photon_number=2, rabi_cycles=1, sigma_rel=0.1)
    a = monte_carlo_escape(spec, 5000, split_rng(55))
    b = monte_carlo_escape(spec, 5000, split_rng(55))
    assert a == b


def test_monte_carlo_rejects_degenerate_inputs():
    spec = TrapSpec(photon_number=1, rabi_cycles=1, sigma_rel=0.0)
    with pytest.raises(ValueError, match="never escapes"):
        monte_carlo_escape(spec, 10, split_rng(0))
    with pytest.raises(ValueError, match="trials"):
        monte_carlo_escape(
            TrapSpec(photon_number=1, rabi_cycles=1, sigma_rel=0.1), 0, split_rng(0)
        )


def test_truncation_bias_is_negligible_in_range():
    # resampling tau <= 0 biases the success probability relative to the
    # untruncated closed form; quantify it at the edge of the jitter range.
    # At sigma_rel = 0.2 the bias is ~2.3e-7 relative (P(tau<=0) ~ 2.9e-7);
    # at sigma_rel <= 0.15 it drops below 1e-8.
    for sigma_rel, bound in ((0.2, 2.5e-7), (0.15, 1e-8)):
        spec = TrapSpec(photon_number=1, rabi_cycles=1, sigma_rel=sigma_rel)
        tau0, sigma = spec.tau_center, spec.sigma

        def integrand(tau):
            w = math.exp(-((tau - tau0) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
            return w * math.sin(tau) ** 2

        positive, _ = integrate.quad(integrand, 0, np.inf, limit=800)
        mass_positive, _ = integrate.quad(
            lambda tau: math.exp(-((tau - tau0) ** 2) / (2 * sigma**2))
            / (sigma * math.sqrt(2 * math.pi)),
            0,
            np.inf,
            limit=800,
        )
        truncated = positive / mass_positive
        closed = mean_success_prob(1, sigma)
        assert abs(truncated - closed) / closed < bound
