import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from cavityqubits import trapping
from cavityqubits.config import split_rng
from cavityqubits.trapping import (
    EscapeEstimate,
    TrapSpec,
    escape_mean_rate,
    mean_atoms_rel,
    mean_success_prob,
    monte_carlo_escape,
    thinning,
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


@pytest.mark.parametrize("rabi_cycles", [1, 3, 10**9])
@pytest.mark.parametrize("photon_number", [1, 4])
@pytest.mark.parametrize("gamma", [1.0, 0.37])
def test_sin_filter_changes_no_outcome(rabi_cycles, photon_number, gamma):
    # the thinning skips every atom that is not a candidate, without its
    # sin^2; that changes no outcome because g bounds the sampler's sin^2 of
    # the phase's deviation c z from 2 pi m. Thinned cells with c = 2 pi m
    # sigma_rel from small to just below 1, z densest near 0, where g is
    # smallest
    tail = np.geomspace(1e-12, 13.0, 400_001)
    z = np.concatenate((-tail, [0.0], tail))
    for c in (0.02, 0.2, 0.999):
        spec = TrapSpec(photon_number, rabi_cycles, c / (2 * math.pi * rabi_cycles), gamma)
        theta_center, theta_sigma, sqrt_n, alpha, beta, q = thinning(spec)
        assert beta > 0 and q < 1  # thinned
        # the truncation edge, where theta crosses 0, and its neighbours
        edge = -theta_center / theta_sigma
        near = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, -np.inf)])
        for zs in (z, near):
            kept = zs > edge  # the sampler's float expressions
            sin2 = np.square(np.sin(np.multiply(zs, sqrt_n * theta_sigma)))
            g = np.minimum(1.0, np.square(zs) * beta + alpha)
            assert np.all(g[kept] >= sin2[kept])
        assert list(near > edge) == [True, False, False]


def candidate_share_by_quadrature(spec: TrapSpec) -> float:
    """E[min(1, alpha + beta z^2) | theta > 0] for `thinning`'s alpha and
    beta, by quadrature over z > -1/sigma_rel, split where g reaches 1."""
    *_, alpha, beta, _ = thinning(spec)
    a = 1.0 / spec.sigma_rel
    z0 = math.sqrt((1.0 - alpha) / beta) if beta else 0.0

    def density(z):
        return math.exp(-z * z / 2) / math.sqrt(2 * math.pi)

    def integral(f, lo, hi):
        value, err = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)
        assert err <= 1e-13 * abs(value)
        return value

    # nothing beyond 40 of either edge counts at double precision
    edges = [max(-a, -z0 - 40.0), *(e for e in (-z0, z0) if e > -a), z0 + 40.0]
    candidates = sum(
        integral(lambda z: min(1.0, alpha + beta * z * z) * density(z), lo, hi)
        for lo, hi in zip(edges, edges[1:]) if hi > lo
    )
    return candidates / integral(density, max(-a, -40.0), 40.0)


@pytest.mark.parametrize(
    "rabi_cycles, sigma_rel",
    [
        (1, 0.01),
        (1, 0.03),
        (3, 0.05),
        # c just below 1: g reaches 1 near |z| = 1, and at m = 1 the
        # truncation drops 1.7e-10 of the mass, more than the tolerance
        (1, (1 - 2e-6) / (2 * math.pi)),
        (2, (1 - 2e-6) / (4 * math.pi)),
        (10**9, 1e-12),  # a slack of 1.5e-5 (16 ulp of 2 pi m) next to c = 6.3e-3
        (1, 0.5),  # g = 1: every atom is a candidate
    ],
)
@pytest.mark.parametrize("photon_number", [1, 4])
def test_candidate_share_matches_quadrature(rabi_cycles, sigma_rel, photon_number):
    spec = TrapSpec(photon_number, rabi_cycles, sigma_rel)
    q = thinning(spec)[-1]
    assert q == pytest.approx(candidate_share_by_quadrature(spec), rel=1e-12, abs=0.0)


class CountingDraws:
    """Forwards to a numpy Generator and records the normals drawn from it,
    one per proposal, by the call that draws them, one per block."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.sizes = []

    @property
    def normals(self) -> int:
        return sum(self.sizes)

    @property
    def rounds(self) -> int:
        return len(self.sizes)

    def standard_normal(self, size, *args, **kwargs):
        self.sizes.append(size)
        return self.rng.standard_normal(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def assert_geometric_law(trials: int, seeds: int):
    # the pooled mean within the Chernoff bound that `check` puts on
    # a_mean_mc, the pooled variance within the normal bound of the sample
    # variance of geometric counts, both at 1e-6 false-alarm probability
    pooled = trials * seeds
    for sigma_rel in (0.01, 0.03):
        spec = TrapSpec(photon_number=1, rabi_cycles=1, sigma_rel=sigma_rel)
        mu = mean_atoms_rel(1, sigma_rel)
        total = squares = proposals = 0.0
        for seed in range(seeds):
            draws = CountingDraws(split_rng(404, seed))
            estimate = monte_carlo_escape(spec, trials, draws)
            total += estimate.mean * trials
            squares += estimate.stderr**2 * trials * (trials - 1) + trials * estimate.mean**2
            proposals += draws.normals
        mean = total / pooled
        variance = (squares - pooled * mean**2) / (pooled - 1)
        assert pooled * escape_mean_rate(mu, mean) <= math.log(2 / 1e-6)
        # the geometric law's variance mu (mu - 1), excess kurtosis 6 + p^2 / (1 - p)
        p = 1 / mu
        spread = mu * (mu - 1) * math.sqrt((8 + p * p / (1 - p)) / pooled)
        assert abs(variance - mu * (mu - 1)) <= stats.norm.isf(0.5e-6) * spread
        # far fewer proposals than atoms: about q mu per trial, against mu
        assert proposals < 1.1 * thinning(spec)[-1] * mu * pooled < 0.1 * mean * pooled


def test_thinned_counts_follow_the_geometric_law():
    # 10^6 trials each of mean mu = 254 and 29
    assert_geometric_law(trials=20_000, seeds=50)


def test_a_slack_near_the_jitter_keeps_the_bound_tight():
    # at m = 10^11 the slack, 16 ulp of 2 pi m = 2e-3, is a fifth of c =
    # 0.01 (mean escape count 10^4): alpha + beta = (c + slack)^2 stays near
    # c^2, so 20 trials take a few blocks of about 20 x 1.5 proposals, not
    # about 20 x 10^4
    spec = TrapSpec(1, 10**11, 0.01 / (2 * math.pi * 10**11))
    *_, alpha, beta, _ = thinning(spec)
    assert mean_atoms_rel(10**11, spec.sigma_rel) == pytest.approx(1e4, rel=1e-3)
    assert alpha + beta < 1.5e-4
    draws = CountingDraws(split_rng(11))
    monte_carlo_escape(spec, 20, draws)
    assert draws.rounds < 50


def test_a_lone_trial_takes_a_handful_of_blocks():
    # mean escape count 254, about one proposal per escape: the first block
    # holds one proposal, and a block doubles while nothing has escaped
    spec = TrapSpec(1, 1, 0.01)
    assert mean_atoms_rel(1, 0.01) == pytest.approx(254.3, abs=0.1)
    for seed in range(200):
        draws = CountingDraws(split_rng(12, seed))
        monte_carlo_escape(spec, 1, draws)
        assert draws.rounds <= 3 and draws.sizes[0] == 1


def per_atom_stream(spec: TrapSpec, trials: int, rng, sizes) -> EscapeEstimate:
    """`monte_carlo_escape` atom by atom, drawing what it draws in blocks of
    `sizes` proposals: per block of n, n normals x, (beta > 0) n
    exponentials E and n uniforms b, n uniforms u, then (q < 1) one
    Geometric(q) gap per candidate, else gaps of one. A proposal is z =
    sign(x) sqrt(x^2 + 2 E) if b < beta / (alpha + beta), else x; with t = u
    (alpha + beta z^2), it is a candidate iff t < 1 and z > -theta_center /
    theta_sigma, and it escapes iff also t < sin^2(c z). A trial's count is
    the gaps since the last escape, and each block but the last ends before
    the last trial escapes."""
    theta_center, theta_sigma, sqrt_n, alpha, beta, q = thinning(spec)
    share, c, edge = beta / (alpha + beta), sqrt_n * theta_sigma, -theta_center / theta_sigma
    counts, atoms = [], 0
    for n in sizes:
        assert len(counts) < trials
        x = rng.standard_normal(n)
        e, b = (rng.standard_exponential(n), rng.random(n)) if beta else ([0.0] * n, [1.0] * n)
        u = rng.random(n)
        z = [math.copysign(math.sqrt(xi * xi + 2 * ei), xi) if bi < share else xi
             for xi, ei, bi in zip(x.tolist(), e, b)]
        sin2 = np.square(np.sin(np.multiply(z, c))).tolist()
        escapes = [
            t < s2 for zi, ui, s2 in zip(z, u, sin2)
            if (t := ui * (zi * zi * beta + alpha)) < 1.0 and zi > edge
        ]
        gaps = rng.geometric(q, len(escapes)).tolist() if q < 1.0 else [1] * len(escapes)
        for gap, escaped in zip(gaps, escapes):
            atoms += gap
            if escaped and len(counts) < trials:
                counts.append(atoms)
                atoms = 0
    assert len(counts) == trials
    counts = np.array(counts)
    stderr = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return EscapeEstimate(mean=float(counts.mean()), stderr=stderr, trials=trials)


def assert_per_atom_stream(spec: TrapSpec, trials: int, seed: tuple):
    draws = CountingDraws(split_rng(*seed))
    assert monte_carlo_escape(spec, trials, draws) == (
        per_atom_stream(spec, trials, split_rng(*seed), draws.sizes)
    )


@pytest.mark.parametrize("rabi_cycles", [1, 3, 10**9])
@pytest.mark.parametrize("photon_number", [1, 4])
@pytest.mark.parametrize("gamma", [1.0, 0.37])
def test_every_atom_is_a_candidate_when_the_bound_is_one(rabi_cycles, photon_number, gamma):
    # c >= 1 makes g = 1: no gaps, and the sampler is the plain one, draw
    # for draw; sigma_rel = 0.5 truncates about 2 % of the draws
    for case, (c, trials) in enumerate(((1.0, 1), (1.0, 2000), (math.pi, 2000))):
        spec = TrapSpec(photon_number, rabi_cycles, c / (2 * math.pi * rabi_cycles), gamma)
        assert thinning(spec)[3:] == (1.0, 0.0, 1.0)
        assert_per_atom_stream(spec, trials, (rabi_cycles, case))


THINNED_CELLS = [(1, 0.03), (3, 0.05), (1, 0.15), (10**9, 0.03e-9)]


@pytest.mark.parametrize("rabi_cycles, sigma_rel", THINNED_CELLS)
def test_thinned_cells_are_the_per_atom_stream(rabi_cycles, sigma_rel):
    # candidates after geometric gaps, carried across blocks
    spec = TrapSpec(1, rabi_cycles, sigma_rel)
    assert thinning(spec)[-1] < 1
    for case, trials in enumerate((1, 2000)):
        assert_per_atom_stream(spec, trials, (rabi_cycles, case))


def test_blocks_of_seven_keep_the_law_and_the_stream(monkeypatch):
    # most trials' atoms now span blocks, so a count carried wrongly from
    # one block to the next shows, in the stream and in the law
    monkeypatch.setattr(trapping, "BLOCK", 7)
    for rabi_cycles, sigma_rel in [*THINNED_CELLS, (1, 0.5)]:
        spec = TrapSpec(1, rabi_cycles, sigma_rel)
        draws = CountingDraws(split_rng(rabi_cycles, 7))
        monte_carlo_escape(spec, 300, draws)
        assert max(draws.sizes) == 7 and draws.rounds > 40
        assert_per_atom_stream(spec, 300, (rabi_cycles, 7))
    assert_geometric_law(trials=2000, seeds=50)


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
