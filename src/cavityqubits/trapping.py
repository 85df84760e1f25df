"""Escape statistics for trapping points under interaction-time jitter.

A fixed interaction time with gamma tau an integer multiple of
pi / sqrt(n) never excites an atom even though photons remain. With a
Gaussian spread of interaction times the per-atom success probability
averages to pbar(n, sigma) = (1 - exp(-2 n gamma^2 sigma^2)) / 2, and the
atoms needed to escape follow a geometric law with mean 1 / pbar.

Jitter is parametrized relative to the dwell time tau0 = 2 pi m / (gamma
sqrt(n)) -- m full Rabi oscillations of the transfer amplitude, which is
the trapping point with index 2m. With sigma = sigma_rel * tau0 the mean
escape count collapses onto a single n-independent curve,
2 / (1 - exp(-8 pi^2 m^2 sigma_rel^2)).

`monte_carlo_escape` samples that law exactly. It draws the dimensionless
dwell time theta = gamma tau, takes the Rabi phase as sqrt(n) theta, as
`protocol` does, and hands late rounds blocks of atoms per trial. It
computes sin^2 only for draws whose uniform the bound
sin^2 phi <= (phi - 2 pi m)^2 leaves undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrapSpec:
    """Trapping-point scenario: `photon_number` photons, dwell time centered
    on `rabi_cycles` full Rabi oscillations, Gaussian jitter `sigma_rel`
    relative to that dwell time."""

    photon_number: int
    rabi_cycles: int
    sigma_rel: float
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.photon_number < 1:
            raise ValueError(f"photon_number must be >= 1, got {self.photon_number}")
        if self.rabi_cycles < 1:
            raise ValueError(f"rabi_cycles must be >= 1, got {self.rabi_cycles}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.sigma_rel < 0:
            raise ValueError(f"sigma_rel must be non-negative, got {self.sigma_rel}")

    @property
    def tau_center(self) -> float:
        return 2.0 * math.pi * self.rabi_cycles / (self.gamma * math.sqrt(self.photon_number))

    @property
    def sigma(self) -> float:
        """Absolute jitter of the dwell time."""
        return self.sigma_rel * self.tau_center


def mean_success_prob(n: int, sigma: float, gamma: float = 1.0) -> float:
    """Gaussian-averaged transfer probability at a trapping point.

    E[sin^2(sqrt(n) gamma tau)] over tau ~ Normal(tau0, sigma) with tau0 any
    integer multiple of the half-period pi / (sqrt(n) gamma); the center
    drops out and the closed form is (1 - exp(-2 n gamma^2 sigma^2)) / 2.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    return 0.5 * (1.0 - math.exp(-2.0 * n * gamma**2 * sigma**2))


def mean_atoms_rel(rabi_cycles: int, sigma_rel: float) -> float:
    """Mean escape count in relative-jitter form; independent of the photon
    number. Decreases toward the floor of 2 (the uniform-phase value) as
    either argument grows."""
    if rabi_cycles < 1:
        raise ValueError(f"rabi_cycles must be >= 1, got {rabi_cycles}")
    if sigma_rel < 0:
        raise ValueError(f"sigma_rel must be non-negative, got {sigma_rel}")
    if sigma_rel == 0:
        return math.inf
    return 2.0 / (1.0 - math.exp(-8.0 * math.pi**2 * rabi_cycles**2 * sigma_rel**2))


def escape_mean_rate(mean_atoms: float, sample_mean: float) -> float:
    """Chernoff exponent of the mean of geometric escape counts: over T
    trials with mean `mean_atoms`, a sample mean at or beyond `sample_mean`
    (on its side of the mean) has probability at most exp(-T * rate), for
    any T >= 1. The rate is the Kullback-Leibler divergence of the geometric
    law with mean `sample_mean` from the one with mean `mean_atoms`; it is
    inf for a sample mean no set of counts >= 1 can give, and for any
    sample mean when escape never happens (an infinite mean)."""
    mu, a = mean_atoms, sample_mean
    if not mu >= 1.0:
        raise ValueError(f"mean escape count must be >= 1, got {mu}")
    if not 1.0 <= a < math.inf or mu == math.inf or (mu == 1.0 and a != 1.0):  # NaN too
        return math.inf
    rate = math.log(mu / a)
    if a > 1.0:
        rate += (a - 1.0) * math.log((a - 1.0) * mu / (a * (mu - 1.0)))
    return rate


@dataclass(frozen=True)
class EscapeEstimate:
    mean: float
    stderr: float
    trials: int


# Fewest atoms a Monte Carlo round may draw when it needs them: a round
# costs about 30 us of numpy calls however few atoms it draws, so a handful
# of live trials still take blocks of atoms.
MIN_ROUND_ATOMS = 1024


def monte_carlo_escape(spec: TrapSpec, trials: int, rng: np.random.Generator) -> EscapeEstimate:
    """Sample the escape count: each atom draws a fresh dimensionless dwell
    time theta = gamma tau ~ Normal(gamma tau0, gamma sigma) truncated to
    theta > 0, and succeeds with probability sin^2(sqrt(n) theta).

    The trials run together in rounds. Round r gives each of its n live
    trials k_r consecutive atoms, in trial order: n k_r normals, then the
    redraws of any theta <= 0, then n k_r uniforms. A trial's count is the
    index of its first success in its block; the draws after it go unused.
    k_r is fixed from the rounds before: half the draws so far per escape
    so far, capped so that n k_r <= max(trials, MIN_ROUND_ATOMS). Each
    trial's atoms are i.i.d. whatever k_r is, so its count is exactly
    geometric.

    Since |sin phi| <= |phi - 2 pi m|, a draw whose uniform is at least
    (|phi - 2 pi m| + slack)^2 cannot succeed, and sin^2 is computed only
    for the others. The slack covers the rounding of 2 pi m and of the bound
    and the error of `np.sin`, so skipping those draws changes no outcome.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if spec.sigma == 0:
        raise ValueError("sigma = 0 never escapes; the mean is infinite")
    # the phase's trapping point 2 pi m, and gamma tau0 = 2 pi m / sqrt(n):
    # gamma drops out of the dimensionless draw
    center = 2.0 * math.pi * spec.rabi_cycles
    sqrt_n = math.sqrt(spec.photon_number)
    theta_center = center / sqrt_n
    theta_sigma = spec.sigma_rel * theta_center
    slack = 1e-9 + 16.0 * float(np.spacing(center))
    capacity = max(trials, MIN_ROUND_ATOMS)
    counts = np.empty(trials, dtype=np.int64)
    live = np.arange(trials, dtype=np.min_scalar_type(trials))  # smallest type for the indices
    # per-round buffers, reused: at fig3's 20000 trials a fresh array is
    # above glibc's mmap threshold, so every round would map and unmap it
    phases = np.empty(capacity)
    uniforms = np.empty(capacity)
    bounds = np.empty(capacity)
    below = np.empty(capacity, dtype=bool)
    atoms = drawn = 0  # atoms each live trial has passed; draws so far
    while live.size:
        n = live.size
        # draws per escape so far estimate the mean escape count
        k = min(capacity // n, max(1, drawn // (2 * max(trials - n, 1))))
        size = n * k
        phase = phases[:size]
        rng.standard_normal(size, out=phase)
        phase *= theta_sigma
        phase += theta_center
        while phase.min() <= 0:
            bad = phase <= 0
            phase[bad] = rng.normal(theta_center, theta_sigma, size=int(bad.sum()))
        u = rng.random(size, out=uniforms[:size])
        phase *= sqrt_n
        bound = np.subtract(phase, center, out=bounds[:size])
        np.abs(bound, out=bound)
        bound += slack
        np.square(bound, out=bound)
        candidates = np.less(u, bound, out=below[:size]).nonzero()[0]
        # the bounds, then the phases, are free again: the candidates' sin^2
        # and uniforms go there (mode="clip" takes straight into `out`; the
        # indices are in range)
        nc = candidates.size
        p = np.take(phase, candidates, out=bounds[:nc], mode="clip")
        np.square(np.sin(p, out=p), out=p)
        success = np.less(np.take(u, candidates, out=phases[:nc], mode="clip"), p, out=below[:nc])
        hit = candidates[success]
        offset = 0
        if k > 1:  # each trial's first success in its block
            hit, offset = np.divmod(hit, k)
            first = np.empty(hit.size, dtype=bool)
            first[:1] = True
            np.not_equal(hit[1:], hit[:-1], out=first[1:])
            hit, offset = hit[first], offset[first]
        counts[live[hit]] = atoms + 1 + offset
        keep = below[:n]
        keep.fill(True)
        keep[hit] = False
        live = live[keep]
        atoms += k
        drawn += size
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return EscapeEstimate(mean=mean, stderr=stderr, trials=trials)
