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


def monte_carlo_escape(spec: TrapSpec, trials: int, rng: np.random.Generator) -> EscapeEstimate:
    """Sample the escape count: each atom draws a fresh tau ~ Normal(tau0,
    sigma) truncated to tau > 0 and succeeds with probability
    sin^2(sqrt(n) gamma tau). Runs all trials in parallel rounds."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if spec.sigma == 0:
        raise ValueError("sigma = 0 never escapes; the mean is infinite")
    counts = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials)
    tau_center, sigma = spec.tau_center, spec.sigma
    sqrt_n_gamma = math.sqrt(spec.photon_number) * spec.gamma
    # per-round buffers, reused: at fig3's 20000 trials a fresh array is
    # above glibc's mmap threshold, so every round would map and unmap it
    uniforms = np.empty(trials)
    hits = np.empty(trials, dtype=bool)
    atoms = 0
    while active.size:
        atoms += 1
        n = active.size
        taus = rng.normal(tau_center, sigma, size=n)
        while taus.min() <= 0:
            bad = taus <= 0
            taus[bad] = rng.normal(tau_center, sigma, size=int(bad.sum()))
        p = np.multiply(taus, sqrt_n_gamma, out=taus)
        np.square(np.sin(p, out=p), out=p)
        success = np.less(rng.random(n, out=uniforms[:n]), p, out=hits[:n])
        counts[active[success]] = atoms
        active = active[~success]
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return EscapeEstimate(mean=mean, stderr=stderr, trials=trials)
