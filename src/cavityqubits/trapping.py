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
dwell time theta = gamma tau, but only candidate atoms: a bound g(z) >=
sin^2 on an atom's normal draw z thins the atoms (Lewis and Shedler, Naval
Res. Logist. Q. 26, 403 (1979)), so a trial skips a geometric count of
atoms that cannot succeed and draws the next candidate's z from phi(z)
g(z). All trials share one renewal stream of proposals, drawn in blocks.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

# Most proposals `monte_carlo_escape` draws at once, into buffers that each
# thread keeps from call to call: allocated anew in every call, they cost
# the default fig3 grid 11500 page faults, 12 % of its time on a 2-vCPU host.
BLOCK = 2**14
_buffers = threading.local()


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


def thinning(spec: TrapSpec) -> tuple[float, float, float, float, float, float]:
    """`monte_carlo_escape`'s draw and bound: (theta_center, theta_sigma,
    sqrt_n, alpha, beta, q). An atom's theta = z * theta_sigma +
    theta_center, z normal and truncated to theta > 0, has the phase theta *
    sqrt_n. As |sin phi| <= |phi - 2 pi m| <= c |z| + slack, c = sqrt_n *
    theta_sigma and the slack covering the rounding of 2 pi m and of phi and
    the error of `np.sin`, sin^2 phi <= g(z) = min(1, alpha + beta z^2), as
    2 |z| <= 1 + z^2. An atom is a candidate with probability q = E[g(z) |
    theta > 0]; if alpha + beta >= 1, all are: (alpha, beta, q) = (1, 0, 1)."""
    center, sqrt_n = 2.0 * math.pi * spec.rabi_cycles, math.sqrt(spec.photon_number)
    theta_center = center / sqrt_n
    theta_sigma, slack = spec.sigma_rel * theta_center, 1e-9 + 16.0 * math.ulp(center)
    c = sqrt_n * theta_sigma
    alpha, beta = slack * (slack + c), c * (c + slack)
    if alpha + beta >= 1.0:
        return theta_center, theta_sigma, sqrt_n, 1.0, 0.0, 1.0
    # g = alpha + beta z^2 on (-min(a, z0), z0), whose integral of z^2 phi(z)
    # is [Phi(z) - z phi(z)], and 1 elsewhere on z > -a; all doubled
    a, z0, r2 = 1.0 / spec.sigma_rel, math.sqrt((1.0 - alpha) / beta), math.sqrt(2.0)
    lo = min(a, z0)
    zphi = (z0 * math.exp(-z0 * z0 / 2) + lo * math.exp(-lo * lo / 2)) / math.sqrt(2 * math.pi)
    inner = (alpha + beta) * (math.erf(z0 / r2) + math.erf(lo / r2)) - 2.0 * beta * zphi
    outer = 2.0 * math.erfc(z0 / r2) - min(math.erfc(z0 / r2), math.erfc(a / r2))
    return theta_center, theta_sigma, sqrt_n, alpha, beta, (inner + outer) / math.erfc(-a / r2)


def monte_carlo_escape(spec: TrapSpec, trials: int, rng: np.random.Generator) -> EscapeEstimate:
    """Sample the escape count: each atom draws a fresh dimensionless dwell
    time theta = gamma tau ~ Normal(gamma tau0, gamma sigma) truncated to
    theta > 0, and succeeds with probability sin^2(sqrt(n) theta).

    Only `thinning`'s candidates are drawn, each after a Geometric(q) gap of
    atoms, so the count stays exactly geometric. A proposal z has density
    proportional to phi(z) (alpha + beta z^2): a signed chi_3, sign(x)
    sqrt(x^2 + 2 E), with probability beta / (alpha + beta), else x (x
    normal, E exponential). With u uniform, t = u (alpha + beta z^2) < 1
    with probability min(1, 1 / (alpha + beta z^2)); then a z with theta > 0
    is a candidate, t is uniform on [0, g(z)), and it escapes iff t <
    sin^2(c z), c z = sqrt(n) theta - 2 pi m. The trials share one stream of
    proposals, and trial i's count is the gaps after escape i - 1 up to and
    including escape i. A block of n <= `BLOCK` proposals draws n normals,
    (beta > 0) n exponentials and n uniforms for the chi_3 share, n uniforms
    u, then one gap per candidate (q < 1); n is the proposals per escape so
    far times the trials left, with a margin, doubled while none escaped.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if spec.sigma == 0:
        raise ValueError("sigma = 0 never escapes; the mean is infinite")
    theta_center, theta_sigma, sqrt_n, alpha, beta, q = thinning(spec)
    share, c, edge = beta / (alpha + beta), sqrt_n * theta_sigma, -theta_center / theta_sigma
    counts = np.empty(trials, dtype=np.int64)
    if getattr(_buffers, "block", None) != BLOCK:  # three float and two bool arrays
        _buffers.block, _buffers.arrays = BLOCK, [np.empty(BLOCK, d) for d in "ddd??"]
    zs, ts, ss, oks, hits = _buffers.arrays
    # the stream's atoms so far and up to its last escape
    n, done, drawn, atoms, last = min(BLOCK, trials), 0, 0, 0, 0
    while done < trials:
        z, t, s, ok, hit = zs[:n], ts[:n], ss[:n], oks[:n], hits[:n]
        rng.standard_normal(n, out=z)
        if beta:  # z = sign(x) sqrt(x^2 + 2 E b), b = 1 for the chi_3 share, else 0
            rng.standard_exponential(n, out=t)
            t *= np.multiply(np.less(rng.random(n, out=s), share, out=s), 2.0, out=s)
            t += np.square(z, out=s)
            np.copysign(np.sqrt(t, out=t), z, out=z)
        np.add(np.multiply(np.square(z, out=s), beta, out=s), alpha, out=s)
        np.less(np.multiply(rng.random(n, out=t), s, out=t), 1.0, out=ok)
        ok &= np.greater(z, edge, out=hit)
        np.square(np.sin(np.multiply(z, c, out=z), out=z), out=z)
        cand = np.flatnonzero(ok)
        # the block's atoms up to and including each candidate, then each escape
        gaps = rng.geometric(q, cand.size) if q < 1.0 else np.ones(cand.size, np.int64)
        marks = np.cumsum(gaps, out=gaps)
        ends = marks[np.flatnonzero(np.less(t, z, out=hit)[cand])[: trials - done]]
        if ends.size:
            np.subtract(ends[1:], ends[:-1], out=counts[done + 1:done + ends.size])
            counts[done], last = ends[0] + atoms - last, int(ends[-1]) + atoms
        atoms += int(marks[-1]) if marks.size else 0
        done, drawn, left = done + ends.size, drawn + n, trials - done - ends.size
        n = min(BLOCK, math.ceil((left + 2 * math.sqrt(left)) * drawn / done) if done else 2 * n)
    stderr = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return EscapeEstimate(mean=float(counts.mean()), stderr=stderr, trials=trials)
