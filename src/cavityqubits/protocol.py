"""Ensemble-level execution of the qubit-transfer schemes.

The cavity is described classically as a mixture over total photon number
n with weights p_n, plus the count m of qubits already moved onto atoms.
One atom pass with interaction time tau excites the atom with probability
sum_n p_n sin^2(sqrt(n - m) gamma tau); the measured energy then updates
the weights Bayes-style. Within a fixed-n branch every term shares one
Rabi frequency, so the weight dynamics are independent of the branch's
internal state -- which is why this module never touches a state vector.
`fockspace` provides the brute-force cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Mapping, Union

import numpy as np

from . import cloning
from .cloning import WEIGHT_TOL

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class MeasurementOutcome(Enum):
    GROUND = "ground"
    EXCITED = "excited"


class StopReason(Enum):
    CUTOFF = "cutoff-reached"
    VACUUM_CERTAIN = "vacuum-certain"
    ATOM_BUDGET = "atom-budget-exhausted"


@dataclass(frozen=True)
class WeightedEnsemble:
    """Mixture over total photon number, plus the transferred-qubit count.

    `photon_numbers` and `weights` are aligned arrays; weights sum to 1 and
    vanish for branches with fewer photons than qubits already transferred
    (those branches are impossible).
    """

    photon_numbers: np.ndarray
    weights: np.ndarray
    transferred: int = 0

    def __post_init__(self) -> None:
        ns = np.asarray(self.photon_numbers, dtype=int)
        ws = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "photon_numbers", ns)
        object.__setattr__(self, "weights", ws)
        if ns.ndim != 1 or ns.shape != ws.shape:
            raise ValueError("photon_numbers and weights must be aligned 1-d arrays")
        if len(set(ns.tolist())) != len(ns):  # np.unique would import numpy.ma
            raise ValueError("duplicate photon-number branches")
        if np.any(ns < 0):
            raise ValueError("photon numbers must be non-negative")
        _check_weights(ns, ws, self.transferred)

    @classmethod
    def from_weights(cls, mapping: Mapping[int, float], transferred: int = 0) -> "WeightedEnsemble":
        ns = np.array(sorted(mapping), dtype=int)
        ws = np.array([mapping[n] for n in ns], dtype=float)
        return cls(ns, ws, transferred)

    def as_dict(self) -> dict[int, float]:
        return {int(n): float(w) for n, w in zip(self.photon_numbers, self.weights)}

    def remaining_photons(self) -> np.ndarray:
        """Photons left per branch, floored at 0 for dead (zero-weight)
        branches so downstream sqrt stays finite."""
        return np.maximum(self.photon_numbers - self.transferred, 0)

    def is_vacuum_certain(self) -> bool:
        """True when a single branch survives and it has no photons left."""
        alive = self.weights > 0
        return alive.sum() == 1 and int(self.photon_numbers[alive][0]) == self.transferred


def _check_weights(ns: np.ndarray, weights: np.ndarray, transferred) -> None:
    """The weight rules of `WeightedEnsemble`, for one (K,) row with its
    transferred count, or for a stack of rows (..., K) with one count per row."""
    transferred = np.asarray(transferred)
    if np.any(transferred < 0):
        raise ValueError("transferred count must be non-negative")
    # written so that a NaN weight or total fails them
    if not np.all(weights >= 0):
        raise ValueError("weights must be non-negative numbers")
    sums = weights.sum(axis=-1)
    off = ~(np.abs(sums - 1.0) <= WEIGHT_TOL)
    if np.any(off):
        raise ValueError(f"weights must sum to 1, got {float(np.ravel(sums)[np.argmax(off)])!r}")
    dead = np.any((ns < transferred[..., None]) & (weights != 0), axis=-1)
    if np.any(dead):
        raise ValueError(
            f"branches with n < transferred={int(np.ravel(transferred)[np.argmax(dead)])} "
            "must carry zero weight"
        )


def _rabi_factors(remaining, gamma: float, tau):
    """sin^2 and cos^2 of each branch's Rabi phase sqrt(remaining) * (gamma * tau):
    the excitation and ground factors of one atom pass. Every use takes them
    from this one phase expression, so p_excite and the weight update see
    the same floats."""
    phase = np.sqrt(remaining) * (gamma * tau)
    return np.sin(phase) ** 2, np.cos(phase) ** 2


def excite_prob(ens: WeightedEnsemble, gamma: float, tau) -> float | np.ndarray:
    """Probability that the next atom leaves the cavity excited.

    Branch n oscillates at sqrt(n - m) gamma, m being the transferred
    count; empty branches (n = m) contribute nothing. `tau` may be an
    array, in which case the curve is returned.
    """
    tau_arr = np.asarray(tau, dtype=float)
    factors = _rabi_factors(ens.remaining_photons()[:, None], gamma, tau_arr.ravel())[0]
    probs = ens.weights @ factors
    if tau_arr.ndim == 0:
        return float(probs[0])
    return probs.reshape(tau_arr.shape)


def update_weights(
    ens: WeightedEnsemble, gamma: float, tau: float, outcome: MeasurementOutcome
) -> WeightedEnsemble:
    """Condition the mixture on one measured outcome.

    Ground multiplies each branch by cos^2, excited by sin^2 of its Rabi
    phase; excited also increments the transferred count, which kills the
    branch that had no photons left (its sin^2 factor is exactly zero).
    """
    sin2, cos2 = _rabi_factors(ens.remaining_photons(), gamma, tau)
    excited = outcome is MeasurementOutcome.EXCITED
    posterior = ens.weights * (sin2 if excited else cos2)
    total = posterior.sum()
    if total <= 0.0:
        raise ValueError(f"cannot condition on zero-probability outcome {outcome.value}")
    return WeightedEnsemble(ens.photon_numbers, posterior / total, ens.transferred + excited)


# --- interaction-time policies -------------------------------------------


@dataclass(frozen=True)
class FixedTau:
    tau: float

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class HalfRabiTau:
    """Half a Rabi period for a known total photon number: the
    deterministic scheme's timing, tau = pi / (2 sqrt(n - m) gamma)."""

    photon_number: int


@dataclass(frozen=True)
class OptimalEachStep:
    """Re-run the excitation-probability maximization before every atom."""


@dataclass(frozen=True)
class JitteredTau:
    """Gaussian interaction time, truncated to tau > 0 by resampling."""

    center: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.center > 0:
            raise ValueError(f"center must be positive, got {self.center}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")


TauPolicy = Union[FixedTau, HalfRabiTau, OptimalEachStep, JitteredTau]


def policy_tau(
    policy: TauPolicy, ens: WeightedEnsemble, gamma: float, rng: np.random.Generator
) -> float:
    """Interaction time for the next atom under the given policy."""
    if isinstance(policy, FixedTau):
        return policy.tau
    if isinstance(policy, HalfRabiTau):
        remaining = policy.photon_number - ens.transferred
        if remaining <= 0:
            raise ValueError("half-Rabi timing undefined once the cavity is empty")
        return math.pi / (2.0 * math.sqrt(remaining) * gamma)
    if isinstance(policy, OptimalEachStep):
        return optimal_tau(ens, gamma)
    if isinstance(policy, JitteredTau):
        if policy.sigma == 0:
            return policy.center
        while True:
            tau = rng.normal(policy.center, policy.sigma)
            if tau > 0:
                return tau
    raise TypeError(f"unknown tau policy {policy!r}")


def step(
    ens: WeightedEnsemble, policy: TauPolicy, gamma: float, rng: np.random.Generator
) -> tuple[MeasurementOutcome, WeightedEnsemble, float, float]:
    """Pass one atom: pick tau, sample the measured outcome, update.

    Returns (outcome, updated ensemble, tau, excitation probability before
    the pass).
    """
    if ens.is_vacuum_certain():
        raise ValueError("cannot step a vacuum-certain ensemble")
    tau = policy_tau(policy, ens, gamma, rng)
    p_e = excite_prob(ens, gamma, tau)
    outcome = MeasurementOutcome.EXCITED if rng.random() < p_e else MeasurementOutcome.GROUND
    return outcome, update_weights(ens, gamma, tau, outcome), tau, p_e


# Points of `optimal_tau`'s scan grid over [0, pi/gamma], tau = 0 included.
TAU_GRID_POINTS = 2000


@lru_cache(maxsize=16)
def _tau_grid(gamma: float) -> np.ndarray:
    """The positive points of `optimal_tau`'s scan grid (read-only)."""
    grid = np.linspace(0.0, math.pi / gamma, TAU_GRID_POINTS)
    grid = grid[grid > 0]
    grid.flags.writeable = False
    return grid


# A row holds one float per grid point, 16 KB, so a full cache is about 4 MB.
@lru_cache(maxsize=256)
def _grid_row(remaining: int, gamma: float) -> np.ndarray:
    """sin^2 of the Rabi phase of a branch with `remaining` photons at every
    point of the scan grid (read-only): one row of excite_prob's table,
    from the same float expression. It does not depend on the weights."""
    row = _rabi_factors(remaining, gamma, _tau_grid(gamma))[0]
    row.flags.writeable = False
    return row


def optimal_tau(ens: WeightedEnsemble, gamma: float) -> float:
    """Interaction time in (0, pi/gamma] maximizing the excitation probability.

    Grid scan of `TAU_GRID_POINTS` points followed by golden-section
    refinement of the best bracket. Ties break toward the smaller tau. Each
    value is the one `excite_prob` returns, bit for bit: the grid's sin^2
    rows are cached per remaining photon count, and the refinement computes
    `_rabi_factors`' phase sqrt(k) * (gamma * tau) in place.
    """
    grid = _tau_grid(gamma)
    remaining = ens.remaining_photons()
    w = ens.weights
    # the (K, G) table excite_prob would build for the grid, from cached rows
    table = np.array([_grid_row(r, gamma) for r in remaining.tolist()])
    values = w @ table
    best = int(np.argmax(values))  # first max = smallest tau on ties

    # excite_prob at one tau: its (K,) @ (K, 1) product reaches the same BLAS
    # ddot as this 1-D dot, so every value keeps its bits
    freq = np.sqrt(remaining)
    buf = np.empty_like(freq)

    def excite(tau) -> float:
        np.multiply(freq, gamma * tau, out=buf)
        np.sin(buf, out=buf)
        np.square(buf, out=buf)
        return float(w.dot(buf))

    # Python floats: the same IEEE arithmetic as numpy scalars, but cheaper
    a = float(grid[best - 1] if best > 0 else grid[0])
    b = float(grid[best + 1] if best + 1 < len(grid) else grid[-1])
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc = excite(c)
    fd = excite(d)
    # The state (a, b, c, d, fc, fd) alone fixes the next iteration, so once
    # it equals the state two iterations back it repeats with period 2 (or
    # 1): stop there, on the state the last of the 80 iterations lands on.
    prev = older = None
    for i in range(80):
        if fc >= fd:  # keep the left interval on ties
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = excite(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = excite(d)
        state = (a, b, c, d, fc, fd)
        if state == older:
            if (79 - i) % 2:
                a, b, c, d, fc, fd = prev
            break
        older, prev = prev, state
    candidates = [(float(grid[best]), float(values[best])), (c, fc), (d, fd)]
    best_value = max(v for _, v in candidates)
    return min(t for t, v in candidates if v >= best_value)


# --- full runs -------------------------------------------------------------


@dataclass(frozen=True)
class TraceEvent:
    atom_index: int
    tau: float
    outcome: MeasurementOutcome
    p_excite_before: float
    weights_after: dict[int, float]
    transferred_after: int
    atom_fidelity_after: float
    quality_after: float | None


@dataclass(frozen=True)
class ProtocolTrace:
    events: list[TraceEvent]
    reason: StopReason
    final: WeightedEnsemble


def run(config, rng: np.random.Generator) -> ProtocolTrace:
    """Pass atoms until `cutoff` consecutive ground results, the atom
    budget runs out, or the mixture is certainly down to the vacuum: one row
    of `run_batch`, with a `TraceEvent` per atom from its `observe` callback.

    `config` is read by attribute: `initial_weights()`, `tau_policy(initial)`,
    `gamma`, `cutoff`, `atom_budget` and `n_originals`, as an
    `ExperimentConfig` provides them.
    """
    initial = WeightedEnsemble.from_weights(config.initial_weights())
    ns = initial.photon_numbers.tolist()
    n_orig = config.n_originals
    events: list[TraceEvent] = []

    def observe(rows, taus, excited, p_e, w, m) -> None:
        weights, transferred = dict(zip(ns, w[0].tolist())), int(m[0])
        f_atom = cloning.atom_fidelity(weights, n_orig)
        q = cloning.quality(f_atom, n_orig, transferred) if transferred >= n_orig else None
        outcome = MeasurementOutcome.EXCITED if excited[0] else MeasurementOutcome.GROUND
        events.append(TraceEvent(
            len(events), float(taus[0]), outcome, float(p_e[0]), weights, transferred, f_atom, q
        ))

    final = run_batch(
        initial, config.tau_policy(initial), config.gamma, [config.cutoff], config.atom_budget,
        [rng], observe,
    )
    last = WeightedEnsemble(
        initial.photon_numbers, final.weights[0, 0], int(final.transferred[0, 0])
    )
    return ProtocolTrace(events=events, reason=final.reasons[0, 0], final=last)


# --- many runs in lockstep ----------------------------------------------------

# Uniforms drawn per stream at a time under `FixedTau`. `Generator.random(k)`
# returns the same values as k scalar draws, so the block size never changes
# an outcome.
DRAW_BLOCK = 32


@dataclass(frozen=True)
class BatchFinal:
    """States of `run_batch` at each of its sorted distinct cutoffs (axis 0),
    one row per stream (axis 1); the weight columns are the initial
    ensemble's branches."""

    weights: np.ndarray  # (L, B, K)
    transferred: np.ndarray  # (L, B)
    atoms: np.ndarray  # (L, B) atoms passed
    reasons: np.ndarray  # (L, B) StopReason


def run_batch(
    initial: WeightedEnsemble,
    policy: TauPolicy,
    gamma: float,
    cutoffs,
    atom_budget: int,
    rngs: list[np.random.Generator],
    observe: Callable[..., None] | None = None,
) -> BatchFinal:
    """Runs from `initial`, one per generator, in lockstep; their states at
    every cutoff.

    Row b draws from `rngs[b]` alone and stops when its mixture is certainly
    the vacuum or `atom_budget` atoms have passed (checked in that order
    before each atom), or once its ground streak reaches the largest of
    `cutoffs`. Its state at cutoff c is where that streak first equals c,
    which is where a run with cutoff c on that stream stops; if the row
    stopped before that, it is the row's terminal state.
    All live rows pass their k-th atom as one B x K weight update. Under
    `FixedTau` the factors come from one table row per transferred count and
    uniforms `DRAW_BLOCK` at a time; under any other policy a row takes its
    tau from `policy_tau`, then draws one uniform, in `step`'s order.
    `observe(rows, taus, excited, p_e, w, m)`, if given, gets the live rows'
    stream indices, taus, outcomes and p_excite before each pass, and their
    weights and counts after it.
    """
    levels = np.array(sorted({int(c) for c in cutoffs}), dtype=int)
    if not levels.size or levels[0] < 1:
        raise ValueError("need at least one cutoff, each >= 1")
    ns = initial.photon_numbers
    fixed = isinstance(policy, FixedTau)
    if fixed:  # the factors depend only on (transferred m, branch n)
        remaining = np.maximum(ns - np.arange(ns.max() + 1)[:, None], 0)
        tables = _rabi_factors(remaining, gamma, policy.tau)

    n_rows = len(rngs)
    shape = (len(levels), n_rows)
    out_w = np.empty((*shape, len(ns)))
    out_m = np.empty(shape, dtype=int)
    out_atoms = np.empty(shape, dtype=int)
    members = list(StopReason)
    out_reasons = np.empty(shape, dtype=np.int8)  # index into `members`: a byte, not a pointer

    # state of the live rows, compacted; `rows` maps them back to streams
    rows = np.arange(n_rows)
    w = np.tile(initial.weights, (n_rows, 1))
    m = np.full(n_rows, initial.transferred)
    streak = np.zeros(n_rows, dtype=int)
    nxt = np.zeros(n_rows, dtype=int)  # index of the next cutoff the streak meets
    draws = np.empty((n_rows, DRAW_BLOCK))
    passed = 0  # every live row has passed this many atoms

    def store(level: np.ndarray, live: np.ndarray, reason: StopReason) -> None:
        ids = rows[live]
        out_w[level, ids], out_m[level, ids] = w[live], m[live]
        out_atoms[level, ids], out_reasons[level, ids] = passed, members.index(reason)

    def retire(done: np.ndarray, reason: StopReason) -> None:
        nonlocal rows, w, m, streak, nxt, draws
        if not done.any():
            return
        # the cutoffs a row's streak has not reached take its terminal state
        level, i = np.nonzero(np.arange(len(levels))[:, None] >= nxt[done])
        store(level, np.flatnonzero(done)[i], reason)
        keep = ~done
        rows, w, m, streak, nxt, draws = (a[keep] for a in (rows, w, m, streak, nxt, draws))

    while rows.size:
        # stop checks in run's order: vacuum-certain, budget, then the step
        alive = w > 0
        retire(
            (alive.sum(axis=1) == 1) & (ns[alive.argmax(axis=1)] == m),
            StopReason.VACUUM_CERTAIN,
        )
        if passed >= atom_budget:
            retire(np.ones(rows.size, dtype=bool), StopReason.ATOM_BUDGET)
        if not rows.size:
            break
        if fixed:
            if passed % DRAW_BLOCK == 0:
                for i, r in enumerate(rows.tolist()):
                    draws[i] = rngs[r].random(DRAW_BLOCK)
            u = draws[:, passed % DRAW_BLOCK]
            taus = np.full(rows.size, policy.tau)
            sin2, cos2 = (t[m] for t in tables)
        else:
            taus, u = np.empty(rows.size), np.empty(rows.size)
            for i, r in enumerate(rows.tolist()):
                # the row as an ensemble, unchecked: the rows are checked once, at the end
                ens = object.__new__(WeightedEnsemble)
                ens.__dict__.update(photon_numbers=ns, weights=w[i], transferred=int(m[i]))
                taus[i] = policy_tau(policy, ens, gamma, rngs[r])
                u[i] = rngs[r].random()
            sin2, cos2 = _rabi_factors(np.maximum(ns - m[:, None], 0), gamma, taus[:, None])
        # a stack of the vector-column products excite_prob makes, so the
        # sum runs in the same order and p_e keeps its exact bits
        p_e = np.matmul(w[:, None, :], sin2[:, :, None])[:, 0, 0]
        excited = u < p_e
        posterior = np.where(excited[:, None], sin2, cos2)
        posterior *= w  # in place: one new (B, K) array per atom
        total = posterior.sum(axis=1)
        if np.any(total <= 0.0):
            outcome = "excited" if excited[np.argmax(total <= 0.0)] else "ground"
            raise ValueError(f"cannot condition on zero-probability outcome {outcome}")
        posterior /= total[:, None]
        w = posterior
        m = m + excited
        streak = np.where(excited, 0, streak + 1)
        passed += 1
        if observe is not None:
            observe(rows, taus, excited, p_e, w, m)
        # a streak grows by one, so it meets each cutoff it reaches; a live
        # row has not yet met the largest
        hit = streak == levels[nxt]
        if hit.any():
            store(nxt[hit], hit, StopReason.CUTOFF)
            nxt = nxt + hit
        retire(nxt == len(levels), StopReason.CUTOFF)

    _check_weights(ns, out_w, out_m)  # every returned state is a valid ensemble
    return BatchFinal(out_w, out_m, out_atoms, np.array(members, dtype=object)[out_reasons])
