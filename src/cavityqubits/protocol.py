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
from typing import Mapping, Union

import numpy as np

from . import optimum, transitions
from .cloning import WEIGHT_TOL, ordered_sum
from .transitions import AFTER, P_EXCITE, TAU, TRANSFERRED, VACUUM, WEIGHTS


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
        if (ns < 0).any():
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


def _unchecked(ns: np.ndarray, weights: np.ndarray, transferred: int) -> WeightedEnsemble:
    """A `WeightedEnsemble` without `__post_init__`'s checks, for arrays that
    are valid by construction: the rules are checked once, where the
    weights enter, not on every atom."""
    ens = object.__new__(WeightedEnsemble)
    ens.__dict__.update(photon_numbers=ns, weights=weights, transferred=transferred)
    return ens


def _check_weights(ns: np.ndarray, weights: np.ndarray, transferred) -> None:
    """The weight rules of `WeightedEnsemble`, for one (K,) row with its
    transferred count, or for a stack of rows (..., K) with one count per row."""
    transferred = np.asarray(transferred)
    if (transferred < 0).any():
        raise ValueError("transferred count must be non-negative")
    # written so that a NaN weight or total fails them
    if not (weights >= 0).all():
        raise ValueError("weights must be non-negative numbers")
    sums = weights.sum(axis=-1)
    off = ~(np.abs(sums - 1.0) <= WEIGHT_TOL)
    if off.any():
        raise ValueError(f"weights must sum to 1, got {float(np.ravel(sums)[np.argmax(off)])!r}")
    dead = ((ns < transferred[..., None]) & (weights != 0)).any(axis=-1)
    if dead.any():
        raise ValueError(
            f"branches with n < transferred={int(np.ravel(transferred)[np.argmax(dead)])} "
            "must carry zero weight"
        )


def _rabi_factor(remaining, gamma: float, tau, excited: bool):
    """sin^2 (`excited`) or cos^2 of each branch's Rabi phase sqrt(remaining)
    * (gamma * tau): the excitation or ground factor of one atom pass. Every
    use takes it from this one phase expression, so p_excite and the weight
    update see the same floats. It is squared in place, in the phase's array."""
    phase = np.sqrt(remaining) * (gamma * tau)
    factor = np.sin(phase, out=phase) if excited else np.cos(phase, out=phase)
    factor *= factor
    return factor


def excite_prob(ens: WeightedEnsemble, gamma: float, tau) -> float | np.ndarray:
    """Probability that the next atom leaves the cavity excited.

    Branch n oscillates at sqrt(n - m) gamma, m being the transferred
    count; empty branches (n = m) contribute nothing. `tau` may be an
    array, in which case the curve is returned; each value is an
    `ordered_sum`, so a curve point equals the scalar call at its tau.
    """
    tau_arr = np.asarray(tau, dtype=float)
    factors = _rabi_factor(ens.remaining_photons(), gamma, tau_arr.reshape(-1, 1), True)
    factors *= ens.weights  # (T, K): one row per tau
    probs = ordered_sum(factors)
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
    The posterior of a valid ensemble is valid, so it is built unchecked:
    the factors are non-negative, dead branches stay at zero, and the
    normalized weights sum to 1 up to rounding.
    """
    excited = outcome is MeasurementOutcome.EXCITED
    posterior = ens.weights * _rabi_factor(ens.remaining_photons(), gamma, tau, excited)
    total = posterior.sum()
    if not total > 0.0:  # a NaN total (an infinite phase) fails too
        raise ValueError(f"cannot condition on zero-probability outcome {outcome.value}")
    return _unchecked(ens.photon_numbers, posterior / total, ens.transferred + excited)


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


def optimal_tau(ens: WeightedEnsemble, gamma: float) -> float:
    """Interaction time in (0, pi/gamma] maximizing the excitation probability.

    `optimum.search`: a grid scan of `optimum.TAU_GRID_POINTS` points
    followed by golden-section refinement of the best bracket. Ties break
    toward the smaller tau. Every value it compares is `excite_prob`'s at
    its tau, bit for bit; the scan reads sin^2 rows cached per remaining
    photon count.

    Every call searches. The walk in `run` stores the optima it computes in
    its transition tree, and `prior_optimal_tau` reads a prior's optimum
    from the root of that tree.
    """
    return optimum.search(ens.remaining_photons(), ens.weights, gamma)


def prior_optimal_tau(initial: WeightedEnsemble, gamma: float) -> float:
    """`optimal_tau(initial, gamma)`, kept at the root of the optimal-each-step
    transition tree from `initial`: the first call stores it there, with its
    p_excite, as a walk from that root would."""
    tree = transitions.tree(initial, OptimalEachStep(), gamma)
    root = tree.root
    if root[P_EXCITE] is None:
        ens = _unchecked(initial.photon_numbers, root[WEIGHTS], root[TRANSFERRED])
        tau = optimal_tau(ens, gamma)
        tree.record(root, tau, excite_prob(ens, gamma, tau))
    return root[TAU]


# --- full runs -------------------------------------------------------------

# Uniforms drawn per stream at a time under a deterministic policy.
# `Generator.random(k)` returns the same values as k scalar draws, so the
# block size never changes an outcome.
DRAW_BLOCK = 32


@dataclass(frozen=True)
class TraceEvent:
    atom_index: int
    tau: float
    outcome: MeasurementOutcome
    p_excite_before: float


@dataclass(frozen=True)
class ProtocolTrace:
    events: list[TraceEvent]
    reason: StopReason
    final: WeightedEnsemble
    weights: np.ndarray  # (atoms + 1, K): the prior, then the posterior after each atom
    transferred: np.ndarray  # (atoms + 1,): the transferred count of each row of `weights`


def run(config, rng: np.random.Generator) -> ProtocolTrace:
    """Pass atoms until the mixture is certainly down to the vacuum or the
    atom budget runs out (checked in that order before each atom), or until
    `cutoff` consecutive ground results, with a `TraceEvent` per atom and
    every posterior in one fresh array.

    The run walks from posterior to posterior, each atom's tau, p_excite and
    posterior computed with `policy_tau`, `excite_prob` and
    `update_weights`. Under a deterministic policy they depend on the
    posterior alone, so the walk stores them in the transition tree of
    (initial, policy, gamma), shared by every run from it in this process,
    and a later run that reaches a stored posterior follows its stored
    transitions; the uniforms are drawn `DRAW_BLOCK` at a time. A
    `JitteredTau` run stores nothing: each atom draws its tau from the
    stream, then one uniform.

    `config` is read by attribute: `initial_weights()`, `tau_policy(initial)`,
    `gamma`, `cutoff` and `atom_budget`, as an `ExperimentConfig` provides
    them.
    """
    initial = WeightedEnsemble.from_weights(config.initial_weights())
    policy, gamma, cutoff = config.tau_policy(initial), config.gamma, config.cutoff
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    ns = initial.photon_numbers
    jittered = isinstance(policy, JitteredTau)
    tree = None if jittered else transitions.tree(initial, policy, gamma)
    node = transitions.node(initial) if tree is None else tree.root
    # `kept`: the node is stored in the tree, so what is computed from it is
    # stored too, while the tree has room
    kept = tree is not None
    events: list[TraceEvent] = []
    path = [node]  # the node after each atom, the initial one first
    streak = hits = 0
    while True:
        passed = len(events)
        if node[VACUUM]:
            reason = StopReason.VACUUM_CERTAIN
            break
        if passed >= config.atom_budget:
            reason = StopReason.ATOM_BUDGET
            break
        p_e, tau = node[P_EXCITE], node[TAU]  # tau is written first
        if p_e is None:
            ens = _unchecked(ns, node[WEIGHTS], node[TRANSFERRED])
            tau = policy_tau(policy, ens, gamma, rng)
            p_e = excite_prob(ens, gamma, tau)
            if kept:
                tree.record(node, tau, p_e)
        if jittered:
            u = rng.random()
        else:
            if passed % DRAW_BLOCK == 0:
                draws = rng.random(DRAW_BLOCK).tolist()
            u = draws[passed % DRAW_BLOCK]
        excited = u < p_e
        outcome = MeasurementOutcome.EXCITED if excited else MeasurementOutcome.GROUND
        child = node[AFTER + excited]
        if child is not None:
            hits += 1
        else:
            ens = _unchecked(ns, node[WEIGHTS], node[TRANSFERRED])
            child = transitions.node(update_weights(ens, gamma, tau, outcome))
            if kept:
                child, kept = tree.attach(node, excited, child)
        node = child
        path.append(node)
        events.append(TraceEvent(passed, float(tau), outcome, p_e))
        streak = 0 if excited else streak + 1
        if streak == cutoff:
            reason = StopReason.CUTOFF
            break
    if tree is not None:
        tree.count(hits, len(events))
    _check_weights(ns, node[WEIGHTS], node[TRANSFERRED])  # the returned state is valid
    # a copy: the tree's own arrays must not leave it
    weights = np.stack([at[WEIGHTS] for at in path])
    final = _unchecked(ns, weights[-1], node[TRANSFERRED])
    return ProtocolTrace(events, reason, final, weights, np.array([at[TRANSFERRED] for at in path]))


# --- many runs ------------------------------------------------------------------


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
    policy: FixedTau,
    gamma: float,
    cutoffs,
    atom_budget: int,
    rngs: list[np.random.Generator],
) -> BatchFinal:
    """Fixed-tau runs from `initial`, one per generator, stepped in lockstep;
    their states at every cutoff.

    Row b draws from `rngs[b]` alone and stops when its mixture is certainly
    the vacuum or `atom_budget` atoms have passed (checked in that order
    before each atom), or once its ground streak reaches the largest of
    `cutoffs`. Its state at cutoff c is where that streak first equals c,
    which is where `run` with cutoff c on that stream stops; if the row
    stopped before that, it is the row's terminal state.

    All live rows pass their k-th atom together, as one B x K weight update,
    with both factors from one (transferred count, outcome) table, and draw
    their uniforms `DRAW_BLOCK` at a time, so each row passes the atoms
    `run` would. Any policy other than `FixedTau` raises `TypeError`.
    """
    if not isinstance(policy, FixedTau):
        raise TypeError(f"run_batch steps fixed-tau runs only, got {policy!r}")
    levels = np.array(sorted({int(c) for c in cutoffs}), dtype=int)
    if not levels.size or levels[0] < 1:
        raise ValueError("need at least one cutoff, each >= 1")
    ns = initial.photon_numbers
    n_rows = len(rngs)
    shape = (len(levels), n_rows)
    out_w = np.empty((*shape, len(ns)))
    out_m = np.empty(shape, dtype=int)
    out_atoms = np.empty(shape, dtype=int)
    members = list(StopReason)
    # index into `members`, a byte rather than a pointer; a cutoff stop is the
    # default, so only the other stops write it
    out_reasons = np.full(shape, members.index(StopReason.CUTOFF), dtype=np.int8)

    # the factors depend only on (transferred m, outcome, branch n); outcome 0
    # is the ground factor cos^2, 1 the excitation factor sin^2
    remaining = np.maximum(ns - np.arange(ns.max() + 1)[:, None], 0)
    table = np.stack([_rabi_factor(remaining, gamma, policy.tau, e) for e in (False, True)], -2)
    # state of the live rows, compacted; `rows` maps them back to streams
    rows = np.arange(n_rows)
    w = np.tile(initial.weights, (n_rows, 1))
    m = np.full(n_rows, initial.transferred)
    streak = np.zeros(n_rows, dtype=int)
    nxt = np.zeros(n_rows, dtype=int)  # index of the next cutoff the streak meets
    draws = np.empty((n_rows, DRAW_BLOCK))
    passed = 0  # every live row has passed this many atoms
    # A vacuum-certain row has a lone nonzero weight, which equals its row's
    # sum: within WEIGHT_TOL of 1 on entry, and exactly 1.0 after any pass.
    # So only a row whose largest weight reaches this can be one.
    near_one = 1.0 - WEIGHT_TOL

    # (cutoff indices, stream ids, weights, counts, atoms passed) of each
    # stored batch of states, scattered into the outputs once, at the end
    stored = []

    def store(level: np.ndarray, live: np.ndarray) -> None:
        stored.append((level, rows[live], w[live], m[live], passed))

    def drop(keep: np.ndarray) -> None:
        nonlocal rows, w, m, streak, nxt, draws
        rows, w, m, streak, nxt, draws = (a[keep] for a in (rows, w, m, streak, nxt, draws))

    def retire(done: np.ndarray, reason: StopReason) -> None:
        if not done.any():
            return
        # the cutoffs a row's streak has not reached take its terminal state
        level, i = np.nonzero(np.arange(len(levels))[:, None] >= nxt[done])
        live = np.flatnonzero(done)[i]
        store(level, live)
        out_reasons[level, rows[live]] = members.index(reason)
        drop(~done)

    while rows.size:
        # stop checks in run's order: vacuum-certain, budget, then the step
        if (w.max(axis=1) >= near_one).any():
            alive = w > 0
            retire(
                (alive.sum(axis=1) == 1) & (ns[alive.argmax(axis=1)] == m),
                StopReason.VACUUM_CERTAIN,
            )
        if passed >= atom_budget:
            retire(np.ones(rows.size, dtype=bool), StopReason.ATOM_BUDGET)
        if not rows.size:
            break
        if passed % DRAW_BLOCK == 0:
            for i, r in enumerate(rows.tolist()):
                draws[i] = rngs[r].random(DRAW_BLOCK)
        u = draws[:, passed % DRAW_BLOCK]
        p_e = ordered_sum(table[m, 1] * w)  # excite_prob's products and sum, bit for bit
        excited = u < p_e
        posterior = table[m, excited.view(np.int8)]
        posterior *= w  # in place: one new (B, K) array per atom
        total = posterior.sum(axis=1)
        if not total.min() > 0.0:  # a NaN total fails too
            outcome = "excited" if excited[np.argmin(total > 0.0)] else "ground"
            raise ValueError(f"cannot condition on zero-probability outcome {outcome}")
        posterior /= total[:, None]
        w = posterior
        m += excited
        streak += 1
        streak[excited] = 0
        passed += 1
        # a streak grows by one, so it meets each cutoff it reaches; a live
        # row has not yet met the largest
        hit = streak == levels[nxt]
        if hit.any():
            store(nxt[hit], hit)
            nxt += hit
            done = nxt == len(levels)
            if done.any():
                drop(~done)

    if stored:  # empty only when there are no streams
        level, ids, weights, counts, atoms = zip(*stored)
        # one flat (cutoff, stream) index takes numpy's single-index path,
        # faster than a pair of index arrays
        at = np.concatenate(level) * n_rows + np.concatenate(ids)
        out_w.reshape(-1, len(ns))[at] = np.concatenate(weights)
        out_m.reshape(-1)[at] = np.concatenate(counts)
        out_atoms.reshape(-1)[at] = np.repeat(atoms, [len(i) for i in ids])
    _check_weights(ns, out_w, out_m)  # every returned state is a valid ensemble
    return BatchFinal(out_w, out_m, out_atoms, np.array(members, dtype=object)[out_reasons])
