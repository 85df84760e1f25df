"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report; tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np
from scipy import integrate

from cavityqubits import cli, fockspace, protocol, trapping
from cavityqubits.cloning import binomial_distribution, clone_fidelity
from cavityqubits.config import DistributionSpec, ExperimentConfig, split_rng
from cavityqubits.fockspace import (
    AtomLevel,
    JointSpace,
    annihilate,
    basis_state,
    evolution_operator,
    evolve,
    interaction_hamiltonian,
    partially_transferred_state,
    qubit_register_state,
)
from cavityqubits.protocol import (
    MeasurementOutcome,
    WeightedEnsemble,
    excite_prob,
    optimal_tau,
    update_weights,
)
from cavityqubits.symstate import SymLabel, symmetric_basis_state

G = AtomLevel.GROUND
E0 = AtomLevel.EXC0
E1 = AtomLevel.EXC1


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


def test_criterion_01_rabi_closed_form_vs_matrix_exponential():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in range(1, 5):
        space = JointSpace(1, n)
        h = interaction_hamiltonian(space, 0)
        for j in range(n + 1):
            start = basis_state(space, (G,), j, n - j)
            target = np.zeros(space.dim, dtype=complex)
            if j > 0:
                target[space.index((E0,), j - 1, n - j)] = math.sqrt(j / n)
            if n - j > 0:
                target[space.index((E1,), j, n - j - 1)] = math.sqrt((n - j) / n)
            for t in rng.uniform(0.0, 2.0 * math.pi, size=20):
                evolved = evolve(start, h, t)
                phase = math.sqrt(n) * t
                closed = (
                    math.cos(phase) * start.amplitudes - 1j * math.sin(phase) * target
                )
                worst = max(worst, float(np.max(np.abs(evolved.amplitudes - closed))))
    elapsed = time.perf_counter() - started
    report(
        1,
        "Rabi closed form matches matrix exponential",
        worst < 1e-9 and elapsed < 10.0,
        f"max amplitude error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_deterministic_scheme_endpoint():
    started = time.perf_counter()
    worst = 1.0
    for n in range(1, 5):
        space = JointSpace(n, n)
        states = {
            j: basis_state(space, (G,) * n, j, n - j).amplitudes for j in range(n + 1)
        }
        for k in range(1, n + 1):
            half_period = math.pi / (2.0 * math.sqrt(n - k + 1))
            u = evolution_operator(space.hamiltonian(k - 1, 1.0), half_period)
            states = {j: u @ amps for j, amps in states.items()}
        for j, amps in states.items():
            register = symmetric_basis_state(SymLabel(j, n)).amplitudes
            target = qubit_register_state(space, register, 0, 0)
            fidelity = abs(np.vdot(target.amplitudes, amps)) ** 2
            worst = min(worst, fidelity)
    elapsed = time.perf_counter() - started
    report(
        2,
        "sequential half-period passes build the symmetric register",
        worst >= 1.0 - 1e-9 and elapsed < 30.0,
        f"min fidelity {worst:.12f}, {elapsed:.1f}s",
    )


def test_criterion_03_annihilation_closed_forms():
    worst = 0.0
    for n in range(1, 6):
        for m in range(0, n):
            space = JointSpace(m, n)
            for j in range(n + 1):
                source = partially_transferred_state(space, j, n, m)
                for mode, coeff, target_zeros in (
                    (0, math.sqrt((n - m) * j / n), j - 1),
                    (1, math.sqrt((n - m) * (n - j) / n), j),
                ):
                    got = annihilate(source, mode)
                    if coeff == 0.0:
                        worst = max(worst, got.norm())
                        continue
                    target = partially_transferred_state(space, target_zeros, n - 1, m)
                    delta = np.max(np.abs(got.amplitudes - coeff * target.amplitudes))
                    worst = max(worst, float(delta))
    report(3, "ladder operators on transferred states", worst < 1e-12, f"max error {worst:.2e}")


def test_criterion_04_weight_updates_match_state_vector_oracle():
    rng = np.random.default_rng(404)
    steps = 3
    worst_prob = 0.0
    worst_weight = 0.0
    for _ in range(10):
        raw = rng.random(3) + 0.05
        weights = {n: float(w) for n, w in zip((1, 2, 3), raw / raw.sum())}
        branch_zeros = {n: int(rng.integers(0, n + 1)) for n in weights}
        taus = rng.uniform(0.1, 2.5, size=steps)

        branch_states = {}
        for n, j in branch_zeros.items():
            space = JointSpace(steps, n)
            branch_states[n] = basis_state(space, (G,) * steps, j, n - j)
        oracle_weights = dict(weights)
        ens = WeightedEnsemble.from_weights(weights)

        for k, tau in enumerate(taus):
            p_excited_oracle = 0.0
            ground_probs = {}
            for n, state in branch_states.items():
                if oracle_weights[n] == 0.0:
                    ground_probs[n] = 1.0
                    continue
                space = state.space
                h = interaction_hamiltonian(space, k)
                evolved = evolve(state, h, float(tau))
                branch_states[n] = evolved
                mask = space.levels[:, k] == G
                p_ground = float(np.sum(np.abs(evolved.amplitudes[mask]) ** 2))
                ground_probs[n] = min(max(p_ground, 0.0), 1.0)
                p_excited_oracle += oracle_weights[n] * (1.0 - ground_probs[n])

            p_excited = excite_prob(ens, 1.0, float(tau))
            worst_prob = max(worst_prob, abs(p_excited - p_excited_oracle))

            outcome = (
                MeasurementOutcome.EXCITED
                if rng.random() < p_excited
                else MeasurementOutcome.GROUND
            )
            # condition each surviving branch on the shared outcome
            new_oracle = {}
            for n, state in branch_states.items():
                if oracle_weights[n] == 0.0:
                    new_oracle[n] = 0.0
                    continue
                q = (
                    ground_probs[n]
                    if outcome is MeasurementOutcome.GROUND
                    else 1.0 - ground_probs[n]
                )
                new_oracle[n] = oracle_weights[n] * q
                if q > 1e-14:
                    branch_states[n] = fockspace.measure_atom_energy(
                        state, k, outcome=outcome
                    ).post_state
            total = sum(new_oracle.values())
            oracle_weights = {n: w / total for n, w in new_oracle.items()}

            ens = update_weights(ens, 1.0, float(tau), outcome)
            for n in weights:
                worst_weight = max(worst_weight, abs(ens.as_dict()[n] - oracle_weights[n]))
    report(
        4,
        "Bayes updates equal branch-resolved simulation",
        worst_prob < 1e-9 and worst_weight < 1e-9,
        f"max probability error {worst_prob:.2e}, max weight error {worst_weight:.2e}",
    )


def test_criterion_05_optimal_tau_for_binomial_six():
    ens = WeightedEnsemble.from_weights(binomial_distribution(6))
    tau = optimal_tau(ens, 1.0)
    report(5, "optimal interaction time 0.825/gamma", abs(tau - 0.825) <= 0.005, f"tau = {tau:.4f}")


def test_criterion_06_trapping_escape_statistics():
    started = time.perf_counter()
    reference = trapping.mean_atoms_rel(1, 0.06)
    spec = trapping.TrapSpec(photon_number=4, rabi_cycles=1, sigma_rel=0.06)
    estimate = trapping.monte_carlo_escape(spec, 100_000, split_rng(606))
    limit = trapping.mean_atoms_rel(3, 1.0)
    elapsed = time.perf_counter() - started
    ok = (
        7.8 <= reference <= 8.4
        and abs(estimate.mean - reference) < 3.0 * estimate.stderr
        and abs(limit - 2.0) <= 1e-6
        and elapsed < 60.0
    )
    report(
        6,
        "trapping escape counts",
        ok,
        f"closed {reference:.4f}, MC {estimate.mean:.4f} +- {estimate.stderr:.4f}, "
        f"limit {limit:.8f}, {elapsed:.1f}s",
    )


def test_criterion_07_cloning_fidelity_formula():
    ok = clone_fidelity(1, 2) == 5 / 6
    for n in range(1, 51):
        for m in range(n, 51):
            f = clone_fidelity(n, m)
            if m > n:
                ok = ok and f < clone_fidelity(n, m - 1)
            if n > 1:
                ok = ok and f > clone_fidelity(n - 1, m)
    report(7, "optimal cloning fidelity and monotonicity", ok, "F(1->2) = 5/6 exact")


def test_criterion_08_gaussian_quadrature_identity():
    worst = 0.0
    for n in (1, 4, 9):
        for gamma_sigma in (0.01, 0.05, 0.2, 0.5, 1.0, 1.5, 2.0):
            sigma = gamma_sigma  # gamma = 1
            tau0 = 2.0 * math.pi / math.sqrt(n)

            def integrand(tau):
                weight = math.exp(-((tau - tau0) ** 2) / (2 * sigma**2)) / (
                    sigma * math.sqrt(2 * math.pi)
                )
                return weight * math.sin(math.sqrt(n) * tau) ** 2

            value, _ = integrate.quad(
                integrand,
                tau0 - 12 * sigma,
                tau0 + 12 * sigma,
                limit=4000,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            worst = max(worst, abs(value - trapping.mean_success_prob(n, sigma)))
    report(8, "Gaussian-averaged sin^2 closed form", worst < 1e-9, f"max error {worst:.2e}")


def test_criterion_09_weight_evolution_run():
    config = ExperimentConfig(
        experiment="weights-evolution",
        distribution=DistributionSpec("binomial", n_max=6),
        policy="fixed",
        tau=0.825,
        cutoff=20,
        atom_budget=5000,
        seed=7,
    )
    trace = protocol.run(config, split_rng(config.seed))
    final = trace.final.as_dict()
    n_star, p_star = max(final.items(), key=lambda kv: kv[1])
    transfers = [e.transferred_after for e in trace.events]
    staircase = transfers == sorted(transfers) and trace.final.transferred == n_star
    f_err = abs(trace.events[-1].atom_fidelity_after - clone_fidelity(1, n_star))
    ok = p_star > 0.99 and staircase and f_err < 1e-9
    report(
        9,
        "weight collapse, transfer staircase, fidelity convergence",
        ok,
        f"surviving n = {n_star}, weight {p_star:.6f}, fidelity error {f_err:.2e}",
    )


def test_criterion_10_quality_versus_cutoff(tmp_path):
    out = tmp_path / "quality.csv"
    config = ExperimentConfig(
        experiment="quality-cutoff",
        distribution=DistributionSpec("binomial", n_max=10),
        cutoffs=(1, 30),
        runs=1000,
        atom_budget=5000,
        seed=1010,
        out=str(out),
    )
    tau = optimal_tau(
        WeightedEnsemble.from_weights(config.initial_weights()), config.gamma
    )
    assert math.sqrt(10) * config.gamma * tau < math.pi  # no trapping point is reachable
    cli.run_experiment(config)
    rows = {
        int(r[0]): (float(r[1]), float(r[2]))
        for r in (line.split(",") for line in out.read_text().splitlines()
                  if line and not line.startswith(("#", "cutoff")))
    }
    mean_low, se_low = rows[1]
    mean_high, se_high = rows[30]
    margin = (mean_high - mean_low) / math.hypot(se_low, se_high)
    ok = mean_high >= 0.99 and margin > 3.0
    report(
        10,
        "mean quality approaches 1 with the cutoff",
        ok,
        f"cutoff 30: {mean_high:.4f}, cutoff 1: {mean_low:.4f}, separation {margin:.0f} sigma",
    )


def test_criterion_11_outcome_averaged_weights_restore_prior():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(1000):
        transferred = int(rng.integers(0, 3))
        size = int(rng.integers(2, 7))
        ns = transferred + np.sort(
            rng.choice(np.arange(0, 9), size=size, replace=False)
        )
        raw = rng.random(size) + 1e-3
        ens = WeightedEnsemble.from_weights(
            dict(zip(ns.tolist(), (raw / raw.sum()).tolist())), transferred=transferred
        )
        tau = float(rng.uniform(0.01, 3.0))
        p_e = excite_prob(ens, 1.0, tau)
        averaged = np.zeros_like(ens.weights)
        if p_e > 0:
            averaged += p_e * update_weights(ens, 1.0, tau, MeasurementOutcome.EXCITED).weights
        if p_e < 1:
            averaged += (1 - p_e) * update_weights(ens, 1.0, tau, MeasurementOutcome.GROUND).weights
        worst = max(worst, float(np.max(np.abs(averaged - ens.weights))))
    report(11, "outcome-averaged posteriors equal the prior", worst < 1e-12, f"max error {worst:.2e}")
