"""The benchmark's four workloads.

Each workload is a closed loop with one caller: the next call into the
program starts when the previous one returns. A workload knows how to set
itself up (build and validate its config, then make one warm-up call into
its hot layer), how to produce one full dataset from inputs derived from
the benchmark seed, and how to check that dataset.

Every call into the program goes through a module attribute looked up at
call time (`cli.main`, `fockspace.evolve`, ...), so the tracer's patched
names are the ones used in a traced run.

Nothing here imports numpy or the program at module level: the worker
starts its set-up clock before those imports.
"""

from __future__ import annotations

import csv
import hashlib
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Agreement required between the closed-form updates and the oracle.
ORACLE_TOL = 1e-9
# Monte Carlo mean against its closed form, in standard errors.
MC_SIGMAS = 5.0


@dataclass
class Checks:
    """Correctness checks of one run: `failed / attempted` is fail_frac."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    csv_sha256: dict[str, str] = field(default_factory=dict)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


@dataclass
class Dataset:
    """One full dataset: its wall time (checks excluded where they are not
    part of the work), the time of each separately timed op, and the input
    units it completed."""

    wall_s: float = 0.0
    op_s: list[float] = field(default_factory=list)
    units: int = 0


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in path.read_text().splitlines() if line and not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _call_cli(argv: list[str], checks: Checks) -> tuple[float, bool]:
    """Time one `cli.main` call. An exception or a non-zero exit is a failed
    check; it never stops the workload."""
    from cavityqubits import cli

    start = perf_counter()
    try:
        status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a failing call is recorded, and the loop goes on
        traceback.print_exc(file=sys.stderr)
        status = "exception"
    elapsed = perf_counter() - start
    return elapsed, checks.expect(status == 0, f"cli.main {argv[0]} exited with {status!r}")


def _guarded(check, checks: Checks, what: str) -> None:
    """Run `check()`. An exception in it is one failed check; it never stops
    the workload."""
    try:
        check()
    except Exception as exc:  # recorded, and the loop goes on
        traceback.print_exc(file=sys.stderr)
        checks.expect(False, f"{what}: {type(exc).__name__}: {exc}")


def _check_csv(path: Path, checks: Checks, record_hash: bool) -> None:
    from cavityqubits import cli

    problems = cli.check_output(path)
    checks.expect(not problems, f"check_output {path.name}: {problems[:3]}")
    if record_hash:
        checks.csv_sha256[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """`tiny` selects self-check sizes that run in seconds."""

    name: str
    tag: int  # keeps this workload's derived program seeds apart from the others'
    probe: str  # the speed probe of the same kind of work (worker.PROBES)

    def program_seed(self, seed: int, *stream: int) -> int:
        """Seed handed to the program, derived from the benchmark seed. Streams
        are (0,) for set-up and (1, repeat, call) for datasets; repeats of a
        dataset get fresh seeds so no result can be reused."""
        import numpy as np

        seq = np.random.SeedSequence([seed, self.tag, *stream])
        return int(seq.generate_state(1)[0] & 0x7FFFFFFF)

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run(self, seed: int, repeat: int, workdir: Path, checks: Checks, tracer=None) -> Dataset:
        raise NotImplementedError


class QualityCutoff(Workload):
    """fig4's shape: mean clone quality at cutoffs 1..30, one CLI call."""

    name = "quality-cutoff"
    tag = 1
    probe = "python"
    cutoffs = 30

    def __init__(self, tiny: bool):
        self.runs = 3 if tiny else 10

    def setup(self, seed: int) -> None:
        from cavityqubits import cli, config, protocol

        cfg = config.ExperimentConfig(
            experiment="quality-cutoff",
            distribution=config.DistributionSpec("binomial", n_max=10),
            cutoffs=tuple(range(1, self.cutoffs + 1)),
            runs=self.runs,
            seed=self.program_seed(seed, 0),
        )
        errors = [d for d in cli.validate(cfg) if d.level == "error"]
        if errors:
            raise RuntimeError(f"{self.name} config rejected: {errors}")
        protocol.run(cfg, config.split_rng(cfg.seed))

    def run(self, seed, repeat, workdir, checks, tracer=None):
        out = workdir / "quality-cutoff.csv"
        argv = ["fig4", "--nmax", "10", "--cutoffs", f"1..{self.cutoffs}", "--runs", str(self.runs),
                "--seed", str(self.program_seed(seed, 1, repeat, 0)), "--out", str(out)]
        if tracer is not None:
            tracer.next_op()
        elapsed, ok = _call_cli(argv, checks)
        if ok:
            _guarded(lambda: self._check(out, checks, repeat), checks, out.name)
        return Dataset(wall_s=elapsed, op_s=[elapsed], units=self.runs * self.cutoffs)

    def _check(self, out: Path, checks: Checks, repeat: int) -> None:
        _check_csv(out, checks, record_hash=repeat == 0)
        _, rows = _read_table(out)
        checks.expect(len(rows) == self.cutoffs, f"{len(rows)} rows for {self.cutoffs} cutoffs")
        quality = {int(row[0]): float(row[1]) for row in rows}
        for cutoff, value in sorted(quality.items()):
            checks.expect(0.0 <= value <= 1.5, f"mean_quality {value!r} at cutoff {cutoff}")
        checks.expect(
            quality.get(self.cutoffs, -1.0) >= quality.get(1, math.inf),
            f"mean_quality at cutoff {self.cutoffs} below cutoff 1",
        )


class TrappingCurves(Workload):
    """The fig3 grid: sigma_rel 0.01:0.20:0.01 x m 1,2,3, one CLI call."""

    name = "trapping-curves"
    tag = 2
    probe = "rng"
    cells = 60

    def __init__(self, tiny: bool):
        self.trials = 300 if tiny else 20_000

    def setup(self, seed: int) -> None:
        from cavityqubits import cli, config, trapping

        cfg = config.ExperimentConfig(
            experiment="trapping-curves",
            sigma_rel_values=tuple(config.parse_float_list("0.01:0.20:0.01")),
            rabi_cycles_values=(1, 2, 3),
            trials=self.trials,
            seed=self.program_seed(seed, 0),
        )
        errors = [d for d in cli.validate(cfg) if d.level == "error"]
        if errors:
            raise RuntimeError(f"{self.name} config rejected: {errors}")
        spec = trapping.TrapSpec(photon_number=1, rabi_cycles=1, sigma_rel=0.1)
        trapping.monte_carlo_escape(spec, 1000, config.split_rng(cfg.seed))

    def run(self, seed, repeat, workdir, checks, tracer=None):
        out = workdir / "trapping-curves.csv"
        argv = ["fig3", "--sigma-rel", "0.01:0.20:0.01", "--m", "1,2,3", "--trials", str(self.trials),
                "--seed", str(self.program_seed(seed, 1, repeat, 0)), "--out", str(out)]
        if tracer is not None:
            tracer.next_op()
        elapsed, ok = _call_cli(argv, checks)
        if ok:
            _guarded(lambda: self._check(out, checks, repeat), checks, out.name)
        return Dataset(wall_s=elapsed, op_s=[elapsed], units=self.cells * self.trials)

    def _check(self, out: Path, checks: Checks, repeat: int) -> None:
        _check_csv(out, checks, record_hash=repeat == 0)
        header, rows = _read_table(out)
        checks.expect(len(rows) == self.cells, f"{len(rows)} rows for {self.cells} cells")
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            closed = float(row[col["a_mean_closed"]])
            mc = float(row[col["a_mean_mc"]])
            stderr = float(row[col["mc_stderr"]])
            checks.expect(
                abs(mc - closed) <= MC_SIGMAS * stderr,
                f"m={row[0]} sigma_rel={row[1]}: a_mean_mc {mc!r} vs closed {closed!r} "
                f"(stderr {stderr!r})",
            )


class OracleCrosscheck(Workload):
    """Closed-form Bayes updates against the dense state-vector oracle,
    branch by branch, with no CLI involved. One op is one atom pass over
    every live branch; units are branch-atom passes."""

    name = "oracle-crosscheck"
    tag = 3
    probe = "eigh"
    gamma = 1.0

    def __init__(self, tiny: bool):
        self.atoms, self.photons, self.trials = (2, 2, 2) if tiny else (3, 4, 8)

    def _trials(self, seed: int, repeat: int) -> list[dict]:
        """Seeded (weights, branch states, taus, outcome uniforms) trials."""
        import numpy as np

        rng = np.random.default_rng([seed, self.tag, 1, repeat])
        photons = list(range(1, self.photons + 1))
        trials = []
        for _ in range(self.trials):
            raw = rng.random(len(photons)) + 0.05
            trials.append(
                {
                    "weights": dict(zip(photons, (raw / raw.sum()).tolist())),
                    "zeros": {n: int(rng.integers(0, n + 1)) for n in photons},
                    "taus": rng.uniform(0.1, 2.5, size=self.atoms).tolist(),
                    "uniforms": rng.random(self.atoms).tolist(),
                }
            )
        return trials

    def setup(self, seed: int) -> None:
        from cavityqubits import fockspace, protocol

        for trial in self._trials(seed, 0):
            protocol.WeightedEnsemble.from_weights(trial["weights"])
        # The first threaded LAPACK call in a process is far slower than
        # later ones; it belongs to set-up, not to the first op.
        space = fockspace.JointSpace(self.atoms, self.photons)
        ground = (fockspace.AtomLevel.GROUND,) * self.atoms
        state = fockspace.basis_state(space, ground, 0, self.photons)
        fockspace.evolve(state, fockspace.interaction_hamiltonian(space, 0), 0.5)

    def run(self, seed, repeat, workdir, checks, tracer=None):
        data = Dataset()
        trials = self._trials(seed, repeat)
        begin = perf_counter()
        for i, trial in enumerate(trials):
            _guarded(lambda: self._trial(trial, data, checks, tracer), checks, f"oracle trial {i}")
        data.wall_s = perf_counter() - begin
        return data

    def _trial(self, trial: dict, data: Dataset, checks: Checks, tracer) -> None:
        """One trial: every atom pass of one (weights, taus, outcomes) draw."""
        from cavityqubits import fockspace, protocol

        ground, excited = protocol.MeasurementOutcome.GROUND, protocol.MeasurementOutcome.EXCITED
        levels = (fockspace.AtomLevel.GROUND,) * self.atoms
        weights = trial["weights"]
        spaces = {n: fockspace.JointSpace(self.atoms, n) for n in weights}
        states = {
            n: fockspace.basis_state(spaces[n], levels, j, n - j) for n, j in trial["zeros"].items()
        }
        ens = protocol.WeightedEnsemble.from_weights(weights)
        for k, (tau, u) in enumerate(zip(trial["taus"], trial["uniforms"])):
            if tracer is not None:
                tracer.next_op()
            start = perf_counter()
            p_ground, ground_post = {}, {}
            p_excited_oracle = 0.0
            for n, state in states.items():
                if weights[n] == 0.0:
                    continue
                h = fockspace.interaction_hamiltonian(spaces[n], k)
                states[n] = fockspace.evolve(state, h, tau)
                measured = fockspace.measure_atom_energy(states[n], k, outcome=ground)
                p_ground[n], ground_post[n] = measured.probability, measured.post_state
                p_excited_oracle += weights[n] * (1.0 - measured.probability)
                data.units += 1
            p_excited = protocol.excite_prob(ens, self.gamma, tau)
            checks.expect(
                abs(p_excited - p_excited_oracle) <= ORACLE_TOL,
                f"atom {k}: p_excite {p_excited!r} vs oracle {p_excited_oracle!r}",
            )
            outcome = excited if u < p_excited else ground
            posterior = {}
            for n in weights:
                if n not in p_ground:
                    posterior[n] = 0.0
                    continue
                q = p_ground[n] if outcome is ground else 1.0 - p_ground[n]
                posterior[n] = weights[n] * q
                if outcome is ground:
                    states[n] = ground_post[n]
                elif q > 1e-14:
                    states[n] = fockspace.measure_atom_energy(states[n], k, outcome=excited).post_state
            total = sum(posterior.values())
            weights = {n: w / total for n, w in posterior.items()}
            ens = protocol.update_weights(ens, self.gamma, tau, outcome)
            closed = ens.as_dict()
            for n, w in weights.items():
                checks.expect(
                    abs(closed[n] - w) <= ORACLE_TOL,
                    f"atom {k}: weight of n={n} {closed[n]!r} vs oracle {w!r}",
                )
            data.op_s.append(perf_counter() - start)


class AdaptiveTau(Workload):
    """Many short `custom --policy optimal-each-step` runs, one CLI call per
    seed; every atom pass re-optimizes tau and every call writes a CSV."""

    name = "adaptive-tau"
    tag = 4
    probe = "python"

    def __init__(self, tiny: bool):
        self.calls = 4 if tiny else 20

    def setup(self, seed: int) -> None:
        from cavityqubits import cli, config, protocol

        cfg = config.ExperimentConfig(
            experiment="custom",
            distribution=config.DistributionSpec("binomial", n_max=6),
            policy="optimal-each-step",
            seed=self.program_seed(seed, 0),
        )
        errors = [d for d in cli.validate(cfg) if d.level == "error"]
        if errors:
            raise RuntimeError(f"{self.name} config rejected: {errors}")
        protocol.optimal_tau(protocol.WeightedEnsemble.from_weights(cfg.initial_weights()), cfg.gamma)

    def run(self, seed, repeat, workdir, checks, tracer=None):
        data = Dataset()
        for i in range(self.calls):
            out = workdir / f"adaptive-tau-{i:03d}.csv"
            argv = ["custom", "--nmax", "6", "--policy", "optimal-each-step",
                    "--seed", str(self.program_seed(seed, 1, repeat, i)), "--out", str(out)]
            if tracer is not None:
                tracer.next_op()
            elapsed, ok = _call_cli(argv, checks)
            data.op_s.append(elapsed)
            data.units += 1
            if ok:
                _guarded(lambda: _check_csv(out, checks, record_hash=repeat == 0), checks, out.name)
        data.wall_s = sum(data.op_s)
        return data


WORKLOADS = {w.name: w for w in (QualityCutoff, TrappingCurves, OracleCrosscheck, AdaptiveTau)}
