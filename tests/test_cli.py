import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from fidelity_reference import atom_fidelity
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cavityqubits import __version__, cli, protocol, transitions, trapping
from cavityqubits.cli import (
    MAX_QUALITY_WORK,
    MAX_STEP_ROWS,
    MAX_STREAM_WEIGHTS,
    MAX_STREAMS,
    MAX_TRAPPING_ATOMS,
    MAX_TRAPPING_PROPOSALS,
    QUALITY_ATOM_UNITS,
    TRAPPING_CELL_PROPOSALS,
    check_output,
    main,
    run_experiment,
    validate,
)
from cavityqubits.cloning import binomial_distribution, quality
from cavityqubits.config import (
    MAX_CUTOFF,
    MAX_PHOTON_NUMBER,
    MAX_RANGE_VALUES,
    MAX_TRIALS,
    POLICIES,
    DistributionSpec,
    ExperimentConfig,
    parse_config_file,
    parse_float_list,
    parse_int_list,
    split_rng,
)
from cavityqubits.trapping import escape_mean_rate, mean_atoms_rel


def read_rows(path: Path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def read_metadata(path: Path):
    meta = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            meta[key.strip()] = value.strip()
    return meta


# --- value parsing -----------------------------------------------------------


def test_parse_float_list(monkeypatch):
    grid = parse_float_list("0.01:0.20:0.01")
    assert len(grid) == 20
    assert grid[0] == pytest.approx(0.01)
    assert grid[-1] == pytest.approx(0.20)
    assert parse_float_list("0.1,0.5") == [0.1, 0.5]
    assert parse_float_list("2.5") == [2.5]
    # counts that are too large, infinite or NaN: an OverflowError before
    for text in (f"1:{MAX_RANGE_VALUES + 1}:1", "0:1e300:1e-300", "1e300:-1e300:1e-300",
                 "nan:1:0.1"):
        with pytest.raises(ValueError, match="must hold at most"):
            parse_float_list(text)
    monkeypatch.setattr("cavityqubits.config.MAX_RANGE_VALUES", 20)  # the bound, no huge list
    assert parse_float_list("1:20:1") == [float(k) for k in range(1, 21)]
    with pytest.raises(ValueError, match="'1:21:1' must hold at most 20 values"):
        parse_float_list("1:21:1")
    # a range that runs down, even by rounding alone, holds no value: it
    # would have meant the default grid
    for text in ("1:0:0.1", "0.1:0.0999999:0.1"):
        with pytest.raises(ValueError, match=f"^empty float range {text!r}$"):
            parse_float_list(text)


def test_parse_int_list(monkeypatch):
    assert parse_int_list("1..5") == [1, 2, 3, 4, 5]
    assert parse_int_list("1,4,9") == [1, 4, 9]
    assert parse_int_list("7") == [7]
    with pytest.raises(ValueError):
        parse_int_list("5..1")
    for text in (f"1..{MAX_RANGE_VALUES + 1}", f"1..{10**400}"):
        with pytest.raises(ValueError, match="must hold at most"):
            parse_int_list(text)
    monkeypatch.setattr("cavityqubits.config.MAX_RANGE_VALUES", 20)  # the bound, no huge list
    assert parse_int_list("1..20") == list(range(1, 21))
    with pytest.raises(ValueError, match="'1..21' must hold at most 20 values"):
        parse_int_list("1..21")


def test_an_oversized_range_is_a_one_line_error(tmp_path, capsys):
    # an OverflowError traceback before, from the flag and the config file alike
    text = "0:1e300:1e-300"
    message = f"range {text!r} must hold at most {MAX_RANGE_VALUES} values"
    with pytest.raises(SystemExit) as exc:
        main(["fig3", "--sigma-rel", text, "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert [line for line in capsys.readouterr().err.splitlines() if "error" in line] == [
        f"cavityqubits fig3: error: argument --sigma-rel: {message}"
    ]
    conf = tmp_path / "exp.conf"
    conf.write_text(f"sigma_rel_values = {text}\n")
    with pytest.raises(SystemExit, match=f"^invalid configuration: sigma_rel_values: {message}$"):
        main(["fig3", "--config", str(conf), "--seed", "1"])


def test_an_empty_range_is_a_one_line_error(tmp_path, capsys):
    # fig3 ran the 20-value default grid before, from the flag and the config file alike
    text = "1:0:0.1"
    message = f"empty float range {text!r}"
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["fig3", "--sigma-rel", text, "--trials", "5", "--seed", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert [line for line in capsys.readouterr().err.splitlines() if "error" in line] == [
        f"cavityqubits fig3: error: argument --sigma-rel: {message}"
    ]
    conf = tmp_path / "exp.conf"
    conf.write_text(f"sigma_rel_values = {text}\n")
    with pytest.raises(SystemExit, match=f"^invalid configuration: sigma_rel_values: {message}$"):
        main(["fig3", "--config", str(conf), "--trials", "5", "--seed", "1", "--out", str(out)])
    assert not out.exists()


def test_distribution_spec_parse_roundtrip():
    for text in ("binomial:6", "uniform:2..8", "explicit:1=0.25,3=0.75"):
        spec = DistributionSpec.parse(text)
        assert DistributionSpec.parse(spec.describe()).resolve() == spec.resolve()
    assert DistributionSpec.parse("binomial:6").resolve() == binomial_distribution(6)


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("# comment\n tau = 0.5 \ncutoff=12\nsigma-rel = 0.1\n")
    assert parse_config_file(path) == {"tau": "0.5", "cutoff": "12", "sigma_rel": "0.1"}
    bad = tmp_path / "bad.conf"
    bad.write_text("tau 0.5\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_file(bad)


# --- validate ------------------------------------------------------------------


def make_config(**overrides):
    defaults = dict(
        experiment="custom",
        distribution=DistributionSpec("binomial", n_max=6),
        tau=0.825,
        seed=1,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_validate_warns_at_trapping_bound():
    config = make_config(
        distribution=DistributionSpec("binomial", n_max=4), tau=math.pi / 2
    )
    diags = validate(config)
    assert [d.level for d in diags] == ["warning"]
    assert diags[0].field == "tau"


def test_validate_accepts_safe_tau():
    assert validate(make_config(tau=0.825)) == []  # 0.825 < pi/sqrt(6)


def test_validate_rejects_negative_jitter():
    diags = validate(make_config(sigma_rel=-0.1))
    assert any(d.level == "error" and d.field == "sigma_rel" for d in diags)


def test_validate_requires_seed():
    diags = validate(make_config(seed=None))
    assert any(d.level == "error" and d.field == "seed" for d in diags)


def test_validate_flags_unnormalized_explicit_weights():
    config = make_config(distribution=DistributionSpec("explicit", weights={1: 0.3, 2: 0.3}))
    diags = validate(config)
    assert any(d.field == "distribution" for d in diags)


def test_validate_rejects_vacuum_branch():
    config = make_config(distribution=DistributionSpec("explicit", weights={0: 0.5, 2: 0.5}))
    diags = validate(config)
    assert any(d.field == "distribution" and "n >= 1" in d.message for d in diags)


@pytest.mark.parametrize("command", ["fig4", "fig2"])
def test_n_originals_above_smallest_photon_number_is_a_config_error(command, tmp_path, capsys):
    # binomial:6 occupies n = 1, which a 2 -> m cloner cannot serve
    out = tmp_path / "x.csv"
    argv = [command, "--nmax", "6", "--n-originals", "2", "--seed", "1", "--out", str(out)]
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: n_originals: 2 exceeds the smallest occupied photon number 1"]
    assert not out.exists()
    assert validate(make_config(distribution=DistributionSpec("uniform", n_min=2, n_max=6),
                                n_originals=2)) == []


def test_validate_uses_the_ensemble_weight_tolerance(tmp_path, capsys):
    # 1 - 1e-11 is within a loose 1e-9 but not the ensemble's own tolerance
    weights = {1: 0.5, 2: 0.49999999999}
    diags = validate(make_config(distribution=DistributionSpec("explicit", weights=weights)))
    assert [(d.level, d.field) for d in diags] == [("error", "distribution")]
    out = tmp_path / "x.csv"
    argv = ["fig4", "--dist", "explicit:1=0.5,2=0.49999999999", "--runs", "2", "--seed", "1",
            "--out", str(out)]
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(argv)
    assert "sum to 1" in capsys.readouterr().err
    assert not out.exists()


def test_half_rabi_on_a_photon_number_mixture_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["custom", "--policy", "half-rabi", "--nmax", "4", "--seed", "1", "--out", str(out)]
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [
        "error: policy: half-rabi needs a single known photon number, "
        "the distribution has 4 occupied branches"
    ]
    assert not out.exists()
    # a single known photon number runs the deterministic scheme
    argv = ["custom", "--policy", "half-rabi", "--dist", "explicit:3=1.0", "--seed", "1",
            "--out", str(out)]
    assert main(argv) == 0
    assert read_metadata(out)["terminal_reason"] == "vacuum-certain"


SMALL_RUNS = {
    "fig4": (["--cutoffs", "1..2", "--runs", "2"], "quality-cutoff"),
    "fig3": (["--sigma-rel", "0.1", "--m", "1", "--trials", "10"], "trapping-curves"),
}


@pytest.mark.parametrize("policy", ["jittered", "half-rabi", "optimal-each-step"])
@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_configured_policy_an_experiment_does_not_run_is_an_error(
    command, policy, tmp_path, capsys
):
    # fig4 steps one fixed tau for every stream; fig3 runs no policy at all
    small, experiment = SMALL_RUNS[command]
    conf = tmp_path / "exp.conf"
    conf.write_text(f"policy = {policy}\nsigma_rel = 0.3\n")
    out = tmp_path / "x.csv"
    argv = [command, "--config", str(conf), "--nmax", "4", *small, "--seed", "5", "--out", str(out)]
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(argv)
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: policy: {experiment} runs only fixed, got {policy!r}"
    ]
    assert not out.exists()
    conf.write_text("policy = fixed\n")
    assert main(argv) == 0
    assert read_metadata(out)["policy"] == "fixed"


def test_repeated_photon_number_in_an_explicit_distribution_is_an_error(tmp_path, capsys):
    text = "explicit:1=0.5,2=0.25,2=0.5"
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--dist", text, "--seed", "1"])
    assert exc.value.code == 2
    assert f"argument --dist: photon number 2 appears twice in {text!r}" in capsys.readouterr().err
    conf = tmp_path / "exp.conf"
    conf.write_text(f"distribution = {text}\nseed = 1\n")
    with pytest.raises(SystemExit, match="distribution: photon number 2 appears twice"):
        main(["validate", "--config", str(conf)])


@pytest.mark.parametrize(
    "spec",
    [
        f"binomial:{MAX_PHOTON_NUMBER + 1}",
        f"uniform:1..{MAX_PHOTON_NUMBER + 1}",
        f"explicit:1=0.5,{MAX_PHOTON_NUMBER + 1}=0.5",
        "explicit:1=0.5,1000000=0.5",
    ],
)
def test_photon_numbers_above_the_bound_are_rejected(spec, tmp_path, capsys):
    with pytest.raises(ValueError, match="exceeds the maximum"):
        DistributionSpec.parse(spec)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--dist", spec, "--seed", "1"])
    assert exc.value.code == 2
    assert f"exceeds the maximum {MAX_PHOTON_NUMBER}" in capsys.readouterr().err
    conf = tmp_path / "exp.conf"
    conf.write_text(f"distribution = {spec}\nseed = 1\n")
    with pytest.raises(SystemExit, match="distribution: photon number .* exceeds the maximum"):
        main(["validate", "--config", str(conf)])


def test_nmax_out_of_range_is_a_one_line_error():
    for nmax in (0, MAX_PHOTON_NUMBER + 1):
        with pytest.raises(SystemExit, match="invalid configuration: nmax: "):
            main(["validate", "--nmax", str(nmax), "--seed", "1"])
    # the bound itself is allowed
    assert DistributionSpec("binomial", n_max=MAX_PHOTON_NUMBER).max_photon_number() == (
        MAX_PHOTON_NUMBER
    )


def test_fig4_stream_count_is_bounded():
    def quality_cutoff(cutoffs, runs):
        return make_config(experiment="quality-cutoff", tau=None, cutoffs=cutoffs, runs=runs)

    assert validate(quality_cutoff(tuple(range(1, 31)), 1000)) == []  # the script default
    assert validate(quality_cutoff((1, 2), MAX_STREAMS // 2)) == []
    diags = validate(quality_cutoff((1, 2), MAX_STREAMS // 2 + 1))
    assert [str(d) for d in diags] == [
        f"error: runs: 2 cutoffs x {MAX_STREAMS // 2 + 1} runs = {MAX_STREAMS + 2} streams "
        f"exceeds the maximum {MAX_STREAMS}"
    ]
    # the bound is fig4's only: a single run takes one stream whatever `runs` says
    assert validate(make_config(runs=MAX_STREAMS + 1)) == []


def test_fig4_weight_count_is_bounded(tmp_path, capsys):
    def quality_cutoff(n_max, cutoffs, runs):
        return make_config(experiment="quality-cutoff", tau=None, cutoffs=cutoffs, runs=runs,
                           distribution=DistributionSpec("binomial", n_max=n_max))

    # the script default (330000 weights), the golden and benchmark cases
    for n_max, runs in ((10, 1000), (10, 20), (10, 10)):
        assert validate(quality_cutoff(n_max, tuple(range(1, 31)), runs)) == []
    limit = MAX_STREAM_WEIGHTS // (MAX_PHOTON_NUMBER + 1)
    # a budget of 30 atoms keeps its work (MAX_QUALITY_WORK) within bounds
    assert validate(replace(quality_cutoff(MAX_PHOTON_NUMBER, (1,), limit), atom_budget=30)) == []
    streams = limit + 1
    weights = streams * (MAX_PHOTON_NUMBER + 1)
    message = (
        f"error: runs: {streams} streams x {MAX_PHOTON_NUMBER + 1} photon numbers = {weights} "
        f"weights exceeds the maximum {MAX_STREAM_WEIGHTS}"
    )
    assert [str(d) for d in validate(quality_cutoff(MAX_PHOTON_NUMBER, (1,), streams))] == [message]
    out = tmp_path / "q.csv"
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(["fig4", "--nmax", str(MAX_PHOTON_NUMBER), "--cutoffs", "1", "--runs", str(streams),
              "--seed", "1", "--out", str(out)])
    assert capsys.readouterr().err.strip().splitlines() == [message]
    assert not out.exists()


# fig4 at a tau that traps the n = 1 branch of binomial:2, so every run
# ends on its cutoff, not on certainty: the costliest fig4 per weight update
FIG4_TRAPPED = (
    "experiment = quality-cutoff\ndistribution = binomial:2\natom_budget = 1000000000\n"
    "tau = 3.14159\nseed = 1\n"
)
TRAP_WARNING = (
    "warning: tau: tau = 3.14159 puts sqrt(2)*gamma*tau at 4.442879185415692 >= pi; "
    "a trapping point is reachable for some branch"
)


# runs x the atoms each run may pass, 3 x cutoff, x 3 photon numbers, plus
# 400 per atom: 9.0e11 (hours) and just past the bound
@pytest.mark.parametrize("runs, cutoff", [(100_000, 1_000_000), (1000, 3922)])
def test_fig4_work_is_bounded(runs, cutoff, tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text(f"{FIG4_TRAPPED}runs = {runs}\ncutoffs = {cutoff}\n")
    work = 3 * cutoff * (3 * runs + QUALITY_ATOM_UNITS)
    assert work > MAX_QUALITY_WORK
    message = (
        f"error: atom_budget: {runs} runs x {3 * cutoff} atoms x 3 photon numbers, plus "
        f"{QUALITY_ATOM_UNITS} per atom, = {work} weight updates exceeds the maximum "
        f"{MAX_QUALITY_WORK}"
    )
    assert main(["validate", "--config", str(conf)]) == 1
    assert capsys.readouterr().out.splitlines() == [message, TRAP_WARNING]
    out = tmp_path / "q.csv"
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(["fig4", "--config", str(conf), "--out", str(out)])
    assert not out.exists()  # refused, never run


def test_fig4_just_inside_the_work_bound_runs_in_seconds(tmp_path, capsys):
    # 5800 weight updates short of the bound; about 1.6 s on a 2-vCPU host,
    # where the bound's worst case, a run passing all 3 x cutoff atoms, is
    # about 5 s
    conf = tmp_path / "exp.conf"
    conf.write_text(f"{FIG4_TRAPPED}runs = 1000\ncutoffs = 3921\n")
    assert MAX_QUALITY_WORK - 5800 == 3 * 3921 * (3 * 1000 + QUALITY_ATOM_UNITS)
    assert main(["validate", "--config", str(conf)]) == 0
    out = tmp_path / "q.csv"
    start = time.perf_counter()
    assert main(["fig4", "--config", str(conf), "--out", str(out)]) == 0
    assert time.perf_counter() - start < 30
    assert check_output(out) == []


@pytest.mark.parametrize(
    "command, experiment, key, message",
    [
        ("fig4", "quality-cutoff", "cutoffs", "needs at least one cutoff"),
        ("fig3", "trapping-curves", "rabi_cycles_values", "needs at least one Rabi cycle count"),
    ],
)
def test_empty_grid_is_a_config_error(command, experiment, key, message, tmp_path, capsys):
    # it used to run and write a header-only CSV that check rejects
    conf = tmp_path / "exp.conf"
    conf.write_text(f"experiment = {experiment}\nseed = 5\n{key} =\n")
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit, match="invalid configuration"):
        main([command, "--config", str(conf), "--nmax", "4", "--out", str(out)])
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {key}: {message}"]
    assert not out.exists()
    assert main(["validate", "--config", str(conf)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"error: {key}: {message}"]


@pytest.mark.parametrize("text", [",", " , ,", ""])
def test_an_empty_jitter_list_is_a_one_line_error(text, tmp_path, capsys):
    # fig3 ran all 60 cells of the default grid before; leaving the key out
    # still means that grid
    message = f"empty float list {text.strip()!r}"
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["fig3", "--sigma-rel", text, "--trials", "5", "--seed", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert [line for line in capsys.readouterr().err.splitlines() if "error" in line] == [
        f"cavityqubits fig3: error: argument --sigma-rel: {message}"
    ]
    conf = tmp_path / "exp.conf"
    conf.write_text(f"experiment = trapping-curves\nseed = 5\nsigma_rel_values = {text}\n")
    for argv in (["fig3", "--trials", "5", "--out", str(out)], ["validate"]):
        with pytest.raises(
            SystemExit, match=f"^invalid configuration: sigma_rel_values: {message}$"
        ):
            main([*argv, "--config", str(conf)])
    assert not out.exists()
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_float_list(text)


def test_run_table_rows_are_bounded(capsys):
    def single_run(experiment, dist, cutoff, budget):
        return make_config(experiment=experiment, distribution=DistributionSpec.parse(dist),
                           tau=None, cutoff=cutoff, atom_budget=budget)

    # the default budget at the largest distributions, at any cutoff
    for dist in ("binomial:1000", "uniform:1..1000"):
        assert validate(single_run("custom", dist, MAX_CUTOFF, 10_000)) == []
    # 7 photon numbers: at most MAX_STEP_ROWS / 7 = 1430143 steps, step 0 included
    assert MAX_STEP_ROWS == 7 * 1_430_143
    assert validate(single_run("weights-evolution", "binomial:7", MAX_CUTOFF, 1_430_142)) == []
    assert [str(d) for d in validate(
        single_run("weights-evolution", "binomial:7", MAX_CUTOFF, 1_430_143)
    )] == [
        f"error: atom_budget: 1430144 steps x 7 photon numbers = 10011008 rows exceeds the "
        f"maximum {MAX_STEP_ROWS}"
    ]
    # each excitation ends a ground streak: a run passes at most (7 + 1) x cutoff atoms
    assert validate(single_run("custom", "binomial:7", 178_767, 10**9)) == []
    assert [str(d) for d in validate(single_run("custom", "binomial:7", 178_768, 10**9))] == [
        f"error: atom_budget: 1430145 steps x 7 photon numbers = 10011015 rows exceeds the "
        f"maximum {MAX_STEP_ROWS}"
    ]
    # a run that would keep over 10 GB of rows is refused before it starts
    assert main(["validate", "--dist", "binomial:1000", "--cutoff", "1000000", "--budget",
                 "50000", "--seed", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"error: atom_budget: 50001 steps x 1000 photon numbers = 50001000 rows exceeds the "
        f"maximum {MAX_STEP_ROWS}"
    ]


@pytest.mark.parametrize(
    "lines, message",
    [
        # about 2.5e8 atoms per trial at m = 1
        ("sigma_rel_values = 0.00001", "10000 trials x the grid's mean escape counts = 3.45e+12"),
        ("sigma_rel_values = 0.00001\ntrials = 1", "1 trials x the grid's mean escape counts = "
         "3.45e+08"),
        # 1 - exp(-x) rounds to 0: the mean escape count is infinite
        ("sigma_rel_values = 1e-200\ntrials = 1", "1 trials x the grid's mean escape counts = inf"),
        # the default grid: 635 atoms per trial summed over its 60 cells
        ("trials = 160000", "160000 trials x the grid's mean escape counts = 1.02e+08"),
    ],
)
def test_fig3_work_is_bounded(lines, message, tmp_path, capsys):
    # validate only: these grids would run for hours
    conf = tmp_path / "exp.conf"
    conf.write_text(f"experiment = trapping-curves\nseed = 1\n{lines}\n")
    assert main(["validate", "--config", str(conf)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"error: trials: {message} atoms exceeds the maximum {MAX_TRAPPING_ATOMS:.3g}"
    ]


def test_fig3_proposals_are_bounded_or_run(tmp_path, capsys):
    # 50 cells at sigma_rel 0.5, where every atom is a proposal: the most
    # trials within the proposal bound run within 10 s (about 1.5 s on two
    # workers of a 2-vCPU host; at most 3 s on one), and one more is refused
    grid = dict(experiment="trapping-curves", rabi_cycles_values=tuple(range(1, 51)),
                sigma_rel_values=(0.5,))
    mean = mean_atoms_rel(1, 0.5)
    trials = math.floor((MAX_TRAPPING_PROPOSALS / 50 - TRAPPING_CELL_PROPOSALS) / mean)
    assert [d.field for d in validate(make_config(**grid, trials=trials + 1))] == ["trials"]
    assert validate(make_config(**grid, trials=trials)) == []
    start = time.perf_counter()
    assert main(["fig3", "--m", "1..50", "--sigma-rel", "0.5", "--trials", str(trials),
                 "--seed", "1", "--out", str(tmp_path / "bound.csv")]) == 0
    assert time.perf_counter() - start < 10.0
    capsys.readouterr()
    conf = tmp_path / "exp.conf"
    conf.write_text(f"experiment = trapping-curves\nseed = 1\nrabi_cycles_values = 1..50\n"
                    f"sigma_rel_values = 0.5\ntrials = {trials + 1}\n")
    assert main(["validate", "--config", str(conf)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"error: trials: {trials + 1} trials x the grid's mean escape counts x alpha + beta, "
        f"plus 2000 per cell, = 5e+07 Monte Carlo proposals exceeds the maximum "
        f"{MAX_TRAPPING_PROPOSALS:.3g}"
    ]
    # a lone trial with a mean escape count near 10^8 draws about one proposal
    conf.write_text("experiment = trapping-curves\nseed = 1\nrabi_cycles_values = 1\n"
                    "sigma_rel_values = 0.0000168\ntrials = 1\n")
    assert main(["validate", "--config", str(conf)]) == 0
    start = time.perf_counter()
    assert main(["fig3", "--config", str(conf), "--out", str(tmp_path / "lone.csv")]) == 0
    assert time.perf_counter() - start < 0.5
    assert check_output(tmp_path / "lone.csv") == []
    # 1.9e6 cells are refused by their calls alone, without a sum over them
    config = make_config(experiment="trapping-curves", rabi_cycles_values=tuple(range(1, 1001)),
                         sigma_rel_values=tuple(parse_float_list("0.01:0.2:0.0001")), trials=1)
    start = time.perf_counter()
    assert [str(d) for d in validate(config)] == [
        "error: trials: 1 trials x the grid's mean escape counts x alpha + beta, plus 2000 per "
        f"cell, = 3.8e+09 Monte Carlo proposals exceeds the maximum {MAX_TRAPPING_PROPOSALS:.3g}"
    ]
    assert time.perf_counter() - start < 0.5


def test_fig3_script_grid_is_within_the_work_bound():
    grid = tuple(parse_float_list("0.01:0.20:0.01"))
    work = 20_000 * sum(mean_atoms_rel(m, s) for m in (1, 2, 3) for s in grid)
    assert 1.2e7 < work < MAX_TRAPPING_ATOMS / 5
    # the proposals the sampler draws, about 2.11e6, and one cell's call each
    proposals = 20_000 * sum(
        mean_atoms_rel(m, s) * sum(trapping.thinning(trapping.TrapSpec(1, m, s))[3:5])
        for m in (1, 2, 3) for s in grid
    )
    assert 2.1e6 < proposals < 2.12e6
    assert proposals + 60 * TRAPPING_CELL_PROPOSALS < MAX_TRAPPING_PROPOSALS / 20
    for values in (grid, ()):  # explicit and default jitter grid
        config = make_config(experiment="trapping-curves", sigma_rel_values=values, trials=20_000)
        assert validate(config) == []


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fig3_jitter_must_be_finite(value, tmp_path, capsys):
    # a NaN or infinite jitter makes every sin^2 NaN, so no trial would escape
    conf = tmp_path / "exp.conf"
    conf.write_text(f"experiment = trapping-curves\nseed = 1\nsigma_rel_values = {value}\n")
    assert main(["validate", "--config", str(conf)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"error: sigma_rel_values: must be finite, got {float(value)!r}"
    ]


def phase_error(n, phase):
    return (
        f"error: Rabi phase: sqrt({n})*gamma*tau can reach {phase}, above the maximum 2^40, "
        "where adjacent floats are 2^-12 apart"
    )


@pytest.mark.parametrize(
    "argv, errors",
    [
        # an infinite coupling empties optimal_tau's bounds (a traceback before)
        (["fig2", "--gamma", "inf"], ["error: gamma: must be finite, got inf"]),
        (
            ["fig2", "--gamma", "nan"],
            ["error: gamma: must be finite, got nan"],
        ),
        # these three ran and wrote NaN weights or all-zero qualities
        (["fig2", "--tau", "inf"], ["error: tau: must be finite, got inf"]),
        (["custom", "--policy", "jittered", "--sigma-rel", "inf"],
         ["error: sigma_rel: must be finite, got inf"]),
        (["fig4", "--tau", "inf", "--runs", "2"], ["error: tau: must be finite, got inf"]),
        (
            ["custom", "--tau", "nan"],
            ["error: tau: must be finite, got nan"],
        ),
        # finite values whose time scale or Rabi frequency overflows: pi/gamma
        # = inf emptied optimal_tau's grid (a traceback), an infinite
        # sqrt(n)*gamma made NaN weights, and fig3's infinite tau0 never ended
        (["custom", "--gamma", "1e-308"], [phase_error(6, "inf")]),
        (["fig2", "--gamma", "1e-308"], [phase_error(6, "inf")]),
        (["fig4", "--gamma", "1e-308"], [phase_error(6, "inf")]),
        (["fig2", "--gamma", "1e308"], [phase_error(6, "inf")]),
        (["custom", "--gamma", "1e308"], [phase_error(6, "inf")]),
        (["fig4", "--gamma", "1e308"], [phase_error(6, "inf")]),
        (["fig3", "--gamma", "1e-308", "--trials", "10"], [phase_error(1, "inf")]),
        (["fig2", "--tau", "1e308"], [phase_error(6, "inf")]),
        # a Rabi cycle count or a jitter the closed form cannot square as a
        # float was an OverflowError traceback
        (["fig3", "--m", str(10**200), "--trials", "10"], [phase_error(1, "2.64e+201")]),
        (["fig3", "--m", f"1,{10**400}", "--trials", "10"], [phase_error(1, "inf")]),
        (["fig3", "--sigma-rel", "1e200", "--trials", "10"], [phase_error(1, "3.02e+202")]),
        # squarable values whose dwell-time spread overflows the Rabi phase:
        # every sin^2 would be NaN and no trial would escape
        (
            ["fig3", "--m", str(10**154), "--sigma-rel", "0.1,1e154", "--trials", "10"],
            [phase_error(1, "inf")],
        ),
        # an infinite jittered spread sigma_rel * tau made NaN weights
        (
            ["custom", "--policy", "jittered", "--tau", "1e300", "--sigma-rel", "1e10"],
            [phase_error(6, "inf")],
        ),
        (
            ["custom", "--policy", "jittered", "--tau", "1e300", "--sigma-rel", "1e7"],
            [phase_error(6, "inf")],
        ),
        # a finite phase too large for floats to resolve: every sin^2 was
        # rounding noise, yet the run passed check
        (
            ["custom", "--policy", "jittered", "--tau", "1e300", "--sigma-rel", "1e5"],
            [phase_error(6, "3.92e+306")],
        ),
        (["fig4", "--tau", "1e13", "--runs", "2"], [phase_error(6, "2.45e+13")]),
        (["fig3", "--m", str(10**12), "--trials", "10"], [phase_error(1, "2.64e+13")]),
    ],
)
def test_non_finite_floats_are_config_errors(argv, errors, tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit, match="invalid configuration"):
        main([*argv, "--seed", "1", "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error")] == errors
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, errors",
    [
        # an OverflowError traceback before, from run_batch's int array
        (
            ["fig2", "--cutoff", str(10**20)],
            [f"error: cutoff: {10**20} exceeds the maximum 1000000"],
        ),
        # a 'Maximum allowed dimension exceeded' traceback before; below that
        # fig4's memory grew by 8 bytes per unit of its largest cutoff
        (
            ["fig4", "--cutoffs", str(10**20), "--runs", "1"],
            [f"error: cutoffs: {10**20} exceeds the maximum 1000000"],
        ),
    ],
)
def test_huge_cutoffs_are_config_errors(argv, errors, tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit, match="invalid configuration"):
        main([*argv, "--seed", "1", "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error")] == errors
    assert not out.exists()


def test_huge_trials_are_config_errors(tmp_path, capsys):
    # an OverflowError traceback before, from the atom bound's int x float product
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(["fig3", "--trials", str(10**400), "--seed", "1", "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error")] == [
        f"error: trials: {10**400} exceeds the maximum {MAX_TRIALS}"
    ]
    assert not out.exists()


def test_the_cutoff_cap_is_inclusive():
    assert validate(make_config(cutoff=MAX_CUTOFF)) == []
    assert [str(d) for d in validate(make_config(cutoff=MAX_CUTOFF + 1))] == [
        f"error: cutoff: {MAX_CUTOFF + 1} exceeds the maximum {MAX_CUTOFF}"
    ]
    fig4 = make_config(experiment="quality-cutoff", runs=1)
    assert validate(replace(fig4, cutoffs=(1, MAX_CUTOFF))) == []
    assert [str(d) for d in validate(replace(fig4, cutoffs=(MAX_CUTOFF + 1, 1)))] == [
        f"error: cutoffs: {MAX_CUTOFF + 1} exceeds the maximum {MAX_CUTOFF}"
    ]


def test_the_rabi_phase_cap_is_2_to_the_40():
    # binomial:6: the top branch's phase is sqrt(6)*tau at gamma = 1
    tau = cli.MAX_PHASE / math.sqrt(6)
    below = validate(make_config(tau=tau * (1 - 2**-40)))
    assert [d.level for d in below] == ["warning"]  # a trapping point is reachable
    assert [str(d) for d in validate(make_config(tau=tau * (1 + 2**-40)))] == [
        phase_error(6, "1.1e+12")
    ]


def _validated_run(config: ExperimentConfig, out: Path) -> list[str] | None:
    """None if `validate` rejects the config; otherwise run it and return
    `check`'s problems with its output."""
    if any(d.level == "error" for d in validate(config)):
        return None
    return check_output(run_experiment(replace(config, out=str(out))))


# floats across the whole range, both signs, infinities and NaN, and more
# often the tiniest positive ones
any_float = st.floats() | st.floats(min_value=5e-324, max_value=1e-300)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tau=any_float, sigma_rel=any_float, gamma=any_float)
def test_jittered_configs_are_rejected_or_run_and_check(tau, sigma_rel, gamma, tmp_path_factory):
    config = make_config(
        policy="jittered", tau=tau, sigma_rel=sigma_rel, gamma=gamma, atom_budget=200
    )
    assert _validated_run(config, tmp_path_factory.getbasetemp() / "jit.csv") in (None, [])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    m=st.integers(-2, 10) | st.integers(1, 10**400),
    # the thinned Monte Carlo draws about one proposal per trial at a small
    # jitter, and below 0.0016 the atom bound refuses 2000 trials; the
    # bounded ranges make accepted cells common
    sigma_rel=st.floats(0.001, 1.0) | st.floats(min_value=0.01)
    | st.sampled_from([0.0, -1.0, math.nan]),
    gamma=st.floats(0.1, 10.0) | any_float,
    # an accepted cell runs 2000 trials in well under a second; from 10^9
    # trials on, every cell's mean escape count of at least 1 passes the atom bound
    trials=st.integers(-2, 2000) | st.integers(10**9, 10**400),
)
# the slowest accepted cell, about 0.1 s; and the same past the bounds
@example(m=1, sigma_rel=0.01, gamma=1.0, trials=2000)
@example(m=1, sigma_rel=0.01, gamma=1.0, trials=10**9)
def test_fig3_cells_are_rejected_or_run_and_check(m, sigma_rel, gamma, trials, tmp_path_factory):
    config = make_config(
        experiment="trapping-curves", tau=None, rabi_cycles_values=(m,),
        sigma_rel_values=(sigma_rel,), trials=trials, gamma=gamma,
    )
    if trials < 10**9:
        assert _validated_run(config, tmp_path_factory.getbasetemp() / "trap.csv") in (None, [])
        return
    errors = {d.field for d in validate(config) if d.level == "error"}
    assert errors  # refused, never run
    if not any(d.level == "error" for d in validate(replace(config, trials=1))):
        assert errors == {"trials"}


def test_fig4_steps_all_streams_in_one_batch(tmp_path, monkeypatch):
    run_batch = protocol.run_batch
    calls = []

    def no_scalar_runs(*args, **kwargs):
        raise AssertionError("fig4 must not call protocol.run")

    def counted_run_batch(initial, policy, gamma, cutoffs, atom_budget, rngs):
        calls.append((list(cutoffs), len(rngs)))
        return run_batch(initial, policy, gamma, cutoffs, atom_budget, rngs)

    monkeypatch.setattr(protocol, "run", no_scalar_runs)
    monkeypatch.setattr(protocol, "run_batch", counted_run_batch)
    out = tmp_path / "q.csv"
    for cutoffs, levels in (("1..3", [1, 2, 3]), ("3,1,3", [1, 3])):
        calls.clear()
        assert main(["fig4", "--nmax", "4", "--cutoffs", cutoffs, "--runs", "4", "--seed", "3",
                     "--out", str(out)]) == 0
        # one stream per run and the sorted distinct cutoffs
        assert calls == [(levels, 4)]
        assert check_output(out) == []


def assert_fig4_rows_equal_separate_runs(out: Path) -> set:
    """Every row of the fig4 file `out` equals separate `protocol.run` calls
    at that cutoff alone, run r on split_rng(seed, r), graded run by run with
    `quality(atom_fidelity(...))`. Returns the stop reasons seen."""
    meta = read_metadata(out)
    weights = DistributionSpec.parse(meta["distribution"]).resolve()
    runs, n_orig, budget = int(meta["runs"]), int(meta["n_originals"]), int(meta["atom_budget"])
    base = ExperimentConfig(
        experiment="custom", distribution=DistributionSpec("explicit", weights=weights),
        gamma=float(meta["gamma"]), tau=float(meta["resolved_tau"]), atom_budget=budget,
        n_originals=n_orig,
    )
    expected, reasons = [], set()
    for cutoff in parse_int_list(meta["cutoffs"]):
        config = replace(base, cutoff=cutoff)
        traces = [protocol.run(config, split_rng(int(meta["seed"]), r)) for r in range(runs)]
        reasons.update(t.reason for t in traces)
        q = np.array([
            quality(atom_fidelity(t.final.as_dict(), n_orig), n_orig, t.final.transferred)
            if t.final.transferred >= n_orig else 0.0
            for t in traces
        ])
        stderr = float(q.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
        expected.append([str(cutoff), repr(float(q.mean())), repr(stderr), str(max(weights))])
    assert read_rows(out)[1] == expected
    return reasons


@pytest.mark.parametrize(
    "args",
    [
        ["--nmax", "10", "--cutoffs", "1..30", "--runs", "20", "--seed", "2024"],
        ["--nmax", "10", "--cutoffs", "1..30", "--runs", "20", "--budget", "12", "--seed", "2025"],
        ["--dist", "uniform:2..6", "--n-originals", "2", "--cutoffs", "1..30", "--runs", "20",
         "--seed", "2026"],
        ["--nmax", "6", "--cutoffs", "3,1,3", "--runs", "15", "--seed", "4"],
        ["--nmax", "10", "--cutoffs", "30,5,1", "--runs", "1", "--seed", "5"],
    ],
    ids=["binomial10", "budget", "two-originals", "unsorted-duplicates", "single-run"],
)
def test_fig4_rows_equal_separate_runs_at_each_cutoff(args, tmp_path):
    # every cutoff read off one trajectory per run equals a separate batch at
    # that cutoff alone on the same streams, graded run by run
    out = tmp_path / "q.csv"
    assert main(["fig4", *args, "--out", str(out)]) == 0
    reasons = assert_fig4_rows_equal_separate_runs(out)
    if "--budget" in args:
        assert protocol.StopReason.ATOM_BUDGET in reasons


small_distributions = (
    st.integers(1, 6).map(lambda n: f"binomial:{n}")
    | st.tuples(st.integers(0, 6), st.integers(1, 6))
    .filter(lambda t: t[0] <= t[1])
    .map(lambda t: f"uniform:{t[0]}..{t[1]}")
    | st.dictionaries(st.integers(0, 6), st.sampled_from([1, 2, 3]), min_size=1, max_size=4).map(
        lambda d: "explicit:" + ",".join(f"{n}={p / sum(d.values())!r}" for n, p in d.items())
    )
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    dist=small_distributions,
    # duplicates and any order; 0 is refused
    cutoffs=st.lists(st.integers(0, 8), min_size=1, max_size=6),
    runs=st.integers(1, 6),
    budget=st.integers(1, 60),
    n_originals=st.integers(1, 2),
    gamma=st.sampled_from([1.0]) | st.floats(0.2, 5.0),
    tau=st.none() | st.floats(0.05, 3.0),
)
def test_fig4_configs_are_rejected_or_equal_separate_runs(
    dist, cutoffs, runs, budget, n_originals, gamma, tau, tmp_path_factory
):
    config = make_config(
        experiment="quality-cutoff", distribution=DistributionSpec.parse(dist),
        cutoffs=tuple(cutoffs), runs=runs, atom_budget=budget, n_originals=n_originals,
        gamma=gamma, tau=tau,
    )
    out = tmp_path_factory.getbasetemp() / "fig4.csv"
    problems = _validated_run(config, out)
    assert problems in (None, [])
    if problems == []:
        assert_fig4_rows_equal_separate_runs(out)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    experiment=st.sampled_from(["weights-evolution", "custom"]),
    # single-branch distributions too, so that half-rabi runs
    dist=small_distributions | st.integers(1, 6).map(lambda n: f"explicit:{n}=1.0"),
    policy=st.sampled_from(POLICIES),
    tau=st.none() | st.floats(0.05, 3.0),
    sigma_rel=st.floats(0.0, 0.5),
    gamma=st.sampled_from([1.0]) | st.floats(0.2, 5.0),
    cutoff=st.integers(1, 8),
    budget=st.integers(1, 60),
    n_originals=st.integers(1, 2),
    seed=st.integers(0, 2**32),
)
def test_run_configs_are_rejected_or_run_and_check(
    experiment, dist, policy, tau, sigma_rel, gamma, cutoff, budget, n_originals, seed,
    tmp_path_factory,
):
    config = make_config(
        experiment=experiment, distribution=DistributionSpec.parse(dist), policy=policy,
        tau=tau, sigma_rel=sigma_rel, gamma=gamma, cutoff=cutoff, atom_budget=budget,
        n_originals=n_originals, seed=seed,
    )
    out = tmp_path_factory.getbasetemp() / "run.csv"
    problems = _validated_run(config, out)
    assert problems in (None, [])
    if problems == []:
        rows = read_rows(out)[1]
        assert {int(n): float(p) for step, n, p, *_ in rows if step == "0"} == (
            config.initial_weights()
        )


def test_run_experiment_refuses_invalid_config(tmp_path):
    config = make_config(sigma_rel=-1.0, out=str(tmp_path / "x.csv"))
    with pytest.raises(SystemExit, match="invalid configuration"):
        run_experiment(config)


def test_validate_command_exit_codes(capsys):
    assert main(["validate", "--nmax", "6", "--tau", "0.825", "--seed", "1"]) == 0
    assert main(["validate", "--nmax", "6", "--sigma-rel", "-2", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "sigma_rel" in out


# --- experiment outputs ------------------------------------------------------------


def test_fig2_output(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--nmax", "6", "--tau", "0.825", "--seed", "7", "--out", str(out)]) == 0
    meta = read_metadata(out)
    assert meta["version"] == __version__
    assert meta["seed"] == "7"
    assert "PCG64" in meta["rng"]
    assert meta["distribution"] == "binomial:6"
    header, rows = read_rows(out)
    assert header == ["step", "n", "p_n", "F_atom", "transferred"]
    step0 = {int(r[1]): float(r[2]) for r in rows if r[0] == "0"}
    assert step0 == binomial_distribution(6)
    # each step's F_atom is the dict reference's, bit for bit
    steps: dict[str, dict[int, float]] = {}
    for step, n, p, _, _ in rows:
        steps.setdefault(step, {})[int(n)] = float(p)
    for step, n, p, f_atom, _ in rows:
        assert f_atom == repr(atom_fidelity(steps[step]))
    assert check_output(out) == []


def test_step_table_memory_grows_by_its_rows_alone(tmp_path):
    # binomial:1000: an atom adds one row of 1001 weights (8 KB) to the run's
    # stack and one node to the transition tree, and the CSV is written row
    # by row; holding the weights as dicts, row tuples and one string of the
    # whole file took about 250 KB per atom. `check` reads the file once and
    # holds one step's rows at a time; holding the file as text, lines, rows
    # and parsed rows took about 734 KB per step
    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def run(budget: int) -> None:
        transitions.trees.clear()
        assert main(["custom", "--dist", "binomial:1000", "--tau", "0.05",
                     "--cutoff", "1000000", "--budget", str(budget), "--seed", "1",
                     "--out", str(tmp_path / f"custom-{budget}.csv")]) == 0

    def check(budget: int) -> None:
        assert check_output(tmp_path / f"custom-{budget}.csv") == []

    # the first call in a process also keeps what it builds once, which can
    # only lower the difference, by far less than the 250 KB per atom
    small = peak(lambda: run(5))
    assert (peak(lambda: run(25)) - small) / 20 < 64e3
    small = peak(lambda: check(5))
    assert (peak(lambda: check(25)) - small) / 20 < 64e3


def test_fig3_output(tmp_path):
    out = tmp_path / "fig3.csv"
    args = [
        "fig3",
        "--sigma-rel", "0.01:0.20:0.01",
        "--m", "1,2,3",
        "--trials", "300",
        "--seed", "3",
        "--out", str(out),
    ]
    assert main(args) == 0
    header, rows = read_rows(out)
    assert header == ["m_rabi", "sigma_rel", "a_mean_closed", "a_mean_mc", "mc_stderr"]
    assert len(rows) == 60
    for row in rows:
        closed = float(row[2])
        assert closed == mean_atoms_rel(int(row[0]), float(row[1]))
    assert check_output(out) == []


FIG3_SMALL = ["fig3", "--sigma-rel", "0.02:0.10:0.02", "--m", "1,2", "--trials", "2000",
              "--seed", "9"]


def record_cells(monkeypatch, before=None):
    """Wrap `trapping.monte_carlo_escape` to record (m_rabi, sigma_rel, thread)
    of every call as it starts; `before(spec)` runs first."""
    escape = trapping.monte_carlo_escape
    started = []
    lock = threading.Lock()

    def recorded(spec, trials, rng):
        with lock:
            started.append((spec.rabi_cycles, spec.sigma_rel, threading.get_ident()))
        if before is not None:
            before(spec)
        return escape(spec, trials, rng)

    monkeypatch.setattr(trapping, "monte_carlo_escape", recorded)
    return started


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_fig3_bytes_do_not_depend_on_the_worker_count(workers, tmp_path, monkeypatch):
    out = tmp_path / "fig3.csv"
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert main([*FIG3_SMALL, "--out", str(out)]) == 0
    serial = out.read_bytes()
    _, rows = read_rows(out)
    for cell, row in enumerate(rows):  # each row is its own stream's estimate
        spec = trapping.TrapSpec(photon_number=1, rabi_cycles=int(row[0]),
                                 sigma_rel=float(row[1]))
        direct = trapping.monte_carlo_escape(spec, 2000, split_rng(9, cell))
        assert row[3:] == [repr(direct.mean), repr(direct.stderr)]

    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    started = record_cells(monkeypatch)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches, more chances to lose an update
    try:
        assert main([*FIG3_SMALL, "--out", str(out)]) == 0
    finally:
        sys.setswitchinterval(interval)
    assert out.read_bytes() == serial
    assert threading.active_count() == threads
    assert [(int(r[0]), float(r[1])) for r in rows] == sorted(
        (m, s) for m, s, _ in started
    )  # every cell ran once
    ran_on = {ident for _, _, ident in started}
    if workers == 1:
        assert ran_on == {threading.get_ident()}
        assert [(m, s) for m, s, _ in started] == [(int(r[0]), float(r[1])) for r in rows]
        return
    assert len(ran_on) > 1
    cell = {(int(r[0]), float(r[1])): i for i, r in enumerate(rows)}
    for ident in ran_on:  # each worker takes its cells in cell order
        mine = [cell[m, s] for m, s, thread in started if thread == ident]
        assert mine == sorted(mine)


def test_fig3_with_one_cell_runs_on_the_calling_thread(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    started = record_cells(monkeypatch)
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--sigma-rel", "0.1", "--m", "1", "--trials", "100", "--seed", "1",
                 "--out", str(out)]) == 0
    assert [ident for _, _, ident in started] == [threading.get_ident()]


@pytest.mark.parametrize(
    "error", [SystemExit("error: cell m=1 sigma_rel=0.04 failed"), ValueError("cell failed")],
    ids=["exit", "exception"],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_fig3_cell_stops_the_grid(workers, error, tmp_path, monkeypatch, capsys):
    # cells in the order sigma_rel = 0.02, 0.04, ...; the second one fails
    argv = ["fig3", "--sigma-rel", "0.02:0.10:0.02", "--m", "1", "--trials", "2000",
            "--seed", "9", "--out", str(tmp_path / "fig3.csv")]
    failing = threading.Event()

    def fail_second(spec):
        if spec.sigma_rel == 0.04:
            failing.set()
            raise error
        if workers > 1:  # the first cell ends only after the second has failed
            failing.wait(timeout=10)
            time.sleep(0.05)  # time for the failing worker to record its exception

    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    started = record_cells(monkeypatch, before=fail_second)
    threads = threading.active_count()
    with pytest.raises(type(error)) as raised:
        main(argv)
    assert raised.value is error  # what the serial loop raises, not a wrapper
    assert threading.active_count() == threads
    assert capsys.readouterr().err == ""  # no traceback from a worker thread
    assert not (tmp_path / "fig3.csv").exists()
    # no cell is started once the failure is recorded
    assert sorted(s for _, s, _ in started) == [0.02, 0.04]
    assert len({ident for _, _, ident in started}) == workers


def test_fig4_output_quality_grows_with_cutoff(tmp_path):
    out = tmp_path / "fig4.csv"
    args = [
        "fig4",
        "--nmax", "5",
        "--runs", "80",
        "--cutoffs", "1,15",
        "--seed", "11",
        "--out", str(out),
    ]
    assert main(args) == 0
    header, rows = read_rows(out)
    assert header == ["cutoff", "mean_quality", "stderr", "n_max"]
    assert [int(r[0]) for r in rows] == [1, 15]
    assert all(int(r[3]) == 5 for r in rows)
    assert float(rows[1][1]) > float(rows[0][1])
    assert check_output(out) == []


def test_outputs_are_bit_identical(tmp_path, monkeypatch):
    args = ["fig2", "--nmax", "4", "--tau", "0.7", "--seed", "5", "--out", "run.csv"]
    contents = []
    for sub in ("a", "b"):
        workdir = tmp_path / sub
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(args) == 0
        contents.append((workdir / "run.csv").read_bytes())
    assert contents[0] == contents[1]


def test_env_var_sets_default_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("CAVITYQUBITS_OUTDIR", str(tmp_path / "results"))
    assert main(["fig2", "--nmax", "4", "--tau", "0.7", "--seed", "5"]) == 0
    assert (tmp_path / "results" / "weights-evolution.csv").exists()


def test_config_file_with_flag_override(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "distribution = binomial:4\ntau = 0.5\ncutoff = 6\nseed = 9\n"
        f"out = {tmp_path / 'from_file.csv'}\n"
    )
    out = tmp_path / "override.csv"
    assert main(["custom", "--config", str(conf), "--cutoff", "3", "--out", str(out)]) == 0
    meta = read_metadata(out)
    assert meta["cutoff"] == "3"  # flag wins
    assert meta["tau"] == "0.5"  # file value survives
    assert meta["seed"] == "9"


def test_config_file_unknown_key(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text("nmax = 6\n")
    with pytest.raises(SystemExit, match="unknown key"):
        main(["fig2", "--config", str(conf), "--seed", "1"])
    # a file that cannot be read or has no `key = value` line is one line too
    with pytest.raises(SystemExit, match="invalid configuration: .*No such file"):
        main(["fig2", "--config", str(tmp_path / "missing.conf"), "--seed", "1"])
    conf.write_text("tau 0.5\n")
    with pytest.raises(SystemExit, match="invalid configuration: .*expected 'key = value'"):
        main(["fig2", "--config", str(conf), "--seed", "1"])


def test_custom_run_with_jitter(tmp_path):
    out = tmp_path / "jitter.csv"
    args = [
        "custom",
        "--dist", "explicit:2=0.5,3=0.5",
        "--policy", "jittered",
        "--tau", "0.8",
        "--sigma-rel", "0.05",
        "--cutoff", "8",
        "--seed", "2",
        "--out", str(out),
    ]
    assert main(args) == 0
    assert check_output(out) == []


def test_checker_catches_tampering(tmp_path):
    out = tmp_path / "fig3.csv"
    main(["fig3", "--sigma-rel", "0.1", "--m", "1", "--trials", "100", "--seed", "1",
          "--out", str(out)])
    good = out.read_text()
    row = good.splitlines()[-1].split(",")
    row[2] = repr(float(row[2]) + 1e-6)
    out.write_text("\n".join(good.splitlines()[:-1] + [",".join(row)]) + "\n")
    problems = check_output(out)
    assert problems and "a_mean_closed" in problems[0]
    assert main(["check", str(out)]) == 1


def test_check_allows_for_the_truncation_at_large_jitter(tmp_path):
    # sigma_rel = 0.5 truncates Phi(-2), 2.3 %, of the dwell times to
    # theta > 0, which moves the mean escape count off the closed form's 2
    # by more than the tail bound of 5e6 trials: only a bound over the
    # truncation's range of means passes the file
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--sigma-rel", "0.5", "--m", "1", "--trials", "5000000", "--seed", "1",
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    mc = float(rows[0][3])
    assert 5_000_000 * escape_mean_rate(mean_atoms_rel(1, 0.5), mc) > math.log(2 / 1e-6)
    assert check_output(out) == []


@pytest.mark.parametrize("row", [0, 59])  # mean escape counts near 253 and 2
@pytest.mark.parametrize("shift", [10, -10])
def test_checker_bounds_the_monte_carlo_escape_mean(row, shift, tmp_path):
    golden = Path(__file__).parent / "golden" / "fig3.csv"
    assert check_output(golden) == []
    trials = int(read_metadata(golden)["trials"])
    lines = golden.read_text().splitlines()
    index = len(lines) - 60 + row
    fields = lines[index].split(",")
    mu = float(fields[2])
    fields[3] = repr(mu + shift * math.sqrt((mu * mu - mu) / trials))  # shift by exact sds
    lines[index] = ",".join(fields)
    out = tmp_path / "fig3.csv"
    out.write_text("\n".join(lines) + "\n")
    assert check_output(out) == [
        f"row {row}: a_mean_mc {float(fields[3])!r} is outside the 1e-06 tail bound of "
        f"{trials} trials around a_mean_closed {mu!r}"
    ]


@pytest.mark.parametrize(
    "trials, problem",
    [("0", "trials: must be >= 1, got 0"),
     ("9" * 401, f"trials: {'9' * 401} exceeds the maximum {MAX_TRIALS}")],  # no float holds it
    ids=["zero", "401-digits"],
)
def test_check_reports_an_unusable_trials_count(trials, problem, tmp_path, capsys):
    golden = Path(__file__).parent / "golden" / "fig3.csv"
    line = f"# trials = {read_metadata(golden)['trials']}\n"
    out = tmp_path / "fig3.csv"
    out.write_text(golden.read_text().replace(line, f"# trials = {trials}\n"))
    assert check_output(out) == [f"metadata: {problem}"]
    assert main(["check", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{out}: metadata: {problem}"]


def test_checker_bound_holds_at_one_trial(tmp_path):
    # one escape count per cell: the Chernoff bound holds at any trials,
    # where a normal rule on the standard error does not
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--trials", "1", "--seed", "4", "--out", str(out)]) == 0
    assert check_output(out) == []
    lines = out.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[3] = "0.5"  # no escape count is below 1
    zero_jitter = ["1", "0.0", "inf", "7.0", "0.0"]  # escape never happens
    out.write_text("\n".join(lines[:-1] + [",".join(fields), ",".join(zero_jitter)]) + "\n")
    assert [p.partition(" is ")[0] for p in check_output(out)] == [
        "row 59: a_mean_mc 0.5", "row 60: a_mean_mc 7.0"
    ]


def test_checker_catches_wrong_step0(tmp_path):
    out = tmp_path / "fig2.csv"
    main(["fig2", "--nmax", "4", "--tau", "0.7", "--seed", "5", "--out", str(out)])
    text = out.read_text().replace("binomial:4", "binomial:5")
    out.write_text(text)
    problems = check_output(out)
    assert any("step-0" in p for p in problems)


def test_checker_reports_nan_step_weights(tmp_path):
    out = tmp_path / "fig2.csv"
    main(["fig2", "--nmax", "2", "--tau", "0.7", "--seed", "5", "--out", str(out)])
    lines = out.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("1,"):  # every row of step 1
            row = line.split(",")
            row[2] = "nan"
            lines[i] = ",".join(row)
    out.write_text("\n".join(lines) + "\n")
    assert check_output(out) == ["step 1: weights sum to nan"]


def edit_step_rows(path: Path, edit) -> None:
    """Rewrite each step-table row of `path` as `edit(step, n, p_n, F_atom,
    transferred)` (a list of fields, or None to drop the row)."""
    lines = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("step,"):
            lines.append(line)
        elif (fields := edit(*line.split(","))) is not None:
            lines.append(",".join(fields))
    path.write_text("\n".join(lines) + "\n")


def test_checker_verifies_the_transferred_column(tmp_path):
    out = tmp_path / "custom.csv"
    assert main(["custom", "--nmax", "4", "--seed", "3", "--out", str(out)]) == 0
    assert check_output(out) == []
    good = out.read_text()
    # a message quotes p_n as the file holds it, so the expected text comes from the file
    rows = [line.split(",") for line in good.splitlines() if line[:1].isdigit()]
    p_n = {(s, n): repr(float(p)) for s, n, p, _, _ in rows}
    edit_step_rows(out, lambda s, n, p, f, m: [s, n, p, f, str(int(m) + 3)])
    problems = check_output(out)
    assert problems[0] == "step 0: transferred 3 != 0"
    assert f"step 1: p_n {p_n['1', '1']} at n = 1 < transferred 4" in problems
    assert problems[-1] == "transferred 5 at the last step != transferred_total 2"
    assert main(["check", str(out)]) == 1

    def damaged(edit):
        out.write_text(good)
        edit_step_rows(out, edit)
        return check_output(out)

    # step 1 moved the first qubit; step 2 the second, onto branch 1's only photon
    assert damaged(lambda s, n, p, f, m: None if s == "3" else [s, n, p, f, m]) == [
        "step numbers are not 0..21"
    ]
    assert damaged(lambda s, n, p, f, m: [s, n, p, f, "0" if s == "1" else m]) == [
        "step 2: transferred goes from 0 to 2"
    ]
    assert damaged(lambda s, n, p, f, m: [s, n, p, f, "1" if (s, n) == ("4", "4") else m]) == [
        "step 4: 2 transferred values, expected 1",
    ]
    assert damaged(lambda s, n, p, f, m: [s, n, p, f, "3" if s == "3" else m]) == [
        f"step 3: p_n {p_n['3', '2']} at n = 2 < transferred 3",
        "step 4: transferred goes from 3 to 2",
    ]
    out.write_text(good.replace("# transferred_total = 2", "# transferred_total = 3"))
    assert check_output(out) == ["transferred 2 at the last step != transferred_total 3"]
    out.write_text(good.replace("# transferred_total = 2\n", ""))
    assert check_output(out) == ["metadata: transferred_total: missing"]


def test_check_reads_step_groups_in_the_order_they_are_written(tmp_path):
    out = tmp_path / "custom.csv"
    assert main(["custom", "--nmax", "4", "--seed", "3", "--out", str(out)]) == 0
    good = out.read_text()
    lines = good.splitlines()
    header = lines.index("step,n,p_n,F_atom,transferred")

    def problems(text: str) -> list[str]:
        out.write_text(text)
        return check_output(out)

    # steps 3 and 4 swapped, each block of rows kept whole: both carry
    # transferred 2, so only their order is wrong
    steps = [line.split(",", 1)[0] for line in lines[header + 1 :]]
    at = header + 1 + steps.index("3")  # four rows per step
    last = int(steps[-1])
    swapped = lines[:at] + lines[at + 4 : at + 8] + lines[at : at + 4] + lines[at + 8 :]
    assert problems("\n".join(swapped) + "\n") == [f"step numbers are not 0..{last}"]

    # a '#' line after the header is a row that does not parse; its value
    # is not applied, and the block's transferred_total still holds
    late = lines[: header + 1] + ["# transferred_total = 3"] + lines[header + 1 :]
    assert problems("\n".join(late) + "\n") == ["row 0: a '#' line after the header"]
    late = lines + ["# transferred_total = 3"]
    assert problems("\n".join(late) + "\n") == [
        f"row {len(lines) - header - 1}: a '#' line after the header"
    ]

    # a table without its step-0 rows
    out.write_text(good)
    edit_step_rows(out, lambda s, n, p, f, m: None if s == "0" else [s, n, p, f, m])
    assert check_output(out) == [
        "step-0 weights differ from the configured distribution",
        f"step numbers are not 0..{last - 1}",
    ]

    # problems come in file order: step 1's F_atom before step 2's transferred
    # count (earlier versions graded F_atom after every other step check)
    out.write_text(good)
    f_atom = float(lines[header + 5].split(",")[3])  # step 1
    edit_step_rows(out, lambda s, n, p, f, m: [
        s, n, p, repr(f_atom + 1e-6) if s == "1" else f, "0" if s == "2" else m
    ])
    assert check_output(out) == [
        f"step 1: F_atom {f_atom + 1e-6!r} != recomputed {f_atom!r}",
        "step 2: transferred goes from 1 to 0",
        "step 3: transferred goes from 0 to 2",
    ]


def test_check_command_reports_ok(tmp_path, capsys):
    out = tmp_path / "f.csv"
    main(["fig2", "--nmax", "4", "--tau", "0.7", "--seed", "5", "--out", str(out)])
    assert main(["check", str(out)]) == 0
    assert "OK" in capsys.readouterr().out


@pytest.fixture
def fig4_csv(tmp_path):
    out = tmp_path / "fig4.csv"
    main(["fig4", "--nmax", "4", "--runs", "3", "--cutoffs", "1..3", "--seed", "1",
          "--out", str(out)])
    return out


def test_check_ties_fig4_cutoffs_and_stderr_to_the_metadata(fig4_csv, tmp_path):
    assert check_output(fig4_csv) == []
    lines = fig4_csv.read_text().splitlines()
    first = len(lines) - 3  # three runs at cutoffs 1, 2, 3
    stderr_max = 0.75 / math.sqrt(3 - 1)

    def edited(edits: dict) -> list[str]:
        out = list(lines)
        for (row, column), text in edits.items():
            fields = out[first + row].split(",")
            fields[column] = text
            out[first + row] = ",".join(fields)
        path = tmp_path / "edited.csv"
        path.write_text("\n".join(out) + "\n")
        return check_output(path)

    assert edited({(1, 0): "7", (2, 2): repr(stderr_max * 1.01)}) == [
        "row 1: cutoff 7 != metadata cutoff 2",
        f"row 2: stderr {stderr_max * 1.01!r} outside [0, {stderr_max!r}] for 3 runs",
    ]
    assert edited({(0, 0): "2", (1, 0): "1"}) == [  # two rows swapped
        "row 0: cutoff 2 != metadata cutoff 1", "row 1: cutoff 1 != metadata cutoff 2"
    ]
    assert edited({(0, 2): repr(stderr_max)}) == []  # the bound itself passes
    for bad in ("-0.001", "nan", "inf"):
        assert edited({(0, 2): bad}) == [
            f"row 0: stderr {float(bad)!r} outside [0, {stderr_max!r}] for 3 runs"
        ]
    path = tmp_path / "short.csv"
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert check_output(path) == ["2 rows, but metadata lists 3 cutoffs"]
    huge = 10**400  # beyond the float range: bounded at the largest float, no traceback
    bound = 0.75 / math.sqrt(sys.float_info.max)
    for key, value, problems in [
        ("runs", None, ["metadata: runs: missing"]),
        ("cutoffs", None, ["metadata: cutoffs: missing"]),
        ("runs", "0", ["metadata: runs: must be >= 1, got 0"]),
        ("runs", str(huge), [
            f"row {i}: stderr {float(line.split(',')[2])!r} outside [0, {bound!r}] for {huge} runs"
            for i, line in enumerate(lines[first:])
        ]),
        ("cutoffs", "1..3", ["metadata: cutoffs: '1..3' echoes back as '1,2,3'"]),
    ]:
        text = [line for line in lines if not line.startswith(f"# {key} =")]
        if value is not None:
            text.insert(1, f"# {key} = {value}")
        path.write_text("\n".join(text) + "\n")
        assert check_output(path) == problems, key


def test_check_wants_zero_stderr_from_one_run(tmp_path):
    out = tmp_path / "fig4.csv"
    main(["fig4", "--nmax", "4", "--runs", "1", "--cutoffs", "2,1,2", "--seed", "1",
          "--out", str(out)])
    assert check_output(out) == []
    lines = out.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[-3:]] == ["2", "1", "2"]
    fields = lines[-1].split(",")
    assert fields[2] == "0.0"
    fields[2] = "1e-300"
    out.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    assert check_output(out) == ["row 2: stderr 1e-300 outside [0, 0.0] for 1 runs"]


def damaged_files(good: Path):
    """(name, text, expected problems) of files `check` cannot use or must flag."""
    text = good.read_text()
    meta = "".join(l + "\n" for l in text.splitlines() if l.startswith("#"))
    header = "cutoff,mean_quality,stderr,n_max\n"
    rows = text.splitlines()[-3:]
    return [
        ("empty", "", ["empty file"]),
        ("blank", "\n\n", ["empty file"]),
        ("metadata-only", meta, ["no header row"]),
        ("header-only", meta + header, ["no data rows"]),
        ("non-numeric", meta + header + rows[0].replace(",4", ",four") + "\n",
         ["row 0: invalid literal for int() with base 10: 'four'"]),
        ("short-row", meta + header + "1,0.9\n" + rows[1] + "\n",
         ["row 0: 2 fields, expected 4"]),
        ("file-order", meta + header + "7," + rows[0].partition(",")[2] + "\n1,0.9\n" + rows[2]
         + "\n", ["row 0: cutoff 7 != metadata cutoff 1", "row 1: 2 fields, expected 4"]),
        ("bad-distribution", meta.replace("binomial:4", "binomial:x") + header + rows[0] + "\n",
         ["metadata: distribution: invalid literal for int() with base 10: 'x'"]),
    ]


def test_check_reports_unusable_files_without_traceback(fig4_csv, capsys):
    for name, text, expected in damaged_files(fig4_csv):
        path = fig4_csv.with_name(f"{name}.csv")
        path.write_text(text)
        assert check_output(path) == expected, name
        assert main(["check", str(path)]) == 1, name
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"{path}: {problem}" for problem in expected], name


def test_check_reports_missing_file(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["check", str(missing)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"{missing}: cannot read: ")
    assert main(["check", str(tmp_path)]) == 1  # a directory
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_check_reports_rows_it_cannot_recompute(tmp_path):
    out = tmp_path / "fig3.csv"
    main(["fig3", "--sigma-rel", "0.1", "--m", "1", "--trials", "100", "--seed", "1",
          "--out", str(out)])
    lines = out.read_text().splitlines()
    lines[-1] = "0," + lines[-1].partition(",")[2]  # m_rabi 0 has no closed form
    out.write_text("\n".join(lines) + "\n")
    assert check_output(out) == [
        "row 0: cannot recompute a_mean_closed: rabi_cycles must be >= 1, got 0"
    ]
    out = tmp_path / "fig2.csv"
    main(["fig2", "--nmax", "4", "--tau", "0.7", "--seed", "5", "--out", str(out)])
    out.write_text(out.read_text().replace("# n_originals = 1", "# n_originals = 2"))
    assert check_output(out)[0] == (
        "step 0: cannot recompute F_atom: cloner cannot shrink: m_clones=1 < n_originals=2"
    )


GOLDEN_FILES = [path.read_text().splitlines()
                for path in sorted((Path(__file__).parent / "golden").glob("*.csv"))]
GOLDEN_LINES = [line for lines in GOLDEN_FILES for line in lines]
JUNK = ["", ",", "-", "0", "e9", "nan", "inf", "=", "#", "\"", " ", "\n"]


def mangled(lines: list[str], edits: list[tuple[int, int, str]]) -> bytes:
    """`lines` with the text of each (line, column, text) edit inserted."""
    lines = list(lines)
    for row, column, junk in edits:
        row %= len(lines)
        column %= len(lines[row]) + 1
        lines[row] = lines[row][:column] + junk + lines[row][column:]
    return "\n".join(lines).encode("utf-8", "surrogatepass")


edits = st.lists(
    st.tuples(
        st.integers(0, 500), st.integers(0, 200), st.sampled_from(JUNK) | st.text(max_size=5)
    ),
    max_size=4,
)
any_csv = st.one_of(
    st.binary(max_size=400),
    st.builds(mangled, st.sampled_from(GOLDEN_FILES), edits),  # a golden file, damaged
    st.builds(  # lines of any golden file in any order, or none
        mangled,
        st.lists(st.sampled_from(GOLDEN_LINES) | st.text(max_size=40), min_size=1, max_size=40),
        edits,
    ),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=any_csv)
def test_check_returns_problems_for_any_bytes(data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "any.csv"
    path.write_bytes(data)
    problems = check_output(path)
    assert isinstance(problems, list)
    assert all(isinstance(p, str) for p in problems)


@pytest.mark.parametrize(
    "argv", [["fig2"], ["fig4", "--runs", "5", "--cutoffs", "1..5"]], ids=["fig2", "fig4"]
)
def test_binomial_64_runs_and_checks(argv, tmp_path):
    # binomial:64 needs binom(63, k), past the 64-bit integer range
    out = tmp_path / "x.csv"
    assert main([*argv, "--nmax", "64", "--seed", "1", "--out", str(out)]) == 0
    assert main(["check", str(out)]) == 0
