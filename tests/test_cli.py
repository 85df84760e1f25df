import errno
import math
import os
import runpy
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from csv_reference import step_text
from fidelity_reference import atom_fidelity
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cavityqubits import __version__, cli, cloning, protocol, trapping
from cavityqubits.cli import (
    COST,
    MAX_BYTES,
    MAX_SECONDS,
    check_output,
    main,
    price,
    run_experiment,
    validate,
)
from cavityqubits.cloning import binomial_distribution, quality
from cavityqubits.config import (
    MAX_CUTOFF,
    MAX_PHASE,
    MAX_PHOTON_NUMBER,
    MAX_RANGE_VALUES,
    MAX_TRIALS,
    POLICIES,
    DistributionSpec,
    ExperimentConfig,
    parse_config_file,
    parse_float_list,
    parse_int_list,
    read_echo,
    split_rng,
)
from cavityqubits.trapping import escape_mean_rate, mean_atoms_rel

SRC = Path(cli.__file__).resolve().parent.parent


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


def config_of(argv: list[str]) -> ExperimentConfig:
    """The config a subcommand's argv gives."""
    return cli._config_from_args(cli.build_parser().parse_args(argv))


def accepted(config: ExperimentConfig) -> bool:
    return not any(d.level == "error" for d in validate(config))


def largest_accepted(config_at, lo: int, hi: int) -> int:
    """The largest n in [lo, hi) for which `validate` accepts `config_at(n)`,
    where it accepts lo and refuses every n past some edge."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepted(config_at(mid)) else (lo, mid)
    return lo


def price_error(config: ExperimentConfig) -> str:
    """`validate`'s line for `config`, priced above the bounds."""
    seconds, peak = price(config, config.initial_weights())
    return (
        f"error: price: the run and its check are priced at {seconds:.3g} s and "
        f"{peak / 1e6:.3g} MB, above the maximum {cli.MAX_SECONDS:g} s and {MAX_BYTES / 1e6:g} MB"
    )


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


# 16 branches whose pairwise total is 0.999999999999, inside WEIGHT_TOL, and
# whose total left to right, the order of every weighted total, is not
EDGE_DIST = (
    "explicit:1=0.04920575699143284,2=0.06252391197700993,3=0.07182728711641907,"
    "4=0.10434623376518054,5=0.05303575256188085,6=0.10799205760592634,"
    "7=0.07428107549231647,8=0.10038091037767922,9=0.060282089510204466,"
    "10=0.08381875814630989,11=0.041033851067699495,12=0.06328041665361384,"
    "13=0.026170543823172347,14=0.012188635176589637,15=0.00467244116878784,"
    "16=0.08496027856477723"
)


def test_validate_sums_the_weights_left_to_right(tmp_path, capsys):
    # validate accepted it, and the run then died in atom_fidelity with a traceback
    line = "error: distribution: weights must sum to 1, got 0.9999999999989999"
    argv = ["--dist", EDGE_DIST, "--tau", "0.3", "--seed", "1"]
    assert main(["validate", "--experiment", "custom", *argv]) == 1
    assert capsys.readouterr().out.splitlines() == [line]
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(["custom", *argv, "--out", str(out)])
    assert [err for err in capsys.readouterr().err.splitlines() if "error" in err] == [line]
    assert not out.exists()


def step0_table(config: ExperimentConfig, path: Path) -> Path:
    """A step table holding only `config`'s prior over n = 1..K, at step 0,
    under the echo of uniform:1..K, a distribution every judge accepts."""
    weights = config.initial_weights()
    echoed = replace(config, distribution=DistributionSpec("uniform", n_max=len(weights)))
    metadata = [*echoed.metadata(__version__), ("terminal_reason", "atom-budget-exhausted"),
                ("transferred_total", "0")]
    rows = [f"0,{n},{p!r},0.5,0" for n, p in weights.items()]
    path.write_text("".join(f"# {k} = {v}\n" for k, v in metadata)
                    + "step,n,p_n,F_atom,transferred\n" + "\n".join(rows) + "\n")
    return path


@st.composite
def edge_weights(draw) -> dict[int, float]:
    """Weights over n = 1..K, 8 <= K <= 40, whose total left to right lies
    within a few ulps of 1 - WEIGHT_TOL or 1 + WEIGHT_TOL."""
    k = draw(st.integers(8, 40))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    edge = 1.0 + draw(st.sampled_from([-1, 1])) * cloning.WEIGHT_TOL
    target = edge + draw(st.integers(-3, 3)) * math.ulp(1.0)
    weights = [w * edge / math.fsum(raw) for w in raw[:-1]]
    head = 0.0
    for w in weights:
        head += w
    return dict(enumerate([*weights, target - head], start=1))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(weights=edge_weights())
@example(weights=DistributionSpec.parse(EDGE_DIST).weights)
def test_every_weight_check_agrees_at_the_tolerance_edge(weights, tmp_path_factory):
    # the ensemble (so validate), F_atom and check's step totals judge a
    # mixture alike, and a distribution validate accepts runs and checks
    config = make_config(distribution=DistributionSpec("explicit", weights=weights), tau=0.3)
    ns, ws = list(weights), np.array(list(weights.values()))
    verdicts = []
    for judge in (lambda: protocol.WeightedEnsemble.from_weights(weights),
                  lambda: cloning.atom_fidelity(ns, ws)):
        try:
            judge()
            verdicts.append(True)
        except ValueError:
            verdicts.append(False)
    base = tmp_path_factory.getbasetemp()
    problems = check_output(step0_table(config, base / "step0.csv"))
    verdicts.append(not any(p.startswith("step 0: weights must sum to 1, got") for p in problems))
    ran = _validated_run(config, base / "run.csv")
    assert ran in (None, [])
    verdicts.append(ran == [])
    assert verdicts in ([True] * 4, [False] * 4)


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
    # each run holds its generator and lockstep row, and each (cutoff, run)
    # state its weights: at two cutoffs, MAX_BYTES binds first
    def quality_cutoff(cutoffs, runs):
        return make_config(experiment="quality-cutoff", tau=None, cutoffs=cutoffs, runs=runs)

    assert validate(quality_cutoff(tuple(range(1, 31)), 1000)) == []  # the script default
    runs = largest_accepted(lambda r: quality_cutoff((1, 2), r), 1000, 10**7)
    weights = binomial_distribution(6)
    assert price(quality_cutoff((1, 2), runs), weights)[1] <= MAX_BYTES
    assert price(quality_cutoff((1, 2), runs + 1), weights)[1] > MAX_BYTES
    assert price(quality_cutoff((1, 2), runs + 1), weights)[0] < MAX_SECONDS
    config = quality_cutoff((1, 2), runs + 1)
    assert [str(d) for d in validate(config)] == [price_error(config)]
    # the price is fig4's only: a single run takes one stream whatever `runs` says
    assert validate(make_config(runs=10**9)) == []


def test_fig4_weight_count_is_bounded(tmp_path, capsys):
    def quality_cutoff(n_max, cutoffs, runs, budget=10_000):
        return make_config(experiment="quality-cutoff", tau=None, cutoffs=cutoffs, runs=runs,
                           distribution=DistributionSpec("binomial", n_max=n_max),
                           atom_budget=budget)

    # the script default (330000 weights), the golden and benchmark cases
    for n_max, runs in ((10, 1000), (10, 20), (10, 10)):
        assert validate(quality_cutoff(n_max, tuple(range(1, 31)), runs)) == []
    # a budget of 30 atoms keeps the time short: the weights bind
    runs = largest_accepted(lambda r: quality_cutoff(MAX_PHOTON_NUMBER, (1,), r, 30), 1, 10**6)
    config = quality_cutoff(MAX_PHOTON_NUMBER, (1,), runs + 1, 30)
    seconds, peak = price(config, config.initial_weights())
    assert seconds < MAX_SECONDS and peak > MAX_BYTES
    out = tmp_path / "q.csv"
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(["fig4", "--nmax", str(MAX_PHOTON_NUMBER), "--cutoffs", "1", "--runs", str(runs + 1),
              "--budget", "30", "--seed", "1", "--out", str(out)])
    assert capsys.readouterr().err.strip().splitlines() == [price_error(config)]
    assert not out.exists()


# fig4 at a tau that traps the n = 1 branch of binomial:2, so every run
# ends on its cutoff, not on certainty: the costliest fig4 per atom
FIG4_TRAPPED = (
    "experiment = quality-cutoff\ndistribution = binomial:2\natom_budget = 1000000000\n"
    "tau = 3.14159\nseed = 1\n"
)
TRAP_WARNING = (
    "warning: tau: tau = 3.14159 puts sqrt(2)*gamma*tau at 4.442879185415692 >= pi; "
    "a trapping point is reachable for some branch"
)


# runs x the atoms each run may pass, 3 x cutoff: hours, and just past the bound
@pytest.mark.parametrize("runs, cutoff", [(100_000, 1_000_000), (1000, 23_067)])
def test_fig4_work_is_bounded(runs, cutoff, tmp_path, capsys, monkeypatch):
    conf = tmp_path / "exp.conf"
    conf.write_text(f"{FIG4_TRAPPED}runs = {runs}\ncutoffs = {cutoff}\n")
    config = config_of(["validate", "--config", str(conf)])
    assert price(config, {1: 0.5, 2: 0.5})[0] > MAX_SECONDS
    if runs == 1000:
        assert accepted(replace(config, cutoffs=(cutoff - 1,)))
    assert main(["validate", "--config", str(conf)]) == 1
    assert capsys.readouterr().out.splitlines() == [price_error(config), TRAP_WARNING]
    monkeypatch.setattr(cli, "_run_quality_cutoff", lambda config: pytest.fail("ran"))
    out = tmp_path / "q.csv"
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(["fig4", "--config", str(conf), "--out", str(out)])
    assert not out.exists()  # refused, never run


def bound_is_kept(argv, flag, runner, hi, tmp_path, monkeypatch):
    """Under a 0.3 s MAX_SECONDS: `argv` with the largest `flag` value that
    `validate` accepts runs and is checked within 3x its price (the best of
    3), and with the next value it is refused, its `runner` never called."""
    monkeypatch.setattr(cli, "MAX_SECONDS", 0.3)
    out = tmp_path / "edge.csv"
    n = largest_accepted(lambda n: config_of([*argv, flag, str(n)]), 1, hi)
    config = config_of([*argv, flag, str(n)])
    seconds = price(config, config.initial_weights())[0]
    assert 0.2 < seconds <= 0.3
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        assert main([*argv, flag, str(n), "--out", str(out)]) == 0
        assert check_output(out) == []
        best = min(best, time.perf_counter() - start)
    assert best <= 3 * seconds
    out.unlink()
    monkeypatch.setattr(cli, runner, lambda config: pytest.fail("ran"))
    with pytest.raises(SystemExit, match="invalid configuration"):
        main([*argv, flag, str(n + 1), "--out", str(out)])
    assert not out.exists()


def test_fig4_just_inside_the_work_bound_runs_in_seconds(tmp_path, monkeypatch):
    # binomial:2 trapped: every run passes all 3 x cutoff atoms
    argv = ["fig4", "--nmax", "2", "--tau", "3.14159", "--budget", "1000000000", "--runs", "1000",
            "--seed", "1"]
    bound_is_kept(argv, "--cutoffs", "_run_quality_cutoff", MAX_CUTOFF, tmp_path, monkeypatch)


def test_fig3_just_inside_the_work_bound_runs_in_seconds(tmp_path, monkeypatch):
    # sigma_rel 0.5: every atom is a Monte Carlo proposal
    argv = ["fig3", "--m", "1..4", "--sigma-rel", "0.5", "--seed", "1"]
    bound_is_kept(argv, "--trials", "_run_trapping_curves", MAX_TRIALS, tmp_path, monkeypatch)


def test_step_table_just_inside_the_work_bound_runs_in_seconds(tmp_path, monkeypatch):
    # binomial:100 trapped: the run passes its whole budget
    argv = ["custom", "--dist", "binomial:100", "--tau", "3.14159", "--cutoff", "1000000",
            "--seed", "1"]
    bound_is_kept(argv, "--budget", "_run_weights_evolution", 10**6, tmp_path, monkeypatch)


# the configs the benchmark times through `validate` (perfbench/workloads.py)
BENCHMARK_ARGV = [
    ["fig4", "--nmax", "10", "--cutoffs", "1..30", "--runs", "10", "--seed", "1"],
    ["fig3", "--sigma-rel", "0.01:0.20:0.01", "--m", "1,2,3", "--trials", "20000", "--seed", "1"],
    ["custom", "--nmax", "6", "--policy", "optimal-each-step", "--seed", "1"],
]


def test_benchmark_script_and_golden_configs_are_far_inside_the_bounds(monkeypatch):
    # a later change of a cost must not refuse a workload
    configs = [config_of(argv) for argv in BENCHMARK_ARGV]
    root = Path(__file__).resolve().parents[1]
    for script in sorted((root / "scripts").glob("*.py")):
        calls = []
        monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 0)
        monkeypatch.setattr(sys, "argv", [str(script)])
        with pytest.raises(SystemExit):
            runpy.run_path(str(script), run_name="__main__")
        configs.append(config_of(calls[0]))
    for golden in sorted((Path(__file__).parent / "golden").glob("*.csv")):
        config, problems = read_echo(read_metadata(golden))
        assert problems == []
        configs.append(config)
    assert len(configs) == 18
    for config in configs:
        seconds, peak = price(config, config.initial_weights())
        assert seconds <= MAX_SECONDS / 4 and peak <= MAX_BYTES / 4, config


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
    def single_run(experiment, dist, cutoff, budget, policy="fixed"):
        return make_config(experiment=experiment, distribution=DistributionSpec.parse(dist),
                           tau=None, cutoff=cutoff, atom_budget=budget, policy=policy)

    # the default run at the largest distributions: 10^4 steps of 1000 rows,
    # written and checked, and under optimal-each-step a search per atom
    for dist in ("binomial:1000", "uniform:1..1000"):
        for policy in ("fixed", "optimal-each-step"):
            config = single_run("custom", dist, 20, 10_000, policy)
            assert [str(d) for d in validate(config)] == [price_error(config)]
    # each excitation ends a ground streak: a run passes at most (7 + 1) x
    # cutoff atoms, so the cutoff bounds it as the budget does
    budget = largest_accepted(
        lambda b: single_run("weights-evolution", "binomial:7", MAX_CUTOFF, b), 1, 10**9
    )
    cutoff = largest_accepted(lambda c: single_run("custom", "binomial:7", c, 10**9), 1, MAX_CUTOFF)
    assert 8 * cutoff <= budget < 8 * (cutoff + 1)
    config = single_run("weights-evolution", "binomial:7", MAX_CUTOFF, budget + 1)
    assert [str(d) for d in validate(config)] == [price_error(config)]
    # searches cost more than the rows they add
    searched = largest_accepted(
        lambda b: single_run("custom", "binomial:7", MAX_CUTOFF, b, "optimal-each-step"), 1, budget
    )
    assert searched < budget / 2
    # a table of 10^7 rows, 403 MB, that took 18.5 s to write and 28.4 s to check
    argv = ["validate", "--nmax", "1000", "--tau", "3.14159", "--budget", "10000", "--cutoff",
            "1000000", "--seed", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines()[0] == price_error(config_of(argv))


@pytest.mark.parametrize(
    "lines, verdict",
    [
        # about 2.5e8 atoms per trial at m = 1, and about one proposal
        ("sigma_rel_values = 0.00001", "ok"),
        ("sigma_rel_values = 0.00001\ntrials = 1", "ok"),
        # 1 - exp(-x) rounds to 0: the mean escape count is infinite
        ("sigma_rel_values = 1e-200\ntrials = 1", "inf"),
        # 2.5e13 atoms per trial at m = 1 x 10^4 trials: past the int64 guard
        ("sigma_rel_values = 0.0000001", "inf"),
        # the default grid at 8x the script's trials: 1.7e7 proposals
        ("trials = 160000", "ok"),
    ],
)
def test_fig3_work_is_bounded(lines, verdict, tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text(f"experiment = trapping-curves\nseed = 1\n{lines}\n")
    config = config_of(["validate", "--config", str(conf)])
    assert price(config, {})[0] == math.inf if verdict == "inf" else price(config, {})[0] < 5
    assert main(["validate", "--config", str(conf)]) == (verdict == "inf")
    assert capsys.readouterr().out.splitlines() == (
        [price_error(config)] if verdict == "inf" else ["ok"]
    )


def test_fig3_proposals_are_bounded_or_run(tmp_path, capsys):
    # 50 cells at sigma_rel 0.5, where every atom is a proposal: the most
    # trials within the bound, and one more
    grid = dict(experiment="trapping-curves", rabi_cycles_values=tuple(range(1, 51)),
                sigma_rel_values=(0.5,))
    trials = largest_accepted(lambda t: make_config(**grid, trials=t), 1, MAX_TRIALS)
    assert price(make_config(**grid, trials=trials), {})[0] <= MAX_SECONDS
    config = make_config(**grid, trials=trials + 1)
    assert [str(d) for d in validate(config)] == [price_error(config)]
    # a lone trial with a mean escape count near 10^8 draws about one proposal
    conf = tmp_path / "exp.conf"
    conf.write_text("experiment = trapping-curves\nseed = 1\nrabi_cycles_values = 1\n"
                    "sigma_rel_values = 0.0000168\ntrials = 1\n")
    assert main(["validate", "--config", str(conf)]) == 0
    start = time.perf_counter()
    assert main(["fig3", "--config", str(conf), "--out", str(tmp_path / "lone.csv")]) == 0
    assert time.perf_counter() - start < 0.5
    assert check_output(tmp_path / "lone.csv") == []
    capsys.readouterr()
    # 10^12 cells are refused by their calls alone, without a sum over them
    sigma_rels = tuple(parse_float_list("0.01:0.2:0.0000002"))
    config = make_config(experiment="trapping-curves", trials=1, sigma_rel_values=sigma_rels,
                         rabi_cycles_values=tuple(range(1, 10**6 + 1)))
    start = time.perf_counter()
    cells = 10**6 * len(sigma_rels)
    assert cells > 9e11
    assert price(config, {}) == (cells * COST["cell"][0], COST["cell"][1] + COST["trial"][1])
    assert time.perf_counter() - start < 0.1
    assert [str(d) for d in validate(config)] == [price_error(config)]


def test_fig3_script_grid_is_within_the_work_bound():
    grid = tuple(parse_float_list("0.01:0.20:0.01"))
    # the proposals the sampler draws, about 2.11e6, and its 60 cells
    proposals = 20_000 * sum(
        mean_atoms_rel(m, s) * sum(trapping.thinning(trapping.TrapSpec(1, m, s))[3:5])
        for m in (1, 2, 3) for s in grid
    )
    assert 2.1e6 < proposals < 2.12e6
    config = make_config(experiment="trapping-curves", sigma_rel_values=grid, trials=20_000)
    seconds, peak = price(config, {})
    assert seconds == pytest.approx(60 * COST["cell"][0] + proposals * COST["proposal"][0])
    assert peak == COST["cell"][1] + 20_000 * COST["trial"][1]
    assert seconds < MAX_SECONDS / 20
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
    """validate's line for a Rabi phase sqrt(n)*gamma*tau past the bound, or
    for fig3's dwell phase, which depends on neither n, gamma nor tau, where
    n is None."""
    what = "2*pi*m*(1 + 16*sigma_rel)" if n is None else f"sqrt({n})*gamma*tau"
    return (
        f"error: Rabi phase: {what} can reach {phase}, above the maximum 2^40, "
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
        # = inf emptied optimal_tau's grid (a traceback), and an infinite
        # sqrt(n)*gamma made NaN weights
        (["custom", "--gamma", "1e-308"], [phase_error(6, "inf")]),
        (["fig2", "--gamma", "1e-308"], [phase_error(6, "inf")]),
        (["fig4", "--gamma", "1e-308"], [phase_error(6, "inf")]),
        (["fig2", "--gamma", "1e308"], [phase_error(6, "inf")]),
        (["custom", "--gamma", "1e308"], [phase_error(6, "inf")]),
        (["fig4", "--gamma", "1e308"], [phase_error(6, "inf")]),
        # fig3 reads no gamma; a jitter whose draw span overflows its phase
        (["fig3", "--sigma-rel", "1e308", "--trials", "10"], [phase_error(None, "inf")]),
        (["fig2", "--tau", "1e308"], [phase_error(6, "inf")]),
        # a Rabi cycle count or a jitter the closed form cannot square as a
        # float was an OverflowError traceback
        (["fig3", "--m", str(10**200), "--trials", "10"], [phase_error(None, "2.64e+201")]),
        (["fig3", "--m", f"1,{10**400}", "--trials", "10"], [phase_error(None, "inf")]),
        (["fig3", "--sigma-rel", "1e200", "--trials", "10"], [phase_error(None, "3.02e+202")]),
        # squarable values whose dwell-time spread overflows the Rabi phase:
        # every sin^2 would be NaN and no trial would escape
        (
            ["fig3", "--m", str(10**154), "--sigma-rel", "0.1,1e154", "--trials", "10"],
            [phase_error(None, "inf")],
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
        (["fig3", "--m", str(10**12), "--trials", "10"], [phase_error(None, "2.64e+13")]),
    ],
)
def test_non_finite_floats_are_config_errors(argv, errors, tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit, match="invalid configuration"):
        main([*argv, "--seed", "1", "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error")] == errors
    assert not out.exists()


# each phase-bound case above, as an echo edit of a golden of its experiment:
# `check` refuses it with the line `validate` prints
@pytest.mark.parametrize(
    "golden, edits, error",
    [
        ("custom_optimal_each_step.csv", {"gamma": 1e-308}, phase_error(6, "inf")),
        ("fig2.csv", {"gamma": 1e-308}, phase_error(6, "inf")),
        ("fig4_binomial10.csv", {"gamma": 1e-308}, phase_error(10, "inf")),
        ("fig2.csv", {"gamma": 1e308}, phase_error(6, "inf")),
        ("custom_optimal_each_step.csv", {"gamma": 1e308}, phase_error(6, "inf")),
        ("fig4_binomial10.csv", {"gamma": 1e308}, phase_error(10, "inf")),
        ("fig3.csv", {"sigma_rel_values": (1e308,)}, phase_error(None, "inf")),
        ("fig2.csv", {"tau": 1e308}, phase_error(6, "inf")),
        ("fig3.csv", {"rabi_cycles_values": (10**200,)}, phase_error(None, "2.64e+201")),
        ("fig3.csv", {"rabi_cycles_values": (1, 10**400)}, phase_error(None, "inf")),
        ("fig3.csv", {"sigma_rel_values": (1e200,)}, phase_error(None, "3.02e+202")),
        ("fig3.csv", {"rabi_cycles_values": (10**154,), "sigma_rel_values": (0.1, 1e154)},
         phase_error(None, "inf")),
        ("custom_jittered.csv", {"tau": 1e300, "sigma_rel": 1e10}, phase_error(6, "inf")),
        ("custom_jittered.csv", {"tau": 1e300, "sigma_rel": 1e7}, phase_error(6, "inf")),
        ("custom_jittered.csv", {"tau": 1e300, "sigma_rel": 1e5}, phase_error(6, "3.92e+306")),
        ("fig4_binomial10.csv", {"tau": 1e13}, phase_error(10, "3.16e+13")),
        ("fig3.csv", {"rabi_cycles_values": (10**12,)}, phase_error(None, "2.64e+13")),
    ],
)
def test_check_refuses_a_phase_past_the_bound_as_validate_does(golden, edits, error, tmp_path):
    path = Path(__file__).parent / "golden" / golden
    lines = path.read_text().splitlines(keepends=True)
    config, _ = read_echo(read_metadata(path))
    config = replace(config, **edits)
    echo = dict(config.metadata(__version__))
    for key in edits:
        i = next(i for i, line in enumerate(lines) if line.partition(" =")[0] == f"# {key}")
        lines[i] = f"# {key} = {echo[key]}\n"
    path = tmp_path / golden
    path.write_text("".join(lines))
    assert [str(d) for d in validate(config)] == [error]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_output(path) == ["metadata: " + error.removeprefix("error: ")]


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
    tau = MAX_PHASE / math.sqrt(6)
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
        protocol.trees.clear()
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


# weights whose repr is plain, exponent-form, subnormal or not a number
STEP_VALUES = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1e-05, 2.5e-300]), st.floats())


@st.composite
def step_stacks(draw):
    """(ns, weights, f_atoms, transferred) of a step table of K branches."""
    ns = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=12, unique=True).map(sorted))
    steps = draw(st.integers(1, 5))
    row = st.lists(STEP_VALUES, min_size=len(ns), max_size=len(ns))
    weights = np.array(draw(st.lists(row, min_size=steps, max_size=steps)), dtype=float)
    f_atoms = draw(st.lists(STEP_VALUES, min_size=steps, max_size=steps))
    transferred = draw(st.lists(st.integers(0, 1000), min_size=steps, max_size=steps))
    return ns, weights, f_atoms, transferred


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stack=step_stacks())
@example(stack=([1000], np.array([[5e-324], [1.0]]), [2.5e-300, 1e-05], [999, 1000]))
@example(stack=([1, 2, 1000], np.array([[0.0, 1e-05, 1.0]]), [0.0], [0]))
def test_step_lines_are_the_row_template_bytes(stack):
    # one string per step, with the bytes of one `%` template per row
    ns, weights, f_atoms, transferred = stack
    lines = list(cli._step_lines(ns, weights, f_atoms, transferred))
    assert len(lines) == len(weights)
    assert "".join(lines) == step_text(ns, weights, f_atoms, transferred)


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

    # the first cell ends only once another has started, so on another worker
    first, other = (int(rows[0][0]), float(rows[0][1])), threading.Event()

    def hold_the_first(spec):
        if (spec.rabi_cycles, spec.sigma_rel) != first:
            other.set()
        elif workers > 1:
            other.wait(timeout=10)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(cli, "PARALLEL_CELL_SECONDS", 0.0)  # these cells are light
    started = record_cells(monkeypatch, before=hold_the_first)
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


DEFAULT_GRID = ["--m", "1,2,3", "--sigma-rel", "0.01:0.20:0.01"]


def cell_seconds(flags, trials):
    """`price`'s seconds per cell of a fig3 grid."""
    args = cli.build_parser().parse_args(["fig3", *flags, "--trials", str(trials)])
    config = cli._config_from_args(args)
    return price(config, {})[0] / len(config.trapping_grid())


def test_the_worker_threshold_lies_between_the_measured_sides():
    # the default grid ran about as fast on one worker as on two at 5000
    # trials a cell, and faster on two from 7000
    assert cell_seconds(DEFAULT_GRID, 5000) < cli.PARALLEL_CELL_SECONDS
    assert cell_seconds(DEFAULT_GRID, 7000) > cli.PARALLEL_CELL_SECONDS


@pytest.mark.parametrize(
    "flags, trials, threads",
    [
        (DEFAULT_GRID, 1000, 1),
        (DEFAULT_GRID, 3000, 1),
        # 2000 one-trial cells: 0.21 s on one worker, 0.29 s on two
        (["--m", "1", "--sigma-rel", "0.01:0.2099:0.0001"], 1, 1),
        (DEFAULT_GRID, 10_000, 2),
        (DEFAULT_GRID, 20_000, 2),
    ],
    ids=["default-1000", "default-3000", "one-trial-cells", "default-10000", "default-20000"],
)
def test_fig3_starts_a_second_worker_only_on_heavy_cells(flags, trials, threads, tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(trapping, "monte_carlo_escape",
                        lambda spec, trials, rng: trapping.EscapeEstimate(2.0, 0.5, trials))
    # with two workers, the first cell ends only once another has started
    other = threading.Event()

    def hold_the_first(spec):
        if (spec.rabi_cycles, spec.sigma_rel) != (1, 0.01):
            other.set()
        elif threads > 1:
            other.wait(timeout=10)

    started = record_cells(monkeypatch, before=hold_the_first)
    before = threading.active_count()
    assert main(["fig3", *flags, "--trials", str(trials), "--seed", "1",
                 "--out", str(tmp_path / "fig3.csv")]) == 0
    assert threading.active_count() == before
    ran_on = {ident for _, _, ident in started}
    assert len(ran_on) == threads
    if threads == 1:
        assert ran_on == {threading.get_ident()}


def test_fig3_rows_do_not_depend_on_gamma(tmp_path):
    # fig3's times are in units of 1/gamma, which drops out of every cell,
    # and its dwell phase 2*pi*m holds whatever the photon number --n
    def rows(argv, gamma, n="1"):
        out = tmp_path / f"fig3-{gamma}-{n}.csv"
        assert main([*argv, "--gamma", gamma, "--n", n, "--out", str(out)]) == 0
        assert check_output(out) == []
        return read_rows(out)

    assert rows(FIG3_SMALL, "0.37") == rows(FIG3_SMALL, "1e300") == rows(FIG3_SMALL, "1")
    for n in ("2", "7", "1000"):
        assert rows(FIG3_SMALL, "1", n) == rows(FIG3_SMALL, "1")
    # pi/gamma overflowed the phase bound at gamma 1e-300 and refused this grid
    argv = ["fig3", "--m", "100000000", "--sigma-rel", "0.01", "--trials", "1", "--seed", "2"]
    assert rows(argv, "1e-300") == rows(argv, "1")


def test_fig3_with_one_cell_runs_on_the_calling_thread(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    started = record_cells(monkeypatch)
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--sigma-rel", "0.1", "--m", "1", "--trials", "100", "--seed", "1",
                 "--out", str(out)]) == 0
    assert [ident for _, _, ident in started] == [threading.get_ident()]


@pytest.mark.parametrize("trials, workers", [(MAX_TRIALS, 2), (MAX_TRIALS // 4, 4)])
def test_fig3_cells_at_once_hold_at_most_twice_max_trials(trials, workers, tmp_path, monkeypatch):
    # eight CPUs, but the cells that run at once hold at most MAX_BYTES, two
    # cells of MAX_TRIALS trials. A stand-in for the Monte Carlo holds each
    # cell long enough for every worker to take one.
    cell = price(make_config(experiment="trapping-curves", trials=trials), {})[1]
    assert min(MAX_BYTES // cell, 4) == workers
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(trapping, "monte_carlo_escape",
                        lambda spec, trials, rng: trapping.EscapeEstimate(2.0, 0.5, trials))
    started = record_cells(monkeypatch, before=lambda spec: time.sleep(0.1))
    assert main(["fig3", "--sigma-rel", "0.5", "--m", "1..4", "--trials", str(trials),
                 "--seed", "1", "--out", str(tmp_path / "fig3.csv")]) == 0
    assert sorted(m for m, _, _ in started) == [1, 2, 3, 4]
    assert len({ident for _, _, ident in started}) == workers


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
    monkeypatch.setattr(cli, "PARALLEL_CELL_SECONDS", 0.0)  # these cells are light
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
    zero_jitter = ["1", "0.0", "inf", "7.0", "inf"]  # escape never happens
    out.write_text("\n".join(lines[:-1] + [",".join(fields), ",".join(zero_jitter)]) + "\n")
    assert [p.partition(" is ")[0] for p in check_output(out)] == [
        "row 59: a_mean_mc 0.5", "row 60: a_mean_mc 7.0", "61 rows, but metadata lists 60 cells"
    ]


def edit_fig3_row(path: Path, row: int, column: int, value: str) -> None:
    """Write `value` into `column` of data row `row` of golden fig3.csv, at `path`."""
    lines = (Path(__file__).parent / "golden" / "fig3.csv").read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line[:1].isdigit()) + row
    fields = lines[index].split(",")
    fields[column] = value
    lines[index] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_checker_bounds_the_monte_carlo_stderr(tmp_path):
    # escape counts are ints >= 1, so mc_stderr lies in [0, a_mean_mc - 1]
    golden = Path(__file__).parent / "golden" / "fig3.csv"
    _, rows = read_rows(golden)
    mc, trials = float(rows[0][3]), read_metadata(golden)["trials"]
    out = tmp_path / "fig3.csv"
    for value in ["-1.0", "nan", "inf", repr((mc - 1.0) * (1 + 1e-9))]:
        edit_fig3_row(out, 0, 4, value)
        assert check_output(out) == [
            f"row 0: mc_stderr {float(value)!r} is not in [0, {mc!r} - 1]"
        ], value
    for value in ["0.0", repr(mc - 1.0)]:  # the two ends of the range
        edit_fig3_row(out, 0, 4, value)
        assert check_output(out) == [], value
    assert int(trials) > 1
    # a fresh script-default grid passes, and one trial has no standard error
    fresh = tmp_path / "fresh.csv"
    assert main(["fig3", "--trials", "20000", "--seed", "1", "--out", str(fresh)]) == 0
    assert check_output(fresh) == []
    assert main(["fig3", "--sigma-rel", "0.1", "--m", "1", "--trials", "1", "--seed", "4",
                 "--out", str(out)]) == 0
    assert check_output(out) == []
    lines = out.read_text().splitlines()
    assert lines[-1].endswith(",inf")
    out.write_text("\n".join(lines[:-1] + [lines[-1][: -len("inf")] + "0.0"]) + "\n")
    assert check_output(out) == ["row 0: mc_stderr 0.0 is not inf"]


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
    assert check_output(out) == ["step 1: weights must be non-negative numbers that sum to 1"]


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


def test_checker_flags_a_negative_step_weight(tmp_path):
    # step 1 of golden fig2.csv with p_1 = -0.05, p_2 raised by as much and
    # F_atom recomputed: the total and F_atom still agree
    golden = Path(__file__).parent / "golden" / "fig2.csv"
    rows = [line.split(",") for line in golden.read_text().splitlines() if line[:1].isdigit()]
    step1 = {int(n): float(p) for s, n, p, _, _ in rows if s == "1"}
    step1[2] += step1[1] + 0.05
    step1[1] = -0.05
    f_atom = repr(atom_fidelity(step1))
    out = tmp_path / "fig2.csv"
    out.write_text(golden.read_text())
    edit_step_rows(out, lambda s, n, p, f, m: [s, n, repr(step1[int(n)]), f_atom, m]
                   if s == "1" else [s, n, p, f, m])
    assert check_output(out) == ["step 1: weights must be non-negative numbers that sum to 1"]


CUTOFF_UNMET = "terminal_reason cutoff-reached needs its first 20 grounds in a row at the end"


def test_checker_verifies_the_transferred_column(tmp_path):
    out = tmp_path / "custom.csv"
    assert main(["custom", "--nmax", "4", "--seed", "3", "--out", str(out)]) == 0
    assert check_output(out) == []
    good = out.read_text()
    edit_step_rows(out, lambda s, n, p, f, m: [s, n, p, f, str(int(m) + 3)])
    problems = check_output(out)
    assert problems[0] == "step 0: transferred 3 != 0"
    assert "step 1: branches with n < transferred=4 must carry zero weight" in problems
    assert problems[-1] == "transferred 5 at the last step != transferred_total 2"
    assert main(["check", str(out)]) == 1

    def damaged(edit):
        out.write_text(good)
        edit_step_rows(out, edit)
        return check_output(out)

    # step 1 moved the first qubit; step 2 the second, onto branch 1's only photon
    # and a ground step fewer ends the table one short of its cutoff
    assert damaged(lambda s, n, p, f, m: None if s == "3" else [s, n, p, f, m]) == [
        "step numbers are not 0..21", CUTOFF_UNMET
    ]
    assert damaged(lambda s, n, p, f, m: [s, n, p, f, "0" if s == "1" else m]) == [
        "step 2: transferred goes from 0 to 2"
    ]
    assert damaged(lambda s, n, p, f, m: [s, n, p, f, "1" if (s, n) == ("4", "4") else m]) == [
        "step 4: 2 transferred values, expected 1",
    ]
    assert damaged(lambda s, n, p, f, m: [s, n, p, f, "3" if s == "3" else m]) == [
        "step 3: branches with n < transferred=3 must carry zero weight",
        "step 4: transferred goes from 3 to 2",
        CUTOFF_UNMET,  # step 3's count went up, so its streak starts a step later
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
        CUTOFF_UNMET,  # step 3's count went up, so its streak starts a step later
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


def test_checker_grades_f_atom_on_every_row_of_a_step(tmp_path):
    # row `1,2,...` of golden fig2.csv at F_atom = 0.5; step 1's other rows,
    # the last among them, keep the recomputed value
    golden = Path(__file__).parent / "golden" / "fig2.csv"
    f_atom = next(line.split(",")[3] for line in golden.read_text().splitlines()
                  if line.startswith("1,2,"))
    out = tmp_path / "fig2.csv"
    out.write_text(golden.read_text())
    edit_step_rows(out, lambda s, n, p, f, m: [s, n, p, "0.5" if (s, n) == ("1", "2") else f, m])
    assert check_output(out) == [f"step 1: F_atom 0.5 != recomputed {f_atom}"]


def test_checker_reads_the_terminal_reason(tmp_path):
    # golden fig2.csv ends on its first ground streak of cutoff 20, at step 27
    golden = Path(__file__).parent / "golden" / "fig2.csv"
    text, line = golden.read_text(), "# terminal_reason = cutoff-reached\n"
    assert line in text and check_output(golden) == []
    out = tmp_path / "fig2.csv"
    out.write_text(text)  # without its last 10 of 28 steps
    edit_step_rows(out, lambda s, n, p, f, m: None if int(s) >= 18 else [s, n, p, f, m])
    assert check_output(out) == [CUTOFF_UNMET]
    # a streak of 5 came before the last step
    out.write_text(text.replace("# cutoff = 20\n", "# cutoff = 5\n"))
    assert check_output(out) == [CUTOFF_UNMET.replace("20", "5")]
    for reason, problem in [
        ("atom-budget-exhausted", "budget + 1 = 10001 steps"),
        ("vacuum-certain", "a vacuum-certain last posterior"),
        ("tired", "to be a stop reason"),
    ]:
        out.write_text(text.replace(line, f"# terminal_reason = {reason}\n"))
        assert check_output(out) == [f"terminal_reason {reason} needs {problem}"]
    out.write_text(text.replace(line, ""))
    assert check_output(out) == ["metadata: terminal_reason: missing"]
    # a run that ends on its budget; golden custom_half_rabi.csv ends vacuum-certain
    assert main(["fig2", "--nmax", "6", "--tau", "0.825", "--budget", "5", "--seed", "7",
                 "--out", str(out)]) == 0
    assert "# terminal_reason = atom-budget-exhausted\n" in out.read_text()
    assert check_output(out) == []
    # a last step the run's judge refuses has no vacuum-certain posterior
    text = (Path(__file__).parent / "golden" / "custom_half_rabi.csv").read_text()
    out.write_text(text.replace("\n4,4,1.0,", "\n4,4,1.000000001,"))
    assert check_output(out) == [
        "step 4: weights must sum to 1, got 1.000000001",
        "terminal_reason vacuum-certain needs a vacuum-certain last posterior",
    ]


def test_checker_recomputes_fig4_resolved_tau(tmp_path):
    golden = Path(__file__).parent / "golden" / "fig4_binomial10.csv"
    text, line = golden.read_text(), "# resolved_tau = 0.6619869741781466\n"
    assert line in text
    out = tmp_path / "fig4.csv"
    out.write_text(text.replace(line, "# resolved_tau = 0.5\n"))
    assert check_output(out) == [
        "metadata: resolved_tau: '0.5' != recomputed 0.6619869741781466"
    ]
    out.write_text(text.replace(line, ""))
    assert check_output(out) == ["metadata: resolved_tau: missing"]
    # a configured tau is the tau every run took
    assert main(["fig4", "--nmax", "4", "--tau", "0.7", "--runs", "2", "--cutoffs", "1,2",
                 "--seed", "1", "--out", str(out)]) == 0
    text = out.read_text()
    assert "# resolved_tau = 0.7\n" in text and check_output(out) == []
    out.write_text(text.replace("# resolved_tau = 0.7\n", "# resolved_tau = 0.70001\n"))
    assert check_output(out) == ["metadata: resolved_tau: '0.70001' != recomputed 0.7"]


def test_checker_ties_fig3_rows_to_the_metadata_grid(tmp_path):
    golden = Path(__file__).parent / "golden" / "fig3.csv"
    lines = golden.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    assert len(lines) - first == 60  # 3 cycle counts x 20 jitters
    out = tmp_path / "fig3.csv"
    out.write_text("\n".join(lines[: first + 5]) + "\n")
    assert check_output(out) == ["5 rows, but metadata lists 60 cells"]
    out.write_text("\n".join(lines[:-1]) + "\n")
    assert check_output(out) == ["59 rows, but metadata lists 60 cells"]
    # m_rabi 3 -> 4 at sigma_rel 0.2, where a_mean_closed saturates at 2
    edit_fig3_row(out, 59, 0, "4")
    assert check_output(out) == ["row 59: (m_rabi, sigma_rel) (4, 0.2) != metadata (3, 0.2)"]
    # the rows of m_rabi 1 and 2 at sigma_rel 0.01 swapped
    swapped = list(lines)
    swapped[first], swapped[first + 20] = lines[first + 20], lines[first]
    out.write_text("\n".join(swapped) + "\n")
    assert check_output(out) == [
        "row 0: (m_rabi, sigma_rel) (2, 0.01) != metadata (1, 0.01)",
        "row 20: (m_rabi, sigma_rel) (1, 0.01) != metadata (2, 0.01)",
    ]


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
        "row 0: (m_rabi, sigma_rel) (0, 0.1) != metadata (1, 0.1)",
        "row 0: cannot recompute a_mean_closed: rabi_cycles must be >= 1, got 0",
    ]
    out = tmp_path / "fig2.csv"
    main(["fig2", "--nmax", "4", "--tau", "0.7", "--seed", "5", "--out", str(out)])
    out.write_text(out.read_text().replace("# n_originals = 1", "# n_originals = 2"))
    assert check_output(out) == [
        "metadata: n_originals: 2 exceeds the smallest occupied photon number 1"
    ]
    # an unoccupied n = 1 branch under n_originals = 2 is valid; weight on it has no clones
    main(["fig2", "--dist", "explicit:1=0.0,2=1.0", "--n-originals", "2", "--tau", "0.7",
          "--seed", "5", "--out", str(out)])
    edit_step_rows(out, lambda s, n, p, f, m: [s, n, "0.5" if s == "1" else p, f, m])
    assert check_output(out) == [
        "step 1: cloner cannot shrink: m_clones=1 < n_originals=2"
    ]


def test_check_reports_metadata_it_cannot_resolve(fig4_csv, tmp_path):
    # fig4's echoed distribution must build an ensemble; the step count must be an int
    path = tmp_path / "fig4.csv"
    path.write_text(fig4_csv.read_text().replace("binomial:4", "explicit:1=0.25,2=0.25"))
    assert check_output(path) == ["metadata: distribution: weights must sum to 1, got 0.5"]
    golden = Path(__file__).parent / "golden" / "fig2.csv"
    path = tmp_path / "fig2.csv"
    path.write_text(golden.read_text().replace("transferred_total = 3", "transferred_total = x"))
    assert check_output(path) == [
        "metadata: transferred_total: invalid literal for int() with base 10: 'x'"
    ]
    # a gamma past the Rabi-phase bound is refused before any optimal tau is sought
    golden = Path(__file__).parent / "golden" / "fig4_binomial10.csv"
    path = tmp_path / "fig4_gamma.csv"
    path.write_text(golden.read_text().replace("# gamma = 1.0\n", "# gamma = 5e-324\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_output(path) == ["metadata: " + phase_error(10, "inf").removeprefix("error: ")]


def test_check_bounds_fig4_mean_quality(fig4_csv, tmp_path):
    lines = fig4_csv.read_text().splitlines()
    fields = lines[-3].split(",")  # the row at cutoff 1
    fields[1] = "1.6"
    lines[-3] = ",".join(fields)
    path = tmp_path / "fig4.csv"
    path.write_text("\n".join(lines) + "\n")
    assert check_output(path) == ["row 0: mean_quality 1.6 out of range"]


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda fields: fields[:4], "4 fields, expected 5"),
        (lambda fields: [*fields[:2], "x", *fields[3:]], "could not convert string to float: 'x'"),
        (lambda fields: ["# " + fields[0], *fields[1:]], "a '#' line after the header"),
    ],
)
def test_check_reads_a_step_with_a_broken_row_row_by_row(edit, problem, tmp_path):
    # binomial:1000 steps are parsed a column at a time; the rows around one
    # that does not parse are read one at a time, at their indices in the file
    out = tmp_path / "custom.csv"
    assert main(["custom", "--dist", "binomial:1000", "--tau", "0.05", "--cutoff", "1000000",
                 "--budget", "5", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    body = lines.index("step,n,p_n,F_atom,transferred") + 1
    step3 = [i for i, line in enumerate(lines[body:]) if line.startswith("3,")]
    i = step3[len(step3) // 2]
    assert i == 3500
    lines[body + i] = ",".join(edit(lines[body + i].split(",")))
    out.write_text("\n".join(lines) + "\n")
    assert check_output(out) == [
        f"row {i}: {problem}", "step 3: photon numbers differ from the distribution's"
    ]


def test_check_wants_a_step_0_among_rows_that_parse(tmp_path):
    golden = Path(__file__).parent / "golden" / "fig2.csv"
    path = tmp_path / "fig2.csv"
    path.write_text(golden.read_text())
    edit_step_rows(path, lambda s, n, p, f, m: [s, n, "p", f, m] if s == "0" else None)
    assert check_output(path) == [
        *(f"row {i}: could not convert string to float: 'p'" for i in range(6)),
        "step-0 weights differ from the configured distribution",
        "terminal_reason cutoff-reached needs its first 20 grounds in a row at the end",
    ]


def test_an_unwritable_out_path_is_a_one_line_error(tmp_path):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "x.csv"
    run = subprocess.run(
        [sys.executable, "-m", "cavityqubits.cli", "custom", "--nmax", "4", "--seed", "1",
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert run.returncode == 1
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith(f"cannot write {out}: ")
    assert not out.exists()


def test_a_failed_write_leaves_no_partial_csv(tmp_path):
    # the child alone may write 4096 bytes a file; the table is longer
    resource = pytest.importorskip("resource")
    import signal

    def limit_file_size() -> None:
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past it fails, not the process
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))

    out = tmp_path / "custom.csv"
    run = subprocess.run(
        [sys.executable, "-m", "cavityqubits.cli", "custom", "--nmax", "100", "--seed", "1",
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=limit_file_size,
    )
    assert run.returncode == 1
    assert run.stderr.splitlines() == [
        f"cannot write {out}: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
    ]
    assert not out.exists()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_a_failed_write_through_a_link_leaves_the_link(tmp_path):
    # only a regular file is deleted: never a device, nor a link to one
    out = tmp_path / "full.csv"
    out.symlink_to("/dev/full")
    with pytest.raises(SystemExit, match=f"^cannot write {out}: .*No space left on device"):
        main(["custom", "--nmax", "4", "--seed", "1", "--out", str(out)])
    assert out.is_symlink()


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
