"""The config-key table: each key's range, read by `validate` and by
`check`'s reading of the metadata echo, with the same message in both."""

from __future__ import annotations

import ast
import inspect
import math
from pathlib import Path

import pytest

from cavityqubits import __version__, check, cli
from cavityqubits.config import (
    EXPERIMENTS,
    KEYS,
    MAX_CUTOFF,
    MAX_PHOTON_NUMBER,
    MAX_TRIALS,
    read_echo,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDENS = sorted(GOLDEN_DIR.glob("*.csv"))
TINY = math.nextafter(0.0, 1.0)  # 5e-324, the least positive float


def metadata_lines(path: Path) -> dict[str, str]:
    """The `# key = value` block of a CSV, in file order."""
    meta = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            meta[key.strip()] = value.strip()
    return meta


def edited_echo(golden: str, key: str, text: str | None, tmp_path: Path) -> Path:
    """A copy of a golden whose `key` line reads `text`, or has no such line."""
    lines = (GOLDEN_DIR / golden).read_text().splitlines()
    lines = [
        (f"# {key} = {text}" if text is not None else None)
        if line.partition(" =")[0] == f"# {key}" else line
        for line in lines
    ]
    path = tmp_path / golden
    path.write_text("".join(line + "\n" for line in lines if line is not None))
    return path


def validate_file(experiment: str, key: str, text: str, tmp_path: Path, capsys) -> list[str]:
    """`validate --config` of a file that sets `experiment`, a seed and `key`;
    the lines it prints."""
    conf = tmp_path / "exp.conf"
    conf.write_text(f"experiment = {experiment}\nseed = 1\n{key} = {text}\n")
    cli.main(["validate", "--config", str(conf)])
    return capsys.readouterr().out.splitlines()


# the value at a lower bound, the value just outside it and its message
COUNT_EDGE = ("1", "0", "must be >= 1, got 0")
POSITIVE_EDGE = (repr(TINY), "0.0", "must be positive, got 0.0")


def maximum_edge(high: int) -> tuple[str, str, str]:
    return str(high), str(high + 1), f"{high + 1} exceeds the maximum {high}"


# key -> (an experiment and a golden where only its range is checked, and
# each edge of its range: the value at it, the value just outside it and
# that value's message)
RANGES = {
    "gamma": ("weights-evolution", "fig2.csv", [POSITIVE_EDGE]),
    "tau": ("weights-evolution", "fig2.csv", [POSITIVE_EDGE]),
    "sigma_rel": ("weights-evolution", "fig2.csv", [
        ("0.0", repr(-TINY), f"must be non-negative, got {-TINY!r}")
    ]),
    "cutoff": ("weights-evolution", "fig2.csv", [COUNT_EDGE, maximum_edge(MAX_CUTOFF)]),
    "atom_budget": ("weights-evolution", "fig2.csv", [COUNT_EDGE]),
    "seed": ("weights-evolution", "fig2.csv", [("0", "-1", "must be non-negative, got -1")]),
    # trapping-curves ignores n_originals, so it is not held to the distribution
    "n_originals": ("trapping-curves", "fig3.csv", [COUNT_EDGE, maximum_edge(MAX_PHOTON_NUMBER)]),
    "sigma_rel_values": ("weights-evolution", "fig2.csv", [POSITIVE_EDGE]),
    "rabi_cycles_values": ("weights-evolution", "fig2.csv", [COUNT_EDGE]),
    "trap_photon_number": (
        "weights-evolution", "fig2.csv", [COUNT_EDGE, maximum_edge(MAX_PHOTON_NUMBER)]
    ),
    "trials": ("weights-evolution", "fig2.csv", [COUNT_EDGE, maximum_edge(MAX_TRIALS)]),
    "cutoffs": ("weights-evolution", "fig2.csv", [COUNT_EDGE, maximum_edge(MAX_CUTOFF)]),
    "runs": ("weights-evolution", "fig2.csv", [COUNT_EDGE]),
}


def test_every_key_with_a_range_is_covered():
    assert sorted(RANGES) == sorted(key for key, meta in KEYS.items() if meta["low"])
    assert all(meta["high"] is None or meta["low"] for meta in KEYS.values())


@pytest.mark.parametrize(
    "key, edge, outside, message",
    [(key, *case) for key, (_, _, cases) in RANGES.items() for case in cases],
)
def test_a_range_is_read_alike_by_validate_and_check(key, edge, outside, message, tmp_path,
                                                     capsys):
    experiment, golden, _ = RANGES[key]
    assert f"error: {key}: {message}" in validate_file(experiment, key, outside, tmp_path, capsys)
    assert check.check_output(edited_echo(golden, key, outside, tmp_path)) == [
        f"metadata: {key}: {message}"
    ]
    printed = validate_file(experiment, key, edge, tmp_path, capsys)
    assert not [line for line in printed if line.startswith(f"error: {key}:")]
    assert check.check_output(edited_echo(golden, key, edge, tmp_path)) == []


@pytest.mark.parametrize("golden", GOLDENS, ids=lambda path: path.name)
def test_every_golden_echo_reads_back_to_its_config(golden):
    meta = metadata_lines(golden)
    config, problems = read_echo(meta)
    assert problems == []
    assert meta["version"] == __version__
    assert config.metadata(__version__) == list(meta.items())[: 2 + len(KEYS)]


@pytest.mark.parametrize(
    "key, text, problem",
    [
        # a range is echoed as its comma list, so it reads back as another text
        ("cutoffs", "1..3", "'1..3' echoes back as '1,2,3'"),
        ("runs", "01", "'01' echoes back as '1'"),
        ("policy", "sometimes", "unknown policy 'sometimes'"),
        ("trials", None, "missing"),
    ],
)
def test_a_damaged_echo_is_one_metadata_problem(key, text, problem, tmp_path, capsys):
    path = edited_echo("fig4_binomial10.csv", key, text, tmp_path)
    assert check.check_output(path) == [f"metadata: {key}: {problem}"]
    assert cli.main(["check", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{path}: metadata: {key}: {problem}"]


EXTREMES = ["0", "-1", str(10**400), "nan", "inf", ""]


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_no_extreme_key_value_ends_in_a_traceback(experiment, tmp_path, capsys):
    # each key at each extreme value: validate's exit status, or a one-line
    # SystemExit message, and one-line diagnostics only
    conf = tmp_path / "exp.conf"
    for key in KEYS:
        for text in EXTREMES:
            conf.write_text(f"experiment = {experiment}\nseed = 1\n{key} = {text}\n")
            try:
                status = cli.main(["validate", "--config", str(conf)])
            except SystemExit as exc:  # a value its parser refuses
                assert isinstance(exc.code, str) and "\n" not in exc.code, (key, text)
                assert exc.code.startswith(f"invalid configuration: {key}: "), (key, text)
                status = 1
            printed = capsys.readouterr().out.splitlines()
            assert status in (0, 1), (key, text)
            assert status == 1 or printed[-1] == "ok", (key, text)
            assert all(
                line == "ok" or line.startswith(("error: ", "warning: ")) for line in printed
            ), (key, text)


def test_a_trap_photon_number_beyond_the_float_range_is_a_one_line_error(tmp_path, capsys):
    # `fig3 --n` 10^400 was an OverflowError traceback from sqrt(n)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["fig3", "--n", str(10**400), "--seed", "1", "--out", str(out)])
    assert exc.value.code == "invalid configuration (1 error(s))"
    assert capsys.readouterr().err.splitlines() == [
        f"error: trap_photon_number: {10**400} exceeds the maximum {MAX_PHOTON_NUMBER}"
    ]
    assert not out.exists()


def test_a_fig3_cell_beyond_the_trials_bound_is_refused(tmp_path, capsys):
    # about 50 bytes a trial: 2.5 GB for this one cell, which validate accepted
    conf = tmp_path / "exp.conf"
    conf.write_text("experiment = trapping-curves\nrabi_cycles_values = 1\n"
                    "sigma_rel_values = 0.5\ntrials = 49000000\nseed = 1\n")
    assert cli.main(["validate", "--config", str(conf)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"error: trials: 49000000 exceeds the maximum {MAX_TRIALS}"
    ]


def _single_key_range_checks(source: str) -> list[str]:
    """Each comparison of a config key with a number or a `MAX_` bound, each
    `not` of a config key and each finiteness test of one, in `source`."""

    def key(node) -> bool:
        return (
            isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "config" and node.attr in KEYS
        )

    def bound(node) -> bool:
        number = isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
        return number or isinstance(node, ast.Name) and node.id.startswith("MAX_")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and key(node.left) and all(map(bound, node.comparators)):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not) and key(node.operand):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and "isfinite" in ast.unparse(node.func):
            found.append(ast.unparse(node))
    return found


def _config_key_parsing(source: str) -> list[str]:
    """Each `split` call, and each `int` or `float` call that names a config
    key, in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        names = {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)}
        number = isinstance(node.func, ast.Name) and node.func.id in ("int", "float")
        if number and names & set(KEYS) or ast.unparse(node.func).endswith(".split"):
            found.append(ast.unparse(node))
    return found


def test_each_key_range_is_read_from_the_table_alone():
    assert _single_key_range_checks(inspect.getsource(cli.validate)) == []
    source = inspect.getsource(check)
    assert "_count" not in source
    assert _config_key_parsing(source) == []
    # the pins see what they look for
    assert _single_key_range_checks("if config.trials < 1 or not config.cutoffs: pass") == [
        "config.trials < 1", "not config.cutoffs"
    ]
    assert _single_key_range_checks("x = config.cutoff > MAX_CUTOFF") == [
        "config.cutoff > MAX_CUTOFF"
    ]
    assert _config_key_parsing("runs = int(metadata['runs']); c = m['cutoffs'].split(',')") == [
        "int(metadata['runs'])", "m['cutoffs'].split(',')"
    ]
