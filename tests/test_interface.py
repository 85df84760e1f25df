"""The command-line surface and the module layering.

The option table below is the CLI as it stood before the experiment,
policy and config-key table moved into `config`: each subcommand's flags
with their dest, choices and default, and one argv per subcommand with
the values its flags parse to. A derived parser must reproduce it flag by
flag.
"""

from __future__ import annotations

import argparse
import ast
from dataclasses import fields
from pathlib import Path

import pytest

from cavityqubits import cli
from cavityqubits.config import DistributionSpec, ExperimentConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "cavityqubits"

POLICIES = ["fixed", "optimal-each-step", "half-rabi", "jittered"]
EXPERIMENTS = ["weights-evolution", "trapping-curves", "quality-cutoff", "custom"]

_COMMON = [
    ("--config", "config", None),
    ("--seed", "seed", None),
    ("--gamma", "gamma", None),
    ("--out", "out", None),
    ("--dist", "distribution", None),
    ("--nmax", "nmax", None),
]
_PROTOCOL = [
    ("--tau", "tau", None),
    ("--cutoff", "cutoff", None),
    ("--budget", "atom_budget", None),
    ("--n-originals", "n_originals", None),
]
_POLICY = [("--policy", "policy", POLICIES), ("--sigma-rel", "sigma_rel", None)]

# (flag, dest, choices) per subcommand; every default is None
OPTIONS = {
    "fig2": _COMMON + _PROTOCOL,
    "fig3": _COMMON + [
        ("--sigma-rel", "sigma_rel_values", None),
        ("--m", "rabi_cycles_values", None),
        ("--n", "trap_photon_number", None),
        ("--trials", "trials", None),
    ],
    "fig4": _COMMON + [
        ("--tau", "tau", None),
        ("--budget", "atom_budget", None),
        ("--cutoffs", "cutoffs", None),
        ("--runs", "runs", None),
        ("--n-originals", "n_originals", None),
    ],
    "custom": _COMMON + _PROTOCOL + _POLICY,
    "validate": [("--experiment", "experiment", EXPERIMENTS)] + _COMMON + _PROTOCOL + _POLICY,
}

_ARGV_COMMON = [
    "--config", "run.conf", "--seed", "5", "--gamma", "1.5", "--out", "x.csv",
    "--dist", "explicit:1=0.25,3=0.75", "--nmax", "4",
]
_ARGV_PROTOCOL = ["--tau", "0.5", "--cutoff", "3", "--budget", "7", "--n-originals", "2"]
_PARSED_COMMON = {
    "config": "run.conf", "seed": 5, "gamma": 1.5, "out": "x.csv",
    "distribution": DistributionSpec("explicit", weights={1: 0.25, 3: 0.75}), "nmax": 4,
}
_PARSED_PROTOCOL = {"tau": 0.5, "cutoff": 3, "atom_budget": 7, "n_originals": 2}

# argv -> parsed namespace
SAMPLES = {
    "fig2": (_ARGV_COMMON + _ARGV_PROTOCOL, {**_PARSED_COMMON, **_PARSED_PROTOCOL}),
    "fig3": (
        _ARGV_COMMON + ["--sigma-rel", "0.1:0.3:0.1", "--m", "1..3", "--n", "2", "--trials", "9"],
        {
            **_PARSED_COMMON,
            "sigma_rel_values": (0.1, 0.2, 0.30000000000000004),
            "rabi_cycles_values": (1, 2, 3),
            "trap_photon_number": 2,
            "trials": 9,
        },
    ),
    "fig4": (
        _ARGV_COMMON
        + ["--tau", "0.5", "--budget", "7", "--cutoffs", "1..3", "--runs", "4"]
        + ["--n-originals", "2"],
        {**_PARSED_COMMON, "tau": 0.5, "atom_budget": 7, "cutoffs": (1, 2, 3), "runs": 4,
         "n_originals": 2},
    ),
    "custom": (
        _ARGV_COMMON + _ARGV_PROTOCOL + ["--policy", "jittered", "--sigma-rel", "0.2"],
        {**_PARSED_COMMON, **_PARSED_PROTOCOL, "policy": "jittered", "sigma_rel": 0.2},
    ),
    "validate": (
        ["--experiment", "quality-cutoff", *_ARGV_COMMON, *_ARGV_PROTOCOL,
         "--policy", "half-rabi", "--sigma-rel", "0.2"],
        {"experiment": "quality-cutoff", **_PARSED_COMMON, **_PARSED_PROTOCOL,
         "policy": "half-rabi", "sigma_rel": 0.2},
    ),
    "check": (["a.csv", "b.csv"], {"paths": ["a.csv", "b.csv"]}),
}

CONFIG_KEYS = [
    "experiment", "distribution", "gamma", "policy", "tau", "sigma_rel", "cutoff",
    "atom_budget", "seed", "out", "n_originals", "sigma_rel_values", "rabi_cycles_values",
    "trap_photon_number", "trials", "cutoffs", "runs",
]


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def test_subcommands_are_unchanged():
    assert sorted(_subparsers()) == sorted([*OPTIONS, "check"])


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_options_match_flag_by_flag(command):
    actions = [
        a for a in _subparsers()[command]._actions if not isinstance(a, argparse._HelpAction)
    ]
    got = {
        tuple(a.option_strings): (a.dest, list(a.choices) if a.choices else None, a.default)
        for a in actions
    }
    want = {(flag,): (dest, choices, None) for flag, dest, choices in OPTIONS[command]}
    assert got == want


@pytest.mark.parametrize("command", sorted(SAMPLES))
def test_flags_parse_to_the_same_values(command):
    argv, parsed = SAMPLES[command]
    assert vars(cli.build_parser().parse_args([command, *argv])) == {"command": command, **parsed}


def test_config_keys_are_the_config_fields_in_order():
    assert [f.name for f in fields(ExperimentConfig)] == CONFIG_KEYS


def _imported_modules(path: Path) -> set[str]:
    """Names of the modules a source file imports, relative ones as written."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            # `from . import config` names a module, and so may `from cavityqubits import cli`
            sep = "." if node.module else ""
            names.update(base + sep + alias.name for alias in node.names)
    return names


def test_protocol_imports_neither_config_nor_cli():
    forbidden = {".config", ".cli", "cavityqubits.config", "cavityqubits.cli"}
    imported = _imported_modules(SRC / "protocol.py")
    assert ".cloning" in imported  # the walk sees protocol's real imports
    assert not imported & forbidden


def _stop_reason_users(path: Path) -> dict[str, set[str]]:
    """For each `StopReason.<member>` a source file names, the top-level
    functions (or methods) that name it; `<module>` for any other place."""
    users: dict[str, set[str]] = {}

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner == "<module>":
            owner = node.name
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "StopReason"
        ):
            users.setdefault(node.attr, set()).add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return users


def test_one_stepping_loop_applies_the_stop_rules():
    # a second loop over atoms would need the stop reasons too
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for member, owners in _stop_reason_users(path).items():
            found.setdefault(member, set()).update(f"{path.stem}.{o}" for o in owners)
    for member in ("CUTOFF", "ATOM_BUDGET", "VACUUM_CERTAIN"):
        assert found.get(member) == {"protocol.run_batch"}, member
