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
import importlib
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from cavityqubits import cli
from cavityqubits.config import DistributionSpec, ExperimentConfig
from cavityqubits.protocol import MeasurementOutcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cavityqubits"

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


def test_the_cli_loads_neither_the_oracle_nor_symstate():
    # fockspace and symstate are the tests' references; the package re-exports
    # nothing, so importing the CLI loads only the modules it runs
    code = "import sys, cavityqubits.cli; print(sorted(m for m in sys.modules if 'cavity' in m))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(ast.literal_eval(out))
    assert "cavityqubits.cli" in loaded and "cavityqubits.protocol" in loaded
    assert not loaded & {"cavityqubits.fockspace", "cavityqubits.symstate"}


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["tau"] == pytest.approx(0.8253, abs=1e-4)
    assert namespace["p"] == pytest.approx(0.936, abs=1e-3)
    assert namespace["post"].transferred == 1
    excited = namespace["outcome"] is MeasurementOutcome.EXCITED
    assert namespace["after"].transferred == excited


def test_readme_module_references_resolve():
    # each `<module>.<name>` in README, the module one under src/, names
    # something that module has; `<module>.py` names the file
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    refs = re.findall(r"`([a-z_]+)\.([A-Za-z_][A-Za-z_0-9.]*)`", (ROOT / "README.md").read_text())
    checked = [(module, name) for module, name in refs if module in modules and name != "py"]
    assert len(checked) > 20
    missing = []
    for module, name in checked:
        obj = importlib.import_module(f"cavityqubits.{module}")
        for part in name.split("."):
            obj = getattr(obj, part, missing)
        if obj is missing:
            missing.append(f"{module}.{name}")
    assert missing == []


def test_readme_states_the_src_line_count():
    stated = re.findall(r"`src/` is (\d+) lines by `wc -l`", (ROOT / "README.md").read_text())
    counted = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))  # as wc -l
    assert stated == [str(counted)]


def test_only_the_rabi_factor_takes_a_sine_or_cosine_in_protocol():
    # one phase expression serves excite_prob, the weight update, the
    # lockstep and the optimum search, so they all see the same floats
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner == "<module>":
            owner = node.name
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "np"
            and node.attr in ("sin", "cos")
        ):
            found.append((owner, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse((SRC / "protocol.py").read_text()), "<module>")
    assert sorted(found) == [("_rabi_factor", "cos"), ("_rabi_factor", "sin")]


def test_validate_bounds_a_run_by_its_price_alone():
    # one cost table prices every run: no count bound may come back beside
    # the two bounds and fig3's int64 guard; the float resolution is a rule
    # of the config, which only its judge applies
    tree = ast.parse((SRC / "cli.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    assert {name for name in bound if name.startswith("MAX_")} == {
        "MAX_SECONDS", "MAX_BYTES", "MAX_TRAPPING_ATOMS"
    }
    # who reads the bounds and the table, and who asks for a price
    reads = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            reads[node.name] = {n for n in names if n.startswith("MAX_") or n in ("COST", "price")}
    assert {name: names for name, names in reads.items() if names} == {
        "price": {"COST", "MAX_SECONDS", "MAX_TRAPPING_ATOMS"},
        "validate": {"price", "MAX_SECONDS", "MAX_BYTES"},
        "_run_trapping_curves": {"price", "MAX_BYTES"},
    }
    assert _readers("MAX_PHASE") == {"config.<module>", "config.problems"}


def _readers(name: str) -> set[str]:
    """`module.function` of each top-level function (or method) in `src/`
    that names `name`, as a bare name or an attribute; `module.<module>`
    for any other place."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner == "<module>":
            owner = node.name
        if (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        ):
            found.add(f"{path.stem}.{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "<module>")
    return found


def test_one_judge_refuses_a_mixture_by_its_total():
    # a total's bits depend on its order: every total is an ordered_sum, left
    # to right, and no module calls the builtin sum, whose order differs by
    # Python version
    calls = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert calls == []
    # check_weights refuses a mixture, for a run and for each step `check`
    # reads; run_batch's vacuum prefilter reads the tolerance without refusing
    # one, and `check` sums no weights itself
    assert _readers("WEIGHT_TOL") == {
        "cloning.<module>", "cloning.check_weights", "protocol.run_batch"
    }
    assert not any(reader.startswith("check.") for reader in _readers("ordered_sum"))


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
    # a loop over atoms needs the stop reasons: `run` walks one run under
    # any policy, `run_batch` steps many fixed-tau runs in lockstep, and a
    # third loop would name them too
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for member, owners in _stop_reason_users(path).items():
            found.setdefault(member, set()).update(f"{path.stem}.{o}" for o in owners)
    for member in ("CUTOFF", "ATOM_BUDGET", "VACUUM_CERTAIN"):
        assert found.get(member) == {"protocol.run", "protocol.run_batch"}, member


def _unused_imports(path: Path) -> list[str]:
    """Each name a source file imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [hit for path in paths for hit in _unused_imports(path)] == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(path: Path, modules: set[str]) -> list[str]:
    """Each `<module>._name` attribute, and each `from .<module> import _name`,
    in a source file, for the sibling `modules`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"{path.stem}:{node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            found.extend(
                f"{path.stem}:{node.lineno}: from .{node.module or ''} import {alias.name}"
                for alias in node.names
                if _private(alias.name)
            )
    return found


def test_no_module_reads_another_modules_private_names():
    # a private name is its module's own business; a second user needs a public one
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _private_reads(path, modules)]
    assert found == []


def test_only_config_and_protocol_name_the_policy_classes():
    # `config.tau_policy` builds every run's policy from its name
    classes = {"FixedTau", "JitteredTau", "HalfRabiTau", "OptimalEachStep"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("config", "protocol"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found.extend(f"{path.stem}:{node.lineno}: {name}" for name in names if name in classes)
    assert found == []
