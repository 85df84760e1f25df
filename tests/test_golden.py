"""Golden-output gate: small datasets of every subcommand and policy must
keep their exact bytes.

Each case is a `cli.main` argv; its golden CSV sits in `tests/golden/`.
The only line allowed to differ is the `# out = ...` metadata echo, which
records wherever the file was written.

To regenerate a golden file on purpose (after a documented output change):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cavityqubits import cli, config, protocol

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"

CASES = {
    "fig4_binomial10.csv": [
        "fig4", "--nmax", "10", "--cutoffs", "1..30", "--runs", "20", "--seed", "2024",
    ],
    # cutoffs above the budget: those runs all end on the atom budget
    "fig4_budget.csv": [
        "fig4", "--nmax", "10", "--cutoffs", "1..30", "--runs", "20", "--budget", "12",
        "--seed", "2025",
    ],
    "fig4_uniform_two_originals.csv": [
        "fig4", "--dist", "uniform:2..6", "--n-originals", "2", "--cutoffs", "1..30",
        "--runs", "20", "--seed", "2026",
    ],
    "fig2.csv": ["fig2", "--nmax", "6", "--tau", "0.825", "--seed", "7"],
    "fig3.csv": [
        "fig3", "--sigma-rel", "0.01:0.20:0.01", "--m", "1,2,3", "--trials", "500", "--seed", "3",
    ],
    "custom_optimal_each_step.csv": [
        "custom", "--nmax", "6", "--policy", "optimal-each-step", "--seed", "8",
    ],
    "custom_jittered.csv": [
        "custom", "--nmax", "6", "--policy", "jittered", "--sigma-rel", "0.05", "--seed", "9",
    ],
    "custom_half_rabi.csv": [
        "custom", "--dist", "explicit:4=1.0", "--policy", "half-rabi", "--seed", "10",
    ],
    # gamma != 1: gamma and tau stay separate floats, so these pin how the
    # Rabi phase sqrt(k) * (gamma * tau) rounds
    "fig2_gamma.csv": ["fig2", "--nmax", "6", "--tau", "0.825", "--gamma", "1.3", "--seed", "7"],
    "custom_optimal_each_step_gamma.csv": [
        "custom", "--nmax", "6", "--policy", "optimal-each-step", "--gamma", "0.7", "--seed", "8",
    ],
    "custom_jittered_gamma.csv": [
        "custom", "--nmax", "6", "--policy", "jittered", "--sigma-rel", "0.05", "--gamma", "1.3",
        "--seed", "9",
    ],
    "fig4_binomial10_gamma.csv": [
        "fig4", "--nmax", "10", "--cutoffs", "1..30", "--runs", "20", "--gamma", "1.3",
        "--seed", "2024",
    ],
}


def _without_out_line(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("# out = ")]


def generate(name: str, out: Path) -> None:
    assert cli.main([*CASES[name], "--out", str(out)]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    out = tmp_path / name
    generate(name, out)
    assert _without_out_line(out.read_text()) == _without_out_line(
        (GOLDEN_DIR / name).read_text()
    )
    assert cli.check_output(out) == []


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"] and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


# Every case in a fresh process, which reads OPENBLAS_CORETYPE as it loads
# the library: argv[1] is the output directory, argv[2] the cases as JSON.
CHILD = """
import json, sys
from pathlib import Path
from cavityqubits import cli
for name, argv in json.loads(sys.argv[2]).items():
    assert cli.main([*argv, "--out", str(Path(sys.argv[1]) / name)]) == 0
"""


# numpy's AVX2 and AVX-512 dispatch targets: with them off, its loops
# (np.sin, np.sqrt, the samplers) take their baseline paths
NARROW_SIMD = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.skipif(
    not _dynamic_openblas(),
    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE picks no kernel",
)
def test_golden_bytes_on_every_x86_blas_kernel(tmp_path):
    # the SSE3, AVX2 and AVX-512 kernels, and numpy without its wide SIMD
    # loops: every golden keeps its bytes on each, since no weighted total
    # is summed by the BLAS
    settings = {k: {"OPENBLAS_CORETYPE": k} for k in ("Prescott", "Haswell", "SkylakeX")}
    settings["narrow SIMD"] = {"NPY_DISABLE_CPU_FEATURES": NARROW_SIMD}
    children = {}
    for name, extra in settings.items():
        out = tmp_path / name
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": str(SRC), **extra}
        children[name] = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(out), json.dumps(CASES)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
    errors = {name: child.communicate(timeout=120)[1] for name, child in children.items()}
    if children["narrow SIMD"].returncode and "NPY_DISABLE_CPU_FEATURES" in errors["narrow SIMD"]:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={NARROW_SIMD!r}")
    moved = []
    for name, child in children.items():
        assert child.returncode == 0, f"{name}: {errors[name]}"
        moved += [
            f"{name}: {case}" for case in sorted(CASES)
            if _without_out_line((tmp_path / name / case).read_text())
            != _without_out_line((GOLDEN_DIR / case).read_text())
        ]
    assert moved == []


def test_a_fixed_tau_prior_optimum_seeds_the_optimal_each_step_tree(tmp_path, monkeypatch):
    # the jittered run stores its prior's optimum at the root of the
    # optimal-each-step tree, which the next run walks from
    protocol.trees.clear()
    for name in ("custom_jittered.csv", "custom_optimal_each_step.csv"):
        out = tmp_path / name
        generate(name, out)
        assert _without_out_line(out.read_text()) == _without_out_line(
            (GOLDEN_DIR / name).read_text()
        )
    searches = []
    search = protocol.optimal_tau
    monkeypatch.setattr(protocol, "optimal_tau", lambda *args: searches.append(args) or search(*args))
    cfg = config.ExperimentConfig(distribution=config.DistributionSpec("binomial", n_max=6))
    initial = protocol.WeightedEnsemble.from_weights(cfg.initial_weights())
    tau = cfg.resolved_tau(initial)
    assert searches == []
    assert tau == protocol.optimal_tau(initial, cfg.gamma)


def test_alternating_commands_share_one_parser(tmp_path, capsys):
    # one parser serves every call of the process; runs, validate, check and
    # a bad flag in turn must each give what they give alone
    assert cli.build_parser() is cli.build_parser()
    bad = subprocess.run(
        [sys.executable, "-m", "cavityqubits.cli", "fig4", "--no-such-flag"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert bad.returncode == 2
    for _ in range(2):
        for name in ("fig4_budget.csv", "custom_optimal_each_step.csv", "fig3.csv"):
            out = tmp_path / name
            generate(name, out)
            assert _without_out_line(out.read_text()) == _without_out_line(
                (GOLDEN_DIR / name).read_text()
            )
            assert cli.main(["validate", "--nmax", "6", "--seed", "1"]) == 0
            assert cli.main(["check", str(out)]) == 0
            with pytest.raises(SystemExit) as exc:
                cli.main(["fig4", "--no-such-flag"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == f"{out}\nok\n{out}: OK\n"
            assert captured.err == bad.stderr


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    os.chdir(GOLDEN_DIR)  # so the `# out` echo holds just the file name
    for case in sys.argv[1:] or sorted(CASES):
        generate(case, Path(case))
        print(GOLDEN_DIR / case)
