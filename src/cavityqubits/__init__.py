"""Transfer of symmetric multi-qubit states from a two-mode cavity onto
individual three-level atoms: exact state-vector oracle, ensemble-level
protocol dynamics, trapping statistics, and cloning-fidelity tracking.

Import the submodules directly: the package itself loads none of them, so
the CLI never loads the oracle (`fockspace`) or `symstate`."""

__version__ = "0.1.0"
