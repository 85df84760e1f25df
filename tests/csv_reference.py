"""The step table's text as `%` templates wrote it, one (step, n) row at a
time by the table's column types: the tests' reference for the bytes of
`cli._step_lines`."""

from cavityqubits.config import STEP_TABLE

TEMPLATE = ",".join("%r" if kind is float else "%s" for _, kind in STEP_TABLE) + "\n"


def step_text(ns, weights, f_atoms, transferred) -> str:
    """The rows of a (steps, K) weight stack, its photon numbers, each
    step's F_atom and transferred count, each row through TEMPLATE."""
    steps = enumerate(zip(weights, f_atoms, transferred))
    rows = ((step, n, p, f, m) for step, (w, f, m) in steps for n, p in zip(ns, w.tolist()))
    return "".join(TEMPLATE % row for row in rows)
