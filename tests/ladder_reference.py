"""The cavity's ladder operators on a `fockspace.JointSpace`, as dense
matrices: the tests' reference for the transfer chain's closed forms."""

import numpy as np

from cavityqubits.fockspace import JointPureState


def annihilation_matrix(space, mode: int) -> np.ndarray:
    """Dense matrix of the ladder operator of cavity mode 0 or 1. One photon
    fewer is 1 step back in the Fock order for mode 1, and n_max + 2 - n0
    steps back for mode 0."""
    n = (space.n0, space.n1)[mode]
    src = np.flatnonzero(n > 0)
    op = np.zeros((space.dim, space.dim))
    op[src - (space.n_max + 2 - space.n0[src] if mode == 0 else 1), src] = np.sqrt(n[src])
    return op


def annihilate(state: JointPureState, mode: int) -> JointPureState:
    """The ladder operator of cavity mode `mode` applied to `state`, unnormalized."""
    return JointPureState(state.space, annihilation_matrix(state.space, mode) @ state.amplitudes)
