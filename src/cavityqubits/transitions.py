"""Stored transitions for the walk in `protocol.run`.

Runs from one prior under a deterministic interaction-time policy walk the
same narrow tree of posteriors. A `Tree` keeps that tree as runs reach it:
each node is a posterior, and once a run steps from it, that atom's tau and
p_excite and the node after each outcome. `protocol` computes every value;
this module stores them, within a byte bound and under a lock.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

import numpy as np

# Bytes of nodes one tree stores at most; a run that reaches a node past the
# bound computes it and goes on without storing it. A node takes its weights'
# 8 bytes per branch plus `NODE_BYTES`: 360 bytes at binomial:6 and 8.3 KB
# at `config.MAX_PHOTON_NUMBER`'s 1001 branches.
TREE_BYTES = 4 << 20
# Trees kept, least recently used dropped first.
TREES_CACHED = 4

# A node is a list: its posterior's weights and transferred count, whether
# that posterior is vacuum-certain, then the tau and p_excite of the atom
# that passes next and, at AFTER + outcome (0 ground, 1 excited), the node
# after it; the last four stay None until a run steps from the node.
WEIGHTS, TRANSFERRED, VACUUM, TAU, P_EXCITE, AFTER = range(6)
# A stored node besides its weights' data: the list and its entries (an
# array header, two floats and a count; True and False are shared objects).
NODE_BYTES = (
    sys.getsizeof([None] * (AFTER + 2)) + sys.getsizeof(np.empty(0))
    + 2 * sys.getsizeof(0.5) + sys.getsizeof(2**40)
)


def node(ens) -> list:
    """A node for the posterior `ens`, a `protocol.WeightedEnsemble`, with
    nothing computed from it yet."""
    return [ens.weights, ens.transferred, ens.is_vacuum_certain(), None, None, None, None]


class Tree:
    """The posteriors that runs from one initial ensemble reach under one
    deterministic policy and gamma, each stored the first time a run reaches
    it, while the tree holds at most `TREE_BYTES`. Every write to a stored
    node goes through `record` or `attach`, under `lock`. Reads take no
    lock: a stored value never changes once written, and a node's tau is
    written before its p_excite. `hits` and `misses` count the atom passes
    that followed a stored transition and those that computed one."""

    def __init__(self, root: list):
        self.root = root
        self.lock = threading.Lock()
        self.nbytes = NODE_BYTES + root[WEIGHTS].nbytes
        self.nodes = 1
        self.hits = self.misses = 0

    def record(self, stored: list, tau: float, p_excite: float) -> None:
        """Store the tau and p_excite of the atom that passes next."""
        with self.lock:
            stored[TAU], stored[P_EXCITE] = tau, p_excite

    def attach(self, parent: list, excited: bool, child: list) -> tuple[list, bool]:
        """Store `child` as the node after `parent` and the outcome, if none
        is stored there yet and the tree has room. Returns the node to go on
        with and whether it is stored: another thread may have stored an
        equal node there first."""
        size = NODE_BYTES + child[WEIGHTS].nbytes
        with self.lock:
            slot = AFTER + excited
            if parent[slot] is None and self.nbytes + size <= TREE_BYTES:
                parent[slot] = child
                self.nbytes += size
                self.nodes += 1
            stored = parent[slot]
        return (child, False) if stored is None else (stored, True)

    def count(self, hits: int, passes: int) -> None:
        """Add one run's atom passes, `hits` of them along stored transitions."""
        with self.lock:
            self.hits += hits
            self.misses += passes - hits


# The trees this process keeps, most recently used last.
trees: OrderedDict = OrderedDict()
_trees_lock = threading.Lock()


def tree(initial, policy, gamma: float) -> Tree:
    """The tree of runs from the `protocol.WeightedEnsemble` `initial` under
    `policy` and `gamma`, keyed on the ensemble's exact bytes; its root holds
    a copy of the weights."""
    key = (initial.photon_numbers.tobytes(), initial.weights.tobytes(), initial.transferred,
           policy, gamma)
    with _trees_lock:
        found = trees.pop(key, None)
        if found is None:
            root = node(initial)
            root[WEIGHTS] = root[WEIGHTS].copy()
            found = Tree(root)
        trees[key] = found
        while len(trees) > TREES_CACHED:
            trees.popitem(last=False)
    return found
