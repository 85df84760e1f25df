"""Spans and counts recorded around the program's public functions, from
outside the program.

`Tracer.install()` replaces each traced function with a wrapper in every
namespace of the package that holds it (`cli` imports `split_rng` by name,
while `protocol` reaches `excite_prob` through its own globals), and each
traced method on its class. A wrapper records one span per call: name,
start, end, parent span and op id. Spans stay in memory until the run
ends. A span's self time is its duration minus the time its child spans
cover, so the self times of all spans, plus the harness's own root span,
add up to the traced wall time.

Counts that the spans alone cannot give are taken from arguments and
return values at the same boundaries; Monte Carlo rounds and variates come
from a counting proxy around each Generator that `split_rng` returns.
"""

from __future__ import annotations

import functools
import gzip
import math
import weakref
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("symstate", "fockspace", "protocol", "cloning", "trapping", "config", "cli")
MB = 2**20
# Units of exact counts: integers that repeat exactly for a given seed.
COUNT_UNITS = ("count", "B", "flop")

# (module, qualified name, span name); the span name's first part is the layer.
FUNCTIONS = [
    ("symstate", "binom", "symstate.binom"),
    ("fockspace", "JointSpace.__init__", "fockspace.JointSpace.init"),
    ("fockspace", "interaction_hamiltonian", "fockspace.interaction_hamiltonian"),
    ("fockspace", "evolve", "fockspace.evolve"),
    ("fockspace", "measure_atom_energy", "fockspace.measure_atom_energy"),
    ("protocol", "WeightedEnsemble.__post_init__", "protocol.ensemble.validate"),
    ("protocol", "excite_prob", "protocol.excite_prob"),
    ("protocol", "update_weights", "protocol.update_weights"),
    ("protocol", "step", "protocol.step"),
    ("protocol", "optimal_tau", "protocol.optimal_tau"),
    ("protocol", "run", "protocol.run"),
    ("cloning", "atom_fidelity", "cloning.atom_fidelity"),
    ("cloning", "quality", "cloning.quality"),
    ("trapping", "monte_carlo_escape", "trapping.monte_carlo_escape"),
    ("config", "split_rng", "config.split_rng"),
    ("config", "DistributionSpec.resolve", "config.DistributionSpec.resolve"),
    ("cli", "main", "cli.main"),
    ("cli", "validate", "cli.validate"),
    ("cli", "run_experiment", "cli.run_experiment"),
    ("cli", "check_output", "cli.check_output"),
]

ROOT = "bench.repeat"


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class CountingGenerator:
    """Forwards to a numpy Generator and counts what is drawn from it.

    A `normal` call that directly follows another `normal` call is a
    resample of rejected draws (`monte_carlo_escape` truncates tau > 0 that
    way); each `random` call closes one Monte Carlo round.
    """

    def __init__(self, inner):
        self._inner = inner
        self.random_calls = 0
        self.variates = 0
        self.normal_variates = 0
        self.resampled = 0
        self._last_normal = False

    @staticmethod
    def _size(size) -> int:
        if size is None:
            return 1
        return math.prod(size) if isinstance(size, tuple) else int(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        n = self._size(size)
        self.variates += n
        self.normal_variates += n
        if self._last_normal:
            self.resampled += n
        self._last_normal = True
        return self._inner.normal(loc, scale, size)

    def random(self, size=None, *args, **kwargs):
        self.random_calls += 1
        self.variates += self._size(size)
        self._last_normal = False
        return self._inner.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []  # (name id, start, end, parent, op)
        self.stack: list[int] = [-1]
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self._hamiltonians = weakref.WeakValueDictionary()

    def next_op(self) -> None:
        """Spans opened from now on belong to the next op."""
        self.op += 1

    def wrap(self, fn, name: str, after=None):
        """Wrap `fn` so that each call records a span; `after(args, kwargs,
        result)` runs once the span has closed and returns the result."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)
            return result if after is None else after(args, kwargs, result)

        return traced

    # --- installing and removing the wrappers ------------------------------

    def install(self) -> None:
        import importlib

        package = importlib.import_module("cavityqubits")
        modules = {name: importlib.import_module(f"cavityqubits.{name}") for name in MODULES}
        namespaces = [package, *modules.values()]
        observers = self._observers(modules)
        for module_name, qualname, span_name in FUNCTIONS:
            module = modules[module_name]
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self.wrap(original, span_name, observers.get(span_name)))
                continue
            original = getattr(module, attr)
            traced = self.wrap(original, span_name, observers.get(span_name))
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _observers(self, modules) -> dict:
        counts = self.counts
        protocol = modules["protocol"]
        budget, excited = protocol.StopReason.ATOM_BUDGET, protocol.MeasurementOutcome.EXCITED

        def run(args, kwargs, trace):
            counts["protocol.run.atoms"] += len(trace.events)
            counts["protocol.run.budget_stops"] += trace.reason is budget
            return trace

        def step(args, kwargs, result):
            counts["protocol.step.excited"] += result[0] is excited
            return result

        def excite_prob(args, kwargs, result):
            counts["protocol.excite_prob.tau_points"] += getattr(_arg(args, kwargs, 2, "tau"), "size", 1)
            return result

        def interaction_hamiltonian(args, kwargs, h):
            # A matrix object not alive before this call is a fresh build, not
            # a cache hit.
            if self._hamiltonians.get(id(h)) is not h:
                self._hamiltonians[id(h)] = h
                counts["fockspace.interaction_hamiltonian.builds"] += 1
                counts["fockspace.interaction_hamiltonian.bytes"] += h.nbytes
            return h

        def evolve(args, kwargs, result):
            # Computed from sizes, not measured: eigh of a real symmetric d x d
            # matrix (~9 d^3 flops), the complex d x d product forming exp(-iHt)
            # (8 d^3) and the matrix-vector product (8 d^2). Bytes: the real
            # H and eigenvectors, the complex scaled and product matrices, and
            # the complex eigenvector copy the product upcasts to.
            d = _arg(args, kwargs, 0, "state").space.dim
            counts["fockspace.evolve.dim_max"] = max(counts["fockspace.evolve.dim_max"], d)
            counts["fockspace.evolve.flops"] += 17 * d**3 + 8 * d**2
            counts["fockspace.evolve.bytes"] += (2 * 8 + 3 * 16) * d**2 + 2 * 16 * d
            return result

        def split_rng(args, kwargs, rng):
            return CountingGenerator(rng)

        def monte_carlo_escape(args, kwargs, result):
            rng = _arg(args, kwargs, 2, "rng")
            if isinstance(rng, CountingGenerator):
                counts["trapping.rounds"] += rng.random_calls
                counts["trapping.variates"] += rng.variates
                counts["trapping.normal_variates"] += rng.normal_variates
                counts["trapping.resampled"] += rng.resampled
            return result

        def run_experiment(args, kwargs, path):
            counts["cli.csv_bytes"] += Path(path).stat().st_size
            return path

        return {
            "protocol.run": run,
            "protocol.step": step,
            "protocol.excite_prob": excite_prob,
            "fockspace.interaction_hamiltonian": interaction_hamiltonian,
            "fockspace.evolve": evolve,
            "config.split_rng": split_rng,
            "trapping.monte_carlo_escape": monte_carlo_escape,
            "cli.run_experiment": run_experiment,
        }

    # --- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self time per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for (name_id, start, end, _, _), covered in zip(self.spans, child):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += (end - start) - covered
        return calls, self_s

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_s,end_s,parent,op\n")
            for index, (name_id, start, end, parent, op) in enumerate(self.spans):
                out.write(f"{index},{self.names[name_id]},{start!r},{end!r},{parent},{op}\n")

    def metrics(self, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced repeat, as name -> (value, unit).

        Ratios whose base is zero (a layer the workload never calls) read 0.
        """
        calls, self_s = self.self_times()
        counts = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        steps = calls["protocol.step"]
        out: dict[str, tuple[float, str]] = {}
        for name in ("protocol.run", "protocol.step", "protocol.excite_prob", "protocol.update_weights",
                     "protocol.optimal_tau", "cloning.atom_fidelity", "cloning.quality",
                     "config.split_rng", "trapping.monte_carlo_escape",
                     "fockspace.interaction_hamiltonian", "fockspace.evolve",
                     "fockspace.measure_atom_energy", "cli.run_experiment", "cli.check_output"):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        out.update({
            "protocol.run.atoms_mean": (ratio(counts["protocol.run.atoms"], calls["protocol.run"]), "atoms"),
            "protocol.run.budget_stop_frac": (
                ratio(counts["protocol.run.budget_stops"], calls["protocol.run"]), "ratio"),
            "protocol.step.excited_frac": (ratio(counts["protocol.step.excited"], steps), "ratio"),
            "protocol.excite_prob.calls_per_step": (ratio(calls["protocol.excite_prob"], steps), "ratio"),
            "protocol.excite_prob.tau_points": (counts["protocol.excite_prob.tau_points"], "count"),
            "protocol.ensemble.validations": (calls["protocol.ensemble.validate"], "count"),
            "protocol.ensemble.validations_per_step": (ratio(calls["protocol.ensemble.validate"], steps), "ratio"),
            "protocol.ensemble.validate_s": (self_s["protocol.ensemble.validate"], "s"),
            "config.DistributionSpec.resolve.calls": (calls["config.DistributionSpec.resolve"], "count"),
            "trapping.rounds": (counts["trapping.rounds"], "count"),
            "trapping.variates": (counts["trapping.variates"], "count"),
            "trapping.resample_frac": (
                ratio(counts["trapping.resampled"], counts["trapping.normal_variates"]), "ratio"),
            "fockspace.JointSpace.init_s": (self_s["fockspace.JointSpace.init"], "s"),
            "fockspace.interaction_hamiltonian.builds": (counts["fockspace.interaction_hamiltonian.builds"], "count"),
            "fockspace.interaction_hamiltonian.mb": (counts["fockspace.interaction_hamiltonian.bytes"] / MB, "MB"),
            "fockspace.evolve.dim_max": (counts["fockspace.evolve.dim_max"], "count"),
            "fockspace.evolve.flops_computed": (counts["fockspace.evolve.flops"], "flop"),
            "fockspace.evolve.bytes_computed": (counts["fockspace.evolve.bytes"], "B"),
            "symstate.binom.calls": (calls["symstate.binom"], "count"),
            "cli.validate.self_s": (self_s["cli.validate"], "s"),
            "cli.csv_bytes": (counts["cli.csv_bytes"], "B"),
        })
        layer_s = defaultdict(float)
        for name, seconds in self_s.items():
            layer_s[name.split(".")[0]] += seconds
        for module in MODULES:
            out[f"{module}.self_s"] = (layer_s[module], "s")
        wall = sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
        out.update({
            "trace.wall_s": (wall, "s"),
            "trace.untraced_wall_s": (untraced_wall_s, "s"),
            "trace.overhead_s": (wall - untraced_wall_s, "s"),
            "trace.uncovered_s": (self_s[ROOT], "s"),
            "trace.spans": (len(self.spans), "count"),
        })
        return {name: (int(value) if unit in COUNT_UNITS else value, unit)
                for name, (value, unit) in out.items()}
