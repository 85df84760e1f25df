"""Transfer of symmetric multi-qubit states from a two-mode cavity onto
individual three-level atoms: exact state-vector oracle, ensemble-level
protocol dynamics, trapping statistics, and cloning-fidelity tracking."""

__version__ = "0.1.0"

from .cloning import (
    atom_fidelity,
    binomial_distribution,
    clone_fidelity,
    quality,
    uniform_distribution,
)
from .config import DistributionSpec, ExperimentConfig, split_rng
from .fockspace import (
    AtomLevel,
    CouplingParams,
    FockLabel,
    JointPureState,
    JointSpace,
    annihilate,
    basis_state,
    evolve,
    evolution_operator,
    interaction_hamiltonian,
    measure_atom_energy,
    partially_transferred_state,
    qubit_register_state,
    reduced_atom_state,
)
from .protocol import (
    FixedTau,
    HalfRabiTau,
    JitteredTau,
    MeasurementOutcome,
    OptimalEachStep,
    ProtocolTrace,
    StopReason,
    TauPolicy,
    TraceEvent,
    WeightedEnsemble,
    excite_prob,
    optimal_tau,
    run,
    step,
    trapping_safe_tau,
    update_weights,
)
from .symstate import (
    DecompositionTerm,
    SymLabel,
    SymmetricStateVector,
    binom,
    decompose,
    symmetric_basis_state,
)
from .trapping import (
    EscapeEstimate,
    TrapSpec,
    mean_atoms_abs,
    mean_atoms_rel,
    mean_success_prob,
    monte_carlo_escape,
)
