"""Coin-based quantum verification games over an exact gate set.

Single-message games (a prover sends a witness), coin-first games (the
verifier tosses public coins, then the prover answers), and the one-coin
three-message protocol, with exact dyadic acceptance values, witness-size
preserving error reduction, counting certificates, and seeded experiment
orchestration.
"""

from .exact import ExactScalar
from .circuits import (
    Circuit,
    Gate,
    StateVector,
    WidthCapError,
    circuit,
    dagger,
    parse_circuit,
    serialize_circuit,
    to_unitary,
)
from .spectra import (
    acceptance_operator,
    acceptance_operator_exact,
    acceptance_spectrum,
    eig_hermitian,
    partial_trace,
)
from .amplification import (
    GapCertificate,
    QmaInstance,
    amplified_counting_certificate,
    amplify_by_copies,
    amplify_preserving_witness,
    analytic_acceptance,
    counting_certificate,
    mixed_state_acceptance,
    run_alternating_measurements,
    transition_frame,
)
from .qam import (
    QamInstance,
    markov_check,
    multilinear_f,
    optimal_qam_value,
    parallel_repetition_value,
)
from .qmam import (
    MerlinStrategy,
    QipInstance,
    fidelity,
    honest_value,
    max_accept_two_ways,
    optimize_cheating,
    soundness_bound,
    uhlmann_bound_check,
)
from .harness import (
    ExperimentConfig,
    SchemaError,
    emit_tables,
    generate_instance,
    load_instance,
    run_experiment,
    save_instance,
)

__version__ = "0.1.0"
