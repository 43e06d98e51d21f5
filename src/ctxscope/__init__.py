"""Exact simulator for a five-splitter three-path interferometer.

Provides the canonical path basis and its five measurement contexts, the
noncontextual witness P(f) - P(D1) - P(D2), state propagation with
interior-path modifiers (block, phase, attenuate), counterfactual gain, and
a Poisson counting plus fringe-visibility-fitting layer.
"""
from .contexts import (
    CONTEXTS,
    INPUT_LABELS,
    INTERIOR_LABELS,
    PATH_LABELS,
    MaxWitness,
    UnknownLabelError,
    canonical_paths,
    context_at,
    max_witness,
    path_probability,
    path_vector,
    witness_direct,
    witness_matrix,
)
from .core import (
    NonOrthonormalBasisError,
    TransferOperator,
    as_state,
    basis_change,
    haar_random_states,
    inner,
    norm_sq,
    normalize,
    real_amplitude_grid,
)
from .interferometer import (
    DuplicateModifierError,
    InvalidModifierTargetError,
    Modifier,
    Network,
    OutputDistribution,
    Stage,
    attenuate,
    block,
    build_network,
    counterfactual_gain,
    evaluate_states,
    fringe_coefficients,
    phase_scan,
    phase_shift,
    run,
    run_many,
    transmittance_scan,
    witness_from_outputs,
)
from .reference import FRINGE_MODELS, MAX_WITNESS_VALUE, MEASURED, NAMED_STATES
from .stats import (
    DegenerateDesignError,
    FringeDataset,
    InvalidDurationError,
    InvalidRateError,
    PortFit,
    VisibilityOutOfRangeError,
    fit_fringe,
    noisy_fringe,
    sample_counts,
    sample_dataset,
)

__version__ = "0.1.0"
