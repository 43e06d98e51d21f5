"""Exact simulator for a five-splitter three-path interferometer.

Provides the canonical path basis and its five measurement contexts, one
propagation kernel for interior-path modifiers (block, phase, attenuate),
the noncontextual witness P(f) - P(D1) - P(D2) and the counterfactual gain
from evaluate_states, and a Poisson counting plus fringe-visibility-fitting
layer.
"""
import os
import sys

_pin = "numpy" not in sys.modules and not any(
    name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
if _pin:  # OpenBLAS sizes its pool as NumPy loads it; ctxscope's BLAS calls are 3x3 products and small QRs
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .contexts import (
        CONTEXTS,
        INPUT_LABELS,
        INTERIOR_LABELS,
        PATH_LABELS,
        canonical_paths,
    )
    from .core import (
        as_state,
        basis_change,
        normalize,
    )
    from .interferometer import (
        Modifier,
        Network,
        Stage,
        attenuate,
        block,
        build_network,
        evaluate_states,
        fringe_coefficients,
        phase_shift,
        propagate,
        run,
        witness_from_outputs,
    )
    from .reference import FRINGE_MODELS, MEASURED, NAMED_STATES
    from .stats import (
        DegenerateDesignError,
        PortFit,
        draw_counts,
        fit_fringe,
        fringe,
    )
finally:
    if _pin:
        del os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"
