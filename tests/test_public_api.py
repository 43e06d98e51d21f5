"""The package's public surface, pinned: adding or re-adding a name is a deliberate diff here."""
import ast
import inspect
import types

import ctxscope
from ctxscope import interferometer

PUBLIC = {
    # contexts
    "CONTEXTS", "INPUT_LABELS", "INTERIOR_LABELS", "PATH_LABELS", "canonical_paths",
    # core
    "as_state", "basis_change", "normalize",
    # interferometer
    "Modifier", "Network", "Stage", "attenuate", "block", "build_network", "evaluate_states",
    "fringe_coefficients", "phase_shift", "propagate", "run", "witness_from_outputs",
    # reference
    "FRINGE_MODELS", "MEASURED", "NAMED_STATES",
    # stats
    "DegenerateDesignError", "PortFit", "draw_counts", "fit_fringe", "fringe",
}


def test_package_exports_exactly_the_public_names():
    exported = {name for name, value in vars(ctxscope).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC


def test_interferometer_does_not_import_stats():
    tree = ast.parse(inspect.getsource(interferometer))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if name == "stats" or name.endswith(".stats")}
    assert not any(getattr(value, "__module__", None) == "ctxscope.stats" for value in vars(interferometer).values())
