"""Independent oracle for the ctxscope benchmark.

Nothing here imports ctxscope. The network of five splitters composes to the
identity, so the free output distribution of a state psi is |psi|^2. An
interior modifier with multiplier m on path v is the rank-1 update
psi + (m - 1) <v|psi> v. Modifiers are applied in the order of the earliest
stage at which their path exists: D1/S1, then f/P1, then P2/S2, then D2.
That order matters because f and D2 are not orthogonal.
"""
from __future__ import annotations

import math

import numpy as np

_R2 = math.sqrt(2.0)
_R3 = math.sqrt(3.0)
_R6 = math.sqrt(6.0)

#: The ten path vectors in input coordinates, written out independently.
PATHS = {
    "1": np.array([1.0, 0.0, 0.0]),
    "2": np.array([0.0, 1.0, 0.0]),
    "3": np.array([0.0, 0.0, 1.0]),
    "D1": np.array([0.0, 1.0, -1.0]) / _R2,
    "S1": np.array([0.0, 1.0, 1.0]) / _R2,
    "f": np.array([1.0, 1.0, -1.0]) / _R3,
    "P1": np.array([2.0, -1.0, 1.0]) / _R6,
    "S2": np.array([1.0, 0.0, 1.0]) / _R2,
    "D2": np.array([1.0, 0.0, -1.0]) / _R2,
    "P2": np.array([1.0, -2.0, -1.0]) / _R6,
}

#: Earliest stage at which each interior path is part of the basis.
STAGE = {"D1": 1, "S1": 1, "f": 2, "P1": 2, "P2": 3, "S2": 3, "D2": 4}
INTERIOR = tuple(STAGE)

NAMED = {
    "Nf": (1.0, 1.0, 1.0),
    "Bf": (2.0, 2.0, 3.0),
    "V0": (2.0, 2.0, 1.0),
    "basis1": (1.0, 0.0, 0.0),
    "basis2": (0.0, 1.0, 0.0),
    "basis3": (0.0, 0.0, 1.0),
}

#: Counts outside both bands below are flagged: |n - mu| > 6 sqrt(mu) + 1,
#: and a Chernoff bound on the Poisson tail beyond n below this probability.
#: The second band matters for small means, where Poisson tails are far
#: heavier than six Gaussian sigmas.
COUNT_TAIL_PROB = 1e-12
FIT_SIGMAS = 5.0


def state(spec) -> np.ndarray:
    """Normalized complex state from a name or six re,im parts."""
    if isinstance(spec, str):
        vec = np.array(NAMED[spec], dtype=complex)
    else:
        parts = [float(p) for p in spec]
        vec = np.array([complex(parts[0], parts[1]), complex(parts[2], parts[3]),
                        complex(parts[4], parts[5])])
    return vec / np.linalg.norm(vec)


def multiplier(action: str, value: float = 0.0) -> complex:
    if action == "block":
        return 0.0
    if action == "phase":
        return complex(math.cos(value), math.sin(value))
    if action == "attenuate":
        return value
    raise ValueError(f"unknown modifier action {action!r}")


def propagate(psi: np.ndarray, modifiers=()) -> np.ndarray:
    """Output amplitudes for states psi (shape (3,) or (n, 3)).

    modifiers is a sequence of (action, target, value) on distinct paths,
    or of (multipliers, target) where multipliers broadcast over psi rows.
    """
    out = np.array(psi, dtype=complex)
    ordered = sorted(modifiers, key=lambda mod: STAGE[mod[1]])
    for mod in ordered:
        if isinstance(mod[0], str):
            m = multiplier(mod[0], mod[2] if len(mod) > 2 else 0.0)
        else:
            m = np.asarray(mod[0])
        v = PATHS[mod[1]]
        overlap = out @ v
        out = out + np.multiply.outer((m - 1.0) * overlap, v)
    return out


def probabilities(psi: np.ndarray, modifiers=()) -> np.ndarray:
    return np.abs(propagate(psi, modifiers)) ** 2


def path_probability(psi: np.ndarray, label: str) -> np.ndarray:
    return np.abs(np.asarray(psi) @ PATHS[label]) ** 2


def witness(psi: np.ndarray) -> np.ndarray:
    """Closed form P(f) - P(D1) - P(D2)."""
    return path_probability(psi, "f") - path_probability(psi, "D1") - path_probability(psi, "D2")


def witness_from_outputs(free: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    return (blocked[..., 2] - free[..., 2]) - 0.5 * (blocked[..., 0] + blocked[..., 1])


def fringe_coefficients(psi: np.ndarray, target: str = "f") -> tuple[np.ndarray, np.ndarray]:
    """Per-port offset and cosine amplitude of the phase fringe on target."""
    p0 = probabilities(psi, [("phase", target, 0.0)])
    ppi = probabilities(psi, [("phase", target, math.pi)])
    return (p0 + ppi) / 2.0, (p0 - ppi) / 2.0


def max_witness() -> float:
    w = (np.outer(PATHS["f"], PATHS["f"]) - np.outer(PATHS["D1"], PATHS["D1"])
         - np.outer(PATHS["D2"], PATHS["D2"]))
    return float(np.linalg.eigvalsh(w)[-1])


def haar_states(count: int, seed: int) -> np.ndarray:
    """The documented seeding contract of `sweep --complex`: a NumPy
    default_rng(seed), real parts then imaginary parts, rows normalized."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, 3)) + 1j * rng.standard_normal((count, 3))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def counts_ok(counts, means) -> np.ndarray:
    """True where a Poisson count is plausible for its mean."""
    n = np.asarray(counts, dtype=float)
    mu = np.broadcast_to(np.asarray(means, dtype=float), n.shape)
    near = np.abs(n - mu) <= 6.0 * np.sqrt(mu) + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # log P(X >= n) for n > mu, or log P(X <= n) for n < mu, is at most
        # n - mu - n ln(n / mu); at n = 0 the bound is -mu.
        log_bound = np.where(n > 0, n - mu - n * np.log(n / mu), -mu)
    return np.where(mu > 0, near | (log_bound >= math.log(COUNT_TAIL_PROB)), n == 0)


def visibility_ok(fitted: float, stderr: float, injected: float) -> bool:
    return math.isfinite(fitted) and stderr > 0 and abs(fitted - injected) <= FIT_SIGMAS * stderr


def self_check() -> list[tuple[str, float, float]]:
    """(name, oracle value, published closed form) for the anchor values."""
    v0_blocked = probabilities(state("V0"), [("block", "f")])
    bf_blocked = probabilities(state("Bf"), [("block", "f")])
    return [
        ("Nf witness", float(witness(state("Nf"))), 1 / 9),
        ("V0 blocked p1", float(v0_blocked[0]), 1 / 9),
        ("V0 blocked p2", float(v0_blocked[1]), 1 / 9),
        ("V0 blocked p3", float(v0_blocked[2]), 4 / 9),
        ("Bf blocked p1", float(bf_blocked[0]), 25 / 153),
        ("Bf blocked p2", float(bf_blocked[1]), 25 / 153),
        ("Bf blocked p3", float(bf_blocked[2]), 100 / 153),
        ("max witness", max_witness(), (math.sqrt(33.0) - 3.0) / 12.0),
    ]


def self_check_failures(tol: float = 1e-12) -> list[str]:
    return [f"{name}: {got!r} != {want!r}" for name, got, want in self_check()
            if abs(got - want) > tol]
