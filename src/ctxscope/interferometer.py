"""The five-splitter network, interior-path modifiers, and the one propagation kernel.

Each beam splitter is represented as the basis change between consecutive
contexts, so the composition U of the five design stages is the identity on
the input rails: a photon entering rail 1, 2, or 3 leaves from the same
rail. Physical rail routing between splitters is not modeled; all
observables depend only on the context bases.

A modifier multiplies one interior path amplitude by a factor m (block 0,
phase exp(i phi), attenuate tau) at the earliest stage whose basis holds the
path: in rail coordinates, one rank-1 update psi -> psi + (m - 1) <v|psi> v,
with v the path vector read off the cumulative stage product. U then takes
psi to the output rails; it is skipped when it is within IDENTITY_ATOL
(1e-12) of I, as the design stages' U is. Several modifiers apply in
earliest-stage order, which matters because f and D2 are not orthogonal.
Output probabilities with an absorber present are reported without
renormalization, so the three ports sum to the survival probability.

`propagate` is that kernel, over a grid of factor rows. `run` (one state and
modifier set), `evaluate_states` (witness and gain with and without f
blocked) and `fringe_coefficients` (the exact phase fringe) each call it once.
"""
from __future__ import annotations

import cmath
import math
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import DIM, UNITARY_ATOL, as_state, basis_change
from .contexts import CONTEXTS, INPUT_LABELS, INTERIOR_LABELS, PATH_LABELS, canonical_paths

NORMALIZATION_ATOL = 1e-9
#: max |U - I| up to which a stage product U is the identity (propagate, check_telescoping)
IDENTITY_ATOL = 1e-12


def _check_target(target: str) -> None:
    if target not in INTERIOR_LABELS:
        raise ValueError(f"modifier target must be an interior path, got {target!r}")


class _ModifierFields(NamedTuple):
    target: str
    action: str  # "block" | "phase" | "attenuate"
    value: float = 0.0


class Modifier(_ModifierFields):
    """An immutable modifier on one interior path, checked at construction."""

    __slots__ = ()

    def __new__(cls, target: str, action: str, value: float = 0.0) -> Modifier:
        _check_target(target)
        if action not in ("block", "phase", "attenuate"):
            raise ValueError(f"unknown modifier action: {action!r}")
        if not math.isfinite(value):
            raise ValueError(f"modifier value must be finite, got {value}")
        if action == "attenuate" and not 0.0 <= value <= 1.0:
            raise ValueError(f"amplitude transmission must lie in [0, 1], got {value}")
        return super().__new__(cls, target, action, value)

    @property
    def factor(self) -> complex:
        """Factor multiplying the target path amplitude."""
        return {"block": 0.0, "phase": cmath.exp(1j * self.value), "attenuate": self.value}[self.action]


def block(target: str) -> Modifier:
    """Absorber: removes all amplitude in the target path."""
    return Modifier(target, "block")


def phase_shift(target: str, phi: float) -> Modifier:
    """Phase shifter: multiplies the target path amplitude by exp(i phi)."""
    return Modifier(target, "phase", float(phi))


def attenuate(target: str, tau: float) -> Modifier:
    """Partial absorber with amplitude transmission tau in [0, 1]."""
    return Modifier(target, "attenuate", float(tau))


class Stage:
    """A context and the read-only unitary into it from the previous one; compares by identity."""

    __slots__ = ("basis", "transfer")

    def __init__(self, basis: tuple[str, str, str], transfer: np.ndarray) -> None:
        basis = tuple(basis)
        if len(basis) != DIM or len(set(basis).intersection(PATH_LABELS)) != DIM:
            raise ValueError(f"stage basis must be {DIM} distinct path labels, got {basis!r}")
        m = np.array(transfer, dtype=complex)
        if m.shape != (DIM, DIM):
            raise ValueError(f"transfer matrix must be {DIM}x{DIM}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("transfer matrix entries must be finite")
        dev = float(np.max(np.abs(m.conj().T @ m - np.eye(DIM))))
        if dev > UNITARY_ATOL:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        m.setflags(write=False)
        self.basis, self.transfer = basis, m


class Network:
    """Stages in propagation order, and what one walk through them from the
    input context (1, 2, 3) derives. Each stage's context must share exactly
    one label with the context before it. Compares and hashes by identity."""

    __slots__ = ("stages", "paths", "product", "reflectivities")

    def __init__(self, stages: tuple[Stage, ...]) -> None:
        self.stages = stages
        paths, reflectivities = {}, []
        previous, cumulative = INPUT_LABELS, np.eye(3, dtype=complex)
        for stage in stages:
            shared = set(previous) & set(stage.basis)
            if len(shared) != 1:
                raise ValueError(f"contexts {previous} and {stage.basis} must share exactly one label")
            new, old = ([i for i, label in enumerate(b) if label not in shared] for b in (stage.basis, previous))
            reflectivities.append(float(np.min(np.abs(stage.transfer[np.ix_(new, old)]) ** 2)))
            previous, cumulative = stage.basis, stage.transfer @ cumulative
            for slot, label in enumerate(stage.basis):
                if label in INTERIOR_LABELS and label not in paths:
                    paths[label] = cumulative[slot].conj()
                    paths[label].setflags(write=False)
        cumulative.setflags(write=False)
        #: Interior path vectors in rail coordinates, in earliest-stage order: the
        #: conjugated row of the cumulative stage product where each path first appears.
        self.paths: Mapping[str, np.ndarray] = MappingProxyType(paths)
        #: The product of all stage transfers, read-only: input rails to output rails.
        self.product: np.ndarray = cumulative
        #: Each stage's coupling: the smaller |entry|^2 of its unitary 2x2 block on
        #: the changed label pair, whose |entry|^2 values come as {r, 1-r}; which of
        #: the pair is called reflectivity is a port-labeling convention.
        self.reflectivities: tuple[float, ...] = tuple(reflectivities)


def build_network(basis: Mapping[str, np.ndarray] | None = None) -> Network:
    """Assemble the five-stage network from the path basis (canonical by default)."""
    paths = canonical_paths() if basis is None else basis
    changes = [basis_change([paths[label] for label in context]) for context in CONTEXTS]
    return Network(tuple(
        Stage(CONTEXTS[k % 5], changes[k % 5] @ changes[k - 1].conj().T)
        for k in range(1, 6)
    ))


def _overlap(v: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """<v|amps> for amplitudes with the three rails on their second-to-last
    axis: conj(v_i) * amps_i for i = 0, 1, 2, summed in that order."""
    w = v.conj()
    return w[0] * amps[..., 0, :] + w[1] * amps[..., 1, :] + w[2] * amps[..., 2, :]


def propagate(
    network: Network,
    states: np.ndarray,
    targets: Sequence[str],
    factors: np.ndarray | Sequence[Sequence[complex]],
) -> np.ndarray:
    """Port probabilities, shape (n_settings, n_states, 3), for a modifier grid.

    Row s of the (n_settings, len(targets)) factors holds one finite amplitude
    factor per target path. Each target applies the rank-1 update
    amps += (m - 1) <v|amps> v to every state, in earliest-stage order, then
    the network's product U applies unless it is within IDENTITY_ATOL of I.

    The amplitudes are held as (n_settings, 3, n_states), states on the long
    axis, and the returned probabilities are a transposed view of that array.
    Each overlap <v|amps>, as each row of U, is _overlap's three complex
    products summed in order, not a matrix product, so the sum does not
    depend on how BLAS splits or orders it.
    """
    psi = np.ascontiguousarray(states, dtype=complex)
    if psi.ndim != 2 or psi.shape[1] != 3:
        raise ValueError(f"states must have shape (n, 3), got {psi.shape}")
    parts = psi.view(float)
    deviation = np.abs(np.einsum("ij,ij->i", parts, parts) - 1.0)
    if not np.max(deviation, initial=0.0) <= NORMALIZATION_ATOL:
        raise ValueError("input states must be normalized")
    order = list(network.paths)
    for j, target in enumerate(targets):
        _check_target(target)
        if target not in order:
            raise ValueError(f"the network has no path {target!r}; its paths are {', '.join(order)}")
        if target in targets[:j]:
            raise ValueError(f"multiple modifiers on path {target!r}")
    factors = np.asarray(factors, dtype=complex)
    if factors.ndim != 2 or factors.shape[1] != len(targets):
        raise ValueError(f"factors must have shape (n_settings, {len(targets)}), got {factors.shape}")
    if not np.isfinite(factors).all():
        raise ValueError("modifier factors must be finite")
    columns = np.ascontiguousarray(psi.T)
    amps = np.broadcast_to(columns, (len(factors), 3, len(psi)))
    for k, j in enumerate(sorted(range(len(targets)), key=lambda j: order.index(targets[j]))):
        v = network.paths[targets[j]]
        # before the first update, every setting's amplitudes are the input states
        overlap = _overlap(v, columns if k == 0 else amps)
        update = ((factors[:, j] - 1.0)[:, None] * overlap)[:, None, :] * v[:, None]
        update += amps
        amps = update
    if np.max(np.abs(network.product - np.eye(3))) > IDENTITY_ATOL:
        amps = np.stack([_overlap(row.conj(), amps) for row in network.product], axis=-2)
    probs = np.abs(amps)
    np.square(probs, out=probs)
    return probs.transpose(0, 2, 1)


def run(
    network: Network,
    psi: Sequence[complex] | np.ndarray,
    modifiers: Sequence[Modifier] = (),
) -> np.ndarray:
    """Port probabilities, shape (3,), of one state with the given modifiers."""
    mods = list(modifiers)
    return propagate(network, as_state(psi)[None, :], [m.target for m in mods], [[m.factor for m in mods]])[0, 0]


def witness_from_outputs(free: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    """Contextuality witness evaluated purely from output statistics.

    Equals the gain at port 3 under blocking of f, minus half the total
    probability surviving to ports 1 and 2. Algebraically identical to the
    interior-path witness P(f) - P(D1) - P(D2). Takes one distribution or
    an (n, 3) batch of each.
    """
    free, blocked = np.asarray(free, dtype=float), np.asarray(blocked, dtype=float)
    return (blocked[..., 2] - free[..., 2]) - 0.5 * (blocked[..., 0] + blocked[..., 1])


def evaluate_states(network: Network, states: np.ndarray) -> dict[str, np.ndarray]:
    """Witness and gain for (n, 3) states, the witness by two independent routes.

    "free"/"blocked": output probabilities without/with f blocked, through
    the network's own stages; "pf", "pd1", "pd2": overlaps with the canonical
    (design) paths, whatever the network; "witness": P(f) - P(D1) - P(D2);
    "gain": gain at port 3; "witness_outputs": the witness from outputs alone.
    On a perturbed network only the output side moves.

    Each path overlap is _overlap's three complex products summed in order,
    as in propagate, so the sum does not depend on how BLAS splits or orders it.
    """
    free, blocked = propagate(network, states, ["f"], [[1.0], [0.0]])
    paths, columns = canonical_paths(), np.ascontiguousarray(np.asarray(states, dtype=complex).T)
    pf, pd1, pd2 = (np.abs(_overlap(paths[label], columns)) ** 2 for label in ("f", "D1", "D2"))
    return {
        "free": free,
        "blocked": blocked,
        "pf": pf,
        "pd1": pd1,
        "pd2": pd2,
        "witness": pf - pd1 - pd2,
        "gain": blocked[:, 2] - free[:, 2],
        "witness_outputs": witness_from_outputs(free, blocked),
    }


def fringe_coefficients(
    network: Network,
    psi: Sequence[complex] | np.ndarray,
    target: str = "f",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact per-port (a, b, c) of the phase fringe a + b cos(phi) + c sin(phi) on target.

    One rank-1 update puts exp(i phi) on a single path, so each port's
    probability is this three-term curve; it is read off phi = 0, pi and
    +-pi/2. The two quarter turns are complex conjugates for a real state, so
    its c is exactly 0 and not a rounding residue.
    """
    factors = [[1.0], [-1.0], [1j], [-1j]]
    p0, ppi, plus, minus = propagate(network, as_state(psi)[None, :], [target], factors)[:, 0]
    return (p0 + ppi) / 2.0, (p0 - ppi) / 2.0, (plus - minus) / 2.0
