"""One-qubit Pauli channels, quasi-channels and their representations.

Two equivalent pictures are used throughout:

* probability form: a 4-vector ``(p_I, p_X, p_Y, p_Z)`` of Pauli error
  probabilities (a quasi-channel when the total weight is below 1);
* diagonal form: the diagonal ``[p, x, y, z]`` of the channel's superoperator
  in the Pauli basis.

The two are exchanged by the involutive 4-point transform ``HAD4`` (rows are
the commutation signs of I, X, Y, Z against each other).  General one-qubit
superoperators (possibly non-diagonal) are the input of the small-n oracle;
the production pipeline runs entirely on probability vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CLAMP_TOL",
    "LETTERS",
    "KLEIN",
    "HAD4",
    "PauliProbVec",
    "OneQubitSuperop",
    "entropy",
    "row_entropy",
    "apply_logical_pauli",
    "noise_family",
    "NOISE_FAMILIES",
]

#: Numerical tolerance for clamping tiny negative probabilities.
#: Enumerations are sums/products of machine floats with no deep
#: cancellation, so 1e-12 leaves a wide safety margin.
CLAMP_TOL = 1e-12

LETTERS = "IXYZ"
_LETTER_INDEX = {c: i for i, c in enumerate(LETTERS)}

#: Klein-group multiplication table on letter indices (I,X,Y,Z = 0..3).
KLEIN = np.array(
    [[0, 1, 2, 3],
     [1, 0, 3, 2],
     [2, 3, 0, 1],
     [3, 2, 1, 0]], dtype=np.int64)

#: 4-point transform between probability and diagonal form;
#: HAD4[a][b] = commutation sign of letters a and b.  HAD4 @ HAD4 = 4*I.
HAD4 = np.array(
    [[1, 1, 1, 1],
     [1, 1, -1, -1],
     [1, -1, 1, -1],
     [1, -1, -1, 1]], dtype=np.float64)


class ChannelError(ValueError):
    """Non-physical channel data (negative probability, zero weight, ...)."""


def _clamped(values, tol: float = CLAMP_TOL) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if np.any(v < -tol):
        raise ChannelError(f"negative probability beyond tolerance: {v}")
    return np.where(v < 0.0, 0.0, v)


@dataclass(frozen=True)
class PauliProbVec:
    """Pauli error probabilities (p_I, p_X, p_Y, p_Z) of a (quasi-)channel."""

    p_i: float
    p_x: float
    p_y: float
    p_z: float

    def __post_init__(self):
        v = _clamped([self.p_i, self.p_x, self.p_y, self.p_z])
        for name, val in zip(("p_i", "p_x", "p_y", "p_z"), v):
            object.__setattr__(self, name, float(val))

    @classmethod
    def from_array(cls, arr) -> "PauliProbVec":
        return cls(*np.asarray(arr, dtype=np.float64))

    def as_array(self) -> np.ndarray:
        return np.array([self.p_i, self.p_x, self.p_y, self.p_z])

    def weight(self) -> float:
        return self.p_i + self.p_x + self.p_y + self.p_z


def row_entropy(q) -> np.ndarray:
    """Sum of -q*log2(q) over the last axis of any batch of rows; 0*log2(0) = 0."""
    q = np.asarray(q, dtype=np.float64)
    # 0.0 - s, not -s: a pure row gives +0.0 rather than -0.0.
    return 0.0 - (q * np.log2(np.where(q > 0.0, q, 1.0))).sum(axis=-1)


def entropy(p: PauliProbVec) -> float:
    """Shannon entropy (bits) of the normalized error distribution, in [0, 2]."""
    w = p.weight()
    if w <= 0.0:
        raise ChannelError("entropy undefined for zero-weight quasi-channel")
    return float(row_entropy(p.as_array() / w))


def apply_logical_pauli(p: PauliProbVec, s: str) -> PauliProbVec:
    """Compose a Pauli channel with the Pauli ``s``: error labels multiply by s.

    Weight and entropy are unchanged; applying the same letter twice is the
    identity.
    """
    si = _LETTER_INDEX[s]
    arr = p.as_array()
    return PauliProbVec.from_array(arr[KLEIN[si]])


def _depolarizing(p: float) -> np.ndarray:
    return np.array([1.0 - 3.0 * p, p, p, p])


def _indep_flips(p: float) -> np.ndarray:
    # independent bit flip and phase flip, each with probability p
    return np.array([(1.0 - p) ** 2, p * (1.0 - p), p * p, p * (1.0 - p)])


def _phase_flip(p: float) -> np.ndarray:
    return np.array([1.0 - p, 0.0, 0.0, p])


def _two_axis(p: float) -> np.ndarray:
    return np.array([1.0 - 2.0 * p, p, 0.0, p])


#: name -> (constructor, largest parameter with all probabilities in [0,1],
#: upper bracket end used by threshold searches).  The bracket cap for the
#: two-axis family is below its 0.5 domain cap because its entropy is only
#: monotone up to ~0.35.
NOISE_FAMILIES: dict[str, tuple] = {
    "depolarizing": (_depolarizing, 1.0 / 3.0, 1.0 / 3.0),
    "indep-flips": (_indep_flips, 1.0, 0.5),
    "phase-flip": (_phase_flip, 1.0, 0.5),
    "two-axis": (_two_axis, 0.5, 0.3),
}


def noise_family(name: str, p: float) -> PauliProbVec:
    """Construct a named one-parameter noise channel.

    Families: ``depolarizing`` (p,p,p), ``indep-flips`` (p-p^2, p^2, p-p^2),
    ``phase-flip`` (0,0,p), ``two-axis`` (p,0,p).
    """
    if name not in NOISE_FAMILIES:
        raise ChannelError(f"unknown noise family {name!r}; known: {sorted(NOISE_FAMILIES)}")
    ctor, cap, _ = NOISE_FAMILIES[name]
    if not 0.0 <= p <= cap:
        raise ChannelError(f"{name} parameter {p} outside valid range [0, {cap}]")
    return PauliProbVec.from_array(ctor(p))


@dataclass(frozen=True)
class OneQubitSuperop:
    """Real 4x4 one-qubit superoperator in the Pauli basis {I,X,Y,Z}."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.float64)
        if m.shape != (4, 4):
            raise ChannelError("superoperator must be 4x4")
        object.__setattr__(self, "m", m)

    @classmethod
    def identity(cls) -> "OneQubitSuperop":
        return cls(np.eye(4))

    @classmethod
    def from_probs(cls, p: PauliProbVec) -> "OneQubitSuperop":
        return cls(np.diag(HAD4 @ p.as_array()))

