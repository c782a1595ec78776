"""Adaptive concatenation of syndrome-conditioned channel ensembles.

The state between levels is a :class:`ChannelEnsemble`: a probability-weighted
collection of one-qubit Pauli channels, one weight per (deduplicated) syndrome
history.  One concatenation level assigns an independently drawn entry to each
of the n qubit slots of the code block, pushes every assignment through the
per-syndrome level map, and flattens the results into the next ensemble.

Which qubit receives which entry matters in general, because a stabilizer
code treats its qubits asymmetrically.  The permutations in the code's qubit
automorphism group (:func:`~concatqec.codes.qubit_automorphisms`) only
relabel the syndromes of the level map, so a level enumerates one assignment
per orbit of that group, weighted by the orbit's size; a code whose group is
trivial enumerates every ordered assignment.
Deduplicating the entries of each child ensemble first is what keeps exact
level-2 enumeration tractable.  Each entry is canonicalized by applying its
optimal logical recovery (the class of maximal probability moved to the
identity slot) before deduplication; entropy is unaffected and deduplication
improves.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .channels import (
    HAD4, KLEIN, LETTERS, ChannelError, PauliProbVec, apply_logical_pauli, row_entropy)
from .codes import StabilizerCode, qubit_automorphisms
from .levelmap import _conditional, _coset_map_batch

__all__ = [
    "DEDUP_TOL",
    "PRUNE_FLOOR",
    "DEFAULT_BUDGET",
    "BudgetExceeded",
    "ChannelEnsemble",
    "optimize_recovery",
    "exact_level",
    "exact_level_entropy",
    "concatenate_exact",
    "ensemble_entropy",
]

_log = logging.getLogger("concatqec")

DEDUP_TOL = 1e-10
PRUNE_FLOOR = 1e-15
DEFAULT_BUDGET = 10 ** 7

#: Assignments are pushed through the level map in batches of this many.
_CHUNK = 4096

#: Assignment numbers are scanned for orbit representatives this many at a time.
_ORBIT_CHUNK = 1 << 16

#: Recovery tie-break order: I first, then X, Z, Y.
_TIE_ORDER = np.array([0, 1, 3, 2], dtype=np.int64)

#: Recovery classes this close to the row maximum, relatively, count as tied.
_TIE_RTOL = 1e-12


class BudgetExceeded(RuntimeError):
    """Exact enumeration would exceed the combination budget; use Monte Carlo."""

    def __init__(self, combinations: int, budget: int):
        super().__init__(
            f"exact level needs {combinations} combinations, over the budget "
            f"of {budget}; use the Monte Carlo path")
        self.combinations = combinations
        self.budget = budget


@dataclass(frozen=True)
class ChannelEnsemble:
    """Weighted, deduplicated collection of normalized one-qubit channels."""

    weights: np.ndarray
    channels: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        c = np.asarray(self.channels, dtype=np.float64)
        if w.ndim != 1 or c.shape != (w.size, 4):
            raise ChannelError(f"ensemble shape mismatch: {w.shape} vs {c.shape}")
        if w.size == 0 or np.any(w <= 0.0):
            raise ChannelError("ensemble weights must be positive")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ChannelError(f"ensemble weights sum to {w.sum()}, not 1")
        if np.any(c < 0.0) or np.abs(c.sum(axis=1) - 1.0).max() > 1e-9:
            raise ChannelError("ensemble channels must be normalized")
        w.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "channels", c)

    @classmethod
    def singleton(cls, p: PauliProbVec) -> "ChannelEnsemble":
        return cls(np.array([1.0]), p.as_array()[None, :] / p.weight())

    @property
    def size(self) -> int:
        return self.weights.size

    def average_channel(self) -> PauliProbVec:
        """Weighted mean channel; what a syndrome-blind observer would see."""
        return PauliProbVec.from_array(self.weights @ self.channels)


def _recovery_class(rows: np.ndarray) -> np.ndarray:
    """Class of maximal probability per row, the last axis holding I, X, Y, Z.

    Classes within a relative _TIE_RTOL of the row maximum count as tied, so
    a round-off difference cannot make Klein relabelings of one channel pick
    different classes; ties go in the order I, X, Z, Y.
    """
    tied = rows >= rows.max(axis=-1, keepdims=True) * (1.0 - _TIE_RTOL)
    return _TIE_ORDER[np.argmax(tied[..., _TIE_ORDER], axis=-1)]


def optimize_recovery(q: PauliProbVec) -> tuple[str, PauliProbVec]:
    """Best extra logical recovery for a channel and the channel after it.

    Picks the class of maximal probability (near-ties broken in the order
    I, X, Z, Y) and relabels errors so that class becomes the identity.
    """
    if q.weight() <= 0.0:
        raise ChannelError("cannot optimize a zero-weight quasi-channel")
    letter = LETTERS[_recovery_class(q.as_array())]
    return letter, apply_logical_pauli(q, letter)


def _optimize_rows(rows: np.ndarray) -> np.ndarray:
    """Vectorized optimize_recovery over normalized channel rows."""
    sigma = _recovery_class(rows)
    return rows[np.arange(rows.shape[0])[:, None], KLEIN[sigma]]


def _merge_close(weights: np.ndarray, channels: np.ndarray, tol: float):
    """Merge channel rows within tol in max-norm (weighted mean channel).

    Scans rows by decreasing weight so smaller entries merge into larger.
    """
    order = np.argsort(-weights, kind="stable")
    kept_rows = np.empty_like(channels)
    target = np.empty(weights.size, dtype=np.int64)
    kept = 0
    for i in order:
        hits = np.flatnonzero(
            np.abs(kept_rows[:kept] - channels[i]).max(axis=1) < tol)
        if hits.size:
            target[i] = hits[0]
            continue
        target[i] = kept
        kept_rows[kept] = channels[i]
        kept += 1
    out_w = np.zeros(kept)
    out_c = np.zeros((kept, 4))
    np.add.at(out_w, target, weights)
    np.add.at(out_c, target, weights[:, None] * channels)
    out_c /= out_w[:, None]
    return out_w, out_c


class _Accumulator:
    """Streaming dedup of (weight, channel) rows on a quantization grid."""

    #: Buffered rows are compacted once they exceed this count.
    _COMPACT_AT = 1 << 21

    #: finish() skips the pairwise boundary merge above this survivor count.
    _MERGE_CAP = 4096

    def __init__(self, tol: float):
        self.tol = tol
        self._keys: list[np.ndarray] = [np.empty((0, 4), dtype=np.int64)]
        self._wc: list[np.ndarray] = [np.empty((0, 5))]
        self._pending = 0

    def add(self, weights: np.ndarray, rows: np.ndarray):
        self._keys.append(np.round(rows / self.tol).astype(np.int64))
        self._wc.append(np.column_stack([weights, weights[:, None] * rows]))
        self._pending += weights.size
        if self._pending >= self._COMPACT_AT:
            self._compact()

    def _compact(self):
        keys = np.concatenate(self._keys)
        wc = np.concatenate(self._wc)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        out = np.empty((uniq.shape[0], 5))
        for j in range(5):
            out[:, j] = np.bincount(inverse, weights=wc[:, j],
                                    minlength=uniq.shape[0])
        self._keys, self._wc, self._pending = [uniq], [out], uniq.shape[0]

    def finish(self, prune_floor: float) -> tuple[np.ndarray, np.ndarray]:
        self._compact()
        wc = self._wc[0]
        keep = wc[:, 0] >= prune_floor
        if not np.any(keep):
            raise ChannelError("all ensemble mass pruned; lower the prune floor")
        w = wc[keep, 0]
        c = wc[keep, 1:] / w[:, None]
        # Second pass with the true tolerance catches grid-boundary splits.
        if w.size <= self._MERGE_CAP:
            w, c = _merge_close(w, c, self.tol)
        else:
            _log.warning("%d entries survive dedup, over the merge cap of %d; entries "
                         "within %g across a grid boundary stay unmerged",
                         w.size, self._MERGE_CAP, self.tol)
        # Pruned mass is redistributed by renormalizing the kept weights.
        w /= w.sum()
        c /= c.sum(axis=1, keepdims=True)
        return w, c


def _ordered_chunks(code: StabilizerCode, child: ChannelEnsemble):
    """Yield (assignment weights, per-slot diagonals) over ordered assignments.

    Assignment t picks entry (t // size^(n-1-i)) % size for slot i, the
    numbering of :func:`_orbit_table`.
    """
    size = child.size
    strides = size ** np.arange(code.n - 1, -1, -1, dtype=np.int64)
    diag = child.channels @ HAD4.T
    total = size ** code.n
    for start in range(0, total, _CHUNK):
        t = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        idx = (t[:, None] // strides) % size
        yield child.weights[idx].prod(axis=1), diag[idx]


@functools.lru_cache(maxsize=16)
def _orbit_table(code: StabilizerCode, size: int) -> tuple[np.ndarray, np.ndarray]:
    """One assignment per orbit of the code's qubit automorphisms, and orbit sizes.

    Assignments of ``size`` entries to the n slots are numbered in base
    ``size`` with slot 0 most significant, as in :func:`_ordered_chunks`; the
    representative of an orbit is its lowest number.  Returns the
    representatives' per-slot entries, shape (orbits, n), and the number of
    ordered assignments in each orbit, both as small read-only integers.
    """
    group = qubit_automorphisms(code)
    n = code.n
    strides = size ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # Moving the entry of each slot j to slot g[j] numbers the image
    # a @ strides[g]; row 0 of the group is the identity.
    image_strides = strides[group]
    total = size ** n
    reps, mults = [], []
    for start in range(0, total, _ORBIT_CHUNK):
        t = np.arange(start, min(start + _ORBIT_CHUNK, total), dtype=np.int64)
        a = (t[:, None] // strides) % size
        for g_strides in image_strides[1:]:
            lowest = a @ g_strides >= t
            t, a = t[lowest], a[lowest]
        images = np.sort(a @ image_strides.T, axis=1)
        reps.append(a)
        mults.append(1 + np.count_nonzero(np.diff(images, axis=1), axis=1))
    entries = np.concatenate(reps).astype(np.min_scalar_type(size - 1))
    mult = np.concatenate(mults).astype(np.min_scalar_type(len(group)))
    entries.setflags(write=False)
    mult.setflags(write=False)
    return entries, mult


def _assignment_chunks(code: StabilizerCode, child: ChannelEnsemble):
    """Yield (assignment weights, per-slot diagonals) covering every assignment.

    Each chunk holds orbit representatives of the code's qubit automorphisms,
    weighted by their orbit sizes: an automorphism only relabels the
    syndromes of the level map, so every assignment of an orbit contributes
    the same (syndrome weight, conditional channel) multiset.  A code whose
    group is trivial yields every ordered assignment once, and stores no
    size^n orbit table.
    """
    if len(qubit_automorphisms(code)) == 1:
        yield from _ordered_chunks(code, child)
        return
    entries, mult = _orbit_table(code, child.size)
    diag = child.channels @ HAD4.T
    for start in range(0, mult.size, _CHUNK):
        idx = entries[start:start + _CHUNK]
        yield mult[start:start + _CHUNK] * child.weights[idx].prod(axis=1), diag[idx]


def _level_chunks(code: StabilizerCode, child: ChannelEnsemble, budget: int):
    """Yield (assignment weights, syndrome weights, conditional rows) per chunk.

    The loop of both exact paths: the budget check, then the level map of
    each chunk of assignments.
    """
    combinations = child.size ** code.n
    if combinations > budget:
        raise BudgetExceeded(combinations, budget)
    for assign_w, diags in _assignment_chunks(code, child):
        yield assign_w, *_conditional(_coset_map_batch(code, diags))


def exact_level(
    code: StabilizerCode,
    child: ChannelEnsemble,
    *,
    budget: int = DEFAULT_BUDGET,
    prune_floor: float = PRUNE_FLOOR,
) -> ChannelEnsemble:
    """One exact concatenation level, every slot drawing from ``child``.

    Covers every ordered assignment of one entry per slot, by orbits of the
    code's qubit automorphisms.  Raises :class:`BudgetExceeded` if there are
    more than ``budget`` ordered assignments, however many orbits they fall
    into.
    """
    acc = _Accumulator(DEDUP_TOL)
    for assign_w, syn_w, rows in _level_chunks(code, child, budget):
        flat_w = (assign_w[:, None] * syn_w).reshape(-1)
        keep = flat_w > 0.0
        acc.add(flat_w[keep], _optimize_rows(rows.reshape(-1, 4)[keep]))

    weights, channels = acc.finish(prune_floor)
    return ChannelEnsemble(weights, channels)


def exact_level_entropy(
    code: StabilizerCode,
    child: ChannelEnsemble,
    *,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Mean conditional entropy of exact_level's output, streamed.

    Equals ensemble_entropy(exact_level(...)) but skips flattening and
    deduplication: entropy needs only the joint (assignment, syndrome)
    weights and conditional rows, and is invariant under the per-entry
    recovery relabeling.
    """
    total = 0.0
    for assign_w, syn_w, rows in _level_chunks(code, child, budget):
        total += float((assign_w[:, None] * syn_w * row_entropy(rows)).sum())
    return total


def concatenate_exact(
    code: StabilizerCode,
    noise: PauliProbVec,
    levels: int,
    *,
    budget: int = DEFAULT_BUDGET,
    prune_floor: float = PRUNE_FLOOR,
) -> ChannelEnsemble:
    """Ensemble after the given number of exact concatenation levels.

    Level 0 is the raw physical channel as a singleton ensemble.
    """
    if levels < 0:
        raise ChannelError("levels must be >= 0")
    ens = ChannelEnsemble.singleton(noise)
    for _ in range(levels):
        ens = exact_level(code, ens, budget=budget, prune_floor=prune_floor)
    return ens


def ensemble_entropy(e: ChannelEnsemble) -> float:
    """Mean conditional Shannon entropy (bits) of the ensemble's channels."""
    return float(e.weights @ row_entropy(e.channels))
