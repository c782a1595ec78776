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
improves.  Deduplication sums the rows in each cell of a DEDUP_TOL grid, drops
entries below PRUNE_FLOOR, and then merges the entries within DEDUP_TOL in
max-norm, which catches the pairs a grid boundary split.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channels import HAD4, KLEIN, ChannelError, PauliProbVec, row_entropy
from .codes import StabilizerCode, qubit_automorphisms
from .levelmap import _MAX_BLOCKS, _conditional, _coset_map_batch

__all__ = [
    "DEDUP_TOL",
    "PRUNE_FLOOR",
    "BUDGET",
    "BudgetExceeded",
    "ChannelEnsemble",
    "exact_level",
    "exact_level_entropy",
    "concatenate_exact",
    "ensemble_entropy",
]

DEDUP_TOL = 1e-10
PRUNE_FLOOR = 1e-15
#: Most ordered assignments one exact level may enumerate.
BUDGET = 10 ** 7

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
            f"of {budget} (concatqec.ensemble.BUDGET); use the Monte Carlo path")
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


def _optimize_rows(rows: np.ndarray) -> np.ndarray:
    """Apply each row's best extra logical recovery: its recovery class moves to I."""
    sigma = _recovery_class(rows)
    return rows[np.arange(rows.shape[0])[:, None], KLEIN[sigma]]


def _merge_close(weights: np.ndarray, channels: np.ndarray):
    """Merge channel rows within DEDUP_TOL in max-norm (weighted mean channel).

    Rows are taken by decreasing weight, and each merges into the first kept
    row within DEDUP_TOL.  Such rows are also within DEDUP_TOL in column 0, so
    only rows that close in column-0 order are compared.
    """
    n = weights.size
    order = np.argsort(-weights, kind="stable")
    rows = channels[order]
    by_c0 = np.argsort(rows[:, 0])
    c0 = rows[by_c0, 0]
    pairs, k, d = [], np.arange(n), 1
    while k.size:
        k = k[k + d < n]
        k = k[c0[k + d] - c0[k] < DEDUP_TOL]
        a, b = by_c0[k], by_c0[k + d]
        close = np.abs(rows[a] - rows[b]).max(axis=1) < DEDUP_TOL
        pairs.append(np.sort(np.column_stack([a[close], b[close]]), axis=1))
        d += 1
    pairs = np.concatenate(pairs)
    # Rows are numbered by rank, and row r is kept while target[r] == r.  Each
    # pair (earlier, later) is taken after every pair whose later row is earlier.
    target = np.arange(n)
    for e, r in pairs[np.argsort(pairs[:, 1])]:
        if target[e] == e and e < target[r]:
            target[r] = e
    slot = np.cumsum(target == np.arange(n)) - 1  # output row of each kept row
    target = slot[target][np.argsort(order)]  # numbered by input row again
    out_w = np.bincount(target, weights)
    wc = weights[:, None] * channels
    out_c = np.column_stack([np.bincount(target, col) for col in wc.T])
    return out_w, out_c / out_w[:, None]


def _key_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(keys, axis=0, return_inverse=True) of int64 rows, by lexsort's
    radix sort of 16-bit keys: the sign-flipped columns' little-endian digits."""
    order = np.lexsort((keys[:, ::-1] ^ (-1 << 63)).astype("<i8", copy=False).view("<u2").T)
    keys = keys[order]
    start = np.ones(keys.shape[0], dtype=bool)
    np.any(keys[1:] != keys[:-1], axis=1, out=start[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(start) - 1
    return keys[start], inverse


class _Accumulator:
    """Streaming dedup of (weight, channel) rows on a DEDUP_TOL grid, in lexicographic key order."""

    #: Buffered rows are compacted once they exceed this count.
    _COMPACT_AT = 1 << 21

    def __init__(self):
        self._keys: list[np.ndarray] = [np.empty((0, 4), dtype=np.int64)]
        self._wc: list[np.ndarray] = [np.empty((0, 5))]
        self._pending = 0

    def add(self, weights: np.ndarray, rows: np.ndarray):
        self._keys.append(np.round(rows / DEDUP_TOL).astype(np.int64))
        self._wc.append(np.column_stack([weights, weights[:, None] * rows]))
        self._pending += weights.size
        if self._pending >= self._COMPACT_AT:
            self._compact()

    def _compact(self):
        # Drop each buffer once it is copied; a build's peak memory is here.
        keys, self._keys = np.concatenate(self._keys), None
        wc, self._wc = np.concatenate(self._wc), None
        uniq, inverse = _key_groups(keys)
        out = np.column_stack([np.bincount(inverse, col, uniq.shape[0]) for col in wc.T])
        self._keys, self._wc, self._pending = [uniq], [out], uniq.shape[0]

    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        self._compact()
        wc = self._wc[0]
        # The weights sum to 1, so the largest survives PRUNE_FLOOR.
        keep = wc[:, 0] >= PRUNE_FLOOR
        w = wc[keep, 0]
        c = wc[keep, 1:] / w[:, None]
        w, c = _merge_close(w, c)
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
    for start in range(0, total, _MAX_BLOCKS):
        t = np.arange(start, min(start + _MAX_BLOCKS, total), dtype=np.int64)
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
    for start in range(0, mult.size, _MAX_BLOCKS):
        idx = entries[start:start + _MAX_BLOCKS]
        yield mult[start:start + _MAX_BLOCKS] * child.weights[idx].prod(axis=1), diag[idx]


def _level_chunks(code: StabilizerCode, child: ChannelEnsemble):
    """Yield (joint weights, conditional rows), one per (assignment, syndrome).

    The loop of every exact level: the check against BUDGET, read at call
    time, then the level map of each chunk of assignments.  Zero weights stay.
    """
    combinations = child.size ** code.n
    if combinations > BUDGET:
        raise BudgetExceeded(combinations, BUDGET)
    for assign_w, diags in _assignment_chunks(code, child):
        syn_w, cond = _conditional(_coset_map_batch(code, diags))
        yield (assign_w[:, None] * syn_w).reshape(-1), cond.reshape(-1, 4)


def _level_fits(code: StabilizerCode, child: ChannelEnsemble, rows: int) -> bool:
    """Whether _level_chunks over child stays within BUDGET and ``rows`` rows,
    counting orbits (the cached table the build reads) only when their lower
    bound, ordered assignments over the group order, fits."""
    ordered, group = child.size ** code.n, len(qubit_automorphisms(code))
    if ordered > BUDGET or ordered // group * code.n_syndromes > rows:
        return False
    orbits = _orbit_table(code, child.size)[1].size if group > 1 else ordered
    return orbits * code.n_syndromes <= rows


def exact_level(code: StabilizerCode, child: ChannelEnsemble) -> ChannelEnsemble:
    """One exact concatenation level, every slot drawing from ``child``.

    Covers every ordered assignment of one entry per slot, by orbits of the
    code's qubit automorphisms.  Raises :class:`BudgetExceeded` if there are
    more than BUDGET ordered assignments, however many orbits they fall into.
    """
    acc = _Accumulator()
    for weights, rows in _level_chunks(code, child):
        keep = weights > 0.0
        acc.add(weights[keep], _optimize_rows(rows[keep]))

    weights, channels = acc.finish()
    return ChannelEnsemble(weights, channels)


def exact_level_entropy(code: StabilizerCode, child: ChannelEnsemble) -> float:
    """Mean conditional entropy of exact_level's output, streamed.

    Equals ensemble_entropy(exact_level(...)) but skips flattening and
    deduplication: entropy needs only the joint (assignment, syndrome)
    weights and conditional rows, and is invariant under the per-entry
    recovery relabeling.
    """
    total = 0.0
    for weights, rows in _level_chunks(code, child):
        total += float((weights * row_entropy(rows)).sum())
    return total


def concatenate_exact(code: StabilizerCode, noise: PauliProbVec, levels: int) -> ChannelEnsemble:
    """Ensemble after the given number of exact concatenation levels.

    Level 0 is the raw physical channel as a singleton ensemble.
    """
    if levels < 0:
        raise ChannelError("levels must be >= 0")
    ens = ChannelEnsemble.singleton(noise)
    for _ in range(levels):
        ens = exact_level(code, ens)
    return ens


def ensemble_entropy(e: ChannelEnsemble) -> float:
    """Mean conditional Shannon entropy (bits) of the ensemble's channels."""
    return float(e.weights @ row_entropy(e.channels))
