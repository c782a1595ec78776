"""Monte Carlo sampling of deep concatenation levels.

Each sample draws one syndrome history through the full block tree: every
bottom block samples a syndrome of the level map of the base noise, every
higher node applies the level map to its children's conditional channels and
samples a syndrome in turn, and the channel surviving at the root is scored,
not optimized: a logical recovery only relabels it and leaves its entropy
unchanged.  Entropy averaged over samples estimates the exact ensemble
entropy, which is infeasible to enumerate for deep levels.

Bottom blocks all see the same base noise, so their level map is computed
once and sampled categorically.  Higher nodes memoize level maps keyed by the
ordered tuple of child channel identities; keys are not canonicalized under
the code's qubit automorphisms (which would only relabel syndromes), so
permuted tuples of one orbit are computed separately.  Identities, keyed by a
row's exact bytes, go only to the bottom map's rows and to the rows higher
nodes draw, once per distinct (node, syndrome) pair.  Samples are split
across independent streams seeded by (seed, stream); results are
deterministic for a fixed stream count regardless of thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import HAD4, ChannelError, PauliProbVec, row_entropy
from .codes import StabilizerCode
from .levelmap import _coset_map_batch, _conditional, coset_map_probs

__all__ = ["MCEstimate", "mc_concatenate"]

#: Per-chunk cap on (samples x tree width) cells, to bound memory.
_MAX_CELLS = 1 << 22


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean and standard error of the root channel's entropy.

    Estimates are reproducible given (seed, samples, streams).
    """

    mean_entropy: float
    std_error: float
    samples: int
    seed: int


class _Registry:
    """Channel rows keyed by their exact bytes; stable integer identities."""

    def __init__(self):
        self._ids: dict[bytes, int] = {}
        self._rows: list[np.ndarray] = []
        self._matrix: np.ndarray | None = None

    def register(self, row: np.ndarray) -> int:
        slot = self._ids.setdefault(row.tobytes(), len(self._rows))
        if slot == len(self._rows):
            self._rows.append(np.array(row))
            self._matrix = None
        return slot

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.stack(self._rows)
        return self._matrix


class _StreamWorker:
    """One independent sampling stream with its own memo and registry."""

    def __init__(self, code: StabilizerCode, base_noise: PauliProbVec,
                 levels: int):
        self.code = code
        self.levels = levels
        self.registry = _Registry()
        self.memo: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

        w1, rows1 = _conditional(coset_map_probs(code, base_noise))
        self.cum1 = np.cumsum(w1)
        self.cum1[-1] = 1.0
        self.ids1 = np.array([self.registry.register(r) for r in rows1])

    def _node_maps(self, uniq_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Memoized cumulative syndrome weights and conditional rows of key rows.

        Registers nothing: the caller registers only the rows it draws.
        """
        keys = [key.tobytes() for key in uniq_keys]
        missing = [k for k, key in enumerate(keys) if key not in self.memo]
        if missing:
            diags = self.registry.matrix()[uniq_keys[missing]] @ HAD4.T
            w, cond = _conditional(_coset_map_batch(self.code, diags))
            cum = np.cumsum(w, axis=1)
            cum[:, -1] = 1.0
            self.memo.update(zip([keys[k] for k in missing], zip(cum, cond)))
        cums, conds = zip(*(self.memo[key] for key in keys))
        return np.stack(cums), np.stack(conds)

    def run(self, n_samples: int, rng: np.random.Generator):
        n = self.code.n
        width0 = n ** (self.levels - 1)
        chunk = max(1, _MAX_CELLS // max(width0, 1))
        ent = np.empty(n_samples)
        done = 0
        while done < n_samples:
            s = min(chunk, n_samples - done)
            u = rng.random((s, width0))
            ids = self.ids1[np.searchsorted(self.cum1, u, side="right")]
            for _ in range(self.levels - 1):
                nodes = ids.reshape(-1, n)
                uniq, inverse = np.unique(nodes, axis=0, return_inverse=True)
                cums, conds = self._node_maps(uniq)
                u = rng.random(nodes.shape[0])
                beta = (cums[inverse] <= u[:, None]).sum(axis=1)
                drawn, back = np.unique(inverse * cums.shape[1] + beta, return_inverse=True)
                rows = conds.reshape(-1, 4)[drawn]
                ids = np.array([self.registry.register(r) for r in rows])[back]
            ent[done:done + s] = row_entropy(self.registry.matrix()[ids.ravel()])
            done += s
        return ent


def mc_concatenate(
    code: StabilizerCode,
    base_noise: PauliProbVec,
    levels: int,
    samples: int,
    seed: int = 0,
    *,
    streams: int = 8,
    threads: int = 1,
) -> MCEstimate:
    """Monte Carlo estimate of the level-``levels`` ensemble entropy."""
    if levels < 1:
        raise ChannelError("levels must be >= 1")
    if samples < 1:
        raise ChannelError("samples must be >= 1")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ChannelError("seed must be a nonnegative integer")
    streams = min(max(1, streams), samples)

    counts = [samples // streams + (s < samples % streams) for s in range(streams)]

    def run_one(s: int):
        worker = _StreamWorker(code, base_noise, levels)
        rng = np.random.default_rng([seed, s])
        return worker.run(counts[s], rng)

    if threads > 1 and streams > 1:
        with ThreadPoolExecutor(max_workers=min(threads, streams)) as pool:
            results = list(pool.map(run_one, range(streams)))
    else:
        results = [run_one(s) for s in range(streams)]

    ent = np.concatenate(results)
    spread = ent.std(ddof=1) if np.ptp(ent) > 0.0 else 0.0  # equal entropies: 0, not round-off
    se = float(spread / np.sqrt(samples)) if samples > 1 else float("inf")
    return MCEstimate(
        mean_entropy=float(ent.mean()),
        std_error=se,
        samples=samples,
        seed=int(seed),
    )
