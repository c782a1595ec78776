"""Monte Carlo sampling of deep concatenation levels.

Each sample draws one syndrome history up the block tree, carrying channel
rows.  Bottom blocks draw a syndrome of the base noise's level map, computed
once, and take its conditional row.  Each higher tree level is one kernel call
on every node of a chunk of samples: each node draws a syndrome and passes its
conditional row up.  The root draws nothing: a sample scores sum_s w_s H(q_s)
over the root's syndromes s, the expected entropy of a drawn root given its
children (Rao-Blackwell: the same mean, a smaller variance).  The root is not
optimized, since a logical recovery only relabels it.  At level 1 the drawn
leaf is scored.  A chunk holds as many samples as keep its widest kernel call
within ``_MAX_BLOCKS`` blocks, which bounds memory by bytes, not by samples; a
sample wider than that (Steane from level 7) makes a chunk alone.  Streams are
seeded by (seed, stream), so results are deterministic for a fixed stream
count regardless of thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import HAD4, ChannelError, PauliProbVec, row_entropy
from .codes import StabilizerCode
from .levelmap import _coset_map_batch, _conditional, coset_map_probs

__all__ = ["MCEstimate", "mc_concatenate"]

#: Cap on blocks per kernel call: 8 MiB per kernel array for Steane.
_MAX_BLOCKS = 4096


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean and standard error of the root channel's entropy.

    Estimates are reproducible given (seed, samples, streams).
    """

    mean_entropy: float
    std_error: float
    samples: int
    seed: int


# wrapped by bench/worker.py until ROADMAP item 1; never called
class _Registry:
    def register(self, row): ...


class _StreamWorker:
    """One independent sampling stream."""

    def __init__(self, code: StabilizerCode, base_noise: PauliProbVec,
                 levels: int):
        self.code = code
        self.levels = levels
        w1, self.rows1 = _conditional(coset_map_probs(code, base_noise))
        self.cum1 = np.cumsum(w1)
        self.cum1[-1] = 1.0

    # wrapped by bench/worker.py until ROADMAP item 1; never called
    def _node_maps(self, keys): ...

    def _maps(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Syndrome weights and conditional rows of the nodes whose children are rows."""
        diags = (rows.reshape(-1, 4) @ HAD4.T).reshape(-1, self.code.n, 4)
        return _conditional(_coset_map_batch(self.code, diags))

    def run(self, n_samples: int, rng: np.random.Generator) -> np.ndarray:
        n, levels = self.code.n, self.levels
        chunk = max(1, _MAX_BLOCKS // n ** max(levels - 2, 0))
        ent = np.empty(n_samples)
        for start in range(0, n_samples, chunk):
            s = min(chunk, n_samples - start)
            u = rng.random((s, n ** (levels - 1)))
            rows = self.rows1[np.searchsorted(self.cum1, u, side="right")]
            for _ in range(levels - 2):
                w, cond = self._maps(rows)
                cum = np.cumsum(w, axis=1)
                cum[:, -1] = 1.0
                beta = (cum <= rng.random(len(cum))[:, None]).sum(axis=1)
                rows = cond[np.arange(len(cond)), beta]
            if levels == 1:
                ent[start:start + s] = row_entropy(rows.reshape(s, 4))
            else:
                w, cond = self._maps(rows)
                ent[start:start + s] = (w * row_entropy(cond)).sum(axis=1)
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
    return MCEstimate(float(ent.mean()), se, samples, int(seed))
