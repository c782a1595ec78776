"""Monte Carlo sampling of deep concatenation levels.

Each call draws from one sampling table, which its streams share read-only:
the (weight, conditional row) pairs of positive weight of exact level b.  b = 2
from level 3 up, in the rows ``ensemble._level_chunks`` lays out over the
exact level-1 ensemble, if ``ensemble._level_fits`` finds at most
``_MAX_TABLE_ROWS``; otherwise b = 1, the level map of the base noise.  The
last table built is kept: a call at the same code, noise and table level (an
escalated search probe, or more samples at one p) reads it instead of building
it again, and gets the same bits.

A sample draws its n^(L-b) bottom rows from the table.  Each higher tree
level is one kernel call on every node of a chunk of samples: each node draws
a syndrome and passes its conditional row up.  The root draws nothing: a
sample scores sum_s w_s H(q_s) over the root's syndromes s (Rao-Blackwell:
the same mean, a smaller variance).  The root is not optimized, since a
logical recovery only relabels it.  At level 1 the drawn leaf is scored.

From level 2 up a control variate adjusts each score Y.  The features
f = (sum H, sum H^2) of the sample's drawn rows have the exact mean n^(L-b)
times the table's mean, and stream s scores Y - beta_s (f - E f), with beta_s
fitted by least squares on the other streams only (cross-fitting keeps the
mean unbiased; a single stream is not adjusted).  The standard error is that
of the adjusted scores, and 0 when they all lie within 64 ulp of their largest
magnitude, the round-off convention of ``thresholds._root``.

A chunk (``levelmap._batches``) holds as many samples as keep its widest kernel
call within ``_MAX_BLOCKS`` blocks, bounding memory by bytes, not samples; a
sample over half that (Steane from level 7) makes a chunk alone, and a last
lone sample joins the chunk before it.  The streams run on
min(threads, streams) worker threads, seeded by (seed, stream), so results are
deterministic for a fixed stream count regardless of thread count.  The pool
of each worker count is kept across calls.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import ensemble
from .channels import _ROUNDOFF, HAD4, ChannelError, PauliProbVec, row_entropy
from .codes import StabilizerCode
from .levelmap import _batches, _coset_map_batch, _conditional, coset_map_probs

__all__ = ["MCEstimate", "mc_concatenate"]

#: Most rows of a level-2 sampling table, counted before it is built; above
#: it the table is level 1.  Steane depolarizing holds 59,520 (3.6 MiB with
#: weights and features).  One table stays resident between calls: 64 MiB at
#: the cap.
_MAX_TABLE_ROWS = 1 << 20


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


@dataclass(frozen=True)
class _Table:
    """Channels of exact level ``level``: weights, cumulative weights, rows and
    each row's control-variate features (H, H^2)."""

    level: int
    weights: np.ndarray
    cum: np.ndarray
    rows: np.ndarray
    features: np.ndarray


def _sampling_table(code: StabilizerCode, base_noise: PauliProbVec, levels: int) -> _Table:
    """The table a level-``levels`` estimate draws its bottom channels from.

    Kept for the next call at the same key: the code, the noise's bytes (so
    -0.0 and 0.0 never share), whether the table may be level 2, and the two
    values read now that decide whether it is, ``ensemble.BUDGET`` and
    ``_MAX_TABLE_ROWS``.
    """
    return _kept_table(code, base_noise.as_array().tobytes(), levels >= 3,
                       ensemble.BUDGET, _MAX_TABLE_ROWS)


@functools.lru_cache(maxsize=1)
def _kept_table(code: StabilizerCode, noise: bytes, deep: bool, budget: int,
                max_rows: int) -> _Table:
    """Builds the table; ``budget`` is only a key, as ``ensemble`` reads BUDGET itself."""
    base_noise = PauliProbVec.from_array(np.frombuffer(noise))
    child = ensemble.concatenate_exact(code, base_noise, 1) if deep else None
    if child is not None and ensemble._level_fits(code, child, max_rows):
        level, chunks = 2, ensemble._level_chunks(code, child)
    else:
        # the raw noise, not its normalized singleton ensemble: level 1 keeps its bits
        level, chunks = 1, [_conditional(coset_map_probs(code, base_noise))]
    weights, rows = (np.concatenate(parts) for parts in zip(*chunks))
    keep = weights > 0.0
    weights, rows = weights[keep], rows[keep]
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    h = row_entropy(rows)
    table = _Table(level, weights, cum, rows, np.column_stack([h, h * h]))
    for array in (weights, cum, rows, table.features):
        array.setflags(write=False)  # the streams and later calls share it
    return table


class _StreamWorker:
    """One independent sampling stream."""

    def __init__(self, code: StabilizerCode, table: _Table, levels: int):
        self.code = code
        self.table = table
        self.levels = levels

    # wrapped by bench/worker.py until ROADMAP item 1; never called
    def _node_maps(self, keys): ...

    def _maps(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Syndrome weights and conditional rows of the nodes whose children are rows."""
        diags = (rows.reshape(-1, 4) @ HAD4.T).reshape(-1, self.code.n, 4)
        return _conditional(_coset_map_batch(self.code, diags))

    def run(self, n_samples: int, rng: np.random.Generator):
        """Scores of n_samples samples, and the summed table features of their draws."""
        n, levels, table = self.code.n, self.levels, self.table
        kernel_levels = levels - table.level  # the root's included
        ent = np.empty(n_samples)
        features = np.empty((n_samples, 2))
        for chunk in _batches(n_samples, n ** max(kernel_levels - 1, 0)):
            s = chunk.stop - chunk.start
            idx = np.searchsorted(table.cum, rng.random((s, n ** kernel_levels)),
                                  side="right")
            rows = table.rows[idx]
            features[chunk] = table.features[idx].sum(axis=1)
            for _ in range(kernel_levels - 1):
                w, cond = self._maps(rows)
                cum = np.cumsum(w, axis=1)
                cum[:, -1] = 1.0
                beta = (cum <= rng.random(len(cum))[:, None]).sum(axis=1)
                rows = cond[np.arange(len(cond)), beta]
            if kernel_levels == 0:
                ent[chunk] = row_entropy(rows.reshape(s, 4))
            else:
                w, cond = self._maps(rows)
                ent[chunk] = (w * row_entropy(cond)).sum(axis=1)
        return ent, features


@functools.lru_cache(maxsize=None)
def _pool(workers: int, pid: int) -> ThreadPoolExecutor:
    """The kept pool of ``workers`` threads, keyed by pid: a forked child builds its own."""
    return ThreadPoolExecutor(max_workers=workers)


def _cross_fitted(ents, features, mean_f: np.ndarray) -> np.ndarray:
    """Each stream's scores minus beta (f - mean_f), beta fitted on the other streams."""
    if len(ents) == 1:
        return ents[0]
    y_all, f_all = np.concatenate(ents), np.concatenate(features)
    stream = np.repeat(np.arange(len(ents)), [len(y) for y in ents])
    out = []
    for s, (y, f) in enumerate(zip(ents, features)):
        fo, yo = f_all[stream != s], y_all[stream != s]
        beta = np.linalg.lstsq(fo - fo.mean(axis=0), yo - yo.mean(), rcond=None)[0]
        out.append(y - (f - mean_f) @ beta)
    return np.concatenate(out)


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
    table = _sampling_table(code, base_noise, levels)

    def run_one(s: int):
        rng = np.random.default_rng([seed, s])
        return _StreamWorker(code, table, levels).run(counts[s], rng)

    ents, features = zip(*_pool(min(threads, streams), os.getpid()).map(run_one, range(streams)))
    if levels == 1:
        ent = np.concatenate(ents)
    else:
        mean_f = code.n ** (levels - table.level) * (table.weights @ table.features)
        ent = _cross_fitted(ents, features, mean_f)
    roundoff = np.ptp(ent) <= _ROUNDOFF * np.abs(ent).max()
    spread = 0.0 if roundoff else ent.std(ddof=1)
    se = float(spread / np.sqrt(samples)) if samples > 1 else float("inf")
    return MCEstimate(float(ent.mean()), se, samples, int(seed))
