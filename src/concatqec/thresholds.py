"""Critical noise strengths of concatenated codes.

Two notions are implemented:

* entropy crossings: the noise parameter at which the level-j conditional
  channel ensemble reaches a target mean Shannon entropy (default 1 bit);
  computed by bisection on the exact engine, or by stochastic bisection plus
  a local linear fit on the Monte Carlo engine;
* the unoptimized threshold: the boundary between convergence and
  non-convergence of the iterated syndrome-blind level map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import HAD4, NOISE_FAMILIES, PauliProbVec, entropy, noise_family
from .codes import StabilizerCode
from .ensemble import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    concatenate_exact,
    exact_level_entropy,
)
from .levelmap import blind_map
from .montecarlo import mc_concatenate

__all__ = [
    "CriticalPoint",
    "NoStraddle",
    "entropy_critical_p",
    "unoptimized_threshold",
    "threshold_series",
]


class NoStraddle(ValueError):
    """The entropy at the bracket endpoints does not straddle the target."""

    def __init__(self, lo: float, hi: float, e_lo: float, e_hi: float, target: float):
        super().__init__(
            f"no crossing of target {target} bits in [{lo}, {hi}]: "
            f"entropy({lo}) = {e_lo}, entropy({hi}) = {e_hi}")
        self.lo, self.hi = lo, hi
        self.e_lo, self.e_hi = e_lo, e_hi
        self.target = target


@dataclass(frozen=True)
class CriticalPoint:
    """One critical noise parameter.

    ``level`` is the concatenation depth; -1 marks the unoptimized
    fixed-point threshold, which is an iterate-to-convergence quantity.
    ``uncertainty`` is 0 for deterministic methods and the propagated one
    standard error for Monte Carlo.
    """

    code: str | None
    family: str
    level: int
    p_star: float
    target_entropy: float
    method: str
    uncertainty: float = 0.0


def _bracket(family: str) -> tuple[float, float]:
    if family not in NOISE_FAMILIES:
        raise ValueError(f"unknown noise family {family!r}")
    return 0.0, NOISE_FAMILIES[family][2]


def _exact_entropy(code: StabilizerCode | None, noise: PauliProbVec, level: int,
                   budget: int) -> float:
    """Exact mean entropy of the level-``level`` ensemble of ``noise``.

    Level 0 is the raw channel and needs no code.
    """
    if level == 0:
        return entropy(noise)
    if code is None:
        raise ValueError("levels above 0 require a code")
    child = concatenate_exact(code, noise, level - 1, budget=budget)
    return exact_level_entropy(code, child, budget=budget)


def _bisect(f, lo: float, hi: float, target: float, tol: float) -> float:
    """Bracketing root search, Illinois-weighted false position.

    Assumes f is increasing across [lo, hi]; keeps the bisection guarantee
    by falling back to the midpoint whenever the secant step degenerates.
    """
    g_lo, g_hi = f(lo) - target, f(hi) - target
    if not (g_lo <= 0.0 <= g_hi):
        raise NoStraddle(lo, hi, g_lo + target, g_hi + target, target)
    side = 0
    step = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        # Every third step stays a plain bisection, so the bracket width
        # halves at least geometrically whatever the secant does.
        if step % 3 != 2 and g_hi > g_lo:
            secant = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
            if lo < secant < hi:
                mid = secant
        step += 1
        g = f(mid) - target
        if g > 0.0:
            hi, g_hi = mid, g
            if side > 0:
                g_lo *= 0.5
            side = 1
        elif g < 0.0:
            lo, g_lo = mid, g
            if side < 0:
                g_hi *= 0.5
            side = -1
        else:
            return mid
    return 0.5 * (lo + hi)


def entropy_critical_p(
    code: StabilizerCode | None,
    family: str,
    level: int,
    *,
    target: float = 1.0,
    tol: float = 1e-10,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
    samples: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> CriticalPoint:
    """Noise parameter where the level-``level`` ensemble entropy hits target.

    ``method`` is "exact", "mc", or "auto" (exact, falling back to Monte
    Carlo if the exact enumeration exceeds the budget).  Level 0 measures the
    raw channel and needs no code.
    """
    if method not in ("exact", "mc", "auto"):
        raise ValueError(f"unknown method {method!r}")
    lo, hi = _bracket(family)
    name = code.name if code is not None else None

    if method in ("exact", "auto"):
        try:
            p_star = _bisect(
                lambda p: _exact_entropy(code, noise_family(family, p), level, budget),
                lo, hi, target, tol)
            return CriticalPoint(name, family, level, p_star, target, "exact", 0.0)
        except BudgetExceeded:
            if method == "exact":
                raise

    return _mc_critical_p(code, family, level, target, lo, hi,
                          samples=samples, seed=seed, threads=threads)


def _mc_critical_p(code, family, level, target, lo, hi, *,
                   samples, seed, threads) -> CriticalPoint:
    """Stochastic bisection with sample escalation, then a local linear fit.

    Evaluation k draws with a seed derived from the pair (seed, k), so runs
    with different seeds share no streams.
    """
    if code is None:
        raise ValueError("the Monte Carlo path requires a code")
    evals = 0

    def measure(p: float, n: int):
        nonlocal evals
        eval_seed = int(np.random.SeedSequence((seed, evals)).generate_state(1)[0])
        est = mc_concatenate(code, noise_family(family, p), level, n,
                             seed=eval_seed, threads=threads)
        evals += 1
        return est

    lo0, hi0 = lo, hi
    n0 = max(500, samples // 16)
    est_lo, est_hi = measure(lo, n0), measure(hi, n0)
    if not (est_lo.mean_entropy <= target <= est_hi.mean_entropy):
        raise NoStraddle(lo, hi, est_lo.mean_entropy, est_hi.mean_entropy, target)

    # Bisect while midpoints are statistically distinguishable from target.
    center = None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        n = n0
        est = measure(mid, n)
        while abs(est.mean_entropy - target) < 3.0 * est.std_error and n < samples:
            n = min(4 * n, samples)
            est = measure(mid, n)
        if abs(est.mean_entropy - target) < 3.0 * est.std_error:
            # statistically at the crossing already: fit around this point
            center, sigma_e = mid, est.std_error
            break
        if est.mean_entropy < target:
            lo = mid
        else:
            hi = mid
    if center is None:
        center = 0.5 * (lo + hi)
        sigma_e = measure(center, samples).std_error

    # Local linear fit of entropy against p.  A pilot slope sets the window:
    # wide enough that the points resolve the crossing against sampling
    # noise, narrow enough that curvature cannot bias the linear model (the
    # bracket itself can still be wide when the bisection stopped early).
    delta = min(max(0.02 * center, 1e-6), 0.5 * center, 0.5 * (hi0 - center))
    pilot_lo = measure(center - delta, samples)
    pilot_hi = measure(center + delta, samples)
    slope0 = (pilot_hi.mean_entropy - pilot_lo.mean_entropy) / (2.0 * delta)
    if np.isfinite(slope0) and slope0 > 0.0:
        span = max(4.0 * sigma_e / slope0, 1e-4 * center)
    else:
        span = max(hi - lo, 1e-3 * center)
    span = min(span, 0.99 * center, hi0 - center)
    ps = np.linspace(center - span, center + span, 5)
    means = np.empty(5)
    errs = np.empty(5)
    for k, p in enumerate(ps):
        est = measure(float(p), samples)
        means[k], errs[k] = est.mean_entropy, est.std_error
    w = 1.0 / errs ** 2
    a = np.vstack([ps - center, np.ones_like(ps)]).T
    cov = np.linalg.inv(a.T @ (w[:, None] * a))
    slope, offset = cov @ a.T @ (w * means)
    var = cov @ a.T @ np.diag(w * w * errs ** 2) @ a @ cov
    p_star = center + (target - offset) / slope
    sigma = float(np.sqrt(
        var[1, 1] + ((target - offset) / slope) ** 2 * var[0, 0]) / abs(slope))
    return CriticalPoint(code.name, family, level, float(p_star), target,
                         "monte-carlo", sigma)


def unoptimized_threshold(
    code: StabilizerCode,
    family: str,
    tol: float = 1e-10,
) -> CriticalPoint:
    """Boundary of convergence of the iterated syndrome-blind level map.

    Below the threshold the iterates of :func:`blind_map` converge to the
    identity channel (all superoperator diagonals above 1 - 1e-9); above it
    they approach a non-identity fixed point or cycle, detected by iterate
    stagnation away from the identity or by a cap of 20,000 iterations.
    """
    lo, hi = _bracket(family)

    def converges(p: float) -> bool:
        q = noise_family(family, p)
        prev = q.as_array()
        for _ in range(20_000):
            d = HAD4 @ prev
            if d[1:].min() > 1.0 - 1e-9:
                return True
            cur = blind_map(code, PauliProbVec.from_array(prev)).as_array()
            cur /= cur.sum()  # keep float drift out of the fixed-point test
            if np.abs(cur - prev).max() < 1e-14:
                return False
            prev = cur
        return False

    if not converges(lo):
        raise NoStraddle(lo, hi, float("nan"), float("nan"), 0.0)
    if converges(hi):
        raise NoStraddle(lo, hi, float("nan"), float("nan"), 0.0)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if converges(mid):
            lo = mid
        else:
            hi = mid
    return CriticalPoint(code.name, family, -1, 0.5 * (lo + hi), 0.0,
                         "unoptimized", 0.0)


def threshold_series(
    code: StabilizerCode,
    family: str,
    max_level: int,
    *,
    target: float = 1.0,
    tol: float = 1e-10,
    method: str = "auto",
    samples: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> list[CriticalPoint]:
    """Critical values for levels 0..max_level (exact where budget admits)."""
    out = []
    for level in range(max_level + 1):
        out.append(entropy_critical_p(
            code, family, level, target=target, tol=tol, method=method,
            samples=samples, seed=seed, threads=threads))
    return out
