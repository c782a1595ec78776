"""Critical noise strengths of concatenated codes.

Two notions are implemented:

* entropy crossings: the noise parameter at which the level-j conditional
  channel ensemble reaches a target mean Shannon entropy (default 1 bit);
  computed by a bracketed ITP root search on the exact engine, or by the same
  search on a three-valued Monte Carlo oracle plus a local linear fit;
* the unoptimized threshold: the boundary between convergence and
  non-convergence of the iterated syndrome-blind level map.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import HAD4, NOISE_FAMILIES, ChannelError, PauliProbVec, entropy, noise_family
from .codes import StabilizerCode
from .ensemble import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    concatenate_exact,
    exact_level_entropy,
)
# bench/worker.py traces thresholds.blind_map by name, so the name stays here.
from .levelmap import _blind_step, blind_map
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


def _root(f, lo: float, hi: float, target: float, tol: float) -> float:
    """Bracketed root of an increasing f: ITP (Oliveira & Takahashi, 2020).

    Each step moves the regula falsi point of the bracket towards its
    midpoint by 0.2 (hi - lo)**2 / (initial width), then projects it into a
    ball around the midpoint that shrinks so the search takes at most one
    step more than bisection (n0 = 1).  On a sign-valued f (-1, 0, 1) every
    step is the bisection midpoint.  Returns an endpoint or probe where f
    equals target, otherwise the interpolated point of the final bracket,
    which is no wider than ``tol``.
    """
    g_lo, g_hi = f(lo) - target, f(hi) - target
    if not (g_lo <= 0.0 <= g_hi):
        raise NoStraddle(lo, hi, g_lo + target, g_hi + target, target)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    kappa1 = 0.2 / (hi - lo)
    n_max = math.ceil(math.log2((hi - lo) / tol)) + 1
    for j in range(n_max):
        width = hi - lo
        if width <= tol:
            break
        mid = 0.5 * (lo + hi)
        falsi = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        sigma = math.copysign(1.0, mid - falsi)
        delta = kappa1 * width * width
        x = falsi + sigma * delta if delta <= abs(mid - falsi) else mid
        radius = math.ldexp(tol, n_max - j - 1) - 0.5 * width
        if abs(x - mid) > radius:
            x = mid - sigma * radius
        g = f(x) - target
        if g > 0.0:
            hi, g_hi = x, g
        elif g < 0.0:
            lo, g_lo = x, g
        else:
            return x
    return (lo * g_hi - hi * g_lo) / (g_hi - g_lo)


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
    raw channel, needs no code and is exact under every method.
    """
    if method not in ("exact", "mc", "auto"):
        raise ValueError(f"unknown method {method!r}")
    lo, hi = _bracket(family)
    name = code.name if code is not None else None

    if level == 0 or method in ("exact", "auto"):
        try:
            p_star = _root(
                lambda p: _exact_entropy(code, noise_family(family, p), level, budget),
                lo, hi, target, tol)
            return CriticalPoint(name, family, level, p_star, target, "exact", 0.0)
        except BudgetExceeded:
            if method == "exact":
                raise

    return _mc_critical_p(code, family, level, target, lo, hi, tol,
                          samples=samples, seed=seed, threads=threads)


def _mc_critical_p(code, family, level, target, lo, hi, tol, *,
                   samples, seed, threads) -> CriticalPoint:
    """Root search on a three-valued Monte Carlo oracle, then a local linear fit.

    The oracle escalates the sample count at p up to ``samples`` while the
    estimate is within three standard errors of target; it returns the sign
    of entropy - target once it tells p apart from the crossing, and 0 when
    it cannot, which ends the search at p.  Evaluation k draws with a seed
    derived from the pair (seed, k), so runs with different seeds share no
    streams.  No draw takes more than ``samples``; a fit point without a
    finite, nonzero standard error raises ChannelError.
    """
    if code is None:
        raise ValueError("the Monte Carlo path requires a code")
    evals = itertools.count()

    def measure(p: float, n: int):
        eval_seed = np.random.SeedSequence((seed, next(evals))).generate_state(1)[0]
        return mc_concatenate(code, noise_family(family, p), level, n,
                              seed=int(eval_seed), threads=threads)

    n0 = min(max(500, samples // 16), samples)
    estimates = {}

    def side(p: float) -> float:
        # The endpoints are one n0 draw each and never the crossing: the fit
        # below needs room on both sides of its center.
        inside = lo < p < hi
        n = n0
        est = measure(p, n)
        while (inside and abs(est.mean_entropy - target) < 3.0 * est.std_error
               and n < samples):
            n = min(4 * n, samples)
            est = measure(p, n)
        estimates[p] = est
        if inside and abs(est.mean_entropy - target) < 3.0 * est.std_error:
            return 0.0
        return float(np.sign(est.mean_entropy - target))

    try:
        center = _root(side, lo, hi, 0.0, tol)
    except NoStraddle:
        raise NoStraddle(lo, hi, estimates[lo].mean_entropy,
                         estimates[hi].mean_entropy, target) from None
    if center in (lo, hi):  # an endpoint measured exactly at target
        return CriticalPoint(code.name, family, level, center, target,
                             "monte-carlo", 0.0)
    # a fresh draw when the bracket closed below tol before any zero
    sigma_e = (estimates.get(center) or measure(center, samples)).std_error

    # Local linear fit of entropy against p.  A pilot slope sets the window:
    # wide enough that the points resolve the crossing against sampling
    # noise, narrow enough that curvature cannot bias the linear model.
    delta = min(max(0.02 * center, 1e-6), 0.5 * center, 0.5 * (hi - center))
    pilot_lo = measure(center - delta, samples)
    pilot_hi = measure(center + delta, samples)
    slope0 = (pilot_hi.mean_entropy - pilot_lo.mean_entropy) / (2.0 * delta)
    if np.isfinite(slope0) and slope0 > 0.0:
        span = max(4.0 * sigma_e / slope0, 1e-4 * center)
    else:
        span = max(2.0 * delta, 1e-3 * center)
    span = min(span, 0.99 * center, hi - center)
    ps = np.linspace(center - span, center + span, 5)
    fit = [measure(float(p), samples) for p in ps]
    means = np.array([est.mean_entropy for est in fit])
    errs = np.array([est.std_error for est in fit])
    if not np.all((errs > 0.0) & (errs < np.inf)):
        raise ChannelError(f"the Monte Carlo fit near p = {center:.6g} needs a finite, "
                           f"nonzero standard error at every point, not {errs.tolist()}")
    w = 1.0 / errs ** 2
    a = np.vstack([ps - center, np.ones_like(ps)]).T
    cov = np.linalg.inv(a.T @ (w[:, None] * a))
    slope, offset = cov @ a.T @ (w * means)
    p_star = center + (target - offset) / slope
    # delta method: gradient of p_star in (slope, offset)
    grad = np.array([-(target - offset) / slope ** 2, -1.0 / slope])
    sigma = float(np.sqrt(grad @ cov @ grad))
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
    The iterates stay plain probability arrays, stepped by the array form of
    :func:`blind_map` with the same arithmetic.
    """
    lo, hi = _bracket(family)

    def converges(p: float) -> bool:
        prev = noise_family(family, p).as_array()
        for _ in range(20_000):
            d = HAD4 @ prev
            if d[1:].min() > 1.0 - 1e-9:
                return True
            cur = _blind_step(code, d)
            cur /= cur.sum()  # keep float drift out of the fixed-point test
            if np.abs(cur - prev).max() < 1e-14:
                return False
            prev = cur
        return False

    try:
        p_star = _root(lambda p: -1.0 if converges(p) else 1.0, lo, hi, 0.0, tol)
    except NoStraddle:  # the flags are not entropies; report none
        raise NoStraddle(lo, hi, float("nan"), float("nan"), 0.0) from None
    return CriticalPoint(code.name, family, -1, p_star, 0.0, "unoptimized", 0.0)


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
