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

from .channels import (
    _ROUNDOFF, HAD4, NOISE_FAMILIES, ChannelError, PauliProbVec, entropy, noise_family)
from .codes import StabilizerCode
from .ensemble import BudgetExceeded, concatenate_exact, exact_level_entropy
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
    """The entropy at the bracket endpoints does not straddle the target, or
    straddles it only by a round-off too small to place the crossing."""

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
    ``method`` is "exact", "mc" (sampled) or "unoptimized".  ``uncertainty``
    is 0 for deterministic methods and the propagated one standard error
    for Monte Carlo.
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


def _exact_entropy(code: StabilizerCode | None, noise: PauliProbVec, level: int) -> float:
    """Exact mean entropy of the level-``level`` ensemble of ``noise``.

    Level 0 is the raw channel and needs no code; levels above 0 need one.
    """
    if level == 0:
        return entropy(noise)
    child = concatenate_exact(code, noise, level - 1)
    return exact_level_entropy(code, child)


def _by_method(method: str, level: int, exact, mc):
    """exact() at level 0 and under "exact", mc() under "mc"; under "auto",
    exact() unless it raises BudgetExceeded, then mc()."""
    if level == 0 or method == "exact":
        return exact()
    if method == "mc":
        return mc()
    try:
        return exact()
    except BudgetExceeded:
        return mc()


def _root(f, lo: float, hi: float, target: float, tol: float) -> float:
    """Bracketed root of an increasing f: ITP (Oliveira & Takahashi, 2020).

    Each step moves the regula falsi point of the bracket towards its
    midpoint by 0.2 (hi - lo)**2 / (initial width), then projects it into a
    ball around the midpoint that shrinks so the search takes at most one
    step more than bisection (n0 = 1).  On a sign-valued f (-1, 0, 1) every
    step is the bisection midpoint.  Returns an endpoint where f equals
    target, or the first probe within round-off of it (64 eps max(1,
    |target|)), otherwise the interpolated point of the final bracket, which
    is no wider than ``tol``, which must be positive and finite.  A probe
    within round-off ends the search only if, on the bracket's secant,
    round-off pins p to within ``tol`` (plus two ulp of p, its float spacing);
    otherwise f is too flat to place its crossing, and the search raises
    NoStraddle for that bracket.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, not {tol!r}")
    g_lo, g_hi = f(lo) - target, f(hi) - target
    if not (g_lo <= 0.0 <= g_hi):
        raise NoStraddle(lo, hi, g_lo + target, g_hi + target, target)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    kappa1 = 0.2 / (hi - lo)
    round_off = _ROUNDOFF * max(1.0, abs(target))
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
        if g > round_off:
            hi, g_hi = x, g
        elif g < -round_off:
            lo, g_lo = x, g
        elif round_off * (hi - lo) <= (tol + 2.0 * math.ulp(x)) * (g_hi - g_lo):
            return x
        else:  # on the bracket's secant, round-off spans more than tol of p
            raise NoStraddle(lo, hi, g_lo + target, g_hi + target, target)
    return (lo * g_hi - hi * g_lo) / (g_hi - g_lo)


def entropy_critical_p(
    code: StabilizerCode | None,
    family: str,
    level: int,
    *,
    target: float = 1.0,
    tol: float = 1e-10,
    method: str = "auto",
    samples: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> CriticalPoint:
    """Noise parameter where the level-``level`` ensemble entropy hits target.

    ``method`` is "exact", "mc", or "auto" (exact, falling back to Monte
    Carlo if the exact enumeration exceeds ``concatqec.ensemble.BUDGET``).
    Level 0 measures the raw channel, needs no code and is exact under every
    method.  ``target`` must be finite.
    """
    if method not in ("exact", "mc", "auto"):
        raise ValueError(f"unknown method {method!r}")
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, not {target!r}")
    if level > 0 and code is None:
        raise ValueError("levels above 0 require a code")
    lo, hi = _bracket(family)

    def exact() -> CriticalPoint:
        p_star = _root(lambda p: _exact_entropy(code, noise_family(family, p), level),
                       lo, hi, target, tol)
        name = code.name if code is not None else None
        return CriticalPoint(name, family, level, p_star, target, "exact", 0.0)

    return _by_method(method, level, exact, lambda: _mc_critical_p(
        code, family, level, target, lo, hi, tol, samples=samples, seed=seed,
        threads=threads))


def _mc_critical_p(code, family, level, target, lo, hi, tol, *,
                   samples, seed, threads) -> CriticalPoint:
    """Root search on a three-valued Monte Carlo oracle, then a local linear fit.

    The oracle escalates the sample count at p up to ``samples`` while the
    estimate is within three standard errors of target; it returns the sign
    of entropy - target once it tells p apart from the crossing, and 0 when
    it cannot, which ends the search at p.  Evaluation k draws with a seed
    derived from the pair (seed, k), so runs with different seeds share no
    streams.  No draw takes more than ``samples``.  The center's estimate at
    ``samples`` is the search's own, or one fresh draw when the bracket closed
    below ``tol`` before any zero.  The search's final bracket sets the fit
    window: its secant slope, positive by construction, turns 6 standard
    errors of that estimate into a half-width.  Five points across the window,
    the center's estimate in the middle and four new draws, are fitted by
    ordinary least squares, the covariance scaled by the pooled variance
    mean(se_i**2); a point without a finite, nonzero standard error raises
    ChannelError.
    """
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
        n = n0
        estimates[p] = est = measure(p, n)
        while lo < p < hi and abs(est.mean_entropy - target) < 3.0 * est.std_error:
            if n == samples:
                return 0.0
            n = min(4 * n, samples)
            estimates[p] = est = measure(p, n)
        return float(np.sign(est.mean_entropy - target))

    try:
        center = _root(side, lo, hi, 0.0, tol)
    except NoStraddle:
        raise NoStraddle(lo, hi, estimates[lo].mean_entropy,
                         estimates[hi].mean_entropy, target) from None
    if center in (lo, hi):  # an endpoint measured exactly at target
        return CriticalPoint(code.name, family, level, center, target, "mc", 0.0)
    # side() returns 0 only at samples draws; a bracket that closed below tol
    # before any zero leaves the center to one fresh draw
    middle = estimates.get(center) or measure(center, samples)

    # the nearest probes on each side are the final bracket, of definite sign
    below = max(p for p in estimates if p < center)
    above = min(p for p in estimates if p > center)
    rise = estimates[above].mean_entropy - estimates[below].mean_entropy
    span = min(max(6.0 * middle.std_error * (above - below) / rise, 1e-4 * center),
               0.99 * center, hi - center)
    ps = np.linspace(center - span, center + span, 5)
    ps[2] = center
    fit = [middle if k == 2 else measure(float(p), samples) for k, p in enumerate(ps)]
    means = np.array([est.mean_entropy for est in fit])
    errs = np.array([est.std_error for est in fit])
    if not np.all((errs > 0.0) & (errs < np.inf)):
        raise ChannelError(f"the Monte Carlo fit near p = {center:.6g} needs a finite, "
                           f"nonzero standard error at every point, not {errs.tolist()}")
    (slope, offset), cov = np.polyfit(ps - center, means, 1, cov="unscaled")
    cov *= np.mean(errs ** 2)
    p_star = center + (target - offset) / slope
    # delta method: gradient of p_star in (slope, offset)
    grad = np.array([-(target - offset) / slope ** 2, -1.0 / slope])
    sigma = float(np.sqrt(grad @ cov @ grad))
    return CriticalPoint(code.name, family, level, float(p_star), target, "mc", sigma)


def unoptimized_threshold(
    code: StabilizerCode,
    family: str,
    tol: float = 1e-10,
) -> CriticalPoint:
    """Boundary of convergence of the iterated syndrome-blind level map.

    Below the threshold the iterates of :func:`blind_map` converge to the
    identity channel (all superoperator diagonals above 1 - 1e-9); above it
    they approach a non-identity fixed point or a cycle.  An iterate within
    1e-14 of one of the three before it ends the probe as non-convergent:
    that catches fixed points and cycles of period 2 or 3, which codes whose
    recovery permutes the logical classes reach; anything else stops at a
    cap of 20,000 iterations.  The iterates stay plain probability arrays,
    stepped by the one-block array form of :func:`blind_map`, which has the
    same arithmetic.
    """
    lo, hi = _bracket(family)

    def converges(p: float) -> bool:
        prev = noise_family(family, p).as_array()
        recent = np.tile(prev, (3, 1))  # the last three iterates
        for k in range(20_000):
            d = HAD4 @ prev
            if d[1:].min() > 1.0 - 1e-9:
                return True
            cur = _blind_step(code, d)
            cur /= cur.sum()  # keep float drift out of the fixed-point test
            if np.abs(cur - recent).max(axis=1).min() < 1e-14:
                return False
            recent[k % 3] = cur
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
    """Critical values for levels 0..max_level, one entropy_critical_p call each.

    Above the first level answered by Monte Carlo the calls use "mc": an exact
    try would rebuild that level and fail again.  Each row equals its call alone.
    """
    out = []
    for level in range(max_level + 1):
        out.append(entropy_critical_p(
            code, family, level, target=target, tol=tol, method=method,
            samples=samples, seed=seed, threads=threads))
        if out[-1].method == "mc":
            method = "mc"
    return out
