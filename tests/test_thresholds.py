import math

import numpy as np
import pytest

from concatqec import (
    BudgetExceeded,
    CriticalPoint,
    NoStraddle,
    PauliProbVec,
    blind_map,
    concatenate_exact,
    entropy_critical_p,
    exact_level_entropy,
    noise_family,
    threshold_series,
    unoptimized_threshold,
)
from concatqec import ensemble as ensemble_module
from concatqec import montecarlo
from concatqec import thresholds as thresholds_module
from concatqec.channels import HAD4
from concatqec.reference import EXACT_RTOL, REFERENCE_TABLES
from conftest import random_code

# roots of H(noise(p)) = 1 bit, frozen from an independent extended-precision
# bisection of the closed-form channel entropies
DEP_LEVEL0 = 6.309654163841059e-2      # h(3p) + 3p log2(3) = 1
INDEP_LEVEL0 = 1.100278644383595e-1    # 2 h(p) = 1
# unoptimized threshold of random_code(3, 1) under indep-flips at tol 1e-6,
# as found by running every probe to the 20,000-iteration cap: 2^-21
P_STAR_CYCLING = 4.76837158203125e-07


def test_level0_depolarizing_root():
    cp = entropy_critical_p(None, "depolarizing", 0, tol=1e-12)
    assert isinstance(cp, CriticalPoint)
    assert cp.p_star == pytest.approx(DEP_LEVEL0, abs=1e-10)
    assert cp.method == "exact"
    assert cp.uncertainty == 0.0
    assert cp.level == 0
    assert cp.code is None


def test_level0_indep_flips_root():
    cp = entropy_critical_p(None, "indep-flips", 0, tol=1e-12)
    assert cp.p_star == pytest.approx(INDEP_LEVEL0, abs=1e-10)


def test_level0_custom_target():
    # H(depolarizing) = h(3p) + 3p log2(3); at the family cap it tops out at
    # log2(3), so 1.5 bits still crosses
    cp = entropy_critical_p(None, "depolarizing", 0, target=1.5, tol=1e-12)
    probs = np.array([1 - 3 * cp.p_star] + [cp.p_star] * 3)
    assert -(probs * np.log2(probs)).sum() == pytest.approx(1.5, abs=1e-9)


def test_no_straddle_reports_endpoints():
    # the depolarizing family never reaches 2 bits (cap is log2(3))
    with pytest.raises(NoStraddle) as info:
        entropy_critical_p(None, "depolarizing", 0, target=2.0)
    err = info.value
    assert err.target == 2.0
    assert err.lo == 0.0
    assert "no crossing of target 2.0 bits" in str(err)
    assert err.e_lo == pytest.approx(0.0, abs=1e-12)
    assert err.e_hi < 2.0


def test_level1_crossing_beats_level0(codes):
    # one level of the five-qubit code pushes the depolarizing crossing
    # below the raw-channel crossing only slightly; both sit near 6.3%
    cp = entropy_critical_p(codes["five-qubit"], "depolarizing", 1, tol=1e-9)
    assert cp.code == "five-qubit"
    assert cp.level == 1
    assert 0.060 < cp.p_star < 0.064


def test_method_validation(codes):
    with pytest.raises(ValueError):
        entropy_critical_p(codes["rep3"], "depolarizing", 1, method="fastest")
    with pytest.raises(ValueError):
        entropy_critical_p(None, "made-up-family", 0)
    with pytest.raises(ValueError):
        entropy_critical_p(None, "depolarizing", 1)  # code required


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
def test_root_rejects_tol_outside_positive_finite(codes, tol):
    with pytest.raises(ValueError, match="tol"):
        entropy_critical_p(None, "depolarizing", 0, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        unoptimized_threshold(codes["rep3"], "depolarizing", tol=tol)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_root_rejects_non_finite_target(codes, target):
    # NoStraddle is a ValueError too, and its message names the target
    with pytest.raises(ValueError, match="target must be finite"):
        entropy_critical_p(None, "depolarizing", 0, target=target)
    with pytest.raises(ValueError, match="target must be finite"):
        entropy_critical_p(codes["rep3"], "depolarizing", 1, target=target,
                           method="mc", samples=200)


def test_exact_method_propagates_budget(codes, monkeypatch):
    monkeypatch.setattr(ensemble_module, "BUDGET", 4)
    with pytest.raises(BudgetExceeded):
        entropy_critical_p(codes["rep3"], "depolarizing", 2, method="exact")


def test_auto_falls_back_to_monte_carlo(codes, monkeypatch):
    monkeypatch.setattr(ensemble_module, "BUDGET", 4)
    cp = entropy_critical_p(codes["rep3"], "depolarizing", 2, method="auto",
                            samples=1500, seed=4)
    assert cp.method == "mc"
    assert cp.uncertainty > 0.0


def test_series_runs_monte_carlo_above_the_first_fallback(codes, monkeypatch):
    # level 2 exceeds the budget of 4 assignments, so level 3 needs no exact try
    monkeypatch.setattr(ensemble_module, "BUDGET", 4)
    real = thresholds_module._exact_entropy
    levels = []

    def counting(code, noise, level):
        levels.append(level)
        return real(code, noise, level)

    monkeypatch.setattr(thresholds_module, "_exact_entropy", counting)
    series = threshold_series(codes["rep3"], "depolarizing", 3, samples=1000, seed=2)
    assert [cp.method for cp in series] == ["exact", "exact", "mc", "mc"]
    assert 2 in levels and 3 not in levels
    assert series[3] == entropy_critical_p(codes["rep3"], "depolarizing", 3, method="mc",
                                           samples=1000, seed=2)


def test_monte_carlo_agrees_with_exact(codes):
    code = codes["rep3"]
    exact = entropy_critical_p(code, "depolarizing", 1, tol=1e-10)
    mc = entropy_critical_p(code, "depolarizing", 1, method="mc",
                            samples=4000, seed=9)
    assert mc.method == "mc"
    assert abs(mc.p_star - exact.p_star) < 5.0 * mc.uncertainty
    assert mc.uncertainty < 0.01


def test_monte_carlo_reruns_share_no_seeds(codes, monkeypatch):
    # runs with neighbouring seeds must not reuse each other's streams
    real = thresholds_module.mc_concatenate
    seeds = []

    def recording(*args, seed, **kwargs):
        seeds[-1].append(seed)
        return real(*args, seed=seed, **kwargs)

    monkeypatch.setattr(thresholds_module, "mc_concatenate", recording)
    for seed in (0, 1):
        seeds.append([])
        entropy_critical_p(codes["rep3"], "depolarizing", 1, method="mc",
                           samples=2000, seed=seed)
    assert len(seeds[0]) > 1 and len(seeds[1]) > 1
    assert not set(seeds[0]) & set(seeds[1])


def test_threshold_series_levels(codes):
    series = threshold_series(codes["rep3"], "depolarizing", 1, tol=1e-9)
    assert [cp.level for cp in series] == [0, 1]
    alone = entropy_critical_p(codes["rep3"], "depolarizing", 1, tol=1e-9)
    assert series[1].p_star == alone.p_star  # same deterministic search


def test_unoptimized_threshold_five_qubit(codes):
    cp = unoptimized_threshold(codes["five-qubit"], "depolarizing", tol=1e-8)
    assert cp.level == -1
    assert cp.method == "unoptimized"
    assert 0.02 < cp.p_star < 0.33
    # convergence is monotone: clearly below converges, clearly above does not
    from concatqec import PauliProbVec, blind_map, noise_family

    def converges(p, iters=5000):
        arr = noise_family("depolarizing", p).as_array()
        for _ in range(iters):
            if arr[0] > 1 - 1e-9:
                return True
            arr = blind_map(codes["five-qubit"],
                            PauliProbVec.from_array(arr)).as_array()
            arr = arr / arr.sum()  # keep float drift out of the input check
        return False

    assert converges(cp.p_star - 0.005)
    assert not converges(cp.p_star + 0.005)


def test_unoptimized_threshold_bitflip2_degenerate(codes):
    # the syndrome-blind bf2 map is the identity on the bit-flip family, so
    # the iteration never contracts and the threshold collapses to zero
    cp = unoptimized_threshold(codes["bitflip2"], "indep-flips", tol=1e-10)
    assert cp.p_star < 1e-8


def _recording(f):
    probes = []

    def wrapped(p):
        probes.append(p)
        return f(p)

    return wrapped, probes


def _plain_bisection(f, lo, hi, tol):
    """Midpoint bisection of a predicate-valued f (< 0 below the root)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_root_of_sign_step_is_plain_bisection():
    root = 0.0631
    step = lambda p: -1.0 if p < root else 1.0
    f, probes = _recording(step)
    g, expected = _recording(step)
    p = thresholds_module._root(f, 0.0, 1.0 / 3.0, 0.0, 1e-10)
    assert p == _plain_bisection(g, 0.0, 1.0 / 3.0, 1e-10)
    assert probes[2:] == expected
    assert abs(p - root) <= 1e-10


def test_root_returns_interpolated_point_of_final_bracket():
    # on a straight line the interpolated point is the root itself, while
    # the final bracket's midpoint can sit up to tol / 2 away
    p = thresholds_module._root(lambda p: 3.0 * p, 0.0, 1.0 / 3.0, 0.3, 1e-3)
    assert p == pytest.approx(0.1, abs=1e-15)


def test_root_stops_at_round_off_of_target():
    # within 0.01 of the root f sits 4e-15 bits off the target: inside
    # round-off of 1 bit, but never equal to it
    root = 0.0631

    def near_flat(p):
        d = p - root
        return 1.0 + (d if abs(d) >= 0.01 else math.copysign(4e-15, d))

    f, probes = _recording(near_flat)
    p = thresholds_module._root(f, 0.0, 1.0 / 3.0, 1.0, 1e-10)
    first = next(x for x in probes if abs(x - root) < 0.01)
    assert p == first == probes[-1]
    # an endpoint exactly on the target is returned without an interior probe
    f, probes = _recording(lambda x: x)
    assert thresholds_module._root(f, 0.0, 1.0, 1.0, 1e-10) == 1.0
    assert probes == [0.0, 1.0]


def test_root_refuses_a_probe_that_round_off_cannot_place():
    # 1e-13 bits per unit p: every probe is within round-off of the target,
    # which leaves the root anywhere in a bracket far wider than tol
    f, probes = _recording(lambda p: 1.0 + 1e-13 * (p - 0.0631))
    with pytest.raises(NoStraddle) as info:
        thresholds_module._root(f, 0.0, 1.0 / 3.0, 1.0, 1e-10)
    assert len(probes) == 3
    assert (info.value.lo, info.value.hi) == (0.0, 1.0 / 3.0)


def test_degenerate_crossing_raises(codes):
    # rep3 depolarizing L4 is 1 bit within round-off on [0.054, 0.081]: a probe
    # there places p only to about 1e-4, far more than tol
    with pytest.raises(NoStraddle) as info:
        entropy_critical_p(codes["rep3"], "depolarizing", 4)
    assert (info.value.lo, info.value.hi) == (0.0536870912, 0.0805306368)


def test_shallow_crossing_still_ends_at_round_off(codes):
    # rep3 depolarizing L3 rises about 2e-3 bits per unit p, steep enough for
    # round-off to place its root within tol, so its band probe ends the search
    cp = entropy_critical_p(codes["rep3"], "depolarizing", 3)
    assert (cp.p_star, cp.method, cp.uncertainty) == (0.06254594778078386, "exact", 0.0)


@pytest.mark.parametrize("tol", [1e-10, 1e-20])
@pytest.mark.parametrize("shape", ["sign", "lopsided", "flat-then-steep"])
def test_root_interior_evaluations_bounded(shape, tol):
    lo, hi, root = 0.0, 1.0 / 3.0, 0.0631
    f = {
        "sign": lambda p: -1.0 if p < root else 1.0,
        # regula falsi alone would crawl in from the low side
        "lopsided": lambda p: -1e-9 if p < root else 1.0,
        "flat-then-steep": lambda p: (p / root) ** 60 - 1.0,
    }[shape]
    f, probes = _recording(f)
    p = thresholds_module._root(f, lo, hi, 0.0, tol)
    assert len(probes) - 2 <= math.ceil(math.log2((hi - lo) / tol)) + 1
    assert abs(p - root) <= tol + 2 * math.ulp(root)


@pytest.mark.parametrize("name,family", [
    ("five-qubit", "depolarizing"), ("five-qubit", "indep-flips"),
    ("steane", "depolarizing"), ("steane", "indep-flips")])
def test_unoptimized_threshold_is_plain_bisection(codes, name, family):
    # the reference stops only on consecutive iterates: on the bundled codes
    # the cycle check of unoptimized_threshold must change no probe
    code = codes[name]

    def converges(p):
        prev = noise_family(family, p).as_array()
        for _ in range(20_000):
            if (HAD4 @ prev)[1:].min() > 1.0 - 1e-9:
                return True
            cur = blind_map(code, PauliProbVec.from_array(prev)).as_array()
            cur /= cur.sum()
            if np.abs(cur - prev).max() < 1e-14:
                return False
            prev = cur
        return False

    lo, hi = thresholds_module._bracket(family)
    expected = _plain_bisection(lambda p: -1.0 if converges(p) else 1.0, lo, hi, 1e-8)
    cp = unoptimized_threshold(code, family, tol=1e-8)
    assert cp.p_star == expected


def test_unoptimized_threshold_detects_blind_map_cycles(monkeypatch):
    # random_code(3, 1) has distance 1 and a recovery that permutes the
    # logical classes: under indep-flips the blind iterates alternate between
    # two channels, so without the cycle check every probe runs to the cap
    real = thresholds_module._blind_step
    calls = []

    def counting(code, diag):
        calls.append(None)
        return real(code, diag)

    monkeypatch.setattr(thresholds_module, "_blind_step", counting)
    cp = unoptimized_threshold(random_code(3, 1), "indep-flips", tol=1e-6)
    assert len(calls) <= 200
    assert cp.p_star == P_STAR_CYCLING


@pytest.mark.parametrize("name", ["five-qubit", "steane"])
def test_exact_search_evaluation_count(codes, monkeypatch, name):
    real = thresholds_module._exact_entropy
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(thresholds_module, "_exact_entropy", counting)
    entropy_critical_p(codes[name], "depolarizing", 1)
    assert len(calls) <= 12


def test_five_qubit_depolarizing_level3_cell_brackets_quoted_value(codes):
    # dH/dp is about 60 bits per unit p here, so p*(1 -/+ EXACT_RTOL) sit
    # about 4e-8 bits below and above the target
    cell = next(c for c in REFERENCE_TABLES
                if (c.code, c.family, c.level) == ("five-qubit", "depolarizing", 3))
    code = codes["five-qubit"]

    def level3(p):
        child = concatenate_exact(code, noise_family("depolarizing", p), 2)
        return exact_level_entropy(code, child)

    assert level3(cell.p_star * (1 - EXACT_RTOL)) < 1.0
    assert level3(cell.p_star * (1 + EXACT_RTOL)) > 1.0


def test_monte_carlo_no_straddle_reports_measured_entropies(codes):
    with pytest.raises(NoStraddle) as info:
        entropy_critical_p(codes["rep3"], "depolarizing", 1, method="mc",
                           samples=2000, target=2.0)
    err = info.value
    assert err.target == 2.0
    assert "no crossing of target 2.0 bits" in str(err)
    assert err.e_lo == 0.0
    assert err.e_hi == pytest.approx(1.751, abs=0.01)


def test_monte_carlo_fit_window_without_pilot_slope(codes):
    # on seed 0 a window with no positive slope to size it has put the fit
    # 13 sigma off the crossing; the final bracket's secant slope is
    # positive by construction
    code = codes["rep3"]
    exact = entropy_critical_p(code, "depolarizing", 1)
    mc = entropy_critical_p(code, "depolarizing", 1, method="mc",
                            samples=2000, seed=0)
    assert abs(mc.p_star - exact.p_star) <= 5.0 * mc.uncertainty


def test_monte_carlo_endpoint_at_target(codes):
    # the noiseless channel has entropy exactly 0, so target 0 is met at p = 0
    cp = entropy_critical_p(codes["rep3"], "depolarizing", 1, method="mc",
                            samples=500, target=0.0)
    assert cp.p_star == 0.0
    assert cp.method == "mc"


def test_monte_carlo_search_draws_at_most_samples(codes, monkeypatch):
    real = thresholds_module.mc_concatenate
    counts = []

    def recording(code, noise, level, samples, **kwargs):
        counts.append(samples)
        return real(code, noise, level, samples, **kwargs)

    monkeypatch.setattr(thresholds_module, "mc_concatenate", recording)
    entropy_critical_p(codes["rep3"], "depolarizing", 1, method="mc", samples=100)
    assert counts and max(counts) == 100


def _record_search(monkeypatch):
    """Patches the search's mc_concatenate; returns its (p, samples, estimate) calls."""
    real = thresholds_module.mc_concatenate
    called = []

    def recording(code, noise, level, samples, **kwargs):
        est = real(code, noise, level, samples, **kwargs)
        called.append((noise.p_x, samples, est))  # p_x is p under depolarizing
        return est

    monkeypatch.setattr(thresholds_module, "mc_concatenate", recording)
    return called


def _check_fit(called, cp, samples):
    """The last four calls are the fit's new draws; the center is drawn once at
    samples, and its estimate is the fit's middle point.  Returns the center."""
    search, fit = called[:-4], called[-4:]
    full = [p for p, n, _ in called if n == samples]
    assert len(full) == len(set(full))
    assert all(n == samples for _, n, _ in fit)
    center = 0.5 * (fit[1][0] + fit[2][0])
    (middle,) = [c for c in search if c[0] == pytest.approx(center, rel=1e-12)
                 and c[1] == samples]
    points = [fit[0], fit[1], middle, fit[2], fit[3]]
    ps = np.array([p for p, _, _ in points]) - middle[0]
    slope, offset = np.polyfit(ps, [est.mean_entropy for _, _, est in points], 1)
    assert cp.p_star == pytest.approx(middle[0] + (1.0 - offset) / slope, rel=1e-12)
    return middle[0]


def test_monte_carlo_search_builds_one_table_per_probe(codes, monkeypatch):
    # the kept table serves the escalated probes at one p, and the fit's
    # middle point is the search's estimate at its center, not a new draw
    called = _record_search(monkeypatch)
    real_exact = ensemble_module.concatenate_exact
    built = []

    def building(code, noise, levels):  # once per level-3 table build
        built.append(noise.p_x)
        return real_exact(code, noise, levels)

    monkeypatch.setattr(ensemble_module, "concatenate_exact", building)
    montecarlo._kept_table.cache_clear()
    cp = entropy_critical_p(codes["five-qubit"], "depolarizing", 3, method="mc",
                            samples=2000, seed=0)
    ps = [p for p, _, _ in called]
    runs = [p for i, p in enumerate(ps) if i == 0 or ps[i - 1] != p]
    assert built == runs == list(dict.fromkeys(ps))
    assert montecarlo._kept_table.cache_info().misses == len(built)
    center = _check_fit(called, cp, 2000)
    # the search ended on a zero: the center was escalated to samples
    assert [n for p, n, _ in called if p == center] == [500, 2000]


def test_monte_carlo_closed_bracket_draws_the_center_once(codes, monkeypatch):
    # at a coarse tol the bracket closes before any probe is a zero; the one
    # fresh draw at its interpolated center is the fit's middle point
    called = _record_search(monkeypatch)
    cp = entropy_critical_p(codes["five-qubit"], "depolarizing", 2, method="mc",
                            samples=2000, seed=1, tol=1e-3)
    center = _check_fit(called, cp, 2000)
    assert [p for p, _, _ in called[:-4]].index(center) == len(called) - 5
    assert any(n == 2000 for _, n, _ in called[:-5])  # an escalated, decided probe


@pytest.mark.parametrize("code, family, seed", [
    *(("rep3", "indep-flips", seed) for seed in range(12)),
    ("five-qubit", "depolarizing", 23),
])
def test_monte_carlo_search_is_calibrated(codes, code, family, seed):
    # level 2 at 2000 samples: a fit window set by a noisy slope has missed
    # the exact root by 355 sigma (rep3, seed 11) and 14 sigma (five-qubit)
    exact = entropy_critical_p(codes[code], family, 2)
    mc = entropy_critical_p(codes[code], family, 2, method="mc",
                            samples=2000, seed=seed)
    assert abs(mc.p_star - exact.p_star) <= 4.0 * mc.uncertainty
