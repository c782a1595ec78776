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
from concatqec import thresholds as thresholds_module
from concatqec.channels import HAD4
from concatqec.reference import EXACT_RTOL, REFERENCE_TABLES

# roots of H(noise(p)) = 1 bit, frozen from an independent extended-precision
# bisection of the closed-form channel entropies
DEP_LEVEL0 = 6.309654163841059e-2      # h(3p) + 3p log2(3) = 1
INDEP_LEVEL0 = 1.100278644383595e-1    # 2 h(p) = 1


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


def test_exact_method_propagates_budget(codes):
    with pytest.raises(BudgetExceeded):
        entropy_critical_p(codes["rep3"], "depolarizing", 2, method="exact",
                           budget=4)


def test_auto_falls_back_to_monte_carlo(codes):
    cp = entropy_critical_p(codes["rep3"], "depolarizing", 2, method="auto",
                            budget=4, samples=1500, seed=4)
    assert cp.method == "monte-carlo"
    assert cp.uncertainty > 0.0


def test_monte_carlo_agrees_with_exact(codes):
    code = codes["rep3"]
    exact = entropy_critical_p(code, "depolarizing", 1, tol=1e-10)
    mc = entropy_critical_p(code, "depolarizing", 1, method="mc",
                            samples=4000, seed=9)
    assert mc.method == "monte-carlo"
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


def test_unoptimized_threshold_is_plain_bisection(codes):
    code = codes["five-qubit"]

    def converges(p):
        prev = noise_family("depolarizing", p).as_array()
        for _ in range(20_000):
            if (HAD4 @ prev)[1:].min() > 1.0 - 1e-9:
                return True
            cur = blind_map(code, PauliProbVec.from_array(prev)).as_array()
            cur /= cur.sum()
            if np.abs(cur - prev).max() < 1e-14:
                return False
            prev = cur
        return False

    expected = _plain_bisection(lambda p: -1.0 if converges(p) else 1.0,
                                0.0, 1.0 / 3.0, 1e-8)
    cp = unoptimized_threshold(code, "depolarizing", tol=1e-8)
    assert cp.p_star == expected


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
    # seed 0 draws a pilot pair with no positive slope; a fit across the
    # whole final bracket used to land 13 sigma off the exact crossing
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
    assert cp.method == "monte-carlo"


def test_monte_carlo_search_draws_at_most_samples(codes, monkeypatch):
    real = thresholds_module.mc_concatenate
    counts = []

    def recording(code, noise, level, samples, **kwargs):
        counts.append(samples)
        return real(code, noise, level, samples, **kwargs)

    monkeypatch.setattr(thresholds_module, "mc_concatenate", recording)
    entropy_critical_p(codes["rep3"], "depolarizing", 1, method="mc", samples=100)
    assert counts and max(counts) == 100
