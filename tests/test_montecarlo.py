import itertools
import sys
import threading

import numpy as np
import pytest

from concatqec import (
    ChannelError,
    MCEstimate,
    PauliProbVec,
    concatenate_exact,
    ensemble_entropy,
    mc_concatenate,
    noise_family,
)
from concatqec import ensemble, levelmap, montecarlo
from concatqec.ensemble import exact_level_entropy
from concatqec.reference import REFERENCE_TABLES
from conftest import random_code


def test_deterministic_for_fixed_seed(codes):
    code = codes["five-qubit"]
    noise = noise_family("depolarizing", 0.06)
    for levels in (2, 3, 4):
        a = mc_concatenate(code, noise, levels, 400, seed=7)
        b = mc_concatenate(code, noise, levels, 400, seed=7)
        assert a == b
        c = mc_concatenate(code, noise, levels, 400, seed=8)
        assert c.mean_entropy != a.mean_entropy


def test_thread_count_does_not_change_result(codes):
    code = codes["five-qubit"]
    noise = noise_family("depolarizing", 0.06)
    for levels in (2, 3, 4):
        a = mc_concatenate(code, noise, levels, 400, seed=3, threads=1)
        # each thread count's pool is kept: repeated calls on it agree too
        for threads in (4, 1, 2, 2):
            assert mc_concatenate(code, noise, levels, 400, seed=3, threads=threads) == a


def test_stream_count_changes_the_draws(codes):
    code = codes["rep3"]
    noise = noise_family("depolarizing", 0.05)
    a = mc_concatenate(code, noise, 1, 300, seed=5, streams=2)
    b = mc_concatenate(code, noise, 1, 300, seed=5, streams=3)
    assert a.mean_entropy != b.mean_entropy


def test_matches_exact_level_one(codes):
    code = codes["five-qubit"]
    noise = noise_family("depolarizing", 0.063)
    exact = ensemble_entropy(concatenate_exact(code, noise, 1))
    est = mc_concatenate(code, noise, 1, 4000, seed=11)
    assert isinstance(est, MCEstimate)
    assert est.samples == 4000
    assert est.std_error > 0.0
    assert abs(est.mean_entropy - exact) < 3.0 * est.std_error


def test_matches_exact_level_two(codes):
    code = codes["rep3"]
    noise = PauliProbVec.from_array(np.array([0.82, 0.08, 0.04, 0.06]))
    exact = ensemble_entropy(concatenate_exact(code, noise, 2))
    est = mc_concatenate(code, noise, 2, 4000, seed=2)
    assert abs(est.mean_entropy - exact) < 3.0 * est.std_error


def _five_qubit_level_three_p_star():
    cell = next(c for c in REFERENCE_TABLES
                if (c.code, c.family, c.level) == ("five-qubit", "depolarizing", 3))
    return cell.p_star


def test_matches_exact_level_three_at_quoted_crossing(codes):
    # the exact level-3 entropy at the quoted p* is 1 bit within about 4e-8
    # (test_five_qubit_depolarizing_level3_cell_brackets_quoted_value)
    noise = noise_family("depolarizing", _five_qubit_level_three_p_star())
    est = mc_concatenate(codes["five-qubit"], noise, 3, 4000, seed=0)
    assert abs(est.mean_entropy - 1.0) < 3.0 * est.std_error


def test_level_three_is_calibrated_over_seeds(codes):
    # exact level-3 entropy 1 bit within about 4e-8, five orders of magnitude
    # below the standard errors here
    noise = noise_family("depolarizing", _five_qubit_level_three_p_star())
    z = []
    for seed in range(12):
        est = mc_concatenate(codes["five-qubit"], noise, 3, 2000, seed=seed)
        z.append((est.mean_entropy - 1.0) / est.std_error)
    assert np.sqrt(np.mean(np.square(z))) <= 1.5
    assert np.max(np.abs(z)) <= 4.0


def test_sampling_table_is_the_exact_level(codes, random_codes):
    noises = (PauliProbVec.from_array(np.array([0.9, 0.04, 0.025, 0.035])),
              noise_family("phase-flip", 0.1))  # Steane: 50 of 64 level-1 syndromes weigh 0
    for noise, code in itertools.product(noises, [*codes.values(), *random_codes]):
        level1 = concatenate_exact(code, noise, 1)
        for levels, exact in ((2, ensemble_entropy(level1)),
                              (3, exact_level_entropy(code, level1))):
            table = montecarlo._sampling_table(code, noise, levels)
            assert table.level == levels - 1
            assert np.all(table.weights > 0.0)
            assert table.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert table.weights @ table.features[:, 0] == pytest.approx(exact, abs=1e-12)


def test_level_three_falls_back_to_the_level_one_table(codes, monkeypatch):
    # Steane depolarizing at p = 1e-4 has 9 level-1 entries: its level-2 table
    # would hold at least 9^7 / 168 * 64 = 1.82M rows, over the 2^20 cap
    noise = noise_family("depolarizing", 1e-4)
    assert concatenate_exact(codes["steane"], noise, 1).size == 9
    assert montecarlo._sampling_table(codes["steane"], noise, 3).level == 1
    # exact level-3 entropy 1 bit within about 4e-8 (see above).  The cell is
    # warm first: a cap read after a kept level-2 table still decides the level.
    code = codes["five-qubit"]
    noise = noise_family("depolarizing", _five_qubit_level_three_p_star())
    for name, module, value in (("_MAX_TABLE_ROWS", montecarlo, 1), ("BUDGET", ensemble, 1)):
        mc_concatenate(code, noise, 3, 100, seed=4)
        assert montecarlo._sampling_table(code, noise, 3).level == 2
        with monkeypatch.context() as patch:
            patch.setattr(module, name, value)
            assert montecarlo._sampling_table(code, noise, 3).level == 1
            est = mc_concatenate(code, noise, 3, 4000, seed=4)
            assert abs(est.mean_entropy - 1.0) < 3.0 * est.std_error


@pytest.mark.parametrize("name, levels", [
    *(("five-qubit", levels) for levels in (1, 2, 3, 4)),
    ("steane", 2), ("steane", 3),
])
@pytest.mark.parametrize("threads", [1, 2])
def test_kept_table_gives_the_bits_of_a_built_one(codes, name, levels, threads):
    code, noise = codes[name], noise_family("depolarizing", 0.0629)
    montecarlo._kept_table.cache_clear()
    cold = mc_concatenate(code, noise, levels, 200, seed=6, threads=threads)
    mc_concatenate(code, noise, levels, 50, seed=1)
    assert montecarlo._kept_table.cache_info().hits >= 1
    assert mc_concatenate(code, noise, levels, 200, seed=6, threads=threads) == cold


def test_kept_table_is_built_once_per_code_noise_and_table_level(codes, monkeypatch):
    builds = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            builds.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((ensemble, "_level_chunks"), (ensemble, "concatenate_exact"),
                         (montecarlo, "coset_map_probs")):
        counting(module, name)
    code = codes["steane"]

    def built(p, levels):
        builds.clear()
        mc_concatenate(code, noise_family("depolarizing", p), levels, 40, seed=2)
        return bool(builds)

    montecarlo._kept_table.cache_clear()
    assert built(0.0627, 3)
    assert not built(0.0627, 3)
    assert built(0.0628, 3)  # another p
    assert built(0.0628, 2)  # level 2 draws from the level-1 table
    assert not built(0.0628, 1)  # and so does level 1
    assert built(0.0628, 3)
    # -0.0 and 0.0 never share a table
    noise = PauliProbVec.from_array(np.array([0.9, 0.05, 0.05, 0.0]))
    montecarlo._sampling_table(code, noise, 3)
    builds.clear()
    montecarlo._sampling_table(code, PauliProbVec.from_array(np.array([0.9, 0.05, 0.05, -0.0])), 3)
    assert builds


def test_concurrent_calls_share_the_kept_table(codes):
    # a race may build the table twice; every call still gets the same estimate
    code, noise = codes["steane"], noise_family("depolarizing", 0.0627)
    montecarlo._kept_table.cache_clear()
    serial = mc_concatenate(code, noise, 3, 200, seed=5)
    montecarlo._kept_table.cache_clear()
    start, results = threading.Barrier(4), []

    def call():
        start.wait()
        results.append(mc_concatenate(code, noise, 3, 200, seed=5))

    workers = [threading.Thread(target=call) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert results == [serial] * 4


def test_round_off_spread_gives_zero_standard_error():
    # this code leaves the logical qubit unencoded: every sample has the same
    # entropy in exact arithmetic, and the draws differ in the last bits only
    code = random_code(3, 1)
    noise = noise_family("depolarizing", 0.05)
    exact = ensemble_entropy(concatenate_exact(code, noise, 2))
    est = mc_concatenate(code, noise, 2, 2000, seed=1)
    assert est.std_error == 0.0
    assert est.mean_entropy == pytest.approx(exact, abs=64 * np.finfo(float).eps)


def test_matches_exact_level_two_on_random_codes(random_codes):
    # codes that leave the logical qubit unencoded give every sample the same
    # entropy up to round-off, so the standard error is floored at 1e-12 bits
    noise = PauliProbVec.from_array(np.array([0.88, 0.05, 0.03, 0.04]))
    z = []
    for seed, code in enumerate(random_codes):
        exact = ensemble_entropy(concatenate_exact(code, noise, 2))
        est = mc_concatenate(code, noise, 2, 2000, seed=seed)
        z.append((est.mean_entropy - exact) / np.hypot(est.std_error, 1e-12))
    assert np.sqrt(np.mean(np.square(z))) <= 1.5
    assert np.max(np.abs(z)) <= 4.0


def test_kernel_calls_stay_within_the_block_cap(codes, monkeypatch):
    real = montecarlo._coset_map_batch
    blocks = []

    def recording(code, diags):
        blocks.append(len(diags))
        return real(code, diags)

    monkeypatch.setattr(montecarlo, "_coset_map_batch", recording)
    mc_concatenate(codes["steane"], noise_family("depolarizing", 0.0627), 4, 1200,
                   seed=0, streams=1)
    assert max(blocks) <= levelmap._MAX_BLOCKS
    assert len(blocks) > 3  # one call per kernel level and chunk: more than one chunk


def test_near_noiseless_entropy_is_small(codes):
    # near-noiseless input: the root channel is close to a Pauli, so its
    # entropy is tiny; rep3 leaves the Z component uncorrected, so some
    # entropy survives
    est = mc_concatenate(codes["rep3"], noise_family("depolarizing", 1e-4), 2, 200, seed=1)
    assert est.mean_entropy < 0.05


def test_invalid_arguments_rejected(codes):
    code = codes["rep3"]
    noise = noise_family("depolarizing", 0.05)
    with pytest.raises(ChannelError):
        mc_concatenate(code, noise, 0, 100)
    with pytest.raises(ChannelError):
        mc_concatenate(code, noise, 1, 0)
    with pytest.raises(ChannelError):
        mc_concatenate(code, noise, 1, 100, seed=-1)
