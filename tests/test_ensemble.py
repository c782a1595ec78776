import itertools
import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concatqec import (
    BudgetExceeded,
    ChannelEnsemble,
    ChannelError,
    PauliProbVec,
    PauliString,
    StabilizerCode,
    apply_logical_pauli,
    concatenate_exact,
    coset_map_probs,
    ensemble_entropy,
    exact_level,
    exact_level_entropy,
    noise_family,
    optimize_recovery,
)
from concatqec import ensemble as ensemble_module
from concatqec.codes import qubit_automorphisms
from concatqec.ensemble import DEDUP_TOL, _Accumulator, _optimize_rows

CODE_NAMES = ["bitflip2", "rep3", "five-qubit", "steane"]


@st.composite
def prob_vecs(draw):
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    total = sum(raw)
    if total <= 0.0:
        raw = [1.0, 0.0, 0.0, 0.0]
        total = 1.0
    return PauliProbVec.from_array(np.array(raw) / total)


def bit_flip(x):
    return PauliProbVec.from_array(np.array([(1 + x) / 2, (1 - x) / 2, 0, 0]))


def row_entropy(row):
    row = np.asarray(row, dtype=float)
    pos = row[row > 0]
    return float(-(pos * np.log2(pos)).sum())


# ---------------------------------------------------------------- recovery

def test_optimize_recovery_identity_dominant():
    q = PauliProbVec.from_array(np.array([0.7, 0.1, 0.1, 0.1]))
    letter, out = optimize_recovery(q)
    assert letter == "I"
    assert np.allclose(out.as_array(), q.as_array())


def test_optimize_recovery_tie_prefers_identity():
    q = PauliProbVec.from_array(np.array([0.3, 0.3, 0.1, 0.3]))
    letter, out = optimize_recovery(q)
    assert letter == "I"
    assert np.allclose(out.as_array(), q.as_array())


def test_optimize_recovery_tie_prefers_x_over_z():
    q = PauliProbVec.from_array(np.array([0.1, 0.4, 0.1, 0.4]))
    letter, _ = optimize_recovery(q)
    assert letter == "X"


def test_optimize_recovery_tie_prefers_z_over_y():
    q = PauliProbVec.from_array(np.array([0.1, 0.1, 0.4, 0.4]))
    letter, _ = optimize_recovery(q)
    assert letter == "Z"


def test_optimize_recovery_near_tie_prefers_identity():
    # a round-off deficit on I does not hand the recovery to X
    q = PauliProbVec.from_array(np.array([0.3 - 1e-15, 0.3, 0.1, 0.3]))
    letter, _ = optimize_recovery(q)
    assert letter == "I"


def test_optimize_rows_near_tie_ignores_round_off():
    # copies of one channel whose three tied classes differ only by
    # round-off, each with the largest value on another class, optimize to
    # one row rather than to three Klein relabelings
    m, e, d = 0.2993755795164533, 0.10187326145064113, 5e-17
    rows = np.array([[m + d, m, e, m], [m, m + d, e, m], [m, m, e, m + d]])
    out = _optimize_rows(rows)
    assert np.allclose(out, [m, m, e, m], rtol=0.0, atol=1e-15)


def test_optimize_recovery_zero_weight_rejected():
    with pytest.raises(ChannelError):
        optimize_recovery(PauliProbVec.from_array(np.zeros(4)))


@given(prob_vecs())
def test_optimize_recovery_moves_max_to_identity(q):
    letter, out = optimize_recovery(q)
    arr = out.as_array()
    assert arr[0] == pytest.approx(q.as_array().max())
    assert np.allclose(arr, apply_logical_pauli(q, letter).as_array())
    # a second pass has nothing left to do
    letter2, out2 = optimize_recovery(out)
    assert letter2 == "I"
    assert np.allclose(out2.as_array(), arr)


def test_optimize_recovery_quasi_channel_swap():
    # an X-dominant quasi-channel gets its I and X (and Y and Z) entries
    # swapped; the overall weight stays put
    q = PauliProbVec.from_array(0.125 * np.array([0.2, 0.5, 0.1, 0.2]))
    letter, out = optimize_recovery(q)
    assert letter == "X"
    assert np.allclose(out.as_array(), 0.125 * np.array([0.5, 0.2, 0.2, 0.1]))


# ---------------------------------------------------------------- ensembles

def test_singleton_normalizes_quasi_channel():
    e = ChannelEnsemble.singleton(
        PauliProbVec.from_array(np.array([0.3, 0.1, 0.0, 0.0])))
    assert e.size == 1
    assert np.allclose(e.weights, [1.0])
    assert np.allclose(e.channels, [[0.75, 0.25, 0.0, 0.0]])


def test_ensemble_validation():
    ok = np.array([[1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ChannelError):
        ChannelEnsemble(np.array([0.5]), ok)  # weights must sum to 1
    with pytest.raises(ChannelError):
        ChannelEnsemble(np.array([1.0]), np.array([[0.5, 0.2, 0.2, 0.2]]))
    with pytest.raises(ChannelError):
        ChannelEnsemble(np.array([1.0]), np.array([[1.1, -0.1, 0.0, 0.0]]))
    with pytest.raises(ChannelError):
        ChannelEnsemble(np.array([0.5, 0.5]), ok)  # shape mismatch
    with pytest.raises(ChannelError):
        ChannelEnsemble(np.array([]), np.empty((0, 4)))


def test_ensemble_average_channel():
    e = ChannelEnsemble(np.array([0.25, 0.75]),
                        np.array([[1.0, 0.0, 0.0, 0.0],
                                  [0.0, 1.0, 0.0, 0.0]]))
    assert np.allclose(e.average_channel().as_array(), [0.25, 0.75, 0.0, 0.0])


def test_ensemble_entropy_known_mixture():
    e = ChannelEnsemble(np.array([0.5, 0.5]),
                        np.array([[1.0, 0.0, 0.0, 0.0],
                                  [0.5, 0.5, 0.0, 0.0]]))
    assert ensemble_entropy(e) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------- exact level

def test_exact_level_matches_per_syndrome_channels(codes):
    # with a singleton child there is a single assignment, so the output is
    # exactly the optimized per-syndrome conditional channels
    bf2 = codes["bitflip2"]
    q = PauliProbVec.from_array(np.array([0.85, 0.05, 0.06, 0.04]))
    rows = coset_map_probs(bf2, q)
    ens = exact_level(bf2, ChannelEnsemble.singleton(q))
    assert ens.size == bf2.n_syndromes
    for beta in range(bf2.n_syndromes):
        w = rows[beta].sum()
        _, cond = optimize_recovery(PauliProbVec.from_array(rows[beta] / w))
        i = np.flatnonzero(np.abs(ens.weights - w) < 1e-12)
        assert i.size == 1
        assert np.allclose(ens.channels[i[0]], cond.as_array(), atol=1e-12)


def test_exact_level_entropy_matches_syndrome_sum(codes):
    code = codes["five-qubit"]
    q = PauliProbVec.from_array(np.array([0.9, 0.05, 0.03, 0.02]))
    rows = coset_map_probs(code, [q] * code.n)
    want = sum(row.sum() * row_entropy(row / row.sum()) for row in rows)
    got = exact_level_entropy(code, ChannelEnsemble.singleton(q))
    assert got == pytest.approx(want, abs=1e-12)


@given(prob_vecs())
def test_exact_level_output_is_normalized(codes, q):
    ens = exact_level(codes["rep3"], ChannelEnsemble.singleton(q))
    assert ens.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(ens.channels.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(ens.channels[:, 0] >= ens.channels.max(axis=1) - 1e-12)


def test_exact_level_entropy_agrees_with_flattened(codes):
    code = codes["rep3"]
    base = exact_level(
        code, ChannelEnsemble.singleton(
            PauliProbVec.from_array(np.array([0.8, 0.1, 0.06, 0.04]))))
    direct = exact_level_entropy(code, base)
    flattened = ensemble_entropy(exact_level(code, base))
    assert direct == pytest.approx(flattened, abs=1e-8)


def test_budget_exceeded(codes):
    code = codes["rep3"]
    base = exact_level(code, ChannelEnsemble.singleton(bit_flip(0.4)))
    assert base.size > 1
    with pytest.raises(BudgetExceeded) as info:
        exact_level(code, base, budget=base.size ** code.n - 1)
    assert info.value.combinations == base.size ** code.n
    with pytest.raises(BudgetExceeded):
        exact_level_entropy(code, base, budget=1)


def test_prune_floor_cannot_eat_everything(codes):
    with pytest.raises(ChannelError):
        exact_level(codes["bitflip2"], ChannelEnsemble.singleton(bit_flip(0.5)),
                    prune_floor=2.0)


# ------------------------------------------------------------- concatenation

def test_concatenate_exact_level_zero_is_singleton(codes):
    q = PauliProbVec.from_array(np.array([0.6, 0.2, 0.1, 0.1]))
    ens = concatenate_exact(codes["five-qubit"], q, 0)
    assert ens.size == 1
    assert np.allclose(ens.channels[0], q.as_array())


def test_concatenate_exact_one_level(codes):
    code = codes["rep3"]
    q = PauliProbVec.from_array(np.array([0.75, 0.15, 0.04, 0.06]))
    a = concatenate_exact(code, q, 1)
    b = exact_level(code, ChannelEnsemble.singleton(q))
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.channels, b.channels)


def test_concatenate_exact_rejects_negative_levels(codes):
    with pytest.raises(ChannelError):
        concatenate_exact(codes["rep3"], bit_flip(0.5), -1)


def test_two_level_bitflip_average_channel(codes):
    # composing the bit-flip-preserving map with itself keeps the family
    # and squares into 3x/2 - x^3/2 on the X/Y diagonal entries
    x = 0.62
    ens = concatenate_exact(codes["bitflip2"], bit_flip(x), 2)
    avg = ens.average_channel().as_array()
    y = (3 * x - x ** 3) / 2
    want = np.array([(1 + y) / 2, (1 - y) / 2, 0.0, 0.0])
    assert np.allclose(avg, want, atol=1e-12)


@pytest.mark.parametrize("p", [0.062, 0.063])
def test_steane_depolarizing_level1_near_ties_collapse(codes, p):
    # here three syndromes carry one channel whose three largest classes
    # tie up to round-off; all three must optimize to one entry
    code = codes["steane"]
    noise = noise_family("depolarizing", p)
    ens = concatenate_exact(code, noise, 1)
    assert ens.size == 5
    streamed = exact_level_entropy(code, ChannelEnsemble.singleton(noise))
    assert ensemble_entropy(ens) == pytest.approx(streamed, abs=1e-12)


@pytest.mark.parametrize("family,p,skipped", [("depolarizing", 0.063, True),
                                               ("indep-flips", 0.1095, False)])
def test_skipped_boundary_merge_is_reported(codes, caplog, family, p, skipped):
    with caplog.at_level(logging.WARNING, logger="concatqec"):
        ens = concatenate_exact(codes["steane"], noise_family(family, p), 2)
    warnings = [r.getMessage() for r in caplog.records if r.name == "concatqec"]
    assert (ens.size > _Accumulator._MERGE_CAP) == skipped
    if skipped:
        assert len(warnings) == 1
        assert f"{ens.size} entries" in warnings[0] and f"{DEDUP_TOL:g}" in warnings[0]
    else:
        assert warnings == []


# ------------------------------------------------------- orbit enumeration

def random_ensemble(rng, size):
    return ChannelEnsemble(rng.dirichlet(np.ones(size)),
                           rng.dirichlet(np.ones(4), size=size))


def ordered(fn, *args):
    """fn run on the full ordered enumeration, the orbit path's oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensemble_module, "_assignment_chunks",
                   ensemble_module._ordered_chunks)
        return fn(*args)


@pytest.mark.parametrize("name,size", [("rep3", 3), ("five-qubit", 3), ("steane", 2)])
def test_orbit_table_matches_python_orbit_scan(codes, name, size):
    code = codes[name]
    group = qubit_automorphisms(code).tolist()
    want = {}
    for a in itertools.product(range(size), repeat=code.n):
        rep = min(tuple(a[g[k]] for k in range(code.n)) for g in group)
        want[rep] = want.get(rep, 0) + 1
    entries, mult = ensemble_module._orbit_table(code, size)
    got = {tuple(e): m for e, m in zip(entries.tolist(), mult.tolist())}
    assert got == want


@pytest.mark.parametrize("name", CODE_NAMES)
def test_orbit_entropy_matches_ordered_enumeration(codes, name):
    code = codes[name]
    rng = np.random.default_rng(5)
    for size in range(1, 6):
        child = random_ensemble(rng, size)
        want = ordered(exact_level_entropy, code, child)
        assert exact_level_entropy(code, child) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("name", CODE_NAMES)
def test_orbit_exact_level_matches_ordered_enumeration(codes, name):
    code = codes[name]
    rng = np.random.default_rng(6)
    for size in range(1, 4):
        child = random_ensemble(rng, size)
        got = exact_level(code, child)
        want = ordered(exact_level, code, child)
        assert got.size == want.size
        assert ensemble_entropy(got) == pytest.approx(ensemble_entropy(want), abs=1e-12)
        assert np.allclose(got.average_channel().as_array(),
                           want.average_channel().as_array(), rtol=0.0, atol=1e-12)


def test_random_code_orbit_paths_match_ordered_enumeration(random_codes):
    rng = np.random.default_rng(8)
    for code in random_codes:
        for size in range(1, 4):
            child = random_ensemble(rng, size)
            want = ordered(exact_level_entropy, code, child)
            assert exact_level_entropy(code, child) == pytest.approx(want, abs=1e-12)
            got, want = exact_level(code, child), ordered(exact_level, code, child)
            assert got.size == want.size, (code.name, size)
            assert ensemble_entropy(got) == pytest.approx(ensemble_entropy(want), abs=1e-12)
            assert np.allclose(got.average_channel().as_array(),
                               want.average_channel().as_array(), rtol=0.0, atol=1e-12)


def relabeled(code, perm):
    """The code with qubit j renamed perm[j]."""
    def move(e):
        letters = ["I"] * e.n
        for j, letter in enumerate(e.letters()):
            letters[perm[j]] = letter
        return PauliString.from_text("".join(letters))
    return StabilizerCode(code.name + "-relabeled", code.n, code.distance,
                          tuple(move(g) for g in code.generators),
                          move(code.logical_x), move(code.logical_z))


@pytest.mark.parametrize("name", CODE_NAMES)
def test_relabeled_code_gives_same_entropies(codes, name):
    code = codes[name]
    perm = np.random.default_rng(9).permutation(code.n).tolist()
    other = relabeled(code, perm)
    assert len(qubit_automorphisms(other)) == len(qubit_automorphisms(code))
    for family, p in (("depolarizing", 0.063), ("indep-flips", 0.11)):
        noise = noise_family(family, p)
        for level in (1, 2):
            want = exact_level_entropy(code, concatenate_exact(code, noise, level - 1))
            got = exact_level_entropy(other, concatenate_exact(other, noise, level - 1))
            assert got == pytest.approx(want, abs=1e-12), (family, level)


def test_shared_child_enumerates_orbits(codes):
    code = codes["five-qubit"]
    child = random_ensemble(np.random.default_rng(4), 2)
    chunks = list(ensemble_module._assignment_chunks(code, child))
    orbits = len(ensemble_module._orbit_table(code, 2)[1])
    assert sum(w.size for w, _ in chunks) == orbits < 2 ** code.n
    assert sum(w.sum() for w, _ in chunks) == pytest.approx(1.0, abs=1e-12)
