import itertools

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
    concatenate_exact,
    coset_map_probs,
    ensemble_entropy,
    exact_level,
    exact_level_entropy,
    noise_family,
)
from concatqec import ensemble as ensemble_module
from concatqec.channels import KLEIN
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

def optimized(row):
    """_optimize_rows on a one-row batch."""
    return _optimize_rows(np.asarray(row, dtype=float)[None, :])[0]


def test_optimize_recovery_identity_dominant():
    row = [0.7, 0.1, 0.1, 0.1]
    assert np.array_equal(optimized(row), row)


def test_optimize_recovery_tie_prefers_identity():
    row = [0.3, 0.3, 0.1, 0.3]
    assert np.array_equal(optimized(row), row)


def test_optimize_recovery_tie_prefers_x_over_z():
    # X and Z relabel this row differently: X swaps I<->X and Y<->Z
    assert np.array_equal(optimized([0.05, 0.4, 0.15, 0.4]), [0.4, 0.05, 0.4, 0.15])


def test_optimize_recovery_tie_prefers_z_over_y():
    # Z swaps I<->Z and X<->Y; Y would give [0.4, 0.4, 0.05, 0.15]
    assert np.array_equal(optimized([0.05, 0.15, 0.4, 0.4]), [0.4, 0.4, 0.15, 0.05])


def test_optimize_recovery_near_tie_prefers_identity():
    # a round-off deficit on I does not hand the recovery to X
    row = [0.3 - 1e-15, 0.3, 0.1, 0.3]
    assert np.array_equal(optimized(row), row)


def test_optimize_rows_near_tie_ignores_round_off():
    # copies of one channel whose three tied classes differ only by
    # round-off, each with the largest value on another class, optimize to
    # one row rather than to three Klein relabelings
    m, e, d = 0.2993755795164533, 0.10187326145064113, 5e-17
    rows = np.array([[m + d, m, e, m], [m, m + d, e, m], [m, m, e, m + d]])
    out = _optimize_rows(rows)
    assert np.allclose(out, [m, m, e, m], rtol=0.0, atol=1e-15)


@given(prob_vecs())
def test_optimize_recovery_moves_max_to_identity(q):
    row = q.as_array()
    out = optimized(row)
    assert out[0] == pytest.approx(row.max())
    assert any(np.array_equal(out, row[perm]) for perm in KLEIN)
    # a second pass has nothing left to do
    assert np.array_equal(optimized(out), out)


def test_optimize_recovery_quasi_channel_swap():
    # an X-dominant quasi-channel gets its I and X (and Y and Z) entries
    # swapped; the overall weight stays put
    out = optimized(0.125 * np.array([0.2, 0.5, 0.1, 0.2]))
    assert np.allclose(out, 0.125 * np.array([0.5, 0.2, 0.2, 0.1]))


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
        cond = optimized(rows[beta] / w)
        i = np.flatnonzero(np.abs(ens.weights - w) < 1e-12)
        assert i.size == 1
        assert np.allclose(ens.channels[i[0]], cond, atol=1e-12)


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


def test_budget_exceeded(codes, monkeypatch):
    code = codes["rep3"]
    base = exact_level(code, ChannelEnsemble.singleton(bit_flip(0.4)))
    assert base.size > 1
    monkeypatch.setattr(ensemble_module, "BUDGET", base.size ** code.n - 1)
    with pytest.raises(BudgetExceeded) as info:
        exact_level(code, base)
    assert info.value.combinations == base.size ** code.n
    assert "concatqec.ensemble.BUDGET" in str(info.value)
    monkeypatch.setattr(ensemble_module, "BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        exact_level_entropy(code, base)


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


def greedy_merge(weights, channels, tol):
    """Quadratic greedy scan, the oracle of ensemble._merge_close."""
    order = np.argsort(-weights, kind="stable")
    kept_rows = np.empty_like(channels)
    target = np.empty(weights.size, dtype=np.int64)
    kept = 0
    for i in order:
        hits = np.flatnonzero(
            np.abs(kept_rows[:kept] - channels[i]).max(axis=1) < tol)
        if hits.size:
            target[i] = hits[0]
            continue
        target[i] = kept
        kept_rows[kept] = channels[i]
        kept += 1
    out_w = np.zeros(kept)
    out_c = np.zeros((kept, 4))
    np.add.at(out_w, target, weights)
    np.add.at(out_c, target, weights[:, None] * channels)
    out_c /= out_w[:, None]
    return out_w, out_c


def test_merge_close_matches_greedy_scan():
    # clusters jittered by up to 1.5 tol, so chains of rows within tol of
    # each other straddle cluster members; odd seeds tie the weights
    for seed in range(500):
        rng = np.random.default_rng(seed)
        centers = rng.dirichlet(np.ones(4), size=rng.integers(1, 6))
        m = int(rng.integers(1, 60))
        channels = (centers[rng.integers(0, len(centers), m)]
                    + rng.uniform(-1.5 * DEDUP_TOL, 1.5 * DEDUP_TOL, (m, 4)))
        weights = rng.choice([0.1, 0.2, 0.3], m) if seed % 2 else rng.random(m)
        got = ensemble_module._merge_close(weights, channels)
        want = greedy_merge(weights, channels, DEDUP_TOL)
        assert np.array_equal(got[0], want[0]), seed
        assert np.array_equal(got[1], want[1]), seed


def test_accumulator_merges_grid_boundary_splits_of_many_rows():
    # 5000 channels 1000 tol apart, each with a copy 0.02 tol away on the
    # other side of a grid boundary of column 0
    x = (np.round(0.3 / DEDUP_TOL) + 1000 * np.arange(5000) + 0.49) * DEDUP_TOL
    x = np.concatenate([x, x + 0.02 * DEDUP_TOL])
    rows = np.column_stack([x, 1.0 - x, np.zeros_like(x), np.zeros_like(x)])
    acc = _Accumulator()
    acc.add(np.full(x.size, 1.0 / x.size), rows)
    weights, channels = acc.finish()
    assert weights.size == 5000
    assert np.allclose(weights, 2.0 / x.size, rtol=0.0, atol=1e-15)
    assert np.allclose(channels[:, 0], x[:5000] + 0.01 * DEDUP_TOL,
                       rtol=0.0, atol=1e-15)


def unique_compact(self):
    """_Accumulator._compact through np.unique(axis=0), the oracle of its sort."""
    keys, wc = np.concatenate(self._keys), np.concatenate(self._wc)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    out = np.column_stack([np.bincount(inverse.reshape(-1), col, uniq.shape[0])
                           for col in wc.T])
    self._keys, self._wc, self._pending = [uniq], [out], uniq.shape[0]


def key_cases():
    rng = np.random.default_rng(24)
    top = round(1 / DEDUP_TOL)
    edges = [np.iinfo(np.int64).min, -1, 0, 1, top, np.iinfo(np.int64).max]
    pool = np.vstack([rng.integers(-2**63, 2**63, size=(30, 4)),
                      rng.choice(edges, size=(30, 4))])
    return {
        "int64 with many duplicates": pool[rng.integers(0, 60, 3000)],
        "few values": rng.integers(-2, 2, size=(3000, 4)),
        "empty": np.empty((0, 4), dtype=np.int64),
        "one row": np.array([[top, 0, -5, 7]]),
        "all rows equal": np.full((50, 4), top),
        "only the last column differs": np.column_stack(
            [np.full((500, 3), 12345), rng.integers(0, 4, 500)]),
        "grid keys": rng.choice([0, 1, 2, top // 2, top - 1, top], size=(3000, 4)),
        "grid keys, one sum": np.column_stack(
            [k := rng.integers(0, top // 3, size=(2000, 3)) // 10**7 * 10**7,
             top - k.sum(axis=1)]),
    }


@pytest.mark.parametrize("case", list(key_cases()))
def test_compact_groups_rows_as_unique_does(case):
    keys = key_cases()[case]
    wc = np.random.default_rng(0).random((keys.shape[0], 5))
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    got_uniq, got_inverse = ensemble_module._key_groups(keys)
    assert got_uniq.dtype == uniq.dtype and np.array_equal(got_uniq, uniq)
    assert np.array_equal(got_inverse, inverse)
    acc = _Accumulator()
    acc._keys, acc._wc = [keys[:7], keys[7:]], [wc[:7], wc[7:]]
    acc._compact()
    assert np.array_equal(acc._keys[0], uniq)
    want = np.column_stack([np.bincount(inverse, col, uniq.shape[0]) for col in wc.T])
    assert acc._wc[0].tobytes() == want.tobytes()
    assert acc._pending == uniq.shape[0]


def compacting_mid_stream(monkeypatch, build):
    """build() with np.unique compaction at the real sizes, then with the real
    _compact over 16-assignment chunks, compacting every 64 rows; and the
    number of compactions in the second build."""
    with monkeypatch.context() as m:
        m.setattr(_Accumulator, "_compact", unique_compact)
        want = build()
    compactions = []
    compact = _Accumulator._compact
    with monkeypatch.context() as m:
        m.setattr(_Accumulator, "_compact",
                  lambda self: compactions.append(compact(self)))
        m.setattr(ensemble_module, "_MAX_BLOCKS", 16)
        m.setattr(_Accumulator, "_COMPACT_AT", 64)
        got = build()
    return want, got, len(compactions)


def assert_same_bytes(got, want):
    assert got.size == want.size
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.channels.tobytes() == want.channels.tobytes()


@pytest.mark.parametrize("name,family,p", [
    ("five-qubit", "indep-flips", 0.1095),
    ("steane", "indep-flips", 0.1096),
    ("five-qubit", "depolarizing", 0.0629),
])
def test_compacting_mid_stream_leaves_the_build_byte_identical(codes, monkeypatch,
                                                                name, family, p):
    # only builds of over 2^21 rows compact before finish() at the real sizes
    code, noise = codes[name], noise_family(family, p)
    want, got, compactions = compacting_mid_stream(
        monkeypatch, lambda: concatenate_exact(code, noise, 2))
    assert compactions > 2  # more than the two finish() calls
    assert_same_bytes(got, want)


def test_compacting_mid_stream_leaves_random_code_builds_byte_identical(
        random_codes, monkeypatch):
    # Both builds take 16-assignment chunks: on some random codes the kernel's
    # last bits move with the chunk size, whatever the accumulator does.
    monkeypatch.setattr(ensemble_module, "_MAX_BLOCKS", 16)
    # symmetric child channels give many rows per grid cell
    child = ChannelEnsemble(np.array([0.5, 0.3, 0.2]), np.array([
        noise_family(f, p).as_array()
        for f, p in [("depolarizing", 0.05), ("depolarizing", 0.1), ("indep-flips", 0.1)]]))
    builds = compactions = 0
    for code in random_codes:
        levels = [child]
        while len(levels) < 3 and levels[-1].size ** code.n <= 10 ** 4:
            want, got, n = compacting_mid_stream(
                monkeypatch, lambda: exact_level(code, levels[-1]))
            assert_same_bytes(got, want)
            levels.append(got)
            builds, compactions = builds + 1, compactions + n
    assert builds > len(random_codes)
    assert compactions > 4 * builds  # more than one finish() call per build


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
            streamed = exact_level_entropy(code, child)
            want = ordered(exact_level_entropy, code, child)
            assert streamed == pytest.approx(want, abs=1e-12)
            got, want = exact_level(code, child), ordered(exact_level, code, child)
            assert got.size == want.size, (code.name, size)
            assert ensemble_entropy(got) == pytest.approx(streamed, abs=1e-12)
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
