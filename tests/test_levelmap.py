import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concatqec import (
    ChannelError,
    CodeError,
    OneQubitSuperop,
    PauliProbVec,
    blind_map,
    coset_map_enumerate,
    coset_map_probs,
    general_map_oracle,
)
from concatqec import levelmap
from concatqec.codes import get_code
from concatqec.levelmap import BlockNoise, _batches, _blind_step, _coset_map_batch
from concatqec.channels import HAD4, KLEIN
from conftest import random_code

raw4 = st.lists(st.floats(1e-4, 1.0), min_size=4, max_size=4)


def normalized(raw):
    arr = np.asarray(raw)
    return PauliProbVec.from_array(arr / arr.sum())


def bit_flip(x):
    # diagonal [1, 1, x, x]
    return PauliProbVec.from_array([(1 + x) / 2, (1 - x) / 2, 0.0, 0.0])


def quasi_diags(code, noise):
    rows = coset_map_probs(code, noise)
    return rows @ HAD4.T


def test_identity_noise_concentrates_on_syndrome_zero(codes):
    for code in codes.values():
        rows = coset_map_probs(code, PauliProbVec.from_array([1, 0, 0, 0]))
        assert rows[0].sum() == pytest.approx(1.0)
        assert np.allclose(rows[0] / rows[0].sum(), [1, 0, 0, 0])
        for row in rows[1:]:
            assert row.sum() == pytest.approx(0.0, abs=1e-12)


@given(st.lists(raw4, min_size=5, max_size=5))
def test_syndrome_weights_sum_to_one(raws):
    code = get_code("five-qubit")
    noise = [normalized(r) for r in raws]
    rows = coset_map_probs(code, noise)
    assert rows.sum() == pytest.approx(1.0, abs=1e-10)
    assert rows.min() >= 0.0


@pytest.mark.parametrize("name", ["bitflip2", "rep3", "five-qubit", "steane"])
def test_enumeration_oracle_agreement(codes, name):
    code = codes[name]
    rng = np.random.default_rng(17)
    for _ in range(10):
        noise = [normalized(rng.uniform(0.01, 1.0, size=4))
                 for _ in range(code.n)]
        fast = coset_map_probs(code, noise)
        slow = coset_map_enumerate(code, noise)
        assert np.abs(fast - slow).max() < 1e-10


def test_random_code_enumeration_oracle_agreement(random_codes):
    rng = np.random.default_rng(19)
    for code in random_codes:
        noise = [normalized(rng.uniform(0.01, 1.0, size=4)) for _ in range(code.n)]
        fast = coset_map_probs(code, noise)
        slow = coset_map_enumerate(code, noise)
        assert np.abs(fast - slow).max() < 1e-10, code.name


def _kernel_blocks(n, rng, k=16):
    """k per-qubit noise blocks: random ones, then three edge cases."""
    probs = rng.uniform(0.01, 1.0, size=(k, n, 4))
    probs[-3] = [0.4, 0.6, 0.0, 0.0]  # negative superoperator diagonals
    probs[-2] = [1.0, 0.0, 0.0, 0.0]  # identity: every syndrome but 0 has weight 0
    probs[-1, ::2] = [1.0, 0.0, 0.0, 0.0]
    probs[-1, 1::2] = [0.4, 0.6, 0.0, 0.0]
    return probs / probs.sum(axis=-1, keepdims=True)


def _assert_batch_matches_enumeration(code, probs):
    got = _coset_map_batch(code, probs @ HAD4.T)
    assert got.shape == (len(probs), code.n_syndromes, 4)
    for block, rows in zip(probs, got):
        want = coset_map_enumerate(code, [PauliProbVec.from_array(q) for q in block])
        assert np.abs(rows - want).max() < 1e-12, code.name


@pytest.mark.parametrize("name", ["bitflip2", "rep3", "five-qubit", "steane"])
def test_batch_kernel_matches_enumeration(codes, name):
    code = codes[name]
    _assert_batch_matches_enumeration(code, _kernel_blocks(code.n, np.random.default_rng(29)))


def test_random_code_batch_kernel_matches_enumeration(random_codes):
    # random_code(8, 0) has a 4 x 128 x 128 transform, past the bundled sizes
    rng = np.random.default_rng(31)
    for code in [*random_codes, random_code(8, 0)]:
        _assert_batch_matches_enumeration(code, _kernel_blocks(code.n, rng))


def test_blind_step_matches_batch_kernel_and_enumeration(codes, random_codes):
    # the one-block kernel repeats the batched arithmetic, so it must agree
    # bit for bit; the enumeration is the structurally independent oracle
    rng = np.random.default_rng(37)
    for code in [*codes.values(), *random_codes]:
        for probs in _kernel_blocks(1, rng, k=8)[:, 0]:
            diag = HAD4 @ probs
            got = _blind_step(code, diag)
            batch = _coset_map_batch(code, np.broadcast_to(diag, (1, code.n, 4)))
            assert got.tobytes() == batch[0].sum(axis=0).tobytes(), code.name
            want = coset_map_enumerate(code, PauliProbVec.from_array(probs))
            assert np.abs(got - want.sum(axis=0)).max() < 1e-12, code.name


def test_bitflip2_syndrome_channels_closed_form(codes):
    bf2 = codes["bitflip2"]
    for x in (0.1, 0.35, 0.8):
        d = quasi_diags(bf2, bit_flip(x))
        assert np.allclose(d[0], [(1 + x * x) / 2] * 2 + [x, x], atol=1e-12)
        assert np.allclose(d[1], [(1 - x * x) / 2] * 2 + [0, 0], atol=1e-12)


@given(raw4, raw4)
def test_bitflip2_syndrome_map_rows(raw_a, raw_b):
    # Syndrome 0: [II+ZZ, XX+YY, XY+YX, IZ+ZI] / 2 in per-qubit diagonal
    # shorthand; syndrome 1 under recovery XI flips the second terms' signs.
    bf2 = get_code("bitflip2")
    a, b = normalized(raw_a), normalized(raw_b)
    da, db = (HAD4 @ q.as_array() for q in (a, b))
    d = quasi_diags(bf2, [a, b])
    want0 = 0.5 * np.array([
        da[0] * db[0] + da[3] * db[3],
        da[1] * db[1] + da[2] * db[2],
        da[1] * db[2] + da[2] * db[1],
        da[0] * db[3] + da[3] * db[0],
    ])
    want1 = 0.5 * np.array([
        da[0] * db[0] - da[3] * db[3],
        da[1] * db[1] - da[2] * db[2],
        da[1] * db[2] - da[2] * db[1],
        da[0] * db[3] - da[3] * db[0],
    ])
    assert np.allclose(d[0], want0, atol=1e-12)
    assert np.allclose(d[1], want1, atol=1e-12)


def test_bitflip2_recovery_relabeling(codes):
    # Recovery IX instead of XI relabels syndrome 1 by a logical X:
    # [II-ZZ, XX-YY, YX-XY, ZI-IZ] / 2, a sign flip of the Y and Z entries.
    bf2 = codes["bitflip2"]
    rng = np.random.default_rng(3)
    sup = [OneQubitSuperop.from_probs(normalized(rng.uniform(0.01, 1, 4)))
           for _ in range(2)]
    xi = general_map_oracle(bf2, sup)
    ix = general_map_oracle(bf2, sup, recoveries=[
        bf2.representatives[0],
        bf2.class_representative("X") * bf2.representatives[1],
    ])
    flip = np.diag([1.0, 1.0, -1.0, -1.0])
    assert np.allclose(ix[1], flip @ xi[1], atol=1e-12)
    assert np.allclose(ix[0], xi[0], atol=1e-12)


def test_blind_map_fixes_bit_flip_family(codes):
    bf2 = codes["bitflip2"]
    for x in np.linspace(0.0, 1.0, 11):
        q = bit_flip(x)
        out = blind_map(bf2, q)
        assert np.allclose(out.as_array(), q.as_array(), atol=1e-12)


def test_blind_map_identity_fixed_point(codes):
    for code in codes.values():
        ident = PauliProbVec.from_array([1, 0, 0, 0])
        assert np.allclose(blind_map(code, ident).as_array(), [1, 0, 0, 0])


def test_blind_map_rejects_unnormalized_input(codes):
    with pytest.raises(ChannelError):
        blind_map(codes["five-qubit"], PauliProbVec.from_array([0.5, 0.1, 0.1, 0.1]))


def test_blind_map_preserves_depolarizing_symmetry(codes):
    from concatqec import noise_family
    out = blind_map(codes["five-qubit"], noise_family("depolarizing", 0.05))
    arr = out.as_array()
    assert arr[1] == pytest.approx(arr[2], rel=1e-10)
    assert arr[2] == pytest.approx(arr[3], rel=1e-10)
    assert arr.sum() == pytest.approx(1.0, abs=1e-12)


def test_general_oracle_identity_superops(codes):
    bf2 = codes["bitflip2"]
    g = general_map_oracle(bf2, OneQubitSuperop.identity())
    assert np.allclose(g[0], np.eye(4), atol=1e-12)
    assert np.allclose(g[1], 0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["bitflip2", "rep3"])
def test_general_oracle_matches_fast_path_on_diagonal_noise(codes, name):
    code = codes[name]
    rng = np.random.default_rng(11)
    noise = [normalized(rng.uniform(0.01, 1, 4)) for _ in range(code.n)]
    g = general_map_oracle(code, [OneQubitSuperop.from_probs(q) for q in noise])
    for beta in range(code.n_syndromes):
        off_diag = g[beta] - np.diag(np.diag(g[beta]))
        assert np.abs(off_diag).max() < 1e-12
    diags = np.stack([np.diag(g[beta]) for beta in range(code.n_syndromes)])
    rows = (diags @ HAD4.T) / 4.0  # diagonal -> probability transform
    assert np.allclose(rows, coset_map_probs(code, noise), atol=1e-10)


def test_general_oracle_closed_form_entry(codes):
    # For recovery IX, the logical X row / Z column entry equals
    # (N_XX,IZ + N_XX,ZI + N_YY,IZ + N_YY,ZI) / 2 of the two-qubit
    # superoperator N, with letter indices in qubit-0-major base 4.
    # The signs follow from sandwiching the recovery after the noise:
    # the encoding column X has terms +XX and -YY, and conjugating the
    # output term through IX contributes eta(IX, XX) = +1 on the first
    # and eta(IX, YY) = -1 on the second, so both products come out +1.
    bf2 = codes["bitflip2"]
    rng = np.random.default_rng(23)
    for _ in range(20):
        sup = []
        for _ in range(2):
            m = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
            m[0] = [1, 0, 0, 0]  # keep it trace preserving
            sup.append(OneQubitSuperop(m))
        n_full = np.kron(sup[0].m, sup[1].m)
        ix = bf2.class_representative("X") * bf2.representatives[1]
        g = general_map_oracle(bf2, sup,
                               recoveries=[bf2.representatives[0], ix])
        idx = {"XX": 5, "YY": 10, "IZ": 3, "ZI": 12}
        want = 0.5 * (n_full[idx["XX"], idx["IZ"]] + n_full[idx["XX"], idx["ZI"]]
                      + n_full[idx["YY"], idx["IZ"]] + n_full[idx["YY"], idx["ZI"]])
        assert g[1][1, 3] == pytest.approx(want, abs=1e-12)


_SIGMA = [np.eye(2, dtype=complex),
          np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex)]


def _random_kraus(rng, m=3):
    # random one-qubit CPTP channel via a Stinespring isometry
    g = rng.standard_normal((2 * m, 2)) + 1j * rng.standard_normal((2 * m, 2))
    q = np.linalg.qr(g)[0]
    return [q[2 * k:2 * k + 2, :] for k in range(m)]


def _superop_matrix(kraus):
    m = np.zeros((4, 4))
    for u in range(4):
        out = sum(k @ _SIGMA[u] @ k.conj().T for k in kraus)
        for t in range(4):
            m[t, u] = np.real(np.trace(_SIGMA[t].conj().T @ out)) / 2.0
    return m


def test_general_oracle_matches_density_matrix_simulation(codes):
    # Brute-force ground truth: encode each logical Pauli, apply the full
    # product channel as Kraus operators, project onto the syndrome
    # subspace, conjugate by the recovery, and read the logical Pauli
    # coefficients back out of the density matrix.
    bf2 = codes["bitflip2"]
    rng = np.random.default_rng(41)
    kraus = [_random_kraus(rng) for _ in range(2)]
    full_kraus = [np.kron(a, b) for a in kraus[0] for b in kraus[1]]
    g = general_map_oracle(bf2, [OneQubitSuperop(_superop_matrix(k))
                                 for k in kraus])

    def two_q(p):
        # sign_exponent already folds the -i per Y letter into the phase
        mats = [_SIGMA["IXYZ".index(c)] for c in p.letters()]
        return (1j ** p.sign_exponent()) * np.kron(mats[0], mats[1])

    proj = (np.eye(4) + two_q(bf2.generators[0])) / 2.0
    bars = [two_q(bf2.class_representative(c)) for c in "IXYZ"]
    for beta in range(bf2.n_syndromes):
        rec = two_q(bf2.representatives[beta])
        pi = rec @ proj @ rec.conj().T
        for b in range(4):
            rho = bars[b] @ proj
            rho = sum(k @ rho @ k.conj().T for k in full_kraus)
            rho = rec @ (pi @ rho @ pi) @ rec.conj().T
            for a in range(4):
                want = np.real(np.trace(bars[a] @ proj @ rho)) / 2.0
                assert g[beta][a, b] == pytest.approx(want, abs=1e-12)


def test_general_oracle_rejects_large_codes(codes):
    with pytest.raises(CodeError):
        general_map_oracle(codes["five-qubit"], OneQubitSuperop.identity())


def test_block_noise_validation(codes):
    bf2 = codes["bitflip2"]
    with pytest.raises(ChannelError):
        BlockNoise.coerce([bit_flip(0.5)], 2)
    with pytest.raises(ChannelError):
        BlockNoise.coerce(PauliProbVec.from_array([0.5, 0, 0, 0]), 2)
    bn = BlockNoise.coerce(bit_flip(0.5), 2)
    assert len(bn.per_qubit) == 2


def test_recovery_relabeling_matches_probability_permutation(codes):
    # In the probability picture the IX recovery permutes syndrome 1's
    # channel by a logical X.
    bf2 = codes["bitflip2"]
    x = 0.4
    row = coset_map_probs(bf2, bit_flip(x))[1]
    relabeled = row[KLEIN[1]] / row.sum()
    sup = [OneQubitSuperop.from_probs(bit_flip(x))] * 2
    ix = bf2.class_representative("X") * bf2.representatives[1]
    g = general_map_oracle(bf2, sup, recoveries=[bf2.representatives[0], ix])
    quasi = (np.diag(g[1]) @ HAD4.T) / 4.0
    assert np.allclose(quasi / quasi.sum(), relabeled, atol=1e-12)


@pytest.mark.parametrize("max_blocks", [1, 2, 3, 16, 4096])
@pytest.mark.parametrize("per_item", [1, 7, 343, 5000])
def test_batches_cover_every_item_once_without_a_lone_slice(monkeypatch, max_blocks,
                                                            per_item):
    monkeypatch.setattr(levelmap, "_MAX_BLOCKS", max_blocks)
    cap = max(1, max_blocks // per_item)
    for items in sorted({1, 2, 3, cap, cap + 1, cap + 2, 2 * cap + 1, 5 * cap + 3, 9000}):
        batches = _batches(items, per_item)
        # in order, each item once
        assert [i for b in batches for i in range(items)[b]] == list(range(items))
        sizes = [b.stop - b.start for b in batches]
        assert max(sizes) <= cap + 1
        if cap == 1:  # one item per slice, but the last two share one
            assert sizes == [1] * (items - 2) + [2] if items > 1 else sizes == [1]
        elif items > 1:
            assert min(sizes) > 1
