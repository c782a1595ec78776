"""Release gate: one test per numbered acceptance criterion.

Each pytest line below is the pass or fail verdict for one criterion, at the
tolerance stated next to its reference value.  Two quoted items cannot be met
as printed; each is kept as a strict-xfail twin carrying the numeric analysis
in its reason string, next to a passing test of the corrected statement, so a
silent regression in either direction still trips the gate.
"""

import time

import numpy as np
import pytest

from concatqec import (
    builtin_codes,
    concatenate_exact,
    entropy_critical_p,
    exact_level_entropy,
    get_code,
    mc_concatenate,
    noise_family,
    unoptimized_threshold,
)
from concatqec.channels import HAD4, OneQubitSuperop, PauliProbVec, entropy
from concatqec.codes import encoding_column
from concatqec.levelmap import (
    BlockNoise,
    blind_map,
    coset_map_enumerate,
    coset_map_probs,
    general_map_oracle,
)
from concatqec.pauli import PauliString

# Reference critical values (fractions, quoted to 9 significant digits).
QUOTED_DEP_LEVEL0 = 6.30965616e-2  # 8th digit is a misrounding; see below
TRUE_DEP_LEVEL0 = 6.309654163841e-2  # root of h(3p) + 3p*log2(3) = 1
QUOTED_INDEP_LEVEL0 = 11.00278644e-2

LEVEL1_VALUES = {
    ("five-qubit", "depolarizing"): 6.29873094e-2,
    ("steane", "depolarizing"): 6.25921455e-2,
    ("five-qubit", "indep-flips"): 10.94668310e-2,
    ("steane", "indep-flips"): 10.94286393e-2,
}

LEVEL2_VALUES = {
    ("five-qubit", "depolarizing"): 6.29795843e-2,
    ("five-qubit", "indep-flips"): 10.94728109e-2,
    ("steane", "depolarizing"): 6.26714580e-2,
    ("steane", "indep-flips"): 10.95683308e-2,
}

UNOPTIMIZED_VALUES = {
    ("five-qubit", "depolarizing"): 4.58758548e-2,
    ("steane", "depolarizing"): 3.22981197e-2,
    ("five-qubit", "indep-flips"): 7.14780025e-2,
    ("steane", "indep-flips"): 6.45962393e-2,
}

_SIGMA = [np.eye(2, dtype=complex),
          np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex)]


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _random_superop(rng, m: int = 3) -> OneQubitSuperop:
    """Random completely positive trace-preserving map, generally non-diagonal."""
    a = rng.normal(size=(2 * m, 2)) + 1j * rng.normal(size=(2 * m, 2))
    q, _ = np.linalg.qr(a)
    kraus = [q[2 * i:2 * i + 2, :] for i in range(m)]
    s = np.empty((4, 4))
    for col in range(4):
        for row in range(4):
            s[row, col] = np.real(sum(
                np.trace(_SIGMA[row] @ k @ _SIGMA[col] @ k.conj().T)
                for k in kraus)) / 2.0
    return OneQubitSuperop(s)


def _bit_flip_probs(x: float) -> PauliProbVec:
    """Channel with superoperator diagonal [1, 1, x, x] (flip rate (1-x)/2)."""
    return PauliProbVec.from_array(HAD4 @ np.array([1.0, 1.0, x, x]) / 4.0)


def test_criterion_1_level0_entropy_roots():
    start = time.perf_counter()
    dep = entropy_critical_p(None, "depolarizing", 0, tol=1e-13)
    indep = entropy_critical_p(None, "indep-flips", 0, tol=1e-13)
    elapsed = time.perf_counter() - start
    assert rel(indep.p_star, QUOTED_INDEP_LEVEL0) < 1e-8
    # The quoted depolarizing cell is 6.30965616e-2; its 8th digit does not
    # match the root of its own defining equation (strict-xfail twin below),
    # so the gate pins the corrected rounding and the residual instead.
    assert rel(dep.p_star, 6.30965416e-2) < 1e-8
    assert entropy(noise_family("depolarizing", dep.p_star)) == pytest.approx(1.0, abs=1e-10)
    assert entropy(noise_family("indep-flips", indep.p_star)) == pytest.approx(1.0, abs=1e-10)
    assert elapsed < 1.0


@pytest.mark.xfail(strict=True, reason=(
    "the quoted level-0 depolarizing value 6.30965616e-2 is 3.2e-7 relative "
    "away from the root of h(3p) + 3p*log2(3) = 1, which a 200-step "
    "extended-precision bisection places at 6.309654163841e-2; agreement to "
    "1e-8 relative is numerically impossible for the quoted digits"))
def test_criterion_1_depolarizing_digits_as_quoted():
    dep = entropy_critical_p(None, "depolarizing", 0, tol=1e-13)
    assert rel(dep.p_star, QUOTED_DEP_LEVEL0) < 1e-8


def test_criterion_2_level1_adaptive_critical_values():
    for (name, family), want in LEVEL1_VALUES.items():
        cp = entropy_critical_p(get_code(name), family, 1, tol=1e-10)
        assert rel(cp.p_star, want) < 1e-7, (name, family, cp.p_star)
        assert cp.method == "exact" and cp.uncertainty == 0.0


def test_criterion_3_level2_adaptive_critical_values():
    # The steane depolarizing cell enumerates the largest deduplicated
    # level-2 ensemble; by orbits of the code's 168 qubit automorphisms the
    # whole test takes under a second.
    for (name, family), want in LEVEL2_VALUES.items():
        cp = entropy_critical_p(get_code(name), family, 2, tol=1e-9)
        assert rel(cp.p_star, want) < 1e-6, (name, family, cp.p_star)
        assert cp.method == "exact" and cp.uncertainty == 0.0


def test_criterion_4_unoptimized_thresholds():
    for (name, family), want in UNOPTIMIZED_VALUES.items():
        cp = unoptimized_threshold(get_code(name), family, tol=1e-9)
        assert rel(cp.p_star, want) < 1e-6, (name, family, cp.p_star)
        assert cp.method == "unoptimized" and cp.level == -1


def test_criterion_5_two_qubit_code_algebra():
    bf2 = get_code("bitflip2")

    # Encoded Pauli representatives and signed encoding columns.
    reps = {s: bf2.class_representative(s).letters() for s in "IXYZ"}
    assert reps == {"I": "II", "X": "XX", "Y": "XY", "Z": "IZ"}
    cols = {s: {t.letters(): 1 - t.sign_exponent() for t in encoding_column(bf2, s)}
            for s in "IXYZ"}
    assert cols == {
        "I": {"II": 1, "ZZ": 1},
        "X": {"XX": 1, "YY": -1},
        "Y": {"XY": 1, "YX": 1},
        "Z": {"IZ": 1, "ZI": 1},
    }

    # Per-syndrome maps for diagonal noise: with distinct diagonals a, b on
    # the two qubits, entry products "AB" mean a[A] * b[B], and the two
    # syndrome-1 recoveries differ exactly in their cross-term order.
    I, X, Y, Z = range(4)
    rows_by_recovery = {
        "II": [(I, I, 1, Z, Z, 1), (X, X, 1, Y, Y, 1),
               (X, Y, 1, Y, X, 1), (I, Z, 1, Z, I, 1)],
        "XI": [(I, I, 1, Z, Z, -1), (X, X, 1, Y, Y, -1),
               (X, Y, 1, Y, X, -1), (I, Z, 1, Z, I, -1)],
        "IX": [(I, I, 1, Z, Z, -1), (X, X, 1, Y, Y, -1),
               (Y, X, 1, X, Y, -1), (Z, I, 1, I, Z, -1)],
    }
    identity = PauliString.from_text("II")
    rng = np.random.default_rng(20260815)
    for _ in range(10):
        pa, pb = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        da, db = HAD4 @ pa, HAD4 @ pb
        superops = [OneQubitSuperop(np.diag(da)), OneQubitSuperop(np.diag(db))]
        for rec_text, rows in rows_by_recovery.items():
            beta = 0 if rec_text == "II" else 1
            recs = [identity, PauliString.from_text("XI" if beta == 0 else rec_text)]
            g = general_map_oracle(bf2, superops, recoveries=recs)[beta]
            want = np.array([0.5 * (s1 * da[a1] * db[b1] + s2 * da[a2] * db[b2])
                             for a1, b1, s1, a2, b2, s2 in rows])
            assert np.allclose(np.diag(g), want, atol=1e-12), rec_text
            assert np.max(np.abs(g - np.diag(np.diag(g)))) < 1e-12

    # Blind level map fixes the bit-flip family pointwise...
    for x in np.arange(0.1, 0.95, 0.1):
        probs = _bit_flip_probs(x)
        assert np.allclose(blind_map(bf2, probs).as_array(),
                           probs.as_array(), atol=1e-12)
        # ...while the optimized two-level average contracts it.
        avg = concatenate_exact(bf2, probs, 2).average_channel()
        diag = HAD4 @ avg.as_array()
        y = 1.5 * x - 0.5 * x ** 3
        assert np.allclose(diag, [1.0, 1.0, y, y], atol=1e-12), x


def test_criterion_6_level2_crossing_below_level0():
    # Deterministic check that the exact level-2 depolarizing crossing sits
    # at least 0.01 percentage points below the quoted level-0 value, so the
    # limiting threshold cannot equal the level-0 crossing.
    cp = entropy_critical_p(get_code("five-qubit"), "depolarizing", 2, tol=1e-9)
    assert cp.uncertainty == 0.0
    assert cp.p_star <= QUOTED_DEP_LEVEL0 - 1e-4


def test_criterion_7_coset_map_matches_error_enumeration(codes):
    rng = np.random.default_rng(7)
    for code in codes.values():
        for _ in range(100):
            block = BlockNoise(tuple(
                PauliProbVec.from_array(row)
                for row in rng.dirichlet(np.ones(4), size=code.n)))
            fast = coset_map_probs(code, block)
            slow = coset_map_enumerate(code, block)
            assert np.max(np.abs(fast - slow)) < 1e-10, code.name


def test_criterion_7_general_oracle_closed_form_entry():
    # Entry (X, Z) of the syndrome-1 superoperator under recovery IX, as a
    # signed combination of tensor-noise matrix elements.  Indices are base-4
    # with qubit 0 leading: XX=5, YY=10, IZ=3, ZI=12.
    bf2 = get_code("bitflip2")
    recs = [PauliString.from_text("II"), PauliString.from_text("IX")]
    rng = np.random.default_rng(42)
    for _ in range(40):
        superops = [_random_superop(rng), _random_superop(rng)]
        n_full = np.kron(superops[0].m, superops[1].m)
        g = general_map_oracle(bf2, superops, recoveries=recs)[1]
        want = 0.5 * (n_full[5, 3] + n_full[5, 12]
                      + n_full[10, 3] + n_full[10, 12])
        assert g[1, 3] == pytest.approx(want, abs=1e-12)


@pytest.mark.xfail(strict=True, reason=(
    "the quoted sign pattern (-, +, +, -) applies the recovery's commutation "
    "signs on the input index, i.e. recovery before noise; density-matrix "
    "simulation of encode, noise, syndrome projection, recovery, decode "
    "(tests/test_levelmap.py) confirms the output-index all-plus form "
    "implemented here.  The two coincide exactly when the noise is diagonal, "
    "where this matrix entry vanishes, so no diagonal-noise result is "
    "affected"))
def test_criterion_7_closed_form_signs_as_quoted():
    bf2 = get_code("bitflip2")
    recs = [PauliString.from_text("II"), PauliString.from_text("IX")]
    rng = np.random.default_rng(42)
    superops = [_random_superop(rng), _random_superop(rng)]
    n_full = np.kron(superops[0].m, superops[1].m)
    g = general_map_oracle(bf2, superops, recoveries=recs)[1]
    quoted = 0.5 * (-n_full[5, 3] + n_full[5, 12]
                    + n_full[10, 3] - n_full[10, 12])
    assert g[1, 3] == pytest.approx(quoted, abs=1e-10)


def test_criterion_8_mc_within_three_sigma_of_exact():
    # Deeper levels, where no exact value fits in any budget, are exercised
    # as a best-effort consistency run by `concatqec reproduce-tables --levels N`.
    five = get_code("five-qubit")
    noise = noise_family("depolarizing", 0.063)
    for level in (1, 2):
        children = concatenate_exact(five, noise, level - 1)
        exact = exact_level_entropy(five, children)
        est = mc_concatenate(five, noise, level, 10_000, seed=2026)
        assert est.std_error < 0.01
        assert abs(est.mean_entropy - exact) <= 3.0 * est.std_error, level
