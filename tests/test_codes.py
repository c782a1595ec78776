import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concatqec import (
    CodeError,
    PauliString,
    StabilizerCode,
    builtin_codes,
    encoding_column,
    enumerate_group,
    eta,
    PauliProbVec,
    coset_map_probs,
    get_code,
    multiply,
)
from concatqec.codes import load_code_text, qubit_automorphisms


def all_paulis(n):
    for text in itertools.product("IXYZ", repeat=n):
        yield PauliString.from_text("".join(text))


def test_builtin_inventory(codes):
    assert set(codes) == {"bitflip2", "rep3", "five-qubit", "steane"}
    assert (codes["bitflip2"].n, codes["bitflip2"].distance) == (2, 1)
    assert (codes["rep3"].n, codes["rep3"].distance) == (3, 1)
    assert (codes["five-qubit"].n, codes["five-qubit"].distance) == (5, 3)
    assert (codes["steane"].n, codes["steane"].distance) == (7, 3)


def test_get_code_normalizes_name():
    assert get_code("five_qubit").name == "five-qubit"
    with pytest.raises(CodeError):
        get_code("shor9")


def test_bitflip2_structure(codes):
    bf2 = codes["bitflip2"]
    assert [g.letters() for g in bf2.generators] == ["ZZ"]
    assert bf2.logical_x.letters() == "XX"
    assert bf2.logical_z.letters() == "IZ"
    assert bf2.n_syndromes == 2


def test_bitflip2_syndromes(codes):
    bf2 = codes["bitflip2"]
    assert bf2.syndrome_of(PauliString.from_text("XI")) == 1
    assert bf2.syndrome_of(PauliString.from_text("ZI")) == 0
    assert bf2.representatives[0].letters() == "II"
    assert bf2.representatives[1].letters() == "XI"


def test_bitflip2_logical_classes(codes):
    bf2 = codes["bitflip2"]
    assert bf2.logical_class(PauliString.from_text("XX")) == 1
    assert bf2.logical_class(PauliString.from_text("IZ")) == 3
    assert bf2.class_representative("I").letters() == "II"
    assert bf2.class_representative("X").letters() == "XX"
    assert bf2.class_representative("Y").letters() == "XY"
    assert bf2.class_representative("Z").letters() == "IZ"


def signed_letters(terms):
    return sorted((t.letters(), t.sign_exponent()) for t in terms)


def test_bitflip2_encoding_columns(codes):
    bf2 = codes["bitflip2"]
    assert signed_letters(encoding_column(bf2, "I")) == [("II", 0), ("ZZ", 0)]
    assert signed_letters(encoding_column(bf2, "X")) == [("XX", 0), ("YY", 2)]
    assert signed_letters(encoding_column(bf2, "Y")) == [("XY", 0), ("YX", 0)]
    assert signed_letters(encoding_column(bf2, "Z")) == [("IZ", 0), ("ZI", 0)]


@pytest.mark.parametrize("name", ["bitflip2", "rep3", "five-qubit", "steane"])
def test_syndrome_class_partition(codes, name):
    # Every (syndrome, class) bin holds exactly |S| = 2^(n-1) errors.
    code = codes[name]
    bins = {}
    for e in all_paulis(code.n):
        key = (code.syndrome_of(e), code.logical_class(e))
        bins[key] = bins.get(key, 0) + 1
    assert len(bins) == code.n_syndromes * 4
    assert set(bins.values()) == {2 ** (code.n - 1)}


@pytest.mark.parametrize("name", ["bitflip2", "rep3", "five-qubit", "steane"])
def test_stabilizer_multiplication_invariance(codes, name):
    code = codes[name]
    sample = itertools.islice(all_paulis(code.n), 0, None, 7)
    for e in itertools.islice(sample, 40):
        for s in code.stabilizer_elements()[:4]:
            es = multiply(e, s)
            assert code.syndrome_of(es) == code.syndrome_of(e)
            assert code.logical_class(es) == code.logical_class(e)


@pytest.mark.parametrize("name", ["bitflip2", "rep3", "five-qubit", "steane"])
def test_representatives_have_their_syndrome(codes, name):
    code = codes[name]
    assert len(code.representatives) == code.n_syndromes
    for beta, rep in enumerate(code.representatives):
        assert code.syndrome_of(rep) == beta
        assert rep.sign_exponent() == 0


@pytest.mark.parametrize("name", ["bitflip2", "rep3"])
def test_representatives_are_min_weight(codes, name):
    code = codes[name]
    best = {}
    for e in all_paulis(code.n):
        beta = code.syndrome_of(e)
        best[beta] = min(best.get(beta, code.n + 1), e.weight())
    for beta, rep in enumerate(code.representatives):
        assert rep.weight() == best[beta]


def test_five_qubit_representatives_are_single_errors(codes):
    reps = codes["five-qubit"].representatives
    assert reps[0].weight() == 0
    assert all(r.weight() == 1 for r in reps[1:])


def test_steane_mixed_representatives_avoid_y(codes):
    # A CSS code decodes X and Z sectors independently; a mixed syndrome
    # with its halves on different qubits must pick an XZ pair, never Y.
    steane = codes["steane"]
    for rep in steane.representatives:
        if rep.weight() == 2:
            assert "Y" not in rep.letters()


def test_logical_class_of_stabilizer_times_logical(codes):
    for code in codes.values():
        for s in code.stabilizer_elements()[:8]:
            assert code.logical_class(multiply(s, code.logical_x)) == 1
            assert code.logical_class(multiply(s, code.logical_z)) == 3


def test_load_code_text_round_trip(codes):
    text = """
# parity-check flavor of the two-qubit code
name parity2
n 2
distance 1
generator XX
logical_x XI
logical_z ZZ
"""
    code = load_code_text(text)
    assert code.name == "parity2"
    assert code.syndrome_of(PauliString.from_text("ZI")) == 1


def test_load_code_text_errors():
    with pytest.raises(CodeError):
        load_code_text("name bad\nn 2\ndistance 1\ngenerator ZZ\n"
                       "generator XX\nlogical_x XX\nlogical_z IZ\n")
    with pytest.raises(CodeError):
        load_code_text("name bad\nn 2\ndistance 1\ngenerator ZZ\n"
                       "logical_x XI\nlogical_z IZ\n")
    with pytest.raises(CodeError):
        load_code_text("name bad\nn 2\nbogus 1\n")


def test_constructor_rejects_anticommuting_generators():
    with pytest.raises(CodeError):
        StabilizerCode(
            name="bad", n=2, distance=1,
            generators=(PauliString.from_text("XZ"),),
            logical_x=PauliString.from_text("XX"),
            logical_z=PauliString.from_text("IZ"))


def test_generator_commutation(codes):
    for code in codes.values():
        gens = code.generators
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                assert eta(a, b) == 1
        assert eta(code.logical_x, code.logical_z) == -1
        assert len(enumerate_group(list(gens))) == 2 ** (code.n - 1)


# ------------------------------------------------------------ automorphisms

def permuted(e, perm):
    """e with the letter of qubit j moved to qubit perm[j], sign kept."""
    letters = ["I"] * e.n
    for j, letter in enumerate(e.letters()):
        letters[perm[j]] = letter
    text = str(e)
    return PauliString.from_text(text[:len(text) - e.n] + "".join(letters))


def brute_force_automorphisms(code):
    """Scan all n! permutations through the public syndrome/class API."""
    stab = set(code.stabilizer_elements())
    found = []
    for perm in itertools.permutations(range(code.n)):
        if (all(permuted(g, perm) in stab for g in code.generators)
                and code.logical_class(permuted(code.logical_x, perm)) == 1
                and code.logical_class(permuted(code.logical_z, perm)) == 3
                and all(code.logical_class(permuted(r, perm)) == 0
                        for r in code.representatives)):
            found.append(perm)
    return found


@pytest.mark.parametrize("name,order", [
    ("bitflip2", 1), ("rep3", 6), ("five-qubit", 10), ("steane", 168)])
def test_qubit_automorphisms_match_brute_force(codes, name, order):
    code = codes[name]
    group = qubit_automorphisms(code)
    assert group.shape == (order, code.n)
    assert [tuple(g) for g in group.tolist()] == brute_force_automorphisms(code)


@pytest.mark.parametrize("name", ["bitflip2", "rep3", "five-qubit", "steane"])
def test_automorphisms_only_relabel_syndromes(codes, name):
    # Moving qubit j's noise to qubit g[j] sends syndrome beta to the
    # syndrome of the moved representative, with the same class row.
    code = codes[name]
    rng = np.random.default_rng(11)
    noise = [PauliProbVec.from_array(rng.dirichlet(np.ones(4))) for _ in range(code.n)]
    probs = coset_map_probs(code, noise)
    for perm in qubit_automorphisms(code).tolist():
        moved = [None] * code.n
        for j, q in enumerate(perm):
            moved[q] = noise[j]
        got = coset_map_probs(code, moved)
        for beta, rep in enumerate(code.representatives):
            image = code.syndrome_of(permuted(rep, perm))
            assert np.allclose(got[image], probs[beta], rtol=0.0, atol=1e-14)


def test_random_code_automorphisms_match_brute_force(random_codes):
    orders = set()
    for code in random_codes:
        group = qubit_automorphisms(code)
        orders.add(len(group))
        assert [tuple(g) for g in group.tolist()] == brute_force_automorphisms(code), code.name
    assert {1, 2, 6, 24} <= orders
