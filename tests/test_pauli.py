import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concatqec import PauliError, PauliString, enumerate_group, eta, multiply
from concatqec.levelmap import pauli_matrix

letters = st.text(alphabet="IXYZ", min_size=1, max_size=4)
pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.text(alphabet="IXYZ", min_size=n, max_size=n)] * 2))
triples = st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.text(alphabet="IXYZ", min_size=n, max_size=n)] * 3))


@given(letters)
def test_text_round_trip(s):
    assert PauliString.from_text(s).letters() == s


def test_constructors():
    assert PauliString.identity(3).letters() == "III"
    assert PauliString.from_text("-XZ").sign_exponent() == 2


def test_from_text_rejects_bad_letters():
    with pytest.raises(PauliError):
        PauliString.from_text("XQ")


def test_length_mismatch_rejected():
    with pytest.raises(PauliError):
        eta(PauliString.from_text("X"), PauliString.from_text("XX"))
    with pytest.raises(PauliError):
        multiply(PauliString.from_text("X"), PauliString.from_text("XX"))


@given(pairs)
def test_multiply_matches_matrix_product(pair):
    a, b = (PauliString.from_text(s) for s in pair)
    got = pauli_matrix(multiply(a, b))
    want = pauli_matrix(a) @ pauli_matrix(b)
    assert np.allclose(got, want, atol=1e-12)


@given(pairs)
def test_eta_symmetric_and_matches_matrices(pair):
    a, b = (PauliString.from_text(s) for s in pair)
    assert eta(a, b) == eta(b, a)
    ab = pauli_matrix(a) @ pauli_matrix(b)
    ba = pauli_matrix(b) @ pauli_matrix(a)
    assert np.allclose(ab, eta(a, b) * ba, atol=1e-12)


@given(triples)
def test_eta_bilinear(triple):
    a, b, c = (PauliString.from_text(s) for s in triple)
    assert eta(a, multiply(b, c)) == eta(a, b) * eta(a, c)


def test_known_signs():
    xx = PauliString.from_text("XX")
    zz = PauliString.from_text("ZZ")
    ix = PauliString.from_text("IX")
    assert eta(xx, zz) == 1
    assert eta(ix, zz) == -1
    prod = multiply(xx, zz)
    assert prod.letters() == "YY"
    assert prod.sign_exponent() == 2  # XX * ZZ = -YY


def test_y_phase_convention():
    x = PauliString.from_text("X")
    z = PauliString.from_text("Z")
    xz = multiply(x, z)
    assert xz.letters() == "Y"
    assert xz.sign_exponent() == 3  # X * Z = -iY, so Y = iXZ


def test_enumerate_group_small():
    zz = PauliString.from_text("ZZ")
    group = enumerate_group([zz])
    assert sorted(g.letters() for g in group) == ["II", "ZZ"]
    group3 = enumerate_group(
        [PauliString.from_text("ZZI"), PauliString.from_text("IZZ")])
    assert sorted(g.letters() for g in group3) == ["III", "IZZ", "ZIZ", "ZZI"]


def test_enumerate_group_empty():
    assert [g.letters() for g in enumerate_group([], n=2)] == ["II"]


def test_enumerate_group_closed_and_duplicate_free(codes):
    group = enumerate_group(list(codes["five-qubit"].generators))
    assert len(group) == 16
    patterns = {(g.x, g.z) for g in group}
    assert len(patterns) == 16
    for a in group[:4]:
        for b in group[:4]:
            assert (multiply(a, b).x, multiply(a, b).z) in patterns


def test_dependent_generators_rejected():
    with pytest.raises(PauliError):
        enumerate_group([PauliString.from_text("ZZI"),
                         PauliString.from_text("IZZ"),
                         PauliString.from_text("ZIZ")])
