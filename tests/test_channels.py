import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concatqec import (
    ChannelError,
    OneQubitSuperop,
    PauliProbVec,
    apply_logical_pauli,
    diag_to_probs,
    entropy,
    noise_family,
    probs_to_diag,
    quasi_entropy_contribution,
    superop_of_kraus,
)
from concatqec.channels import row_entropy

raw4 = st.lists(st.floats(1e-4, 1.0), min_size=4, max_size=4)


@st.composite
def prob_vecs(draw):
    raw = np.asarray(draw(raw4))
    return PauliProbVec.from_array(raw / raw.sum())


@given(prob_vecs())
def test_diag_prob_round_trip(p):
    back = diag_to_probs(probs_to_diag(p))
    assert np.allclose(back.as_array(), p.as_array(), atol=1e-12)


def test_known_diagonals():
    bit_flip = PauliProbVec.from_array([0.7, 0.3, 0.0, 0.0])
    d = probs_to_diag(bit_flip)
    assert np.allclose(d, [1.0, 1.0, 0.4, 0.4])  # [1, 1, x, x] with x = 1-2p


@pytest.mark.parametrize("d", [[1.0, 1.0, 1.0], [1.0] * 5, [[1.0, 1.0, 1.0, 1.0]]])
def test_diag_to_probs_rejects_wrong_length(d):
    with pytest.raises(ChannelError):
        diag_to_probs(d)


def test_entropy_endpoints():
    assert entropy(PauliProbVec.from_array([1, 0, 0, 0])) == 0.0
    assert entropy(PauliProbVec.from_array([0.25] * 4)) == pytest.approx(2.0)


def test_row_entropy_batch_matches_entropy():
    rng = np.random.default_rng(3)
    batch = rng.random((3, 5, 4))
    batch /= batch.sum(axis=-1, keepdims=True)
    batch[0, 1] = 0.0
    batch[2, 4] = 0.0
    batch[1, 2] = [0.0, 1.0, 0.0, 0.0]
    h = row_entropy(batch)
    assert h.shape == (3, 5)
    for k, s in np.ndindex(3, 5):
        if batch[k, s].any():
            want = entropy(PauliProbVec.from_array(batch[k, s]))
            assert h[k, s] == pytest.approx(want, abs=1e-15)
        else:
            assert h[k, s] == 0.0
    assert h[1, 2] == 0.0 and not np.signbit(h[1, 2])


@given(prob_vecs())
def test_entropy_range(p):
    assert 0.0 <= entropy(p) <= 2.0 + 1e-12


@given(prob_vecs(), st.sampled_from("IXYZ"))
def test_logical_pauli_preserves_entropy_and_weight(p, s):
    q = apply_logical_pauli(p, s)
    assert q.weight() == pytest.approx(p.weight())
    assert entropy(q) == pytest.approx(entropy(p))


@given(prob_vecs(), st.sampled_from("IXYZ"))
def test_logical_pauli_is_involution(p, s):
    q = apply_logical_pauli(apply_logical_pauli(p, s), s)
    assert np.allclose(q.as_array(), p.as_array())


def test_logical_x_permutation():
    p = PauliProbVec.from_array([0.1, 0.6, 0.2, 0.1])
    q = apply_logical_pauli(p, "X")
    assert np.allclose(q.as_array(), [0.6, 0.1, 0.1, 0.2])


@given(raw4)
def test_quasi_entropy_scaling(raw):
    quasi = PauliProbVec.from_array(raw)
    want = quasi.weight() * entropy(quasi)
    assert quasi_entropy_contribution(quasi) == pytest.approx(want, abs=1e-12)


def test_quasi_entropy_known_values():
    half = PauliProbVec.from_array([0.5, 0, 0, 0])
    assert quasi_entropy_contribution(half) == pytest.approx(0.0, abs=1e-12)
    quarter = PauliProbVec.from_array([0.25, 0.25, 0, 0])
    assert quasi_entropy_contribution(quarter) == pytest.approx(0.5)


def test_entropy_rejects_zero_weight():
    with pytest.raises(ChannelError):
        entropy(PauliProbVec.from_array([0, 0, 0, 0]))


def test_noise_families():
    assert np.allclose(noise_family("depolarizing", 0.0).as_array(), [1, 0, 0, 0])
    assert np.allclose(noise_family("indep-flips", 0.5).as_array(), [0.25] * 4)
    assert np.allclose(noise_family("phase-flip", 0.2).as_array(), [0.8, 0, 0, 0.2])
    assert np.allclose(noise_family("two-axis", 0.2).as_array(), [0.6, 0.2, 0, 0.2])


def test_noise_family_domain_errors():
    with pytest.raises(ChannelError):
        noise_family("depolarizing", 0.4)
    with pytest.raises(ChannelError):
        noise_family("phase-flip", -0.1)
    with pytest.raises(ChannelError):
        noise_family("bit-flip-only", 0.1)


def test_superop_of_identity_kraus():
    s = superop_of_kraus([np.eye(2)])
    assert np.allclose(s.m, np.eye(4))
    assert s.is_trace_preserving()


def test_superop_of_pauli_kraus():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    s = superop_of_kraus([x])
    assert np.allclose(np.diag(s.m), [1, 1, -1, -1])


def test_superop_of_depolarizing_kraus_matches_probs():
    p = 0.05
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1.0, -1.0]).astype(complex)
    kraus = [np.sqrt(1 - 3 * p) * np.eye(2), np.sqrt(p) * x,
             np.sqrt(p) * y, np.sqrt(p) * z]
    s = superop_of_kraus(kraus)
    want = OneQubitSuperop.from_probs(noise_family("depolarizing", p))
    assert np.allclose(s.m, want.m, atol=1e-12)


def test_superop_warns_on_non_trace_preserving():
    with pytest.warns(UserWarning):
        s = superop_of_kraus([0.5 * np.eye(2)])
    assert not s.is_trace_preserving()


def test_amplitude_damping_superop_is_not_diagonal():
    g = 0.3
    k0 = np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
    s = superop_of_kraus([k0, k1])
    assert s.is_trace_preserving()
    assert not np.allclose(s.m, np.diag(np.diag(s.m)))
