import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concatqec import (
    ChannelError,
    PauliProbVec,
    apply_logical_pauli,
    entropy,
    noise_family,
)
from concatqec.channels import HAD4, row_entropy

raw4 = st.lists(st.floats(1e-4, 1.0), min_size=4, max_size=4)


@st.composite
def prob_vecs(draw):
    raw = np.asarray(draw(raw4))
    return PauliProbVec.from_array(raw / raw.sum())


def test_known_diagonals():
    bit_flip = PauliProbVec.from_array([0.7, 0.3, 0.0, 0.0])
    d = HAD4 @ bit_flip.as_array()
    assert np.allclose(d, [1.0, 1.0, 0.4, 0.4])  # [1, 1, x, x] with x = 1-2p


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

