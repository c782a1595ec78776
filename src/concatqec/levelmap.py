"""Single-level encoded channel maps.

Given per-qubit Pauli noise on the n physical qubits of a code, compute the
2^(n-1) per-syndrome conditional quasi-channels of the encoded qubit.  Three
implementations with very different structure are provided:

* ``coset_map_probs`` (fast path): a signed stabilizer-coset sum over the
  per-qubit superoperator diagonals, then one dense per-code transform over
  generator subsets (4 * 4^(n-1) floats: 2 MiB at n = 9, 32 MiB at n = 11)
  applied as a matrix product; vectorized over many blocks.
* ``coset_map_enumerate`` (reference path): direct enumeration of all 4^n
  Pauli errors, binned by (syndrome, logical class after recovery).
* ``general_map_oracle`` (small-n oracle): the full 4^n x 4^n tensor-product
  superoperator conjugated by recovery and encoding columns; the only path
  that accepts non-diagonal (non-Pauli) noise.

All three agree on diagonal noise; the fast path is the one the concatenation
engine calls millions of times.

Index conventions: syndromes are integers whose bit i is the commutation
outcome with generator i; logical classes are ordered I, X, Y, Z; map
matrices are column-stochastic-like with columns indexing inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channels import HAD4, ChannelError, OneQubitSuperop, PauliProbVec
from .codes import CodeError, StabilizerCode, encoding_column
from .pauli import PauliString, eta, multiply

__all__ = [
    "BlockNoise",
    "coset_map_probs",
    "coset_map_enumerate",
    "blind_map",
    "general_map_oracle",
    "pauli_matrix",
]

#: The n <= 3 bound keeps the oracle's 4^n x 4^n matrices trivially small.
GENERAL_ORACLE_MAX_QUBITS = 3

_CLS_TABLE = np.array([[0, 3], [1, 2]], dtype=np.int64)

#: Inverse of the probability-to-diagonal transform HAD4.
_H4 = HAD4 / 4.0

#: Most blocks per :func:`_coset_map_batch` call: 8 MiB per kernel array for Steane.
_MAX_BLOCKS = 4096

#: Pauli X and Z as dense matrices, for :func:`pauli_matrix`.
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class BlockNoise:
    """Normalized per-qubit Pauli noise on the n qubits of one block."""

    per_qubit: tuple[PauliProbVec, ...]

    def __post_init__(self):
        for q in self.per_qubit:
            if abs(q.weight() - 1.0) > 1e-9:
                raise ChannelError(
                    f"block noise entries must be normalized, got weight {q.weight()}")

    @classmethod
    def coerce(cls, noise, n: int) -> "BlockNoise":
        """Accept a single channel (same on every qubit) or one per qubit."""
        if isinstance(noise, BlockNoise):
            if len(noise.per_qubit) != n:
                raise ChannelError(f"block noise has {len(noise.per_qubit)} entries, need {n}")
            return noise
        if isinstance(noise, PauliProbVec):
            return cls((noise,) * n)
        entries = tuple(noise)
        if len(entries) != n:
            raise ChannelError(f"need {n} per-qubit channels, got {len(entries)}")
        return cls(entries)

    def prob_array(self) -> np.ndarray:
        return np.stack([q.as_array() for q in self.per_qubit])


def _letter_index(t: PauliString, j: int) -> int:
    """Letter of a Pauli at qubit j as an index into I, X, Y, Z."""
    xb = (t.x >> j) & 1
    zb = (t.z >> j) & 1
    return xb + zb * (3 - 2 * xb)


@functools.lru_cache(maxsize=None)
def _code_tables(code: StabilizerCode):
    """Precomputed index table and dense transform for the fast coset sum.

    Returns (letters, walsh): letters[j, sigma, a] is the letter at qubit j
    of the class-sigma representative times stabilizer element a;
    walsh[sigma, a, beta] is (-1)^popcount(a & beta) times the commutation
    sign of that representative with the recovery representative of beta,
    over 2^(n-1).  The transform takes 4 * 4^(n-1) floats: 128 KiB at n = 7,
    2 MiB at n = 9 and 32 MiB at n = 11.
    """
    n, n_syn = code.n, code.n_syndromes
    stab = code.stabilizer_elements()
    reps4 = [code.class_representative(s) for s in range(4)]
    letters = np.empty((n, 4, n_syn), dtype=np.int64)
    for s_idx, rep in enumerate(reps4):
        for a, s in enumerate(stab):
            t = multiply(rep, s)
            for j in range(n):
                letters[j, s_idx, a] = _letter_index(t, j)
    pre = np.array([[eta(rep, r) for r in code.representatives] for rep in reps4])
    a = np.arange(n_syn)
    pop = np.array([bin(v).count("1") for v in range(n_syn)])
    walsh = (1 - 2 * (pop[a[:, None] & a] & 1))[None] * pre[:, None, :] / n_syn
    return letters, walsh


def _coset_map_batch(code: StabilizerCode, diags: np.ndarray) -> np.ndarray:
    """Fast path over a batch of per-qubit diagonal assignments.

    diags has shape (K, n, 4): superoperator diagonals of the noise on each
    qubit for K independent blocks.  Returns probabilities of shape
    (K, 2^(n-1), 4): for each block, syndrome and logical class, the joint
    probability of that syndrome and class under representative recovery.
    """
    letters, walsh = _code_tables(code)
    k = diags.shape[0]
    per_qubit = np.ascontiguousarray(diags.transpose(1, 2, 0))
    # prod[sigma, a, block]: product over the qubits of the block's diagonal at each letter
    prod = per_qubit[0][letters[0]]
    for j in range(1, code.n):
        prod *= per_qubit[j][letters[j]]
    d = np.matmul(prod.transpose(0, 2, 1), walsh)
    # class-major memory: the reductions over classes downstream stay strided adds
    p = _H4 @ d.reshape(4, -1)
    return np.maximum(p.reshape(4, k, code.n_syndromes).transpose(1, 2, 0), 0.0)


def _conditional(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Syndrome weights and conditional channels of joint probabilities p[..., class].

    A syndrome of zero weight gets the identity channel as placeholder.
    """
    w = p.sum(axis=-1)
    pos = w > 0.0
    rows = p / np.where(pos, w, 1.0)[..., None]
    rows[~pos] = [1.0, 0.0, 0.0, 0.0]
    return w, rows


def coset_map_probs(code: StabilizerCode, noise) -> np.ndarray:
    """Joint (syndrome, logical class) probabilities, shape (2^(n-1), 4).

    Row beta sums to the probability of syndrome beta; the whole table sums
    to 1.  Classes are defined after applying the representative recovery.
    """
    block = BlockNoise.coerce(noise, code.n)
    diags = (block.prob_array() @ HAD4.T)[None, :, :]
    return _coset_map_batch(code, diags)[0]


def coset_map_enumerate(code: StabilizerCode, noise) -> np.ndarray:
    """Reference implementation of :func:`coset_map_probs`.

    Enumerates all 4^n physical Pauli errors, computes each error's
    probability as the product of per-qubit letter probabilities, and bins it
    by (syndrome, logical class of error times recovery representative).
    Structurally independent of the stabilizer-coset fast path.
    """
    block = BlockNoise.coerce(noise, code.n)
    n, n_syn = code.n, code.n_syndromes
    total = 4 ** n
    pop = np.array([bin(v).count("1") for v in range(1 << n)], dtype=np.int64)
    probs = block.prob_array()

    idx = np.arange(total)
    weight_p = np.ones(total)
    xmask = np.zeros(total, dtype=np.int64)
    zmask = np.zeros(total, dtype=np.int64)
    for j in range(n):
        letter = (idx >> (2 * j)) & 3
        weight_p *= probs[j, letter]
        xmask |= ((letter == 1) | (letter == 2)).astype(np.int64) << j
        zmask |= ((letter == 2) | (letter == 3)).astype(np.int64) << j

    beta = np.zeros(total, dtype=np.int64)
    for i, g in enumerate(code.generators):
        bit = (pop[xmask & g.z] + pop[zmask & g.x]) & 1
        beta |= bit << i

    # Commutation of e with a logical L is bilinear, so the recovery's
    # contribution folds in as a per-syndrome parity flip.
    anti_z = (pop[xmask & code.logical_z.z] + pop[zmask & code.logical_z.x]) & 1
    anti_x = (pop[xmask & code.logical_x.z] + pop[zmask & code.logical_x.x]) & 1
    rep_anti_z = np.array(
        [0 if eta(r, code.logical_z) == 1 else 1 for r in code.representatives])
    rep_anti_x = np.array(
        [0 if eta(r, code.logical_x) == 1 else 1 for r in code.representatives])
    cls = _CLS_TABLE[anti_z ^ rep_anti_z[beta], anti_x ^ rep_anti_x[beta]]

    out = np.zeros((n_syn, 4))
    np.add.at(out, (beta, cls), weight_p)
    return out


def _blind_step(code: StabilizerCode, diag: np.ndarray) -> np.ndarray:
    """:func:`blind_map` on arrays: a superoperator diagonal in, probabilities out.

    The one-block form of :func:`_coset_map_batch` with its syndromes summed:
    the same products, transform and clipping in the same order, so the
    result equals the batched kernel's bit for bit, without the batch's
    broadcasts, gathers and transposes, which dominate the cost of one block.
    """
    letters, walsh = _code_tables(code)
    prod = np.prod(diag[letters], axis=0)
    d = np.matmul(prod[:, None, :], walsh)[:, 0, :]
    return np.maximum(_H4 @ d, 0.0).sum(axis=1)


def blind_map(code: StabilizerCode, p: PauliProbVec) -> PauliProbVec:
    """Unoptimized level map: same noise on every qubit, syndromes summed.

    The fixed representative recoveries are applied but no syndrome
    information is kept, so the result is a single normalized channel.  This
    is the map iterated by the unoptimized threshold search.
    """
    BlockNoise((p,))  # rejects unnormalized input
    return PauliProbVec.from_array(_blind_step(code, HAD4 @ p.as_array()))


def pauli_matrix(t: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli string, including its phase."""
    m = np.array([[1.0 + 0j]])
    for j in range(t.n):
        xb, zb = (t.x >> j) & 1, (t.z >> j) & 1
        qj = np.eye(2, dtype=complex)
        if xb:
            qj = qj @ _X
        if zb:
            qj = qj @ _Z
        m = np.kron(m, qj)
    return (1j ** t.phase) * m


def _letters_index_of(t: PauliString, n: int) -> int:
    """Base-4 index of a Pauli's letters with qubit 0 as the leading digit."""
    out = 0
    for j in range(n):
        out = out * 4 + _letter_index(t, j)
    return out


def general_map_oracle(
    code: StabilizerCode,
    superops,
    recoveries=None,
) -> np.ndarray:
    """Per-syndrome logical superoperators under general one-qubit noise.

    Builds the full tensor-product superoperator N of the per-qubit noise and
    sandwiches it between the signed encoding columns, with the recovery's
    commutation signs implementing the syndrome projection:

        G(beta) = (1/2^(n-1)) * E_out(beta)^T @ N @ E

    where column sigma of E holds the signed coefficients of the encoding
    column of sigma, and E_out additionally multiplies each row by the sign
    of commuting that row's Pauli through the recovery.  Returns an array of
    shape (2^(n-1), 4, 4); entry [beta] maps input logical classes (columns)
    to output classes (rows).  For diagonal per-qubit noise the diagonals of
    the result reproduce :func:`coset_map_probs` after the probability
    transform.

    ``recoveries`` optionally replaces the representative recovery for each
    syndrome; each override must have the syndrome it is used for.
    """
    n, n_syn = code.n, code.n_syndromes
    if n > GENERAL_ORACLE_MAX_QUBITS:
        raise CodeError(
            f"general oracle builds 4^n x 4^n matrices; n={n} exceeds "
            f"{GENERAL_ORACLE_MAX_QUBITS}; use the diagonal path instead")
    if isinstance(superops, OneQubitSuperop):
        superops = [superops] * n
    superops = list(superops)
    if len(superops) != n:
        raise ChannelError(f"need {n} per-qubit superoperators, got {len(superops)}")
    n_full = functools.reduce(np.kron, [s.m for s in superops])

    if recoveries is None:
        recoveries = code.representatives
    recoveries = list(recoveries)
    if len(recoveries) != n_syn:
        raise CodeError(f"need {n_syn} recovery operators, got {len(recoveries)}")
    for beta, r in enumerate(recoveries):
        if code.syndrome_of(r) != beta:
            raise CodeError(f"recovery {r} does not have syndrome {beta}")

    cols = np.zeros((4 ** n, 4))
    terms: list[list[tuple[int, PauliString]]] = []
    for sigma in range(4):
        col_terms = []
        for t in encoding_column(code, sigma):
            se = t.sign_exponent()
            assert se in (0, 2), "encoding column terms must be Hermitian"
            idx = _letters_index_of(t, n)
            cols[idx, sigma] = 1.0 - se
            col_terms.append((idx, t))
        terms.append(col_terms)

    out = np.empty((n_syn, 4, 4))
    for beta, r in enumerate(recoveries):
        cols_out = np.zeros_like(cols)
        for sigma in range(4):
            for idx, t in terms[sigma]:
                cols_out[idx, sigma] = cols[idx, sigma] * eta(r, t)
        out[beta] = cols_out.T @ n_full @ cols / n_syn
    return out
