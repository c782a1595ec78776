"""n-qubit Pauli operators in the binary symplectic representation.

An operator is stored as a pair of bitmasks ``(x, z)`` plus a phase exponent
``k``, standing for ``i**k * X(x) * Z(z)`` with ``X(x) = prod_j X_j**x_j`` and
``Z(z) = prod_j Z_j**z_j``.  Bit ``j`` of each mask corresponds to character
``j`` of the text form, so ``"XI"`` acts with X on qubit 0.

The letter Y is fixed as ``Y = i*X*Z``.  A bare ``"Y"`` therefore parses to
``(x=1, z=1, k=1)`` and renders back as ``"Y"`` with no sign prefix; products
such as ``X*Z`` render as ``"-iY"``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PauliError",
    "PauliString",
    "eta",
    "multiply",
    "enumerate_group",
]

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {bits: letter for letter, bits in _LETTER_BITS.items()}
_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}
_PREFIXES = {"+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}


class PauliError(ValueError):
    """Invalid Pauli construction or operation (length mismatch, bad letter, ...)."""


@dataclass(frozen=True)
class PauliString:
    """Immutable n-qubit Pauli operator ``i**phase * X(x) * Z(z)``."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise PauliError(f"need at least one qubit, got n={self.n}")
        mask = (1 << self.n) - 1
        if not (0 <= self.x <= mask and 0 <= self.z <= mask):
            raise PauliError("x/z bitmask out of range for given n")
        object.__setattr__(self, "phase", self.phase % 4)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse ``"XIZ"`` with an optional leading ``+``, ``-``, ``i`` or ``-i``."""
        s = text.strip()
        prefix = 0
        for p in ("-i", "+i", "-", "+", "i"):
            if s.startswith(p) and all(c in _LETTER_BITS for c in s[len(p):]) and len(s) > len(p):
                prefix = _PREFIXES[p]
                s = s[len(p):]
                break
        if not s or any(c not in _LETTER_BITS for c in s):
            raise PauliError(f"cannot parse Pauli string {text!r}")
        x = z = 0
        ycount = 0
        for j, c in enumerate(s):
            xb, zb = _LETTER_BITS[c]
            x |= xb << j
            z |= zb << j
            ycount += xb & zb
        return cls(len(s), x, z, (ycount + prefix) % 4)

    # -- inspection --------------------------------------------------------

    def letters(self) -> str:
        """Per-qubit letters, without the sign prefix."""
        return "".join(
            _BITS_LETTER[(self.x >> j) & 1, (self.z >> j) & 1] for j in range(self.n)
        )

    def sign_exponent(self) -> int:
        """Exponent k of the displayed prefix i**k relative to the letter form."""
        return (self.phase - (self.x & self.z).bit_count()) % 4

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def __str__(self) -> str:
        return _PHASE_PREFIX[self.sign_exponent()] + self.letters()

    def __repr__(self) -> str:
        return f"PauliString({str(self)!r})"

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)


def eta(a: PauliString, b: PauliString) -> int:
    """Commutation sign: +1 if a and b commute, -1 if they anticommute.

    Phases are irrelevant; only the symplectic form of the bitmasks enters.
    """
    if a.n != b.n:
        raise PauliError(f"length mismatch: {a.n} vs {b.n}")
    parity = ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) & 1
    return -1 if parity else 1


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Operator product a*b with the exact accumulated phase."""
    if a.n != b.n:
        raise PauliError(f"length mismatch: {a.n} vs {b.n}")
    # Commuting b's X part through a's Z part picks up (-1) per overlap.
    k = a.phase + b.phase + 2 * ((a.z & b.x).bit_count() & 1)
    return PauliString(a.n, a.x ^ b.x, a.z ^ b.z, k % 4)


def _independent(generators: list[PauliString]) -> bool:
    """F2 linear independence of the (x|z) rows, by Gaussian elimination."""
    rows = [(g.x << g.n) | g.z for g in generators]
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r == 0:
            return False
        basis.append(r)
    return True


def enumerate_group(generators: list[PauliString], n: int | None = None) -> list[PauliString]:
    """All 2**m products of m commuting, independent generators.

    Element ``j`` is the product of the generators selected by the bits of
    ``j`` (lowest generator index first), so the ordering is reproducible.
    An empty generator list needs an explicit ``n`` for the identity.
    """
    if not generators:
        if n is None:
            raise PauliError("empty generator list requires explicit n")
        return [PauliString.identity(n)]
    n0 = generators[0].n
    if n is not None and n != n0:
        raise PauliError(f"n={n} disagrees with generator length {n0}")
    for i, a in enumerate(generators):
        for b in generators[i + 1:]:
            if eta(a, b) != 1:
                raise PauliError(f"generators {a} and {b} do not commute")
    if not _independent(generators):
        raise PauliError("generators are not independent")
    m = len(generators)
    elems = [PauliString.identity(n0)] * (1 << m)
    for j in range(1, 1 << m):
        low = (j & -j).bit_length() - 1
        elems[j] = multiply(elems[j & (j - 1)], generators[low])
    return elems
