"""Stabilizer codes encoding one logical qubit.

A code is defined by n-1 commuting independent generators plus a logical X/Z
pair.  The class precomputes, for every syndrome, a minimum-weight recovery
representative, and classifies normalizer elements into the four logical
classes I, X, Y, Z.

Codes load from their text form (``key value`` lines, ``#`` comments) via
:func:`load_code_text`; the builtin codes ship as package data in that form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .pauli import PauliError, PauliString, enumerate_group, eta, multiply

__all__ = [
    "CodeError",
    "StabilizerCode",
    "encoding_column",
    "load_code_text",
    "builtin_codes",
    "get_code",
    "CLASS_LETTERS",
    "qubit_automorphisms",
]

#: Logical class order used for indices everywhere: 0=I, 1=X, 2=Y, 3=Z.
CLASS_LETTERS = "IXYZ"

#: encoding_column and the general-noise oracle build 4^n-sized objects.
ORACLE_MAX_QUBITS = 8


class CodeError(ValueError):
    """Invalid code definition or code operation."""


def _min_weight_representatives(n: int, generators) -> tuple[PauliString, ...]:
    """Minimum-weight Pauli per syndrome.

    Ties go to the fewest Y letters, then to the smallest (x, z) masks.
    Preferring Y-free representatives makes the pick on CSS codes coincide
    with decoding the X and Z sectors independently; with Y allowed, equal
    weight representatives can fall in different logical cosets, and the
    syndrome-blind iterated map genuinely depends on the choice.
    """
    size = 1 << n
    xs = np.repeat(np.arange(size), size)
    zs = np.tile(np.arange(size), size)
    pop = np.array([bin(v).count("1") for v in range(size)], dtype=np.int64)
    weight = pop[xs | zs]
    ys = pop[xs & zs]
    syndrome = np.zeros(size * size, dtype=np.int64)
    for i, g in enumerate(generators):
        bit = (pop[xs & g.z] + pop[zs & g.x]) & 1
        syndrome |= bit << i
    reps: list[PauliString | None] = [None] * (1 << (n - 1))
    for k in np.lexsort((zs, xs, ys, weight)):
        b = syndrome[k]
        if reps[b] is None:
            x, z = int(xs[k]), int(zs[k])
            reps[b] = PauliString(n, x, z, bin(x & z).count("1"))
    assert all(r is not None for r in reps)
    return tuple(reps)


@dataclass(frozen=True)
class StabilizerCode:
    """An [[n, 1, d]] stabilizer code with fixed recovery representatives."""

    name: str
    n: int
    distance: int
    generators: tuple[PauliString, ...]
    logical_x: PauliString
    logical_z: PauliString
    representatives: tuple[PauliString, ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        ops = (*self.generators, self.logical_x, self.logical_z)
        if any(g.n != self.n for g in ops):
            raise CodeError(f"{self.name}: operator length differs from n={self.n}")
        if len(self.generators) != self.n - 1:
            raise CodeError(
                f"{self.name}: need n-1={self.n - 1} generators for one logical "
                f"qubit, got {len(self.generators)}")
        if any(g.sign_exponent() != 0 for g in ops):
            raise CodeError(f"{self.name}: generators and logicals must have +1 phase")
        for i, a in enumerate(self.generators):
            for b in self.generators[i + 1:]:
                if eta(a, b) != 1:
                    raise CodeError(f"{self.name}: generators {a} and {b} anticommute")
        for logical in (self.logical_x, self.logical_z):
            for g in self.generators:
                if eta(logical, g) != 1:
                    raise CodeError(f"{self.name}: logical {logical} anticommutes "
                                    f"with generator {g}")
        # Anticommutation also rules out either logical lying in the stabilizer.
        if eta(self.logical_x, self.logical_z) != -1:
            raise CodeError(f"{self.name}: logical X and Z must anticommute")
        if self.distance < 1:
            raise CodeError(f"{self.name}: distance must be positive")
        # Validates independence as a side effect.
        enumerate_group(list(self.generators))
        object.__setattr__(
            self, "representatives",
            _min_weight_representatives(self.n, self.generators))

    @property
    def n_syndromes(self) -> int:
        return 1 << (self.n - 1)

    def stabilizer_elements(self) -> list[PauliString]:
        """All 2^(n-1) stabilizer group elements, in generator-subset order."""
        return enumerate_group(list(self.generators))

    def syndrome_of(self, e: PauliString) -> int:
        """Syndrome bitmask: bit i is set iff e anticommutes with generator i."""
        if e.n != self.n:
            raise CodeError(f"operator length {e.n} != code length {self.n}")
        beta = 0
        for i, g in enumerate(self.generators):
            if eta(e, g) == -1:
                beta |= 1 << i
        return beta

    def class_representative(self, sigma: int | str) -> PauliString:
        """Hermitian logical representative of class I, X, Y or Z.

        The Y representative is fixed as i * logical_x * logical_z, matching
        the one-qubit convention Y = iXZ.
        """
        if isinstance(sigma, str):
            sigma = CLASS_LETTERS.index(sigma)
        if sigma == 0:
            return PauliString.identity(self.n)
        if sigma == 1:
            return self.logical_x
        if sigma == 3:
            return self.logical_z
        prod = multiply(self.logical_x, self.logical_z)
        return PauliString(self.n, prod.x, prod.z, (prod.phase + 1) % 4)

    def logical_class(self, e: PauliString) -> int:
        """Class index of e after recovery by its syndrome representative.

        e * representatives[syndrome] commutes with every generator; its class
        is read off the commutation signs with the logical Z and X operators.
        """
        f = multiply(e, self.representatives[self.syndrome_of(e)])
        anti_z = eta(f, self.logical_z) == -1
        anti_x = eta(f, self.logical_x) == -1
        return ((0, 3), (1, 2))[anti_z][anti_x]


def _permute_mask(mask: int, perm) -> int:
    """Move bit j of mask to bit perm[j]."""
    return sum(((mask >> j) & 1) << q for j, q in enumerate(perm))


def _permute(e: PauliString, perm) -> PauliString:
    """Pauli with the letter of qubit j moved to qubit perm[j]; phase kept."""
    return PauliString(e.n, _permute_mask(e.x, perm), _permute_mask(e.z, perm), e.phase)


def _preserves_level_map(code: StabilizerCode, perm, signed: set, unsigned: set) -> bool:
    """The three conditions of :func:`qubit_automorphisms` for one permutation.

    A qubit permutation respects products, so the generators' images decide
    where the whole signed stabilizer group goes.
    """
    if any(_permute(g, perm) not in signed for g in code.generators):
        return False
    for logical in (code.logical_x, code.logical_z):
        image = _permute(logical, perm)
        if (image.x ^ logical.x, image.z ^ logical.z) not in unsigned:
            return False
    for r in code.representatives:
        image = _permute(r, perm)
        target = code.representatives[code.syndrome_of(image)]
        if (image.x ^ target.x, image.z ^ target.z) not in unsigned:
            return False
    return True


@functools.lru_cache(maxsize=None)
def qubit_automorphisms(code: StabilizerCode) -> np.ndarray:
    """Qubit permutations that leave the code's level map unchanged.

    Row g maps qubit j to qubit g[j].  A permutation qualifies when it maps
    the signed stabilizer group onto itself, each of logical X and logical Z
    into its own coset, and every recovery representative into the coset of
    the representative of its new syndrome.  Moving the noise of each qubit
    j to qubit g[j] then only relabels the syndromes of the level map, each
    keeping its weight and conditional channel.

    Partial permutations are extended one qubit at a time; one is dropped as
    soon as the stabilizer group restricted to its assigned qubits differs
    from the group restricted to their images, a condition every
    automorphism meets on every subset.  The rows are sorted, so the
    identity comes first.
    """
    n = code.n
    stab = code.stabilizer_elements()
    signed = set(stab)
    unsigned = {(s.x, s.z) for s in stab}
    xs = np.array([s.x for s in stab], dtype=np.int64)
    zs = np.array([s.z for s in stab], dtype=np.int64)
    # letters[j, a]: the (x, z) bits of stabilizer element a at qubit j.
    letters = np.stack([((xs >> j) & 1) | (((zs >> j) & 1) << 1) for j in range(n)])

    found: list[tuple[int, ...]] = []

    def extend(perm: tuple[int, ...], key_dom: np.ndarray, key_img: np.ndarray):
        k = len(perm)
        if k == n:
            if _preserves_level_map(code, perm, signed, unsigned):
                found.append(perm)
            return
        for q in range(n):
            if q in perm:
                continue
            dom = key_dom | (letters[k] << (2 * k))
            img = key_img | (letters[q] << (2 * k))
            if np.array_equal(np.unique(dom), np.unique(img)):
                extend(perm + (q,), dom, img)

    zero = np.zeros(len(stab), dtype=np.int64)
    extend((), zero, zero)
    group = np.array(sorted(found), dtype=np.int64).reshape(-1, n)
    group.setflags(write=False)
    return group


def encoding_column(code: StabilizerCode, sigma: int | str) -> list[PauliString]:
    """Signed Pauli terms of the encoding column for logical basis element sigma.

    The column is the class representative multiplied into every stabilizer
    element, phases tracked exactly; there are 2^(n-1) Hermitian terms.  Only
    available at oracle scale; the diagonal fast path never materializes it.
    """
    if code.n > ORACLE_MAX_QUBITS:
        raise CodeError(
            f"encoding columns need 2^(n-1) terms; n={code.n} exceeds the "
            f"oracle bound {ORACLE_MAX_QUBITS}; use the diagonal path instead")
    rep = code.class_representative(sigma)
    return [multiply(rep, s) for s in code.stabilizer_elements()]


def load_code_text(text: str, name_hint: str = "<text>") -> StabilizerCode:
    """Parse a code definition from its text form.

    Recognized keys: ``name``, ``n``, ``distance``, ``generator`` (repeated),
    ``logical_x``, ``logical_z``.  Blank lines and ``#`` comments are ignored.
    """
    fields: dict[str, str] = {}
    generators: list[PauliString] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise CodeError(f"{name_hint}:{lineno}: expected 'key value', got {raw!r}")
        key, value = parts[0], parts[1].strip()
        if key == "generator":
            generators.append(PauliString.from_text(value))
        elif key in ("name", "n", "distance", "logical_x", "logical_z"):
            if key in fields:
                raise CodeError(f"{name_hint}:{lineno}: duplicate key {key!r}")
            fields[key] = value
        else:
            raise CodeError(f"{name_hint}:{lineno}: unknown key {key!r}")
    missing = {"name", "n", "distance", "logical_x", "logical_z"} - fields.keys()
    if missing:
        raise CodeError(f"{name_hint}: missing keys {sorted(missing)}")
    try:
        return StabilizerCode(
            name=fields["name"],
            n=int(fields["n"]),
            distance=int(fields["distance"]),
            generators=tuple(generators),
            logical_x=PauliString.from_text(fields["logical_x"]),
            logical_z=PauliString.from_text(fields["logical_z"]),
        )
    except PauliError as exc:
        raise CodeError(f"{name_hint}: {exc}") from exc


def _canonical(name: str) -> str:
    return name.strip().lower().replace("_", "-")


@functools.cache
def builtin_codes() -> dict[str, StabilizerCode]:
    """The shipped codes, keyed by canonical name."""
    codes: dict[str, StabilizerCode] = {}
    data_dir = resources.files(__package__).joinpath("data")
    for entry in sorted(data_dir.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".code"):
            code = load_code_text(entry.read_text(), name_hint=entry.name)
            codes[_canonical(code.name)] = code
    return codes


def get_code(name: str) -> StabilizerCode:
    """Look up a builtin code by name (hyphens and underscores equivalent)."""
    codes = builtin_codes()
    key = _canonical(name)
    if key not in codes:
        raise CodeError(f"unknown code {name!r}; builtin codes: {sorted(codes)}")
    return codes[key]
