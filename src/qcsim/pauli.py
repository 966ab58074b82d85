"""Pauli-operator algebra and circuit observation.

A PauliOperator is a canonicalized sum of weighted Pauli strings; it is
the universal observable/Hamiltonian representation.  "Observing" an
unmeasured circuit produces one measured circuit per non-identity term
(basis changes + Measure on the term's support).

Each string is stored as a pair of ints ``(x, z)`` (the symplectic
encoding of Aaronson & Gottesman 2004): bit q of x is set for X or Y on
qubit q, bit q of z for Z or Y, so the string is i^|x&z| X^x Z^z.  Every
constructor validates strings in ``encode``, the one encoder, which the
simulator also reads a rotation's string through.  A product is the XOR of
the masks times i^(|xa&za| + |xb&zb| - |x&z| + 2|za&xb|), |m| a popcount;
a commutator keeps only the anticommuting pairs of the product, doubled.
``encoded()`` exposes the encoding in (x, z) order without decoding;
``terms()`` decodes it to sorted (qubit, letter) tuples.  The simulator
reads only ``encoded()``, in exact and sampled mode alike.  ``to_matrix``
builds the dense matrix from the letters by Kronecker products,
independently of the encoding: it is the reference the tests check the
encoding against.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .ir import INTO_Z, CompositeInstruction, create_composite, create_instruction

PRUNE_THRESHOLD = 1e-14
HERMITIAN_TOLERANCE = 1e-12

# decoded view: tuple of (qubit, letter) sorted by qubit; () is the identity
PauliKey = tuple[tuple[int, str], ...]
# encoded string: (x mask, z mask)
Masks = tuple[int, int]

_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTERS = "IXZY"  # indexed by x_bit + 2 * z_bit
_PHASES = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)

_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string; identity qubits are implicit."""

    ops: PauliKey
    coefficient: complex

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.ops)

    def pauli_string(self) -> str:
        if not self.ops:
            return "I"
        return " ".join(f"{letter}{q}" for q, letter in self.ops)

    def __str__(self) -> str:
        """The term as one line of the Hamiltonian file format."""
        c = complex(self.coefficient)
        coef = repr(c.real) if c.imag == 0 else f"({c.real!r},{c.imag!r})"
        return f"{coef} {self.pauli_string()}" if self.ops else coef


def encode(ops: "Mapping[int, str] | Iterable[tuple[int, str]]") -> Masks:
    """(x, z) of {qubit: letter} or (qubit, letter) pairs, ``I`` dropped; an unknown
    letter, a qubit that is not a non-negative int or a repeated qubit raise ValueError."""
    items = ops.items() if isinstance(ops, Mapping) else ops
    x = z = seen = 0
    for q, letter in items:
        bits = _BITS.get(letter) if isinstance(letter, str) else None
        if bits is None:
            raise ValueError(f"invalid Pauli letter {letter!r}")
        if not isinstance(q, (int, np.integer)) or q < 0:
            raise ValueError(f"invalid qubit index {q!r}")
        bit = 1 << int(q)
        if seen & bit:
            raise ValueError(f"qubit {q} repeated in Pauli string")
        seen |= bit
        x |= bit * bits[0]
        z |= bit * bits[1]
    return x, z


def _decode(masks: Masks) -> PauliKey:
    x, z = masks
    out = []
    support = x | z
    while support:
        q = (support & -support).bit_length() - 1
        out.append((q, _LETTERS[(x >> q & 1) + 2 * (z >> q & 1)]))
        support &= support - 1
    return tuple(out)


class PauliOperator:
    """Canonicalized sum of Pauli strings with complex coefficients."""

    def __init__(
        self,
        ops: "Mapping[int, str] | Iterable[tuple[int, str]] | complex | None" = None,
        coefficient: complex = 1.0,
    ):
        if isinstance(ops, (int, float, complex)):
            # identity-term shorthand: PauliOperator(0.2976)
            ops, coefficient = {}, complex(ops) * complex(coefficient)
        self._terms = {} if ops is None else {encode(ops): complex(coefficient)}
        self._prune()

    @staticmethod
    def zero() -> "PauliOperator":
        return PauliOperator()

    @staticmethod
    def identity(coefficient: complex = 1.0) -> "PauliOperator":
        return PauliOperator({}, coefficient)

    @staticmethod
    def from_terms(terms: Mapping[PauliKey, complex]) -> "PauliOperator":
        """Sum of ``{ops: coefficient}``; keys are validated and canonicalized."""
        encoded: dict[Masks, complex] = {}
        for ops, c in terms.items():
            key = encode(ops)
            encoded[key] = encoded[key] + c if key in encoded else complex(c)
        return _from_masks(encoded)

    def _prune(self) -> None:
        self._terms = {
            k: c for k, c in self._terms.items() if abs(c) >= PRUNE_THRESHOLD
        }

    # ---- inspection ----

    def encoded(self) -> list[tuple[Masks, complex]]:
        """Each encoded string as ((x, z), coefficient), ordered by (x, z):
        the strings sharing an x mask are contiguous, and nothing is decoded."""
        return sorted(self._terms.items())

    def terms(self) -> Iterator[PauliTerm]:
        for ops, c in sorted((_decode(k), c) for k, c in self._terms.items()):
            yield PauliTerm(ops, c)

    def n_terms(self) -> int:
        return len(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, ops: Mapping[int, str] | PauliKey) -> complex:
        return self._terms.get(encode(ops), 0.0)

    @property
    def identity_coefficient(self) -> complex:
        return self._terms.get((0, 0), 0.0)

    def max_qubit(self) -> int:
        return max(((x | z).bit_length() for x, z in self._terms), default=0) - 1

    def n_qubits(self) -> int:
        return self.max_qubit() + 1

    def is_hermitian(self, tolerance: float = HERMITIAN_TOLERANCE) -> bool:
        return all(abs(c.imag) <= tolerance for c in self._terms.values())

    def dagger(self) -> "PauliOperator":
        return _from_masks({k: c.conjugate() for k, c in self._terms.items()}, prune=False)

    def is_zero(self) -> bool:
        return not self._terms

    def up_to_sign(self, adjoint: bool = False) -> tuple[tuple, float]:
        """(key, sign): op, or its adjoint, is sign times the operator that
        key lists ((x, z) strings, coefficients), the one of the two signs
        whose first coefficient c has (c.real, c.imag) > (0, 0): op and -op
        share the key.  No operator is built."""
        strings = sorted(self._terms)
        coefficients = [self._terms[k] for k in strings]
        if adjoint:
            coefficients = [c.conjugate() for c in coefficients]
        c = coefficients[0] if strings else 1.0
        if c.real > 0 or (c.real == 0 and c.imag > 0):
            return (tuple(strings), tuple(coefficients)), 1.0
        return (tuple(strings), tuple(-v for v in coefficients)), -1.0

    # ---- algebra ----

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        if not isinstance(other, PauliOperator):
            return NotImplemented
        terms = dict(self._terms)
        for k, c in other._terms.items():
            terms[k] = terms.get(k, 0.0) + c
        return _from_masks(terms)

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        return self + (other * -1.0)

    def __neg__(self) -> "PauliOperator":
        return _from_masks({k: -c for k, c in self._terms.items()}, prune=False)

    def __mul__(self, other: "PauliOperator | complex | float | int") -> "PauliOperator":
        if isinstance(other, PauliOperator):
            return multiply(self, other)
        return scalar_multiply(self, other)

    def __rmul__(self, other: complex) -> "PauliOperator":
        return scalar_multiply(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        """Equal operators hash alike, whatever order their terms were added in."""
        return hash(frozenset(self._terms.items()))

    def isclose(self, other: "PauliOperator", tolerance: float = 1e-10) -> bool:
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= tolerance
            for k in keys
        )

    def __str__(self) -> str:
        """One term per line, as ``parse_hamiltonian`` reads it."""
        if not self._terms:
            return "0"
        return "\n".join(str(t) for t in self.terms())

    __repr__ = __str__


def _from_masks(terms: dict[Masks, complex], prune: bool = True) -> PauliOperator:
    """Operator over already-encoded strings, dropping negligible terms
    unless the caller knows every |c| is that of a kept term."""
    op = PauliOperator()
    op._terms = terms
    if prune:
        op._prune()
    return op


def scalar_multiply(a: PauliOperator, c: complex) -> PauliOperator:
    return _from_masks({k: v * c for k, v in a._terms.items()})


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Distributive product: XOR of the masks times the popcount phase."""
    right = [(xb, zb, (xb & zb).bit_count(), cb) for (xb, zb), cb in b._terms.items()]
    terms: dict[Masks, complex] = {}
    for (xa, za), ca in a._terms.items():
        ya = (xa & za).bit_count()
        for xb, zb, yb, cb in right:
            x, z = xa ^ xb, za ^ zb
            power = ya + yb - (x & z).bit_count() + 2 * (za & xb).bit_count()
            key = (x, z)
            terms[key] = terms.get(key, 0.0) + ca * cb * _PHASES[power & 3]
    return _from_masks(terms)


def commutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """[a, b] in one pass over the term pairs.

    Two strings commute or anticommute, as |xa&zb| + |za&xb| is even or
    odd, and an anticommuting pair has b·a = -a·b, so [a, b] is twice the
    sum of a·b over the anticommuting pairs.
    """
    right = [(xb, zb, (xb & zb).bit_count(), cb) for (xb, zb), cb in b._terms.items()]
    terms: dict[Masks, complex] = {}
    for (xa, za), ca in a._terms.items():
        ya = (xa & za).bit_count()
        for xb, zb, yb, cb in right:
            if not ((xa & zb).bit_count() + (za & xb).bit_count()) & 1:
                continue
            x, z = xa ^ xb, za ^ zb
            power = ya + yb - (x & z).bit_count() + 2 * (za & xb).bit_count()
            key = (x, z)
            terms[key] = terms.get(key, 0.0) + ca * cb * _PHASES[power & 3]
    return _from_masks({key: 2 * c for key, c in terms.items()})


_TERM_RE = re.compile(
    r"^\s*(?P<coef>\(\s*[^,()\s]+\s*,\s*[^,()\s]+\s*\)|[^\s()]+)(?P<rest>(\s+[XYZ]\d+)*)\s*$"
)


def pauli_from_string(s: str) -> PauliOperator:
    """Parse one term of the form ``<coef> [<L><q>]*``.

    ``coef`` is a real literal or a complex pair ``(<re>,<im>)``; letters
    are X, Y, Z with non-negative qubit indices, e.g. ``"0.5818 Z0 Z1"``.
    """
    m = _TERM_RE.match(s)
    if m is None:
        raise ValueError(f"malformed Pauli term: {s!r}")
    coef_text = m.group("coef")
    try:
        if coef_text.startswith("("):
            re_part, im_part = coef_text[1:-1].split(",")
            coef = complex(float(re_part), float(im_part))
        else:
            coef = complex(float(coef_text))
    except ValueError:
        raise ValueError(f"malformed coefficient in Pauli term: {s!r}") from None
    ops = [(int(token[1:]), token[0]) for token in m.group("rest").split()]
    return PauliOperator(ops, coef)


def parse_hamiltonian(text: str) -> PauliOperator:
    """Sum the one-term-per-line Hamiltonian file format.

    ``#`` starts a comment; blank lines are ignored.  The terms are summed
    into one dict in file order, each parsed term and each updated string
    pruned as ``+`` prunes them, so the sum equals that of repeated ``+``.
    """
    terms: dict[Masks, complex] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            term = pauli_from_string(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        for key, c in term._terms.items():
            terms[key] = terms.get(key, 0.0) + c
            if abs(terms[key]) < PRUNE_THRESHOLD:
                del terms[key]
    return _from_masks(terms, prune=False)


def load_hamiltonian(path: str) -> PauliOperator:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_hamiltonian(handle.read())


def to_matrix(a: PauliOperator, n_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix; qubit 0 is the leftmost Kronecker factor."""
    if n_qubits > 12:
        raise ValueError(f"to_matrix capped at 12 qubits, got {n_qubits}")
    if a.max_qubit() >= n_qubits:
        raise ValueError(
            f"operator touches qubit {a.max_qubit()} but n_qubits={n_qubits}"
        )
    dim = 2**n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for term in a.terms():
        ops = dict(term.ops)
        factor = np.array([[1.0]], dtype=complex)
        for q in range(n_qubits):
            letter = ops.get(q)
            factor = np.kron(factor, _MATRICES[letter] if letter else np.eye(2))
        out += term.coefficient * factor
    return out


def observe(
    obs: PauliOperator, circuit: CompositeInstruction
) -> list[tuple[PauliTerm, CompositeInstruction]]:
    """One measured circuit per non-identity term of a Hermitian observable.

    Basis changes: X -> H, Y -> Sdg;H, Z -> none, then Measure on each
    support qubit.  The identity term is the caller's constant offset and
    gets no circuit.
    """
    if not obs.is_hermitian():
        raise ValueError("observe requires a Hermitian observable")
    if any(inst.name == "Measure" for inst in circuit.instructions()):
        raise ValueError("circuit already contains Measure instructions")
    out = []
    for term in obs.terms():
        if not term.ops:
            continue
        measured = create_composite(f"{circuit.name}:{term.pauli_string()}")
        measured.add_all(circuit.children)
        for q, letter in term.ops:
            for gate in INTO_Z.get(letter, ()):
                measured.add(create_instruction(gate, [q]))
        for q, _ in term.ops:
            measured.add(create_instruction("Measure", [q]))
        out.append((term, measured))
    return out


def _parity_expectation(support: tuple[int, ...], counts: Mapping[str, float]) -> float:
    total = 0.0
    acc = 0.0
    for bits, weight in counts.items():
        parity = sum(int(bits[q]) for q in support) & 1
        acc += -weight if parity else weight
        total += weight
    if total == 0:
        raise ValueError("counts sum to zero")
    return acc / total


def expectation_from_counts(term: PauliTerm, counts: Mapping[str, float]) -> float:
    """Coefficient-weighted parity average of the term over outcome counts.

    Bitstrings are full-register, qubit 0 leftmost; they must cover the
    term's support.
    """
    if not counts:
        raise ValueError("empty counts")
    return term.coefficient.real * _parity_expectation(term.support, counts)


def random_operator(
    rng: np.random.Generator, n_qubits: int, n_terms: int, complex_coeffs: bool = False
) -> PauliOperator:
    """Random operator for property tests (uniform letters/supports)."""
    terms: dict[Masks, complex] = {}
    for _ in range(n_terms):
        ops = [(q, str(rng.choice(["I", "X", "Y", "Z"]))) for q in range(n_qubits)]
        coef = rng.normal()
        if complex_coeffs:
            coef = coef + 1j * rng.normal()
        key = encode(ops)
        terms[key] = terms.get(key, 0.0) + coef
    return _from_masks({k: complex(c) for k, c in terms.items()})
