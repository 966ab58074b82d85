"""Pauli-operator algebra and circuit observation.

A PauliOperator is a canonicalized sum of weighted Pauli strings; it is
the universal observable/Hamiltonian representation.  "Observing" an
unmeasured circuit produces one measured circuit per non-identity term
(basis changes + Measure on the term's support).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .ir import CompositeInstruction, create_composite, create_instruction

PRUNE_THRESHOLD = 1e-14
HERMITIAN_TOLERANCE = 1e-12

# key type: tuple of (qubit, letter) sorted by qubit; () is the identity
PauliKey = tuple[tuple[int, str], ...]

# single-qubit products: (a, b) -> (phase, result letter or "" for identity)
_PRODUCTS = {
    ("X", "X"): (1.0, ""),
    ("Y", "Y"): (1.0, ""),
    ("Z", "Z"): (1.0, ""),
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}

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
        return f"({self.coefficient}) {self.pauli_string()}"


def _canonical_key(ops: Mapping[int, str] | Iterable[tuple[int, str]]) -> PauliKey:
    items = ops.items() if isinstance(ops, Mapping) else ops
    out = []
    for q, letter in sorted(items):
        if letter == "I":
            continue
        if letter not in ("X", "Y", "Z"):
            raise ValueError(f"invalid Pauli letter '{letter}'")
        if q < 0:
            raise ValueError(f"negative qubit index {q}")
        out.append((int(q), letter))
    return tuple(out)


class PauliOperator:
    """Canonicalized sum of Pauli strings with complex coefficients."""

    def __init__(
        self,
        ops: "Mapping[int, str] | Iterable[tuple[int, str]] | complex | None" = None,
        coefficient: complex = 1.0,
    ):
        self._terms: dict[PauliKey, complex] = {}
        if isinstance(ops, (int, float, complex)):
            # identity-term shorthand: PauliOperator(0.2976)
            self._terms[()] = complex(ops) * complex(coefficient)
        elif ops is not None:
            key = _canonical_key(ops)
            self._terms[key] = complex(coefficient)
        self._prune()

    @staticmethod
    def zero() -> "PauliOperator":
        return PauliOperator()

    @staticmethod
    def identity(coefficient: complex = 1.0) -> "PauliOperator":
        return PauliOperator({}, coefficient)

    @staticmethod
    def from_terms(terms: Mapping[PauliKey, complex]) -> "PauliOperator":
        op = PauliOperator()
        op._terms = {k: complex(c) for k, c in terms.items()}
        op._prune()
        return op

    def _prune(self) -> None:
        self._terms = {
            k: c for k, c in self._terms.items() if abs(c) >= PRUNE_THRESHOLD
        }

    # ---- inspection ----

    def terms(self) -> Iterator[PauliTerm]:
        for key in sorted(self._terms):
            yield PauliTerm(key, self._terms[key])

    def n_terms(self) -> int:
        return len(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, ops: Mapping[int, str] | PauliKey) -> complex:
        return self._terms.get(_canonical_key(ops), 0.0)

    @property
    def identity_coefficient(self) -> complex:
        return self._terms.get((), 0.0)

    def max_qubit(self) -> int:
        return max((q for key in self._terms for q, _ in key), default=-1)

    def n_qubits(self) -> int:
        return self.max_qubit() + 1

    def is_hermitian(self, tolerance: float = HERMITIAN_TOLERANCE) -> bool:
        return all(abs(c.imag) <= tolerance for c in self._terms.values())

    def dagger(self) -> "PauliOperator":
        return PauliOperator.from_terms(
            {k: c.conjugate() for k, c in self._terms.items()}
        )

    def is_zero(self) -> bool:
        return not self._terms

    # ---- algebra ----

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        if not isinstance(other, PauliOperator):
            return NotImplemented
        terms = dict(self._terms)
        for k, c in other._terms.items():
            terms[k] = terms.get(k, 0.0) + c
        return PauliOperator.from_terms(terms)

    def __iadd__(self, other: "PauliOperator") -> "PauliOperator":
        return self.__add__(other)

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        return self + (other * -1.0)

    def __neg__(self) -> "PauliOperator":
        return self * -1.0

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

    def isclose(self, other: "PauliOperator", tolerance: float = 1e-10) -> bool:
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= tolerance
            for k in keys
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(str(t) for t in self.terms())

    __repr__ = __str__


def scalar_multiply(a: PauliOperator, c: complex) -> PauliOperator:
    return PauliOperator.from_terms({k: v * c for k, v in a._terms.items()})


def _multiply_keys(ka: PauliKey, kb: PauliKey) -> tuple[complex, PauliKey]:
    ops_a = dict(ka)
    phase = 1.0 + 0.0j
    merged = dict(ka)
    for q, letter_b in kb:
        letter_a = ops_a.get(q)
        if letter_a is None:
            merged[q] = letter_b
            continue
        p, result = _PRODUCTS[(letter_a, letter_b)]
        phase *= p
        if result:
            merged[q] = result
        else:
            del merged[q]
    return phase, _canonical_key(merged)


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Distributive product using the single-qubit Pauli relations."""
    terms: dict[PauliKey, complex] = {}
    for ka, ca in a._terms.items():
        for kb, cb in b._terms.items():
            phase, key = _multiply_keys(ka, kb)
            terms[key] = terms.get(key, 0.0) + ca * cb * phase
    return PauliOperator.from_terms(terms)


def commutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    return multiply(a, b) - multiply(b, a)


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
    ops: dict[int, str] = {}
    for token in m.group("rest").split():
        letter, qubit = token[0], int(token[1:])
        if qubit in ops:
            raise ValueError(f"qubit {qubit} repeated in Pauli term: {s!r}")
        ops[qubit] = letter
    return PauliOperator(ops, coef)


def parse_hamiltonian(text: str) -> PauliOperator:
    """Sum the one-term-per-line Hamiltonian file format.

    ``#`` starts a comment; blank lines are ignored.
    """
    total = PauliOperator.zero()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            total = total + pauli_from_string(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return total


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
            if letter == "X":
                measured.add(create_instruction("H", [q]))
            elif letter == "Y":
                measured.add(create_instruction("Sdg", [q]))
                measured.add(create_instruction("H", [q]))
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
    terms: dict[PauliKey, complex] = {}
    for _ in range(n_terms):
        ops = {}
        for q in range(n_qubits):
            letter = rng.choice(["I", "X", "Y", "Z"])
            if letter != "I":
                ops[q] = str(letter)
        coef = rng.normal()
        if complex_coeffs:
            coef = coef + 1j * rng.normal()
        key = _canonical_key(ops)
        terms[key] = terms.get(key, 0.0) + coef
    return PauliOperator.from_terms(terms)
