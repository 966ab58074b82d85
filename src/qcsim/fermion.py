"""Second-quantized fermionic operators and the Jordan-Wigner transform.

Spin-orbital layout: alpha spin-orbitals occupy qubits 0..nq/2-1, beta
spin-orbitals the second half.  The Jordan-Wigner string places Z on all
modes strictly below the ladder operator's mode.

``excitation_modes`` is the one enumeration of the singles/doubles
manifold off the reference determinant, as (occ, virt) indices: UCCSD,
both ADAPT pools and the QEOM basis read it alone.  An
``ExcitationOperator`` is one entry's T, or T†, as a value: the simulator
applies it on its amplitude pairs, and its JW ``image()`` is built, from
``ir._jw_strings``, only when asked for.  ``jordan_wigner`` maps any other
``FermionOperator``, as a product of ladder images.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .ir import _jw_strings
from .pauli import PauliOperator

# ladder op: (mode index, is_creation)
LadderOp = tuple[int, bool]


@dataclass(frozen=True)
class FermionTerm:
    """Ordered product of ladder operators with a coefficient.

    Order is significant; anti-commutation is never applied here.
    """

    ladder_ops: tuple[LadderOp, ...]
    coefficient: complex = 1.0

    def dagger(self) -> "FermionTerm":
        flipped = tuple((mode, not create) for mode, create in reversed(self.ladder_ops))
        return FermionTerm(flipped, self.coefficient.conjugate())

    def __str__(self) -> str:
        ops = " ".join(f"a{'†' if c else ''}_{m}" for m, c in self.ladder_ops)
        return f"({self.coefficient}) {ops or '1'}"


class FermionOperator:
    """Plain list of FermionTerms; zero-coefficient terms are dropped."""

    def __init__(self, terms: "list[FermionTerm] | FermionTerm | None" = None):
        if terms is None:
            terms = []
        if isinstance(terms, FermionTerm):
            terms = [terms]
        self.terms: list[FermionTerm] = [t for t in terms if t.coefficient != 0]

    @staticmethod
    def ladder(ops: list[LadderOp], coefficient: complex = 1.0) -> "FermionOperator":
        return FermionOperator(FermionTerm(tuple(ops), coefficient))

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        return FermionOperator(self.terms + other.terms)

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "FermionOperator":
        return FermionOperator(
            [FermionTerm(t.ladder_ops, t.coefficient * scalar) for t in self.terms]
        )

    __rmul__ = __mul__

    def dagger(self) -> "FermionOperator":
        return FermionOperator([t.dagger() for t in self.terms])

    def max_mode(self) -> int:
        return max((m for t in self.terms for m, _ in t.ladder_ops), default=-1)

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self.terms) or "0"

    __repr__ = __str__


def _jw_ladder(mode: int, is_creation: bool) -> PauliOperator:
    # a†_p = Z_0..Z_{p-1} (X_p - iY_p)/2 ; a_p has +iY_p
    z_string = {q: "Z" for q in range(mode)}
    sign = -0.5j if is_creation else 0.5j
    x_part = PauliOperator({**z_string, mode: "X"}, 0.5)
    y_part = PauliOperator({**z_string, mode: "Y"}, sign)
    return x_part + y_part


def jordan_wigner(f: FermionOperator, n_modes: int) -> PauliOperator:
    """Map a FermionOperator onto qubits, one mode per qubit."""
    if f.max_mode() >= n_modes:
        raise ValueError(
            f"operator touches mode {f.max_mode()} but n_modes={n_modes}"
        )
    total = PauliOperator.zero()
    for term in f.terms:
        product = PauliOperator.identity(term.coefficient)
        for mode, is_creation in term.ladder_ops:
            product = product * _jw_ladder(mode, is_creation)
        total = total + product
    return total


def occupied_spin_orbitals(n_electrons: int, n_qubits: int) -> list[int]:
    """Reference-determinant occupation under the alpha-then-beta layout.

    Electrons fill alpha modes first (ceil(ne/2)), then beta modes; for
    even ne this is the closed-shell Hartree-Fock occupation.
    """
    if n_qubits % 2 != 0:
        raise ValueError(f"n_qubits must be even, got {n_qubits}")
    if not 0 < n_electrons <= n_qubits:
        raise ValueError(f"need 0 < n_electrons <= n_qubits, got {n_electrons}")
    n_alpha = (n_electrons + 1) // 2
    n_beta = n_electrons // 2
    n_spatial = n_qubits // 2
    if n_alpha > n_spatial:
        raise ValueError(f"{n_electrons} electrons do not fit {n_qubits} spin-orbitals")
    return list(range(n_alpha)) + [n_spatial + i for i in range(n_beta)]


def excitation_modes(
    n_electrons: int, n_qubits: int, spin_preserving: bool = True
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every single, then every double, excitation off the reference.

    Each entry is (occ, virt): the occupied modes emptied and the virtual
    modes filled.  Each group is index-lexicographic.  ``spin_preserving``
    keeps the excitations that conserve Sz: as many beta modes in occ as in
    virt.
    """
    occupied = occupied_spin_orbitals(n_electrons, n_qubits)
    virtual = [q for q in range(n_qubits) if q not in occupied]
    beta = set(range(n_qubits // 2, n_qubits))
    return [
        (occ, virt)
        for rank in (1, 2)
        for occ in combinations(occupied, rank)
        for virt in combinations(virtual, rank)
        if not spin_preserving or len(beta.intersection(occ)) == len(beta.intersection(virt))
    ]


@dataclass(frozen=True)
class ExcitationOperator:
    """T = a†_virt... a_occ... (occ in reverse) for one ``excitation_modes``
    entry (occ, virt), or T† when ``adjoint``.

    T maps each determinant with occ full and virt empty to +-1 times the
    one with occ empty and virt full, and every other to 0: a map of
    amplitude pairs, which ``backend.PreparedState.expect_commutators``
    applies.  Its JW ``image()``, which sampled mode measures, is built
    on each call.
    """

    occ: tuple[int, ...]
    virt: tuple[int, ...]
    adjoint: bool = False

    def dagger(self) -> "ExcitationOperator":
        return ExcitationOperator(self.occ, self.virt, not self.adjoint)

    def n_qubits(self) -> int:
        """The width of its image: one past its highest mode."""
        return max(self.occ + self.virt) + 1

    def image(self) -> PauliOperator:
        """The JW image of T, from its strings, or that image's adjoint."""
        image = PauliOperator.from_terms(dict(_jw_strings(self.occ, self.virt)))
        return image.dagger() if self.adjoint else image

