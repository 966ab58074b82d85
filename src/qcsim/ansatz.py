"""Circuit generators: Hartree-Fock prep, Pauli-string exponentials,
first-order Trotterized UCCSD, and operator pools for adaptive ansatze.

``exp_pauli`` emits one ``ir.PauliRotation`` value per generator term,
its unit Pauli string and angle; ``uccsd_circuit`` emits one
``ir.ExcitationRotation`` value per excitation, its (occ, virt) modes
and angle.  The simulator applies either in one pass (a Pauli rotation
over the whole vector, an excitation as a Givens rotation of amplitude
pairs), and every reader of gates gets the gate sequence (basis changes,
CNOT ladder, Rz, mirror per Pauli string), which the node derives on
each read.  Every other generator emits gates only.  UCCSD and adaptive
ansatze splice those nodes into one composite, so their instructions,
and hence their kernel text, round-trip through the kernel serializer.

UCCSD and both operator pools read their excitations' (occ, virt) modes
from ``fermion.excitation_modes`` alone; a pool builds each generator from
its ``fermion.ExcitationOperator`` values' JW ``image()`` when read, and
no generator here maps a fermion operator itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

from .errors import IRError
from .fermion import ExcitationOperator, excitation_modes, occupied_spin_orbitals
from .ir import (
    CompositeInstruction,
    ExcitationRotation,
    Node,
    Parameter,
    PauliRotation,
    as_parameter,
    create_composite,
    create_instruction,
)
from .pauli import PauliOperator

ANTI_HERMITIAN_TOLERANCE = 1e-12


@dataclass(frozen=True)
class UccsdSpec:
    """Electron/spin-orbital counts for the closed-shell UCCSD ansatz."""

    ne: int
    nq: int

    def __post_init__(self):
        if self.nq % 2 != 0:
            raise ValueError(f"nq must be even, got {self.nq}")
        if not 0 < self.ne <= self.nq:
            raise ValueError(f"need 0 < ne <= nq, got ne={self.ne}, nq={self.nq}")
        if self.ne % 2 != 0:
            raise ValueError(f"closed-shell ansatz needs even ne, got {self.ne}")


@dataclass
class OperatorPool:
    """Labeled anti-Hermitian generators for adaptive ansatz growth: element
    k is (label, scale, excitations), scale * sum (T - T†) over its values T."""

    name: str
    elements: list[tuple[str, float, tuple[ExcitationOperator, ...]]]

    def __len__(self) -> int:
        return len(self.elements)

    def labels(self) -> list[str]:
        return [label for label, _, _ in self.elements]

    def generator(self, k: int) -> PauliOperator:
        """Element k's generator as a Pauli sum, from its excitations' images."""
        _, scale, excitations = self.elements[k]
        return _anti_hermitian_sum(excitations) * scale

    def block(self, k: int, angle: "Parameter | float | str") -> list[Node]:
        """The leaves of exp(angle * generator(k)): one ``ExcitationRotation``
        for a single excitation, else the ``exp_pauli`` rotations of its
        strings, which need not commute across the excitations of a group."""
        _, scale, excitations = self.elements[k]
        angle = as_parameter(angle)
        if len(excitations) == 1:
            (excitation,) = excitations
            return [ExcitationRotation(excitation.occ, excitation.virt, (angle.scaled(scale),))]
        return exp_pauli(self.generator(k), angle).children


def hartree_fock_circuit(ne: int, nq: int) -> CompositeInstruction:
    """X layer preparing the closed-shell reference determinant.

    Alpha spin-orbitals map to the first half of the register, so the
    occupied qubits are 0..ne/2-1 and nq/2..nq/2+ne/2-1.
    """
    UccsdSpec(ne, nq)
    return reference_circuit(ne, nq, name="hf")


def reference_circuit(ne: int, nq: int, name: str = "reference") -> CompositeInstruction:
    """X layer for an arbitrary electron count (odd counts fill alpha first)."""
    circuit = create_composite(name)
    for q in occupied_spin_orbitals(ne, nq):
        circuit.add(create_instruction("X", [q]))
    return circuit


def _validate_anti_hermitian(generator: PauliOperator) -> list[tuple]:
    """Split sum_k i c_k P_k into [(ops, c_k)]; rejects Hermitian parts."""
    scale = max((abs(t.coefficient) for t in generator.terms()), default=1.0)
    terms = []
    for term in generator.terms():
        if abs(term.coefficient.real) > ANTI_HERMITIAN_TOLERANCE * scale:
            raise ValueError(
                f"generator is not anti-Hermitian: term {term.pauli_string()} "
                f"has real coefficient {term.coefficient.real}"
            )
        terms.append((term.ops, term.coefficient.imag))
    return terms


def exp_pauli(
    generator: PauliOperator, angle: "Parameter | float | str"
) -> CompositeInstruction:
    """First-order product circuit for exp(angle * generator).

    The generator must be anti-Hermitian, written as sum_k i c_k P_k with
    real c_k.  Each term becomes one ``PauliRotation`` child, the value
    (P_k, -2 c_k angle) for R_{P_k}(-2 c_k angle); no gate is built here,
    the node lowers itself when its instructions are read.  Terms are laid
    down in canonical (sorted Pauli string) order; identity terms only
    shift global phase and emit nothing.
    """
    angle = as_parameter(angle)
    circuit = create_composite("exp_pauli")
    for ops, c in _validate_anti_hermitian(generator):
        if ops:
            circuit.add(PauliRotation(ops, (angle.scaled(-2.0 * c),)))
    return circuit


def uccsd_circuit(spec: UccsdSpec) -> CompositeInstruction:
    """Hartree-Fock prep + first-order Trotterized UCCSD rotations.

    One ``ExcitationRotation`` exp(t<k> (T - T†)), with one symbolic
    variable t<k>, per excitation, in ``fermion.excitation_modes`` order:
    spin-preserving singles, then spin-preserving doubles,
    index-lexicographic within each group.  Its gates are those of
    ``exp_pauli(T - T†, t<k>)``.

    The ordering limits the ansatz: on the site-basis Hubbard dimer
    (``data/hubbard_dimer.ham``) the lowest energy UCCSD(2,4) reaches is
    -0.5, not the ground state 2 - 2 sqrt 2; in the bonding/antibonding
    basis (``data/hubbard_dimer_mo.ham``) it reaches the ground state.
    """
    circuit = create_composite("uccsd")
    circuit.add_all(hartree_fock_circuit(spec.ne, spec.nq).children)
    for k, (occ, virt) in enumerate(excitation_modes(spec.ne, spec.nq)):
        circuit.add(ExcitationRotation(occ, virt, (Parameter.symbolic(f"t{k}"),)))
    return circuit


def count_double_excitations(nq: int, ne: int) -> int:
    """Reporting formula C(nq/2, ne)^2 for the benchmark harness.

    This is the count quoted alongside construction timings, not the
    number of spin-resolved double rotations the circuit lays down.
    """
    if nq % 2 != 0:
        raise ValueError(f"nq must be even, got {nq}")
    if not ne < nq // 2:
        raise ValueError(f"reporting condition ne < nq/2 violated: ne={ne}, nq={nq}")
    return comb(nq // 2, ne) ** 2


def excitation_label(occ: Iterable[int], virt: Iterable[int]) -> str:
    """Label "(i,j)->(a,b)" of the excitation from occ into virt."""
    o = ",".join(str(i) for i in occ)
    v = ",".join(str(a) for a in virt)
    return f"({o})->({v})"


def build_pool(name: str, ne: int, nq: int) -> OperatorPool:
    """Construct an operator pool for adaptive ansatz growth.

    "uccsd": the generator T - T† of every particle-conserving single and
    double excitation, spin flips included.  "singlet-adapted-uccsd": per
    spatial signature, the sum of its spin-preserving generators,
    normalized.  Each excitation's strings carry X or Y on exactly its own
    modes, so no two groups share a string and no sum is zero or repeated.
    """
    if name == "uccsd":
        elements = [
            (excitation_label(occ, virt), 1.0, (ExcitationOperator(occ, virt),))
            for occ, virt in excitation_modes(ne, nq, spin_preserving=False)
        ]
        return OperatorPool(name, elements)
    if name == "singlet-adapted-uccsd":
        return _singlet_adapted_pool(ne, nq)
    raise ValueError(
        f"unknown pool '{name}'; supported: uccsd, singlet-adapted-uccsd"
    )


def _anti_hermitian_sum(excitations: Iterable[ExcitationOperator]) -> PauliOperator:
    images = [excitation.image() for excitation in excitations]
    return sum((image - image.dagger() for image in images), PauliOperator.zero())


def _singlet_adapted_pool(ne: int, nq: int) -> OperatorPool:
    n_spatial = nq // 2
    groups: dict[tuple, list[ExcitationOperator]] = {}
    for occ, virt in excitation_modes(ne, nq):
        signature = tuple(tuple(sorted(q % n_spatial for q in modes)) for modes in (occ, virt))
        groups.setdefault(signature, []).append(ExcitationOperator(occ, virt))
    elements = []
    for (occ_sig, virt_sig), excitations in sorted(groups.items()):
        norm = sum(abs(t.coefficient) ** 2 for t in _anti_hermitian_sum(excitations).terms()) ** 0.5
        label = f"singlet_{excitation_label(occ_sig, virt_sig)}"
        elements.append((label, 1.0 / norm, tuple(excitations)))
    return OperatorPool("singlet-adapted-uccsd", elements)
