"""Polymorphic circuit intermediate representation.

A circuit is a tree of four node kinds.  ``Instruction`` (one gate),
``PauliRotation`` (R_P(theta), stored as P's letters and theta) and
``ExcitationRotation`` (exp(theta (T - T†)) for a fermionic excitation T,
stored as its occ and virt modes and theta) are immutable leaves, and
``CompositeInstruction`` is a named n-ary tree over them.  Every node
answers ``instructions()``, its gates in source order; a rotation derives
its lowering (basis changes, CNOT ladder, Rz, mirror per Pauli string) on
each read.  ``leaves()`` yields the stored nodes, one simulator step
each.  Parameters are concrete reals (radians) or symbolic linear forms
``scale * var``.

Rotation convention: R_P(theta) = exp(-i * theta * P / 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import IRError

# gate name -> (number of qubits, number of parameters)
GATE_TABLE: dict[str, tuple[int, int]] = {
    "I": (1, 0),
    "X": (1, 0),
    "Y": (1, 0),
    "Z": (1, 0),
    "H": (1, 0),
    "S": (1, 0),
    "Sdg": (1, 0),
    "T": (1, 0),
    "Rx": (1, 1),
    "Ry": (1, 1),
    "Rz": (1, 1),
    "CNOT": (2, 0),
    "CZ": (2, 0),
    "Swap": (2, 0),
    "Measure": (1, 0),
}

# Pauli letter -> the one-qubit gates that rotate its eigenbasis into Z's,
# and back out of it
INTO_Z = {"X": ("H",), "Y": ("Sdg", "H")}
OUT_OF_Z = {"X": ("H",), "Y": ("H", "S")}


@dataclass(frozen=True)
class Parameter:
    """Concrete angle or symbolic linear form ``scale * var``."""

    value: float | None = None
    var: str | None = None
    scale: float = 1.0

    @staticmethod
    def concrete(value: float) -> "Parameter":
        return Parameter(value=float(value))

    @staticmethod
    def symbolic(var: str, scale: float = 1.0) -> "Parameter":
        if not var:
            raise IRError("symbolic parameter needs a variable name")
        return Parameter(var=var, scale=float(scale))

    @property
    def is_symbolic(self) -> bool:
        return self.var is not None

    def scaled(self, factor: float) -> "Parameter":
        """``factor`` times this angle, concrete or symbolic alike."""
        if self.var is None:
            return Parameter.concrete(factor * self.value)
        return Parameter.symbolic(self.var, self.scale * factor)

    def evaluate(self, binding: dict[str, float]) -> float:
        if self.var is None:
            return self.value  # type: ignore[return-value]
        if self.var not in binding:
            raise IRError(f"unbound variable '{self.var}'")
        return self.scale * binding[self.var]

    def __str__(self) -> str:
        if self.var is None:
            return repr(self.value)
        if self.scale == 1.0:
            return self.var
        if self.scale == -1.0:
            return f"-{self.var}"
        return f"{self.scale!r}*{self.var}"


def as_parameter(p: "Parameter | float | int | str") -> Parameter:
    if isinstance(p, Parameter):
        return p
    if isinstance(p, str):
        return Parameter.symbolic(p)
    return Parameter.concrete(float(p))


class _Leaf:
    """What a gate and the rotations share: ``qubits`` and ``parameters``."""

    @property
    def is_concrete(self) -> bool:
        return all(not p.is_symbolic for p in self.parameters)

    @property
    def variables(self) -> list[str]:
        return [p.var for p in self.parameters if p.is_symbolic]

    def leaves(self) -> Iterator["_Leaf"]:
        yield self

    def max_qubit(self) -> int:
        return max(self.qubits)


@dataclass(frozen=True)
class Instruction(_Leaf):
    """A single gate acting on an ordered list of qubits."""

    name: str
    qubits: tuple[int, ...]
    parameters: tuple[Parameter, ...] = ()

    def instructions(self) -> Iterator["Instruction"]:
        yield self

    def __str__(self) -> str:
        args = ", ".join(f"q[{q}]" for q in self.qubits)
        if self.parameters:
            args += ", " + ", ".join(str(p) for p in self.parameters)
        return f"{self.name}({args});"


def create_instruction(
    name: str,
    qubits: Iterable[int],
    params: Iterable[Union[Parameter, float, str]] = (),
) -> Instruction:
    """Validated gate construction (arity, parameter count, index sanity)."""
    if name not in GATE_TABLE:
        raise IRError(f"unknown gate '{name}'")
    nq, np_ = GATE_TABLE[name]
    qubits = tuple(int(q) for q in qubits)
    if len(qubits) != nq:
        raise IRError(f"{name} acts on {nq} qubit(s), got {len(qubits)}")
    if any(q < 0 for q in qubits):
        raise IRError(f"{name}: negative qubit index in {qubits}")
    if len(set(qubits)) != len(qubits):
        raise IRError(f"{name}: duplicate qubit index in {qubits}")
    parameters = tuple(as_parameter(p) for p in params)
    if len(parameters) != np_:
        raise IRError(f"{name} takes {np_} parameter(s), got {len(parameters)}")
    return Instruction(name, qubits, parameters)


class CompositeInstruction:
    """Named n-ary tree of instructions with free symbolic variables."""

    def __init__(self, name: str):
        self.name = name
        self.children: list[Node] = []
        self.variables: list[str] = []

    def add(self, node: Node) -> CompositeInstruction:
        self.children.append(node)
        for var in node.variables:
            if var not in self.variables:
                self.variables.append(var)
        return self

    def add_all(self, nodes: Iterable[Node]) -> CompositeInstruction:
        for node in nodes:
            self.add(node)
        return self

    def instructions(self) -> Iterator[Instruction]:
        """Gates of the tree in depth-first (source) order."""
        for child in self.children:
            yield from child.instructions()

    def leaves(self) -> Iterator[Instruction | PauliRotation | ExcitationRotation]:
        """Stored gates and rotations in depth-first (source) order."""
        for child in self.children:
            yield from child.leaves()

    @property
    def is_concrete(self) -> bool:
        return not self.variables

    def n_instructions(self) -> int:
        return sum(1 for _ in self.instructions())

    def max_qubit(self) -> int:
        return max((child.max_qubit() for child in self.children), default=-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompositeInstruction):
            return NotImplemented
        return (
            self.name == other.name
            and self.variables == other.variables
            and self.children == other.children
        )

    def __repr__(self) -> str:
        return (
            f"CompositeInstruction({self.name!r}, {self.n_instructions()} instructions, "
            f"variables={self.variables})"
        )


@dataclass(frozen=True)
class PauliRotation(_Leaf):
    """R_P(theta) = exp(-i theta P / 2) for one unit Pauli string P.

    The node is the value (P, theta): ``ops`` is P's (qubit, letter) pairs
    in ascending qubit order and ``parameters`` is (theta,).  The simulator
    encodes ``ops`` to apply the node in one pass.  ``instructions()``
    lowers the node on each read: basis changes into Z, a CNOT ladder onto
    the highest support qubit, Rz(theta) there, and the mirror image.
    Every reader of gates (``pretty_print``, ``depth``, ``count_gates``,
    the kernel text) sees that sequence.
    """

    ops: tuple[tuple[int, str], ...]
    parameters: tuple[Parameter]

    name = "pauli_rotation"

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.ops)

    @property
    def angle(self) -> Parameter:
        return self.parameters[0]

    def instructions(self) -> Iterator[Instruction]:
        return _lowering(self.ops, self.angle)


def _lowering(ops: tuple[tuple[int, str], ...], angle: Parameter) -> Iterator[Instruction]:
    """The gates of R_P(angle) for P given by ``ops``."""
    qubits = [q for q, _ in ops]
    ladder = list(zip(qubits, qubits[1:]))
    for q, letter in ops:
        for gate in INTO_Z.get(letter, ()):
            yield Instruction(gate, (q,))
    for pair in ladder:
        yield Instruction("CNOT", pair)
    yield Instruction("Rz", (qubits[-1],), (angle,))
    for pair in reversed(ladder):
        yield Instruction("CNOT", pair)
    for q, letter in reversed(ops):
        for gate in OUT_OF_Z.get(letter, ()):
            yield Instruction(gate, (q,))


def _jw_parity(occ: "tuple[int, ...] | np.ndarray", virt: "tuple[int, ...] | np.ndarray") -> tuple:
    """(sign, parity) of T = a†_virt... a_occ...: T|x> = sign *
    (-1)^|x & parity| |x'> for every occupation x with occ full and virt
    empty (x' has occ empty, virt full), with bit q of x and of the parity
    mask for mode q.

    Closed form: a_occ[i] acts while occ[i+1:] are full and a†_virt[i]
    while virt[i+1:] are, so the index modes below them in their JW
    strings give sign = (-1)^(inversions of occ + inversions of virt), and
    the other modes give parity, the XOR of the index modes' below-masks
    without the index modes.  -1 << q is the complement of q's below-mask,
    so the XOR of the m complements is that XOR, complemented for odd m.
    Bit k of the XOR is the parity of the number of index modes above k,
    which flips at each index mode, so a set bit is an index mode exactly
    when the bit below it is unset (below bit 0 stands the parity of all
    of them); clearing those drops the index modes.  ``occ`` and ``virt``
    are tuples of modes, or mode arrays whose row i holds mode i of many
    excitations, and sign and parity are then arrays.  The one copy of the
    JW sign arithmetic: ``_jw_strings``, ``ExcitationRotation.qubits`` and
    the simulator's amplitude pairs read it.
    """
    odd, below, m = False, 0, len(occ) + len(virt)
    for modes in (occ, virt):
        for mode in modes:
            below ^= -1 << mode
        for earlier, later in combinations(modes, 2):
            odd ^= later < earlier
    if m & 1:
        below = ~below
    return (-1) ** odd, below & (below << 1 | m & 1)


def _jw_strings(
    occ: tuple[int, ...], virt: tuple[int, ...]
) -> list[tuple[tuple[tuple[int, str], ...], complex]]:
    """(ops, c) of each Pauli string of the JW image of T = a†_virt...
    a_occ...: sign * Z^parity times one ladder letter per index mode, a† as
    (X - iY)/2 and a as (X + iY)/2, so X or Y on each index mode, in
    ``product("XY")`` order over the sorted index modes."""
    sign, parity = _jw_parity(occ, virt)
    modes = sorted(occ + virt)
    between = [(q, "Z") for q in range(modes[-1]) if parity >> q & 1]
    return [
        (
            tuple(sorted([*zip(modes, letters), *between])),
            sign * math.prod(
                ((-0.5j if q in virt else 0.5j) if letter == "Y" else 0.5)
                for q, letter in zip(modes, letters)
            ),
        )
        for letters in product("XY", repeat=len(modes))
    ]


@dataclass(frozen=True)
class ExcitationRotation(_Leaf):
    """exp(theta (T - T†)) for one fermionic excitation T = a†_virt... a_occ...

    ``occ`` and ``virt`` are the modes T empties and fills, as
    ``fermion.excitation_modes`` lists them (T = a†_virt[0] a†_virt[1]
    a_occ[1] a_occ[0] for a double), and ``parameters`` is (theta,).
    Under Jordan-Wigner (mode q on qubit q, Z on every mode below a ladder
    operator's), T is sign * Z^parity * (one ladder letter per index
    mode); ``_jw_parity`` derives (sign, parity) from (occ, virt) with
    integer bit arithmetic, and ``_jw_strings`` T's strings from them.
    T - T† is then a sum of 2 (single) or 8 (double) commuting strings,
    X or Y on the index modes with an odd number of Y and Z on the parity
    modes between them, so the node is the product of their rotations.
    ``rotations()`` lists them in sorted string order with angles
    +-theta (single) or +-theta/4 (double): the order and angles
    ``exp_pauli`` gives the terms of T - T†.  ``instructions()`` lowers
    each in turn; the simulator applies the node as one Givens rotation.
    """

    occ: tuple[int, ...]
    virt: tuple[int, ...]
    parameters: tuple[Parameter]

    name = "excitation_rotation"

    @property
    def qubits(self) -> tuple[int, ...]:
        """The support of its strings: the index modes and the parity modes."""
        support = _jw_parity(self.occ, self.virt)[1] | sum(1 << q for q in self.occ + self.virt)
        return tuple(q for q in range(support.bit_length()) if support >> q & 1)

    @property
    def angle(self) -> Parameter:
        return self.parameters[0]

    def max_qubit(self) -> int:
        return max(self.occ + self.virt)

    def rotations(self) -> list[tuple[tuple[tuple[int, str], ...], Parameter]]:
        """(ops, angle) of each Pauli rotation in the node, in sorted string order."""
        # T - T† holds a string c P of T as 2i Im(c) P, the rotation R_P(-4 Im(c) theta)
        out = [
            (ops, self.angle.scaled(-4.0 * c.imag))
            for ops, c in _jw_strings(self.occ, self.virt)
            if c.imag != 0
        ]
        return sorted(out, key=lambda rotation: rotation[0])

    def instructions(self) -> Iterator[Instruction]:
        for ops, angle in self.rotations():
            yield from _lowering(ops, angle)


Node = Union[Instruction, PauliRotation, ExcitationRotation, CompositeInstruction]


def create_composite(name: str) -> CompositeInstruction:
    return CompositeInstruction(name)


def evaluate(circuit: CompositeInstruction, values: Iterable[float]) -> CompositeInstruction:
    """Copy of the tree with every symbolic parameter bound to its numeric
    value; concrete leaves are immutable and shared with ``circuit``."""
    values = [float(v) for v in values]
    if len(values) != len(circuit.variables):
        raise IRError(
            f"circuit '{circuit.name}' has {len(circuit.variables)} variable(s) "
            f"{circuit.variables}, got {len(values)} value(s)"
        )
    binding = dict(zip(circuit.variables, values))
    return _bind(circuit, binding)


def _bind(node: Node, binding: dict[str, float]) -> Node:
    if isinstance(node, CompositeInstruction):
        out = CompositeInstruction(node.name)
        out.children = [_bind(child, binding) for child in node.children]
        return out
    if node.is_concrete:
        return node
    parameters = tuple(Parameter.concrete(p.evaluate(binding)) for p in node.parameters)
    if isinstance(node, ExcitationRotation):
        return ExcitationRotation(node.occ, node.virt, parameters)
    if isinstance(node, PauliRotation):
        return PauliRotation(node.ops, parameters)
    return Instruction(node.name, node.qubits, parameters)


def depth(circuit: CompositeInstruction) -> int:
    """Longest chain of instructions that pairwise share a qubit."""
    if not circuit.is_concrete:
        raise IRError("depth is defined for concrete circuits only")
    level: dict[int, int] = {}
    longest = 0
    for inst in circuit.instructions():
        d = 1 + max((level.get(q, 0) for q in inst.qubits), default=0)
        for q in inst.qubits:
            level[q] = d
        longest = max(longest, d)
    return longest


def count_gates(circuit: CompositeInstruction) -> dict[str, int]:
    counts: dict[str, int] = {}
    for inst in circuit.instructions():
        counts[inst.name] = counts.get(inst.name, 0) + 1
    return counts


_SQRT2 = 1.0 / math.sqrt(2.0)
_FIXED_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_SQRT2, _SQRT2], [_SQRT2, -_SQRT2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "Sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "Swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def gate_matrix(inst: Instruction) -> np.ndarray:
    """Unitary of a concrete instruction; control of CNOT is the first qubit."""
    if inst.name == "Measure":
        raise IRError("Measure has no gate matrix")
    if not inst.is_concrete:
        raise IRError(f"gate {inst.name} has unbound parameters")
    if inst.name in _FIXED_MATRICES:
        return _FIXED_MATRICES[inst.name].copy()
    return _rotation_matrix(inst.name, inst.parameters[0].value)


def _rotation_matrix(name: str, theta: float) -> np.ndarray:
    """Unitary of Rx, Ry or Rz at the angle theta: the one copy of their
    formulas, which the simulator reads too."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if name == "Rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "Ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "Rz":
        return np.array(
            [[np.exp(-1j * theta / 2.0), 0], [0, np.exp(1j * theta / 2.0)]],
            dtype=complex,
        )
    raise IRError(f"unknown gate '{name}'")


def pretty_print(circuit: CompositeInstruction) -> str:
    """Serialize to the kernel source dialect accepted by ``parse_kernel``.

    One instruction per line, two-space indent, stable formatting; this is
    the framework's canonical circuit interchange format.
    """
    params = "".join(f", double {v}" for v in circuit.variables)
    lines = [f"__qpu__ void {circuit.name}(qbit q{params}) {{"]
    for inst in circuit.instructions():
        lines.append(f"  {inst}")
    lines.append("}")
    return "\n".join(lines) + "\n"
