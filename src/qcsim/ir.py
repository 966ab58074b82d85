"""Polymorphic circuit intermediate representation.

Instructions are concrete gates; CompositeInstruction is an n-ary tree
whose leaves are instructions.  A PauliRotation is a composite that also
names the Pauli string its gates rotate about.  Rotation parameters are
either concrete reals (radians) or symbolic linear forms ``scale * var``.

Rotation convention: R_P(theta) = exp(-i * theta * P / 2).
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Instruction:
    """A single gate acting on an ordered list of qubits."""

    name: str
    qubits: tuple[int, ...]
    parameters: tuple[Parameter, ...] = ()

    @property
    def is_concrete(self) -> bool:
        return all(not p.is_symbolic for p in self.parameters)

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
        self.children: list[Instruction | CompositeInstruction] = []
        self.variables: list[str] = []

    def add(self, node: "Instruction | CompositeInstruction") -> "CompositeInstruction":
        self.children.append(node)
        for var in _node_variables(node):
            if var not in self.variables:
                self.variables.append(var)
        return self

    def add_all(self, nodes: Iterable["Instruction | CompositeInstruction"]) -> "CompositeInstruction":
        for node in nodes:
            self.add(node)
        return self

    def instructions(self) -> Iterator[Instruction]:
        """Leaves of the tree in depth-first (source) order."""
        for child in self.children:
            if isinstance(child, Instruction):
                yield child
            else:
                yield from child.instructions()

    @property
    def is_concrete(self) -> bool:
        return not self.variables

    def n_instructions(self) -> int:
        return sum(1 for _ in self.instructions())

    def max_qubit(self) -> int:
        return max(
            (
                max(child.qubits) if isinstance(child, Instruction) else child.max_qubit()
                for child in self.children
            ),
            default=-1,
        )

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


class PauliRotation(CompositeInstruction):
    """R_P(theta) = exp(-i theta P / 2) for one unit Pauli string P.

    The children are the gates ``ansatz.exp_pauli`` lowers one term to:
    basis changes into Z, a CNOT ladder onto the highest support qubit,
    Rz(theta) there, and the mirror image.  Every reader of the leaves
    (``instructions``, ``pretty_print``, ``depth``, the kernel text) sees
    those gates.  ``pauli`` holds P as a one-term operator; ir treats it as
    opaque (``pauli`` imports ir), and only the simulator reads it, to apply
    the node in one pass with theta read from the Rz child.  ``qubits`` is
    the support of P in ascending order.
    """

    def __init__(self, pauli, gates: Iterable[Instruction]):
        super().__init__("pauli_rotation")
        self.pauli = pauli
        self.add_all(gates)
        self.qubits = tuple(sorted({q for gate in self.children for q in gate.qubits}))

    @property
    def angle(self) -> Parameter:
        """theta, the parameter of the Rz child."""
        return next(gate for gate in self.children if gate.name == "Rz").parameters[0]

    def max_qubit(self) -> int:
        return self.qubits[-1]


def _node_variables(node: Instruction | CompositeInstruction) -> list[str]:
    if isinstance(node, Instruction):
        return [p.var for p in node.parameters if p.is_symbolic]
    return list(node.variables)


def create_composite(name: str) -> CompositeInstruction:
    return CompositeInstruction(name)


def evaluate(circuit: CompositeInstruction, values: Iterable[float]) -> CompositeInstruction:
    """Deep copy with every symbolic parameter bound to its numeric value."""
    values = [float(v) for v in values]
    if len(values) != len(circuit.variables):
        raise IRError(
            f"circuit '{circuit.name}' has {len(circuit.variables)} variable(s) "
            f"{circuit.variables}, got {len(values)} value(s)"
        )
    binding = dict(zip(circuit.variables, values))
    return _bind(circuit, binding)


def _bind(circuit: CompositeInstruction, binding: dict[str, float]) -> CompositeInstruction:
    # a shallow copy keeps the node's type and attributes (a PauliRotation's P)
    out = copy.copy(circuit)
    out.children, out.variables = [], []
    for child in circuit.children:
        if isinstance(child, Instruction):
            if child.is_concrete:
                out.add(child)
            else:
                params = tuple(
                    p if not p.is_symbolic else Parameter.concrete(p.evaluate(binding))
                    for p in child.parameters
                )
                out.add(Instruction(child.name, child.qubits, params))
        else:
            out.add(_bind(child, binding))
    return out


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
    theta = inst.parameters[0].value
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if inst.name == "Rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if inst.name == "Ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if inst.name == "Rz":
        return np.array(
            [[np.exp(-1j * theta / 2.0), 0], [0, np.exp(1j * theta / 2.0)]],
            dtype=complex,
        )
    raise IRError(f"unknown gate '{inst.name}'")


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
