"""Statevector accelerator, qubit-register buffer, and expectation values.

Conventions (single source of truth for the whole framework):
qubit 0 is the leftmost character of every bitstring, the most
significant bit of a statevector amplitude index, and the leftmost
Kronecker factor of ``pauli.to_matrix``.

Prepare once, measure many: ``StatevectorAccelerator.prepare(circuit, n)``
checks a measurement-free, concrete circuit against an n-qubit register
and returns a ``PreparedState``, the only way an algorithm reads a state;
exact mode (``shots == 0``) and sampled mode differ only inside it.
``expect(op)`` gives <psi|op|psi>: exact mode simulates once (through the
public ``statevector``) and takes a ``vdot`` on the cached vector per
call; sampled mode draws as a per-call estimate does, one ``observe``
circuit and one ``execute_and_reduce`` per distinct non-identity string,
in sorted order.  ``evolve(block)`` applies a further block (checked as
``prepare`` checks) to the cached vector, or extends the sampled circuit.
``moments(op, k)`` gives <op>..<op^k>: repeated ``apply_pauli`` on the
cached vector, or ``expect`` of each ``multiply``-ed power.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import BackendError
from .ir import CompositeInstruction, create_composite, gate_matrix
from .pauli import PauliOperator, PauliTerm, expectation_from_counts
from .pauli import multiply, observe
from .registry import HeterogeneousMap, as_het_map

MAX_QUBITS = 20
_PROB_CUTOFF = 1e-16


@dataclass
class ExecutionResult:
    """Outcome distribution of one executed circuit on a buffer."""

    circuit_name: str
    counts: dict[str, int] = field(default_factory=dict)
    probabilities: dict[str, float] = field(default_factory=dict)
    measured_qubits: tuple[int, ...] = ()

    @property
    def outcomes(self) -> dict[str, float]:
        """Sampled counts when present, exact weights otherwise."""
        return self.counts if self.counts else self.probabilities


class AcceleratorBuffer:
    """Register handle collecting execution results and metadata."""

    def __init__(self, size: int):
        if size < 1:
            raise BackendError(f"buffer size must be >= 1, got {size}")
        self.size = size
        self.executions: list[ExecutionResult] = []
        self.metadata = HeterogeneousMap()

    @property
    def counts(self) -> dict[str, int]:
        return self.executions[-1].counts if self.executions else {}

    @property
    def probabilities(self) -> dict[str, float]:
        return self.executions[-1].probabilities if self.executions else {}

    def __getitem__(self, key: str):
        kind = self.metadata.kind_of(key)
        return self.metadata.get(key, kind)

    def __contains__(self, key: str) -> bool:
        return self.metadata.contains(key)

    def __repr__(self) -> str:
        return f"AcceleratorBuffer(size={self.size}, executions={len(self.executions)})"


def qalloc(n: int) -> AcceleratorBuffer:
    return AcceleratorBuffer(n)


@dataclass
class AcceleratorConfig:
    """shots == 0 selects exact-expectation mode."""

    shots: int = 0
    seed: int | None = None


class StatevectorAccelerator:
    """Noiseless dense statevector backend (shot sampling or exact mode)."""

    def __init__(self):
        self.config = AcceleratorConfig()
        self._rng = np.random.default_rng()

    def name(self) -> str:
        return "statevector"

    def initialize(
        self, options: "AcceleratorConfig | HeterogeneousMap | dict | None" = None
    ) -> "StatevectorAccelerator":
        if isinstance(options, AcceleratorConfig):
            config = options
        else:
            het = as_het_map(options)
            config = AcceleratorConfig(
                shots=het.get_or("shots", "int", 0),
                seed=het.get_or("seed", "int", None),
            )
        if config.shots < 0:
            raise BackendError(f"shots must be >= 0, got {config.shots}")
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        return self

    def execute(
        self,
        buffer: AcceleratorBuffer,
        circuits: "CompositeInstruction | Sequence[CompositeInstruction]",
    ) -> list[ExecutionResult]:
        if isinstance(circuits, CompositeInstruction):
            circuits = [circuits]
        results = []
        for circuit in circuits:
            results.append(self._execute_one(buffer, circuit))
        buffer.executions.extend(results)
        return results

    def _execute_one(
        self, buffer: AcceleratorBuffer, circuit: CompositeInstruction
    ) -> ExecutionResult:
        n = buffer.size
        state, measured = _simulate(circuit, n)
        if not measured:
            measured = list(range(n))
        measured_sorted = tuple(sorted(measured))
        marginal = _marginal_probabilities(state, measured_sorted)
        result = ExecutionResult(circuit.name, measured_qubits=measured_sorted)
        if self.config.shots == 0:
            result.probabilities = _weights_to_bitstrings(marginal, measured_sorted, n)
        else:
            flat = marginal.reshape(-1)
            flat = flat / flat.sum()
            draws = self._rng.choice(flat.size, size=self.config.shots, p=flat)
            counts: dict[str, int] = {}
            width = len(measured_sorted)
            for idx, hits in zip(*np.unique(draws, return_counts=True)):
                bits = format(int(idx), f"0{width}b")
                counts[_embed_bits(bits, measured_sorted, n)] = int(hits)
            result.counts = counts
        return result

    def execute_and_reduce(
        self, circuit: CompositeInstruction, term: PauliTerm, n_qubits: int
    ) -> float:
        """Run one measured circuit and return the term's parity average."""
        scratch = AcceleratorBuffer(n_qubits)
        result = self._execute_one(scratch, circuit)
        return expectation_from_counts(
            PauliTerm(term.ops, 1.0), result.outcomes
        )

    def prepare(self, circuit: CompositeInstruction, n_qubits: int) -> "PreparedState":
        """The state circuit|0...0> on n_qubits, ready for many ``expect`` calls.

        Rejects a symbolic or measured circuit, one wider than the register
        and a register over MAX_QUBITS before anything is simulated or drawn.
        """
        _check_unmeasured(circuit, n_qubits)
        amplitudes = statevector(circuit, n_qubits) if self.config.shots == 0 else None
        return PreparedState(self, circuit, n_qubits, amplitudes)


class PreparedState:
    """A circuit's state on a fixed register (see the module docstring)."""

    def __init__(
        self,
        accelerator: StatevectorAccelerator,
        circuit: CompositeInstruction,
        n_qubits: int,
        amplitudes: "np.ndarray | None",
    ):
        self.accelerator = accelerator
        self.circuit = circuit
        self.n_qubits = n_qubits
        self._amplitudes = amplitudes

    def _check_operator(self, op: PauliOperator) -> int:
        width = op.n_qubits()
        if width > self.n_qubits:
            raise BackendError(
                f"operator touches qubit {width - 1} but the prepared "
                f"register has {self.n_qubits}"
            )
        return width

    def expect(self, op: PauliOperator) -> complex:
        """<psi|op|psi> for a general (possibly non-Hermitian) Pauli sum."""
        width = self._check_operator(op)
        if self._amplitudes is not None:
            return statevector_expectation(op, self._amplitudes)
        # each string is measured on the register a per-call estimate would use
        n = max(self.circuit.max_qubit() + 1, width, 1)
        terms = [term for term in op.terms() if term.ops]
        strings = PauliOperator.from_terms({term.ops: 1.0 for term in terms})
        parities = {}
        for term, measured in observe(strings, self.circuit):
            parities[term.ops] = self.accelerator.execute_and_reduce(measured, term, n)
        total = complex(op.identity_coefficient)
        for term in terms:
            total += term.coefficient * parities[term.ops]
        return total

    def evolve(self, block: CompositeInstruction) -> "PreparedState":
        """The state after ``block``, which ``prepare``'s checks must pass."""
        _check_unmeasured(block, self.n_qubits)
        # the block joins as one child, so nesting does not deepen per call
        circuit = create_composite(self.circuit.name)
        circuit.add_all(self.circuit.children).add(block)
        amplitudes = None
        if self._amplitudes is not None:
            state = self._amplitudes.reshape((2,) * self.n_qubits)
            for inst in block.instructions():
                state = _apply_gate(state, inst)
            amplitudes = state.reshape(-1)
        return PreparedState(self.accelerator, circuit, self.n_qubits, amplitudes)

    def moments(self, op: PauliOperator, highest: int) -> list[float]:
        """Raw moments <op^k>, k = 1..highest, of a Hermitian Pauli sum."""
        if not op.is_hermitian():
            raise BackendError("moments need a Hermitian operator")
        self._check_operator(op)
        moments = []
        if self._amplitudes is not None:
            # repeated sparse application of op to the cached vector
            current = self._amplitudes
            for _ in range(highest):
                current = apply_pauli(op, current)
                moments.append(float(np.real(np.vdot(self._amplitudes, current))))
            return moments
        power = PauliOperator.identity(1.0)
        for _ in range(highest):
            power = multiply(power, op)
            moments.append(self.expect(power).real)
        return moments


def _check_circuit(circuit: CompositeInstruction, n: int) -> None:
    """Reject circuits the statevector cannot evolve on an n-qubit register."""
    if not circuit.is_concrete:
        raise BackendError(
            f"circuit '{circuit.name}' has free variables {circuit.variables}"
        )
    if circuit.max_qubit() >= n:
        raise BackendError(
            f"circuit '{circuit.name}' touches qubit {circuit.max_qubit()} "
            f"but the register has {n}"
        )
    if n > MAX_QUBITS:
        raise BackendError(f"statevector capped at {MAX_QUBITS} qubits, got {n}")


def _check_unmeasured(circuit: CompositeInstruction, n: int) -> None:
    """``_check_circuit`` for a circuit that must also be free of Measure."""
    _check_circuit(circuit, n)
    if any(inst.name == "Measure" for inst in circuit.instructions()):
        raise BackendError(f"circuit '{circuit.name}' already contains Measure")


def _simulate(circuit: CompositeInstruction, n: int) -> tuple[np.ndarray, list[int]]:
    """Evolve |0...0> on n qubits through a concrete circuit.

    Returns the state tensor and the Measure targets in first-seen order;
    a gate on an already measured qubit is rejected.  Private so that a
    simulation is counted once, by whichever public entry point ran it.
    """
    _check_circuit(circuit, n)
    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    measured: list[int] = []
    for inst in circuit.instructions():
        if inst.name == "Measure":
            if inst.qubits[0] not in measured:
                measured.append(inst.qubits[0])
            continue
        if measured and any(q in measured for q in inst.qubits):
            raise BackendError(f"gate {inst.name} on {inst.qubits} after Measure")
        state = _apply_gate(state, inst)
    return state, measured


def _apply_gate(state: np.ndarray, inst) -> np.ndarray:
    matrix = gate_matrix(inst)
    n = state.ndim
    if len(inst.qubits) == 1:
        q = inst.qubits[0]
        out = np.tensordot(matrix, state, axes=([1], [q]))
        return np.moveaxis(out, 0, q)
    q1, q2 = inst.qubits
    tensor = matrix.reshape(2, 2, 2, 2)
    out = np.tensordot(tensor, state, axes=([2, 3], [q1, q2]))
    return np.moveaxis(out, [0, 1], [q1, q2])


def _marginal_probabilities(state: np.ndarray, measured: tuple[int, ...]) -> np.ndarray:
    probs = np.abs(state) ** 2
    unmeasured = tuple(q for q in range(state.ndim) if q not in measured)
    if unmeasured:
        probs = probs.sum(axis=unmeasured)
    return probs


def _embed_bits(bits: str, measured: tuple[int, ...], n: int) -> str:
    full = ["0"] * n
    for bit, q in zip(bits, measured):
        full[q] = bit
    return "".join(full)


def _weights_to_bitstrings(
    marginal: np.ndarray, measured: tuple[int, ...], n: int
) -> dict[str, float]:
    width = len(measured)
    flat = marginal.reshape(-1)
    out = {}
    for idx in np.flatnonzero(flat > _PROB_CUTOFF):
        bits = format(int(idx), f"0{width}b")
        out[_embed_bits(bits, measured, n)] = float(flat[idx])
    return out


def statevector(circuit: CompositeInstruction, n: int) -> np.ndarray:
    """Amplitudes of circuit|0...0>; index bit order puts qubit 0 first."""
    state, measured = _simulate(circuit, n)
    if measured:
        raise BackendError("statevector of a measured circuit is undefined")
    return state.reshape(-1)


def apply_pauli(op: PauliOperator, state: np.ndarray) -> np.ndarray:
    """op|psi> for 2^n amplitudes, flat or of shape (2,)*n; keeps the shape.

    Each string (x, z) of ``op.masks()``, coefficient c, adds
    c i^|x&z| (-1)^popcount(i & Z) psi[i] to amplitude i ^ X, where X and Z
    are x and z bit-reversed (qubit q is index bit n-1-q).
    """
    flat = state.reshape(-1)
    n = flat.size.bit_length() - 1
    if op.n_qubits() > n:
        raise BackendError(f"operator touches qubit {op.n_qubits() - 1} but the state has {n}")
    index = np.arange(flat.size)
    out = np.zeros(flat.size, dtype=complex)
    for (x, z), coefficient in op.masks():
        # out[j] gathers from source i = j ^ X
        source = index ^ int(format(x, f"0{n}b")[::-1], 2)
        odd = np.bitwise_count(source & int(format(z, f"0{n}b")[::-1], 2)) & 1
        phase = coefficient * 1j ** ((x & z).bit_count() & 3)
        out += np.where(odd, -phase, phase) * flat[source]
    return out.reshape(state.shape)


def statevector_expectation(op: PauliOperator, state: np.ndarray) -> complex:
    """<psi|op|psi> for a flat amplitude vector (op need not be Hermitian)."""
    return complex(np.vdot(state, apply_pauli(op, state)))


def expectation(
    obs: PauliOperator,
    circuit: CompositeInstruction,
    accelerator: StatevectorAccelerator,
) -> float:
    """Real <psi|obs|psi> of a Hermitian observable (see operator_expectation)."""
    if not obs.is_hermitian():
        raise ValueError("expectation requires a Hermitian observable")
    value = operator_expectation(obs, circuit, accelerator)
    return value.real


def operator_expectation(
    op: PauliOperator,
    circuit: CompositeInstruction,
    accelerator: StatevectorAccelerator,
) -> complex:
    """<psi|op|psi> for a general (possibly non-Hermitian) Pauli sum.

    A one-off ``accelerator.prepare(circuit, n).expect(op)`` on the
    smallest register holding both; callers measuring several operators
    on one state prepare it once themselves.
    """
    n = max(circuit.max_qubit() + 1, op.n_qubits(), 1)
    return accelerator.prepare(circuit, n).expect(op)
