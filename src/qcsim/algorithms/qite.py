"""Quantum imaginary time evolution.

Each step approximates e^(-db H)|psi> / norm by a unitary e^(-i db A)
whose generator A = sum_I a_I s_I is expanded over the full Pauli basis
of the register.  The coefficients solve S a = b with

    S_IJ = Re <psi| s_I s_J |psi>
    b_I  = Im <psi| s_I H |psi> / sqrt(1 - 2 db <H>)

Each product s_I s_J or s_I h (h a term of H) is a phase times one string
s_K.  ``StepSystem`` tabulates index and phase with ``pauli.multiply``
and compiles each basis string, both once per run; each step takes one
estimate <s_K> per basis string (4^n - 1 ``expect`` calls of the compiled
strings, exact or sampled alike), sums <H> from the same estimates,
fills S_IJ = Re(phase <s_K>) and b_I = Im(sum_h c_h phase <s_K>) / norm
by lookup, and advances the prepared state with ``evolve``.  Only the
final state's <H> is measured with ``expect(observable)``.

S is a Gram matrix, so each step solves it on its own spectrum with
``linalg.solve_gram``, dropping the eigenvalues that rounding or shot noise
could have produced; each step's kept count is reported as ``qite-ranks``.
"""
from __future__ import annotations

import math

import numpy as np

from ..ansatz import exp_pauli
from ..backend import AcceleratorBuffer, CompiledPauli, PreparedState
from ..errors import AlgorithmError
from ..linalg import solve_gram
from ..pauli import PauliOperator, multiply
from .base import STATE_KINDS, Algorithm

MAX_EXPANSION_QUBITS = 4


class StepSystem:
    """S and b of one QITE step on n qubits from one estimate per basis string.

    ``basis`` holds the 4^n - 1 non-identity strings in
    ``itertools.product("IXYZ", repeat=n)`` order, qubit 0 outermost.
    Strings on different qubits commute, so the product table of n qubits
    is the Kronecker product of n one-qubit tables, each read from
    ``pauli.multiply``.  Each basis string is compiled for the n-qubit
    register here, so ``measure`` compiles nothing.  The observable must be
    Hermitian, so every estimate is real and Re/Im of phase * <s_K> reduce
    to the real and imaginary parts of the phase.
    """

    def __init__(self, observable: PauliOperator, n_qubits: int):
        keys = [()]
        phase, index = np.ones((1, 1), dtype=complex), np.zeros((1, 1), dtype=int)
        for q in range(n_qubits):
            letters = [()] + [((q, letter),) for letter in "XYZ"]
            ops = [PauliOperator.from_terms({key: 1.0}) for key in letters]
            products = [[next(multiply(a, b).terms()) for b in ops] for a in ops]
            keys = [key + letter for key in keys for letter in letters]
            phase = np.kron(phase, [[p.coefficient for p in row] for row in products])
            index = np.kron(4 * index, np.ones((4, 4), dtype=int)) + np.kron(
                np.ones_like(index), [[letters.index(p.ops) for p in row] for row in products]
            )
        position = {key: k for k, key in enumerate(keys)}

        self.basis = keys[1:]
        strings = [PauliOperator.from_terms({key: 1.0}) for key in self.basis]
        self._strings = [CompiledPauli(sigma, n_qubits) for sigma in strings]
        self._s_sign, self._s_index = phase[1:, 1:].real, index[1:, 1:]
        terms = list(observable.terms())
        self._columns = [position[term.ops] for term in terms]
        coefficients = np.array([term.coefficient for term in terms])
        self._energy_weight = coefficients.real
        self._b_weight = np.imag(phase[1:, self._columns] * coefficients)
        self._b_index = index[1:, self._columns]

    def measure(self, state: PreparedState) -> np.ndarray:
        """<s_K> for the identity, then each basis string, measured once each."""
        return np.array([1.0] + [state.expect(sigma).real for sigma in self._strings])

    def energy(self, values: np.ndarray) -> float:
        """<H> summed from the estimates of ``measure``."""
        return float(self._energy_weight @ values[self._columns])

    def assemble(self, values: np.ndarray, norm: float) -> tuple[np.ndarray, np.ndarray]:
        """(S, b) from the estimates of ``measure``."""
        b_vector = (self._b_weight * values[self._b_index]).sum(axis=1) / norm
        return self._s_sign * values[self._s_index], b_vector


class QITE(Algorithm):
    algorithm_name = "qite"
    option_kinds = {**STATE_KINDS, "ansatz": "composite", "step-size": "real", "steps": "int"}
    required_keys = ("accelerator", "observable", "step-size", "steps", "ansatz")

    def _validate(self):
        self._check_real("step-size", positive=True)
        if self.options.get_int("steps") < 1:
            raise AlgorithmError("steps must be >= 1")

    def _execute(self, buffer: AcceleratorBuffer) -> None:
        observable = self.options.get_observable("observable")
        accelerator = self.options.get_accelerator("accelerator")
        ansatz = self.options.get_composite("ansatz")
        db = self.options.get_real("step-size")
        steps = self.options.get_int("steps")
        if not observable.is_hermitian():
            raise AlgorithmError("qite needs a Hermitian observable")

        n = max(observable.n_qubits(), ansatz.max_qubit() + 1, 1)
        if n > MAX_EXPANSION_QUBITS:
            raise AlgorithmError(
                f"Pauli expansion basis capped at {MAX_EXPANSION_QUBITS} qubits, "
                f"register has {n}"
            )
        system = StepSystem(observable, n)

        state = accelerator.prepare(ansatz, n)
        energies, ranks = [], []
        for _ in range(steps):
            values = system.measure(state)
            energies.append(system.energy(values))
            norm = math.sqrt(max(1.0 - 2.0 * db * energies[-1], 1e-12))
            s_matrix, b_vector = system.assemble(values, norm)
            a, rank = solve_gram(s_matrix, b_vector)
            ranks.append(rank)
            generator = PauliOperator.from_terms(
                {key: -1j * a_i for key, a_i in zip(system.basis, a)}
            )
            state = state.evolve(exp_pauli(generator, db))
        energies.append(state.expect(observable).real)

        buffer.metadata.insert("energy-history", energies)
        buffer.metadata.insert("qite-ranks", ranks)
        buffer.metadata.insert("opt-val", energies[-1])
