"""Quantum imaginary time evolution.

Each step approximates e^(-db H)|psi> / norm by a unitary e^(-i db A)
whose generator A = sum_I a_I s_I is expanded over the full Pauli basis
of the register.  The coefficients solve the regularized least-squares
system S a = b with

    S_IJ = Re <psi| s_I s_J |psi>
    b_I  = Im <psi| s_I H |psi> / sqrt(1 - 2 db <H>)

and the resulting rotation block is appended to the evolving circuit.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from ..backend import (
    AcceleratorBuffer,
    apply_instructions,
    apply_pauli,
    apply_pauli_string,
    expectation,
    statevector,
    statevector_expectation,
)
from ..ansatz import exp_pauli
from ..errors import AlgorithmError
from ..ir import create_composite
from ..linalg import solve_regularized_lsq
from ..pauli import PauliKey, PauliOperator, multiply
from .base import Algorithm

MAX_EXPANSION_QUBITS = 4


def pauli_basis(n_qubits: int) -> list[PauliKey]:
    """All non-identity Pauli strings on n qubits, canonically ordered."""
    keys = []
    for letters in itertools.product("IXYZ", repeat=n_qubits):
        key = tuple((q, letter) for q, letter in enumerate(letters) if letter != "I")
        if key:
            keys.append(key)
    return sorted(keys)


class QITE(Algorithm):
    algorithm_name = "qite"
    required_keys = ("accelerator", "observable", "step-size", "steps", "ansatz")

    def _validate(self):
        if self.options.get_real("step-size") <= 0:
            raise AlgorithmError("step-size must be positive")
        if self.options.get_int("steps") < 1:
            raise AlgorithmError("steps must be >= 1")

    def _execute(self, buffer: AcceleratorBuffer) -> None:
        observable = self.options.get_observable("observable")
        accelerator = self.options.get_accelerator("accelerator")
        ansatz = self.options.get_composite("ansatz")
        db = self.options.get_real("step-size")
        steps = self.options.get_int("steps")
        ridge = self.options.get_or("ridge", "real", 1e-8)

        n = max(observable.n_qubits(), ansatz.max_qubit() + 1, 1)
        if n > MAX_EXPANSION_QUBITS:
            raise AlgorithmError(
                f"Pauli expansion basis capped at {MAX_EXPANSION_QUBITS} qubits, "
                f"register has {n}"
            )
        basis = pauli_basis(n)

        circuit = create_composite("qite_state")
        circuit.add_all(ansatz.children)

        if accelerator.exact_mode:
            state = statevector(circuit, n).reshape((2,) * n)
            energies = [statevector_expectation(observable, state.reshape(-1)).real]
        else:
            energies = [expectation(observable, circuit, accelerator)]

        for _ in range(steps):
            if accelerator.exact_mode:
                s_matrix, b_vector = self._exact_system(
                    observable, state, basis, db, energies[-1]
                )
            else:
                s_matrix, b_vector = self._sampled_system(
                    observable, accelerator.prepare(circuit, n), basis, db, energies[-1]
                )
            a = np.real(solve_regularized_lsq(s_matrix, b_vector, ridge))
            generator = PauliOperator.from_terms(
                {key: -1j * a_i for key, a_i in zip(basis, a)}
            )
            block = exp_pauli(generator, db)
            circuit.add_all(block.children)
            if accelerator.exact_mode:
                state = apply_instructions(state, block.instructions())
                energies.append(
                    statevector_expectation(observable, state.reshape(-1)).real
                )
            else:
                energies.append(expectation(observable, circuit, accelerator))

        buffer.metadata.insert("energy-history", energies)
        buffer.metadata.insert("opt-val", energies[-1])

    @staticmethod
    def _exact_system(observable, state, basis, db, energy):
        flat = state.reshape(-1)
        h_state = apply_pauli(observable, state).reshape(-1)
        sigma_states = np.stack(
            [apply_pauli_string(state, key).reshape(-1) for key in basis]
        )
        s_matrix = np.real(sigma_states.conj() @ sigma_states.T)
        norm = math.sqrt(max(1.0 - 2.0 * db * energy, 1e-12))
        b_vector = np.imag(sigma_states.conj() @ h_state) / norm
        return s_matrix, b_vector

    @staticmethod
    def _sampled_system(observable, state, basis, db, energy):
        dim = len(basis)
        s_matrix = np.zeros((dim, dim))
        b_vector = np.zeros(dim)
        norm = math.sqrt(max(1.0 - 2.0 * db * energy, 1e-12))
        strings = [PauliOperator.from_terms({key: 1.0}) for key in basis]
        for i, sigma_i in enumerate(strings):
            s_matrix[i, i] = 1.0
            for j in range(i + 1, dim):
                value = state.expect(multiply(sigma_i, strings[j])).real
                s_matrix[i, j] = s_matrix[j, i] = value
            b_vector[i] = state.expect(multiply(sigma_i, observable)).imag / norm
        return s_matrix, b_vector
