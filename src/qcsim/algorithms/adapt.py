"""Adaptive ansatz growth driven by pool gradients.

Each iteration plans the symbolic ansatz once (``backend.CompiledCircuit``)
and runs it at the current parameters, binding no tree, and measures
g_i = <psi|[H, A_i]|psi> for every pool operator as the P of one
``PreparedState.expect_commutators([H], pool)`` call; the first run, the
reference, also gives <H>, the energy when no operator is appended;
if ||g|| clears the threshold, the operator with the largest |g_i| is
appended as its pool block (one ``ExcitationRotation`` for a ``uccsd``
operator), with a new parameter at zero, and the whole parameter vector is
re-optimized by a VQE run from the current parameters.  The pool is
``pool`` (``uccsd`` when not given); the run stops once ||g|| falls below
``grad-threshold`` or ``max-iter`` operators (the pool's size by default)
have been appended.  Each VQE run's ``stop-reason`` and evaluation count
are reported, in order, as ``adapt-stop-reasons`` and
``adapt-evaluations``; sampled, its Nelder-Mead stops at the shot-noise
floor (``optim.NelderMead``).
"""
from __future__ import annotations

import numpy as np

from ..ansatz import build_pool, reference_circuit
from ..backend import AcceleratorBuffer, CompiledCircuit, qalloc
from ..errors import AlgorithmError
from ..ir import Parameter, create_composite
from .base import STATE_KINDS, Algorithm
from .vqe import VQE


class AdaptVQE(Algorithm):
    algorithm_name = "adapt"
    option_kinds = {
        **STATE_KINDS, "optimizer": "optimizer", "n-electrons": "int", "pool": "string",
        "grad-threshold": "real", "max-iter": "int",
    }
    required_keys = ("optimizer", "observable", "n-electrons", "accelerator")

    def _validate(self):
        self._check_real("grad-threshold", positive=False)

    def _execute(self, buffer: AcceleratorBuffer) -> None:
        observable = self.options.get_observable("observable")
        optimizer = self.options.get_optimizer("optimizer")
        accelerator = self.options.get_accelerator("accelerator")
        n_electrons = self.options.get_int("n-electrons")
        pool_name = self.options.get_or("pool", "string", "uccsd")
        threshold = self.options.get_or("grad-threshold", "real", 1e-2)
        if not observable.is_hermitian():
            raise AlgorithmError("adapt needs a Hermitian observable")

        n_qubits = max(observable.n_qubits(), buffer.size)
        if n_qubits % 2:
            n_qubits += 1
        pool = build_pool(pool_name, n_electrons, n_qubits)
        if len(pool) == 0:
            raise AlgorithmError(f"pool '{pool_name}' is empty for this system")
        max_iter = self.options.get_or("max-iter", "int", len(pool))

        generators = [pool.generator(k) for k in range(len(pool))]
        reference = reference_circuit(n_electrons, n_qubits)
        # the symbolic ansatz, grown by one block t<k> per chosen operator
        ansatz = create_composite("adapt_ansatz").add_all(reference.children)

        chosen: list[str] = []
        params: list[float] = []
        gradient_norms: list[float] = []
        stop_reasons: list[str] = []
        evaluations: list[int] = []

        while True:
            state = accelerator.prepare(CompiledCircuit(ansatz, n_qubits), n_qubits, params)
            if not params:
                energy = state.expect(observable).real
            gradients = state.expect_commutators([observable], generators)[0][0].real
            norm = float(np.linalg.norm(gradients))
            gradient_norms.append(norm)
            if norm < threshold or len(chosen) >= max_iter:
                break

            winner = int(np.argmax(np.abs(gradients)))
            chosen.append(pool.labels()[winner])
            ansatz.add_all(pool.block(winner, Parameter.symbolic(f"t{len(params)}")))
            params.append(0.0)

            vqe = VQE().initialize(
                {
                    "ansatz": ansatz,
                    "optimizer": optimizer,
                    "observable": observable,
                    "accelerator": accelerator,
                    "initial-point": list(params),
                }
            )
            scratch = qalloc(buffer.size)
            vqe.execute(scratch)
            params = scratch.metadata.get_real_list("opt-params")
            energy = scratch.metadata.get_real("opt-val")
            stop_reasons.append(scratch.metadata.get_string("stop-reason"))
            evaluations.append(len(scratch.metadata.get_real_list("energy-history")))

        buffer.metadata.insert("opt-val", energy)
        buffer.metadata.insert("opt-params", list(params))
        buffer.metadata.insert("adapt-ops", chosen)
        buffer.metadata.insert("adapt-gradient-norms", gradient_norms)
        buffer.metadata.insert("adapt-stop-reasons", stop_reasons)
        buffer.metadata.insert("adapt-evaluations", evaluations)
