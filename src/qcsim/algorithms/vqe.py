"""Variational quantum eigensolver.

Minimizes <psi(theta)|H|psi(theta)> over the ansatz parameters with the
configured classical optimizer, optionally feeding it gradients from the
``gradient-strategy`` given, one of ``optim.GRADIENT_STRATEGIES``.  The
optimizer's keys (``optim.OPTIMIZER_KINDS``) may be set on the run too,
and override the optimizer's own options.  The observable is
compiled once per run (``backend.compile_observable``) and the ansatz is
planned once per run (``backend.CompiledCircuit``): every evaluation runs
that plan with the optimizer's x and reads that observable's
``PreparedState.estimate``, the energy and its standard error from the
same draws (0.0 in exact mode), and builds no bound circuit; the error
lets Nelder-Mead stop at the shot-noise floor.  ``opt-val`` is measured
afresh at ``opt-params``, from the same plan, and ``opt-val-stderr`` is
its standard error.  ``stop-reason`` names why the optimizer stopped
(``optim.OptimizerResult``); ``converged`` is false only at
``max-iterations``.  ``energy-history`` holds every objective value, one
per evaluation.
"""
from __future__ import annotations

import numpy as np

from ..backend import AcceleratorBuffer, CompiledCircuit, compile_observable
from ..errors import AlgorithmError
from ..optim import GRADIENT_STRATEGIES, OPTIMIZER_KINDS, ObjectiveFunction, evaluate_gradient
from .base import STATE_KINDS, Algorithm


class VQE(Algorithm):
    algorithm_name = "vqe"
    option_kinds = {
        **STATE_KINDS, **OPTIMIZER_KINDS, "ansatz": "composite", "optimizer": "optimizer",
        "gradient-strategy": GRADIENT_STRATEGIES,
    }
    required_keys = ("ansatz", "optimizer", "observable", "accelerator")

    def _validate(self):
        if len(self.options.get_composite("ansatz").variables) < 1:
            raise AlgorithmError("vqe needs an ansatz with at least one variable")

    def _execute(self, buffer: AcceleratorBuffer) -> None:
        ansatz = self.options.get_composite("ansatz")
        optimizer = self.options.get_optimizer("optimizer")
        observable = self.options.get_observable("observable")
        accelerator = self.options.get_accelerator("accelerator")
        strategy = self.options.get_or("gradient-strategy", "string", None)
        # one compiled observable and one planned ansatz for every evaluation
        compiled = compile_observable(observable, ansatz)
        if not compiled.is_hermitian():
            raise AlgorithmError("vqe needs a Hermitian observable")
        circuit = CompiledCircuit(ansatz, compiled.n_qubits())

        energy_history: list[float] = []

        def objective(x: np.ndarray, grad_out: np.ndarray) -> tuple[float, float]:
            energy, stderr = accelerator.prepare(circuit, circuit.n_qubits(), x).estimate(compiled)
            energy_history.append(energy.real)
            if strategy is not None and grad_out.size:
                grad_out[:] = evaluate_gradient(
                    strategy, ansatz, x, observable, accelerator
                )
            return energy.real, stderr

        f = ObjectiveFunction(
            objective, len(ansatz.variables), provides_gradient=strategy is not None
        )
        # the optimizer's own options, overridden by those set on this run
        options = dict(getattr(optimizer, "options", None) or {})
        for key, kind in OPTIMIZER_KINDS.items():
            if key in self.options:
                options[key] = self.options.get(key, kind)
        result = optimizer.optimize(f, options)

        # sampled opt_val is the lowest noisy sample seen, so measure afresh
        final = accelerator.prepare(circuit, circuit.n_qubits(), result.opt_params)
        opt_val, stderr = final.estimate(compiled)
        buffer.metadata.insert("opt-val", opt_val.real)
        buffer.metadata.insert("opt-val-stderr", stderr)
        buffer.metadata.insert("opt-params", result.opt_params)
        buffer.metadata.insert("energy-history", energy_history)
        buffer.metadata.insert("converged", result.converged)
        buffer.metadata.insert("stop-reason", result.stop_reason)
