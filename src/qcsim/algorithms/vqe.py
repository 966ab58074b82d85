"""Variational quantum eigensolver.

Minimizes <psi(theta)|H|psi(theta)> over the ansatz parameters with the
configured classical optimizer, optionally feeding it gradients from one
of the strategies in ``optim.GRADIENT_STRATEGIES``.  The observable is
compiled once per run (``backend.compile_observable``) and the ansatz is
planned once per run (``backend.CompiledCircuit``): every evaluation runs
that plan with the optimizer's x and reads that observable, and builds no
bound circuit.  ``opt-val`` is measured afresh at ``opt-params``, from the
same plan, and ``opt-val-stderr`` is its standard error from the same
draws (0.0 in exact mode).
"""
from __future__ import annotations

import numpy as np

from ..backend import AcceleratorBuffer, CompiledCircuit, compile_observable, expectation
from ..errors import AlgorithmError
from ..optim import GRADIENT_STRATEGIES, ObjectiveFunction, evaluate_gradient
from ..registry import HeterogeneousMap
from .base import Algorithm

_FORWARDED_OPTIMIZER_KEYS = (
    ("initial-point", "real-list"),
    ("lower-bounds", "real-list"),
    ("upper-bounds", "real-list"),
    ("max-iterations", "int"),
    ("tolerance", "real"),
)


def optimizer_options(algorithm_options: HeterogeneousMap, optimizer) -> dict:
    """Merge optimizer defaults with per-run keys set on the algorithm."""
    merged = dict(getattr(optimizer, "options", None) or {})
    for key, kind in _FORWARDED_OPTIMIZER_KEYS:
        if algorithm_options.contains(key):
            merged[key] = algorithm_options.get(key, kind)
    return merged


class VQE(Algorithm):
    algorithm_name = "vqe"
    required_keys = ("ansatz", "optimizer", "observable", "accelerator")

    def _validate(self):
        ansatz = self.options.get_composite("ansatz")
        if len(ansatz.variables) < 1:
            raise AlgorithmError("vqe needs an ansatz with at least one variable")
        strategy = self.options.get_or("gradient_strategy", "string", None)
        if strategy is not None and strategy not in GRADIENT_STRATEGIES:
            raise AlgorithmError(
                f"unknown gradient_strategy '{strategy}'; choose from "
                f"{GRADIENT_STRATEGIES}"
            )

    def _execute(self, buffer: AcceleratorBuffer) -> None:
        ansatz = self.options.get_composite("ansatz")
        optimizer = self.options.get_optimizer("optimizer")
        observable = self.options.get_observable("observable")
        accelerator = self.options.get_accelerator("accelerator")
        strategy = self.options.get_or("gradient_strategy", "string", None)
        # one compiled observable and one planned ansatz for every evaluation
        compiled = compile_observable(observable, ansatz)
        circuit = CompiledCircuit(ansatz, compiled.n_qubits())

        energy_history: list[float] = []

        def objective(x: np.ndarray, grad_out: np.ndarray) -> float:
            energy = expectation(compiled, circuit, accelerator, x)
            energy_history.append(energy)
            if strategy is not None and grad_out.size:
                grad_out[:] = evaluate_gradient(
                    strategy, ansatz, x, observable, accelerator
                )
            return energy

        f = ObjectiveFunction(
            objective, len(ansatz.variables), provides_gradient=strategy is not None
        )
        result = optimizer.optimize(f, optimizer_options(self.options, optimizer))

        # sampled opt_val is the lowest noisy sample seen, so measure afresh
        final = accelerator.prepare(circuit, circuit.n_qubits(), result.opt_params)
        opt_val, stderr = final.estimate(compiled)
        buffer.metadata.insert("opt-val", opt_val.real)
        buffer.metadata.insert("opt-val-stderr", stderr)
        buffer.metadata.insert("opt-params", result.opt_params)
        buffer.metadata.insert("energy-history", energy_history)
        buffer.metadata.insert("converged", result.converged)
