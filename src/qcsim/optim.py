"""Classical optimizers and gradient strategies.

Optimizers minimize F: R^n -> R given an ObjectiveFunction.  Every
gradient strategy is one branch of ``evaluate_gradient``, which measures
each energy through ``backend.expectation``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .backend import CompiledCircuit, StatevectorAccelerator, compile_observable, expectation
from .errors import OptimizationError
from .ir import (
    CompositeInstruction,
    ExcitationRotation,
    Parameter,
    PauliRotation,
    evaluate,
)
from .pauli import PauliOperator
from .registry import HeterogeneousMap, as_het_map

FD_DEFAULT_STEP = 1e-4
SHIFT = math.pi / 2.0
GRADIENT_STRATEGIES = ("central", "forward", "backward", "parameter-shift")


@dataclass
class ObjectiveFunction:
    """Callable F(x, grad_out) -> value; grad_out is filled only when
    provides_gradient is true."""

    function: Callable[[np.ndarray, np.ndarray], float]
    dimension: int
    provides_gradient: bool = False

    def __call__(self, x: np.ndarray, grad_out: np.ndarray) -> float:
        value = self.function(np.asarray(x, dtype=float), grad_out)
        if math.isnan(value):
            raise OptimizationError(f"objective returned NaN at x={list(x)}")
        return value

    def value(self, x: np.ndarray) -> float:
        return self(x, np.empty(0))


@dataclass
class OptimizerResult:
    opt_val: float
    opt_params: list[float]
    iterations: int
    converged: bool


def _read_common_options(options: HeterogeneousMap, dimension: int):
    max_iter = options.get_or("max-iterations", "int", 500)
    tolerance = options.get_or("tolerance", "real", 1e-8)
    x0 = np.asarray(
        options.get_or("initial-point", "real-list", [0.0] * dimension), dtype=float
    )
    if x0.size != dimension:
        raise OptimizationError(
            f"initial-point has {x0.size} entries, objective dimension is {dimension}"
        )
    lower = options.get_or("lower-bounds", "real-list", None)
    upper = options.get_or("upper-bounds", "real-list", None)
    bounds = None
    if lower is not None or upper is not None:
        lo = np.asarray(lower if lower is not None else [-np.inf] * dimension)
        hi = np.asarray(upper if upper is not None else [np.inf] * dimension)
        if lo.size != dimension or hi.size != dimension:
            raise OptimizationError("bounds length does not match dimension")
        bounds = (lo, hi)
    return max_iter, tolerance, x0, bounds


def _clip(x: np.ndarray, bounds) -> np.ndarray:
    if bounds is None:
        return x
    return np.clip(x, bounds[0], bounds[1])


class NelderMead:
    """Derivative-free simplex descent with deterministic initialization."""

    simplex_step = 0.1

    def name(self) -> str:
        return "nelder-mead"

    def optimize(
        self, f: ObjectiveFunction, options: "HeterogeneousMap | dict | None" = None
    ) -> OptimizerResult:
        options = as_het_map(options)
        max_iter, tolerance, x0, bounds = _read_common_options(options, f.dimension)
        n = f.dimension
        points = [_clip(x0, bounds)]
        for i in range(n):
            vertex = x0.copy()
            vertex[i] += self.simplex_step
            points.append(_clip(vertex, bounds))
        values = [f.value(p) for p in points]

        iterations = 0
        converged = False
        while iterations < max_iter:
            order = np.argsort(values, kind="stable")
            points = [points[i] for i in order]
            values = [values[i] for i in order]
            if abs(values[-1] - values[0]) < tolerance:
                converged = True
                break
            iterations += 1
            centroid = np.mean(points[:-1], axis=0)

            reflected = _clip(centroid + (centroid - points[-1]), bounds)
            f_reflected = f.value(reflected)
            if values[0] <= f_reflected < values[-2]:
                points[-1], values[-1] = reflected, f_reflected
                continue
            if f_reflected < values[0]:
                expanded = _clip(centroid + 2.0 * (centroid - points[-1]), bounds)
                f_expanded = f.value(expanded)
                if f_expanded < f_reflected:
                    points[-1], values[-1] = expanded, f_expanded
                else:
                    points[-1], values[-1] = reflected, f_reflected
                continue
            contracted = _clip(centroid + 0.5 * (points[-1] - centroid), bounds)
            f_contracted = f.value(contracted)
            if f_contracted < values[-1]:
                points[-1], values[-1] = contracted, f_contracted
                continue
            # shrink toward the best vertex
            for i in range(1, len(points)):
                points[i] = _clip(points[0] + 0.5 * (points[i] - points[0]), bounds)
                values[i] = f.value(points[i])

        best = int(np.argmin(values))
        return OptimizerResult(
            opt_val=float(values[best]),
            opt_params=[float(v) for v in points[best]],
            iterations=iterations,
            converged=converged,
        )


class GradientDescent:
    """Steepest descent with Armijo backtracking line search."""

    armijo_c = 1e-4
    initial_step = 1.0
    min_step = 1e-14

    def name(self) -> str:
        return "gradient-descent"

    def _gradient(self, f: ObjectiveFunction, x: np.ndarray, fx: float) -> np.ndarray:
        if f.provides_gradient:
            grad = np.zeros(f.dimension)
            f(x, grad)
            return grad
        # internal central-difference fallback
        grad = np.zeros(f.dimension)
        for i in range(f.dimension):
            step = np.zeros(f.dimension)
            step[i] = FD_DEFAULT_STEP
            grad[i] = (f.value(x + step) - f.value(x - step)) / (2 * FD_DEFAULT_STEP)
        return grad

    def optimize(
        self, f: ObjectiveFunction, options: "HeterogeneousMap | dict | None" = None
    ) -> OptimizerResult:
        options = as_het_map(options)
        max_iter, tolerance, x, bounds = _read_common_options(options, f.dimension)
        x = _clip(x, bounds)
        fx = f.value(x)
        iterations = 0
        converged = False
        while iterations < max_iter:
            iterations += 1
            grad = self._gradient(f, x, fx)
            norm_sq = float(np.dot(grad, grad))
            if norm_sq == 0.0:
                converged = True
                break
            step = self.initial_step
            while step > self.min_step:
                candidate = _clip(x - step * grad, bounds)
                f_candidate = f.value(candidate)
                if f_candidate <= fx - self.armijo_c * step * norm_sq:
                    break
                step *= 0.5
            else:
                converged = True
                break
            if abs(fx - f_candidate) < tolerance:
                x, fx = candidate, f_candidate
                converged = True
                break
            x, fx = candidate, f_candidate
        return OptimizerResult(
            opt_val=float(fx),
            opt_params=[float(v) for v in x],
            iterations=iterations,
            converged=converged,
        )


def evaluate_gradient(
    strategy: str,
    circuit: CompositeInstruction,
    x: Sequence[float],
    obs: PauliOperator,
    accelerator: StatevectorAccelerator,
) -> np.ndarray:
    """dE/dx of E(x) = <obs> on ``circuit`` bound to x.

    Every energy is one ``backend.expectation``, all of them of one
    observable compiled once per call.  Finite differences plan the circuit
    once per call (``backend.CompiledCircuit``) and run it at x shifted by
    +-FD_DEFAULT_STEP in one variable, building no bound circuit.
    Parameter-shift binds x once and lists the bound circuit's leaves; it
    shifts one rotation at a time by +-pi/2, which is exact for
    R_P(theta) = exp(-i theta P / 2), by splicing the shifted leaves
    (``_shifts``) in place of the bound leaf into one flat circuit.  A gate
    whose angle is ``scale * var`` adds scale * (E+ - E-) / 2 to var's
    entry (chain rule), so a variable driving several gates sums them.  A
    Pauli rotation shifts its own theta and is still simulated in one pass.
    An excitation rotation exp(theta G) has G^3 = -G, so one shift of
    theta is not exact: each Pauli rotation of its lowering is shifted
    instead, as if the node were lowered.
    """
    if strategy not in GRADIENT_STRATEGIES:
        raise OptimizationError(
            f"unknown gradient strategy '{strategy}'; choose from {GRADIENT_STRATEGIES}"
        )
    x = np.asarray(x, dtype=float)
    if x.size != len(circuit.variables):
        raise OptimizationError(
            f"circuit has {len(circuit.variables)} variables, got {x.size} values"
        )

    compiled = compile_observable(obs, circuit)

    def energy(target: "CompositeInstruction | CompiledCircuit", values=()) -> float:
        return expectation(compiled, target, accelerator, values)

    grad = np.zeros(x.size)
    if strategy == "parameter-shift":
        index = {var: i for i, var in enumerate(circuit.variables)}
        bound = list(evaluate(circuit, x).leaves())

        def spliced(k: int, leaves: list) -> CompositeInstruction:
            return CompositeInstruction(circuit.name).add_all(bound[:k] + leaves + bound[k + 1 :])

        for k, leaf in enumerate(circuit.leaves()):
            shifts = zip(_shifts(leaf, bound[k], SHIFT), _shifts(leaf, bound[k], -SHIFT))
            for (param, plus), (_, minus) in shifts:
                shift = energy(spliced(k, plus)) - energy(spliced(k, minus))
                grad[index[param.var]] += param.scale * shift / 2.0
        return grad

    h = FD_DEFAULT_STEP
    planned = CompiledCircuit(circuit, compiled.n_qubits())

    def shifted_energy(i: int, delta: float) -> float:
        shifted_x = x.copy()
        shifted_x[i] += delta
        return energy(planned, shifted_x)

    if strategy in ("forward", "backward"):
        base = energy(planned, x)
    for i in range(x.size):
        if strategy == "central":
            plus = shifted_energy(i, +h)
            minus = shifted_energy(i, -h)
            grad[i] = plus / (2.0 * h) - minus / (2.0 * h)
        elif strategy == "forward":
            grad[i] = (shifted_energy(i, +h) - base) / h
        else:
            grad[i] = (base - shifted_energy(i, -h)) / h
    return grad


def _shifts(leaf, bound, delta: float):
    """(parameter, leaves) for each rotation angle ``scale * var`` of one
    leaf, in source order: ``leaves`` replace ``bound``, the leaf's bound
    copy, to shift that one angle by ``delta``.

    An ``ExcitationRotation`` is the product of its commuting Pauli
    rotations R_{P_k}(s_k theta), so shifting one of them is the bound node
    followed by a fixed R_{P_k}(delta); every other leaf has at most one
    angle and is replaced by a copy with that angle shifted.  A concrete
    leaf yields nothing.
    """
    if isinstance(leaf, ExcitationRotation):
        for ops, angle in leaf.rotations():
            if angle.is_symbolic:
                yield angle, [bound, PauliRotation(ops, (Parameter.concrete(delta),))]
    elif leaf.parameters and leaf.parameters[0].is_symbolic:
        shifted = Parameter.concrete(bound.parameters[0].value + delta)
        yield leaf.parameters[0], [replace(bound, parameters=(shifted,))]
