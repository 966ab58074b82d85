"""Classical optimizers and gradient strategies.

Optimizers minimize F: R^n -> R given an ObjectiveFunction, whose values
may be estimates with a standard error (a sampled energy); Nelder-Mead
stops once its simplex's spread is no larger than those errors explain,
and every result names why it stopped (``OptimizerResult.stop_reason``).
Every gradient strategy is one branch of ``evaluate_gradient``, which
measures each energy of one plan of the circuit, or of its shifted copies,
through ``backend.expectation``; no strategy binds or splices a circuit
tree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .backend import CompiledCircuit, StatevectorAccelerator, compile_observable, expectation
from .errors import OptimizationError
from .ir import CompositeInstruction
from .pauli import PauliOperator
from .registry import HeterogeneousMap, as_het_map

FD_DEFAULT_STEP = 1e-4
SHIFT = math.pi / 2.0
GRADIENT_STRATEGIES = ("central", "forward", "backward", "parameter-shift")
# the two-sided 95% point of the normal: Nelder-Mead's noise-floor confidence
NOISE_Z = 1.96
# the options every optimizer reads, each at its HeterogeneousMap kind
OPTIMIZER_KINDS = {
    "max-iterations": "int", "tolerance": "real", "initial-point": "real-list",
    "lower-bounds": "real-list", "upper-bounds": "real-list",
}


@dataclass
class ObjectiveFunction:
    """Callable F(x, grad_out) -> value; grad_out is filled only when
    provides_gradient is true.  ``function`` returns the value, or a pair
    (value, stderr) when the value is an estimate with that standard
    error; a plain value has stderr 0.0."""

    function: Callable[[np.ndarray, np.ndarray], "float | tuple[float, float]"]
    dimension: int
    provides_gradient: bool = False

    def estimate(self, x: np.ndarray, grad_out: "np.ndarray | None" = None) -> tuple[float, float]:
        """(value, stderr) of F at x."""
        grad_out = np.empty(0) if grad_out is None else grad_out
        result = self.function(np.asarray(x, dtype=float), grad_out)
        value, stderr = result if isinstance(result, tuple) else (result, 0.0)
        if math.isnan(value):
            raise OptimizationError(f"objective returned NaN at x={list(x)}")
        return value, float(stderr)

    def __call__(self, x: np.ndarray, grad_out: np.ndarray) -> float:
        return self.estimate(x, grad_out)[0]

    def value(self, x: np.ndarray) -> float:
        return self(x, np.empty(0))


@dataclass
class OptimizerResult:
    """``stop_reason`` is ``tolerance``, ``noise-floor`` or
    ``max-iterations``; a run that stopped on either of the first two has
    converged."""

    opt_val: float
    opt_params: list[float]
    iterations: int
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason != "max-iterations"


def _read_common_options(options: HeterogeneousMap, dimension: int):
    options.read_declared(OPTIMIZER_KINDS, "optimizer", OptimizationError)
    max_iter = options.get_or("max-iterations", "int", 500)
    tolerance = options.get_or("tolerance", "real", 1e-8)
    x0 = np.asarray(
        options.get_or("initial-point", "real-list", [0.0] * dimension), dtype=float
    )
    if x0.size != dimension:
        raise OptimizationError(
            f"initial-point has {x0.size} entries, objective dimension is {dimension}"
        )
    bounds = None
    if options.contains("lower-bounds") or options.contains("upper-bounds"):
        lo = np.asarray(options.get_or("lower-bounds", "real-list", [-np.inf] * dimension))
        hi = np.asarray(options.get_or("upper-bounds", "real-list", [np.inf] * dimension))
        if lo.size != dimension or hi.size != dimension:
            raise OptimizationError("bounds length does not match dimension")
        bounds = (lo, hi)
    return max_iter, tolerance, x0, bounds


def _clip(x: np.ndarray, bounds) -> np.ndarray:
    if bounds is None:
        return x
    return np.clip(x, bounds[0], bounds[1])


class NelderMead:
    """Derivative-free simplex descent with deterministic initialization.

    The simplex starts at x0 and x0 + simplex_step * e_i.  Each vertex
    keeps its value f and that value's standard error s (0.0 for a plain
    objective).  After each sort, best first, the run stops with reason
    ``tolerance`` when f_worst - f_best < tolerance, else with reason
    ``noise-floor`` when all three of these hold:

    1. s_best > 0, so a noise-free objective never takes this path and
       runs exactly as the tolerance test alone would have it;
    2. the simplex has contracted: every vertex lies within simplex_step
       of the best one (max-norm offset < simplex_step, less the rounding
       of forming the initial vertices, so that these never count);
    3. f_worst - f_best <= NOISE_Z * sqrt(s_best^2 + s_worst^2).

    Test 3 is the noisy simplex's stop of Barton & Ivey, Management Sci.
    42, 954 (1996).  Two independent estimates of equal means differ by a
    normal variable of variance s_best^2 + s_worst^2, which exceeds
    NOISE_Z = 1.96 of its standard deviations in magnitude 5% of the time.
    A spread within that bound is therefore what noise alone gives at 95%
    confidence: the ordering of the vertices, and with it every further
    move, is set by the draws rather than by F.  Test 2 keeps test 3 off
    a simplex that has not yet moved in, since the initial simplex may sit
    on a flat stretch of F (H2's energy is flat at its maximum, t = 0)
    where its spread is noise too.  The value returned is the best
    vertex's; an estimating caller should measure F afresh at
    ``opt_params``, as the lowest of many noisy values is biased low.
    """

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
        values, errors = (list(column) for column in zip(*(f.estimate(p) for p in points)))

        def replace_worst(point: np.ndarray, value: float, error: float) -> None:
            points[-1], values[-1], errors[-1] = point, value, error

        iterations = 0
        stop_reason = "max-iterations"
        while iterations < max_iter:
            order = np.argsort(values, kind="stable")
            points, values, errors = ([col[i] for i in order] for col in (points, values, errors))
            if abs(values[-1] - values[0]) < tolerance:
                stop_reason = "tolerance"
                break
            simplex = np.array(points)
            # less eps * max|x|, more than rounding x0 + simplex_step can take
            # off an initial offset (0.1 from 0.785 comes out 0.09...98)
            moved_in = self.simplex_step - np.finfo(float).eps * np.abs(simplex).max()
            if (
                errors[0] > 0.0
                and np.abs(simplex - points[0]).max() < moved_in
                and values[-1] - values[0] <= NOISE_Z * math.hypot(errors[0], errors[-1])
            ):
                stop_reason = "noise-floor"
                break
            iterations += 1
            centroid = np.mean(points[:-1], axis=0)

            reflected = _clip(centroid + (centroid - points[-1]), bounds)
            f_reflected, s_reflected = f.estimate(reflected)
            if values[0] <= f_reflected < values[-2]:
                replace_worst(reflected, f_reflected, s_reflected)
                continue
            if f_reflected < values[0]:
                expanded = _clip(centroid + 2.0 * (centroid - points[-1]), bounds)
                f_expanded, s_expanded = f.estimate(expanded)
                if f_expanded < f_reflected:
                    replace_worst(expanded, f_expanded, s_expanded)
                else:
                    replace_worst(reflected, f_reflected, s_reflected)
                continue
            contracted = _clip(centroid + 0.5 * (points[-1] - centroid), bounds)
            f_contracted, s_contracted = f.estimate(contracted)
            if f_contracted < values[-1]:
                replace_worst(contracted, f_contracted, s_contracted)
                continue
            # shrink toward the best vertex
            for i in range(1, len(points)):
                points[i] = _clip(points[0] + 0.5 * (points[i] - points[0]), bounds)
                values[i], errors[i] = f.estimate(points[i])

        best = int(np.argmin(values))
        return OptimizerResult(
            opt_val=float(values[best]),
            opt_params=[float(v) for v in points[best]],
            iterations=iterations,
            stop_reason=stop_reason,
        )


class GradientDescent:
    """Steepest descent with Armijo backtracking line search.  It stops with
    reason ``tolerance`` when the gradient vanishes, no step passes the line
    search, or an accepted step moves F by less than tolerance."""

    armijo_c = 1e-4
    initial_step = 1.0
    min_step = 1e-14

    def name(self) -> str:
        return "gradient-descent"

    def _gradient(self, f: ObjectiveFunction, x: np.ndarray) -> np.ndarray:
        grad = np.zeros(f.dimension)
        if f.provides_gradient:
            f(x, grad)
            return grad
        # internal central-difference fallback
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
        stop_reason = "max-iterations"
        while iterations < max_iter:
            iterations += 1
            grad = self._gradient(f, x)
            norm_sq = float(np.dot(grad, grad))
            if norm_sq == 0.0:
                stop_reason = "tolerance"
                break
            step = self.initial_step
            while step > self.min_step:
                candidate = _clip(x - step * grad, bounds)
                f_candidate = f.value(candidate)
                if f_candidate <= fx - self.armijo_c * step * norm_sq:
                    break
                step *= 0.5
            else:
                stop_reason = "tolerance"
                break
            if abs(fx - f_candidate) < tolerance:
                x, fx = candidate, f_candidate
                stop_reason = "tolerance"
                break
            x, fx = candidate, f_candidate
        return OptimizerResult(
            opt_val=float(fx),
            opt_params=[float(v) for v in x],
            iterations=iterations,
            stop_reason=stop_reason,
        )


def evaluate_gradient(
    strategy: str,
    circuit: CompositeInstruction,
    x: Sequence[float],
    obs: PauliOperator,
    accelerator: StatevectorAccelerator,
) -> np.ndarray:
    """dE/dx of E(x) = <obs> on ``circuit`` bound to x, a flat vector of
    finite reals checked before anything is simulated.

    The observable is compiled and the circuit planned
    (``backend.CompiledCircuit``) once per call.  Finite differences run
    the plan at x +-FD_DEFAULT_STEP in one variable.  Parameter-shift
    (Schuld et al., PRA 99, 032331 (2019)) runs at x each plan
    ``CompiledCircuit.shifted`` gives, one rotation angle moved by +-pi/2,
    exact for R_P(theta) = exp(-i theta P / 2); an angle ``scale * x[i]``
    adds scale * (E+ - E-) / 2 to entry i (chain rule).  An excitation
    exp(theta G) has G^3 = -G, so each Pauli rotation of its lowering is
    shifted instead of theta.
    """
    if strategy not in GRADIENT_STRATEGIES:
        raise OptimizationError(
            f"unknown gradient strategy '{strategy}'; choose from {GRADIENT_STRATEGIES}"
        )
    try:
        x = np.asarray(x)
    except ValueError as exc:
        raise OptimizationError(f"x must be a flat vector of finite reals: {exc}") from None
    if x.ndim != 1 or x.dtype.kind not in "iuf" or not np.isfinite(x).all():
        raise OptimizationError(f"x must be a flat vector of finite reals, got {x.tolist()}")
    x = x.astype(float)
    if x.size != len(circuit.variables):
        raise OptimizationError(
            f"circuit has {len(circuit.variables)} variables, got {x.size} values"
        )

    compiled = compile_observable(obs, circuit)
    plan = CompiledCircuit(circuit, compiled.n_qubits())

    def energy(target: CompiledCircuit, values: np.ndarray = x) -> float:
        return expectation(compiled, target, accelerator, values)

    grad = np.zeros(x.size)
    if strategy == "parameter-shift":
        shifts = zip(plan.shifted(x, SHIFT), plan.shifted(x, -SHIFT))
        for (i, scale, plus), (_, _, minus) in shifts:
            grad[i] += scale * (energy(plus) - energy(minus)) / 2.0
        return grad

    h = FD_DEFAULT_STEP

    def shifted_energy(i: int, delta: float) -> float:
        shifted_x = x.copy()
        shifted_x[i] += delta
        return energy(plan, shifted_x)

    if strategy in ("forward", "backward"):
        base = energy(plan)
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
