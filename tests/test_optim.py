"""Optimizers and gradient strategies.

Every gradient strategy must agree with central differences: the
parameter-shift rule exactly (to the finite-difference truncation error)
and one-sided differences to O(step).  Parameter-shift on the compiled
plan is bit for bit the rule that binds x and splices shifted leaves into
the bound tree, exact and seeded sampled alike.  Optimizers are checked on
a quadratic with a known minimum, and Nelder-Mead's noise-floor stop on
noisy and noise-free objectives.
"""
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qcsim
from qcsim import backend, optim, pauli
from qcsim.ansatz import exp_pauli
from qcsim.backend import expectation
from qcsim.errors import OptimizationError
from qcsim.fermion import ExcitationOperator, excitation_modes
from qcsim.ir import (
    ExcitationRotation,
    Parameter,
    PauliRotation,
    create_composite,
    create_instruction,
    evaluate,
)

H2_PATH = Path(__file__).resolve().parents[1] / "data" / "h2.ham"

# Scales of one symbolic angle; each variable drives several gates.
SCALES = (1.0, -1.0, 0.5)


@st.composite
def shared_variable_circuits(draw):
    """(circuit, x, observable) on 1-3 qubits; ``t`` drives 2-3 rotations
    and ``u`` 0-2, each at a scale from SCALES, among fixed gates.

    Observable coefficients stay within [-0.5, 0.5] on at most 3 strings
    and each variable's scales sum to at most 3 in magnitude, which keeps
    |E''| <= 13.5 and so the one-sided difference error below 1e-3.
    """
    n = draw(st.integers(1, 3))
    qubit = st.integers(0, n - 1)

    def rotations(var, low, high):
        gate = st.tuples(st.sampled_from(("Rx", "Ry", "Rz")), qubit, st.sampled_from(SCALES))

        def build(drawn):
            name, q, scale = drawn
            return create_instruction(name, [q], [Parameter.symbolic(var, scale)])

        return st.lists(gate.map(build), min_size=low, max_size=high)

    fixed = [create_instruction(name, [q]) for name in ("H", "S", "X") for q in range(n)]
    fixed += [
        create_instruction("CNOT", [a, b]) for a in range(n) for b in range(n) if a != b
    ]
    gates = (
        draw(rotations("t", 2, 3))
        + draw(rotations("u", 0, 2))
        + draw(st.lists(st.sampled_from(fixed), max_size=4))
    )
    circuit = create_composite("shared")
    circuit.add_all(draw(st.permutations(gates)))
    angle = st.floats(-np.pi, np.pi)
    x = [draw(angle) for _ in circuit.variables]
    letters = st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)
    terms = {}
    for word in draw(st.lists(letters, min_size=1, max_size=3)):
        key = tuple((q, letter) for q, letter in enumerate(word) if letter != "I")
        terms[key] = draw(st.floats(-0.5, 0.5))
    return circuit, x, pauli.PauliOperator.from_terms(terms)


class TestGradientAgreement:
    @given(shared_variable_circuits())
    def test_strategies_agree_with_central(self, case):
        circuit, x, obs = case
        acc = qcsim.get_accelerator("statevector", {"shots": 0})
        central = optim.evaluate_gradient("central", circuit, x, obs, acc)
        shift = optim.evaluate_gradient("parameter-shift", circuit, x, obs, acc)
        np.testing.assert_allclose(shift, central, rtol=0, atol=1e-6)
        for strategy in ("forward", "backward"):
            one_sided = optim.evaluate_gradient(strategy, circuit, x, obs, acc)
            np.testing.assert_allclose(one_sided, central, rtol=0, atol=1e-3)

    def test_dimer_uccsd(self, hubbard_dimer, exact_accelerator):
        circuit, obs = qcsim.uccsd_circuit(qcsim.UccsdSpec(2, 4)), hubbard_dimer
        x = [0.1, -0.2, 0.3]
        central = optim.evaluate_gradient("central", circuit, x, obs, exact_accelerator)
        shift = optim.evaluate_gradient(
            "parameter-shift", circuit, x, obs, exact_accelerator
        )
        np.testing.assert_allclose(central, [-3.1838, -0.8125, 0.1334], atol=1e-4)
        np.testing.assert_allclose(shift, central, rtol=0, atol=1e-6)

    def test_concrete_excitation_among_symbolic_ones(self, hubbard_dimer, exact_accelerator):
        """A concrete node is simulated in every shifted circuit but shifts nothing."""
        circuit = qcsim.hartree_fock_circuit(2, 4)
        angles = [
            Parameter.symbolic("t0"), Parameter.concrete(0.4), Parameter.symbolic("t1", -0.5)
        ]
        for (occ, virt), angle in zip(excitation_modes(2, 4), angles):
            circuit.add(ExcitationRotation(occ, virt, (angle,)))
        x = [0.3, -0.7]
        central, shift = (
            optim.evaluate_gradient(s, circuit, x, hubbard_dimer, exact_accelerator)
            for s in ("central", "parameter-shift")
        )
        assert np.abs(central).min() > 0.1
        assert np.abs(shift - central).max() <= 1e-7

    def test_one_variable_drives_two_qubits_at_two_scales(self, exact_accelerator):
        circuit = create_composite("scales")
        for q in (0, 1):
            circuit.add(create_instruction("H", [q]))
        circuit.add(create_instruction("Rz", [0], [Parameter.symbolic("t")]))
        circuit.add(create_instruction("Rz", [1], [Parameter.symbolic("t", -0.5)]))
        observable = (
            pauli.PauliOperator({0: "X"})
            + pauli.PauliOperator({1: "Y"}, 0.5)
            + pauli.PauliOperator({0: "X", 1: "X"}, 0.25)
        )
        for t in (0.0, 0.9, -2.1):
            central, shift = (
                optim.evaluate_gradient(s, circuit, [t], observable, exact_accelerator)
                for s in ("central", "parameter-shift")
            )
            # <X> = cos(angle) and <Y> = sin(angle) after Rz(angle) H, so
            # E(t) = cos t - 0.5 sin(t/2) + 0.25 cos t cos(t/2)
            exact = -np.sin(t) - 0.25 * np.cos(t / 2) - 0.25 * (
                np.sin(t) * np.cos(t / 2) + 0.5 * np.cos(t) * np.sin(t / 2)
            )
            assert np.abs(shift - central).max() <= 1e-7
            assert shift[0] == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.3, -1.2])
    def test_pair_rotation(self, pair_rotation_ansatz, h2, exact_accelerator, t):
        central, shift = (
            optim.evaluate_gradient(s, pair_rotation_ansatz, [t], h2, exact_accelerator)
            for s in ("central", "parameter-shift")
        )
        assert abs(central[0]) > 0.1
        np.testing.assert_allclose(shift, central, rtol=0, atol=1e-6)

    def test_gradient_descent_vqe_reaches_exact_energy(
        self, pair_rotation_ansatz, exact_accelerator
    ):
        observable = pauli.load_hamiltonian(str(H2_PATH))
        exact = np.linalg.eigvalsh(pauli.to_matrix(observable, 2))[0]
        vqe = qcsim.get_algorithm(
            "vqe",
            {
                "ansatz": pair_rotation_ansatz,
                "optimizer": qcsim.get_optimizer("gradient-descent"),
                "observable": observable,
                "accelerator": exact_accelerator,
                "gradient-strategy": "parameter-shift",
            },
        )
        buffer = qcsim.qalloc(2)
        vqe.execute(buffer)
        assert exact == pytest.approx(-1.14496, abs=1e-5)
        assert buffer["opt-val"] == pytest.approx(exact, abs=1e-6)

    def test_unknown_strategy(self, pair_rotation_ansatz, h2, exact_accelerator):
        with pytest.raises(OptimizationError, match="unknown gradient strategy"):
            optim.evaluate_gradient(
                "sideways", pair_rotation_ansatz, [0.0], h2, exact_accelerator
            )

    @pytest.mark.parametrize("strategy", optim.GRADIENT_STRATEGIES)
    def test_wrong_length_x(self, strategy, pair_rotation_ansatz, h2, exact_accelerator):
        with pytest.raises(OptimizationError, match="1 variables, got 2 values"):
            optim.evaluate_gradient(
                strategy, pair_rotation_ansatz, [0.0, 0.1], h2, exact_accelerator
            )

    @pytest.mark.parametrize("strategy", optim.GRADIENT_STRATEGIES)
    @pytest.mark.parametrize(
        "x",
        [
            [float("nan")],
            [float("inf")],
            [[0.3]],
            0.3,
            ["a"],
            [1j],
            np.array([0.3 + 0j]),
            [[0.1], [0.2, 0.3]],
        ],
        ids=repr,
    )
    def test_rejects_x_that_is_not_a_flat_vector_of_finite_reals(
        self, strategy, x, pair_rotation_ansatz, h2
    ):
        accelerator = qcsim.get_accelerator("statevector", {"shots": 100, "seed": 1})
        before = accelerator._rng.bit_generator.state
        with mock.patch.object(backend, "_zero_state") as simulated:
            with pytest.raises(OptimizationError, match="flat vector of finite reals"):
                optim.evaluate_gradient(strategy, pair_rotation_ansatz, x, h2, accelerator)
        assert simulated.call_count == 0
        assert accelerator._rng.bit_generator.state == before


def _spliced_parameter_shift(circuit, x, obs, accelerator):
    """Parameter-shift as a bound tree: bind x, and replace each bound leaf
    by its shifted leaves in one flat circuit per angle and sign, measured
    leaf by leaf, shift by shift, plus before minus."""
    index = {var: i for i, var in enumerate(circuit.variables)}
    bound = list(evaluate(circuit, x).leaves())

    def shifts(leaf, bound_leaf, delta):
        if isinstance(leaf, ExcitationRotation):
            for ops, angle in leaf.rotations():
                if angle.is_symbolic:
                    fixed = PauliRotation(ops, (Parameter.concrete(delta),))
                    yield angle, [bound_leaf, fixed]
        elif leaf.parameters and leaf.parameters[0].is_symbolic:
            shifted = Parameter.concrete(bound_leaf.parameters[0].value + delta)
            yield leaf.parameters[0], [replace(bound_leaf, parameters=(shifted,))]

    def energy(k, leaves):
        spliced = create_composite(circuit.name).add_all(bound[:k] + leaves + bound[k + 1 :])
        return expectation(obs, spliced, accelerator)

    grad = np.zeros(len(circuit.variables))
    for k, leaf in enumerate(circuit.leaves()):
        pairs = zip(shifts(leaf, bound[k], optim.SHIFT), shifts(leaf, bound[k], -optim.SHIFT))
        for (angle, plus), (_, minus) in pairs:
            shift = energy(k, plus) - energy(k, minus)
            grad[index[angle.var]] += angle.scale * shift / 2.0
    return grad


def _shared_rz_kernel():
    return qcsim.parse_kernel(
        "__qpu__ void shared(qbit q, double t, double u) {\n"
        "  H(q[0]);\n  Rz(q[0], t);\n  CNOT(q[0], q[1]);\n  Rz(q[1], -t);\n"
        "  Rx(q[0], 2*t);\n  Ry(q[1], 0.5*u);\n}"
    )


def _exp_pauli_ansatz():
    """|1010> and one exp_pauli block per excitation of (2, 4), its Pauli
    rotations at +-t_k or +-t_k/4."""
    circuit = qcsim.hartree_fock_circuit(2, 4)
    for k, (occ, virt) in enumerate(excitation_modes(2, 4)):
        image = ExcitationOperator(occ, virt).image()
        circuit.add_all(exp_pauli(image - image.dagger(), f"t{k}").children)
    return circuit


@pytest.mark.parametrize("shots", [0, 200])
@pytest.mark.parametrize(
    "case", ["shared-rz-kernel", "exp-pauli", "uccsd-2-4", "uccsd-2-6"]
)
def test_parameter_shift_equals_the_spliced_tree(case, shots, hubbard_dimer, hubbard_chain):
    circuit, observable = {
        "shared-rz-kernel": lambda: (
            _shared_rz_kernel(), pauli.load_hamiltonian(str(H2_PATH))
        ),
        "exp-pauli": lambda: (_exp_pauli_ansatz(), hubbard_dimer),
        "uccsd-2-4": lambda: (qcsim.uccsd_circuit(qcsim.UccsdSpec(2, 4)), hubbard_dimer),
        "uccsd-2-6": lambda: (qcsim.uccsd_circuit(qcsim.UccsdSpec(2, 6)), hubbard_chain(3)),
    }[case]()
    rng = np.random.default_rng(7)
    for _ in range(2):
        x = rng.uniform(-np.pi, np.pi, len(circuit.variables))
        planned, spliced = (
            qcsim.get_accelerator("statevector", {"shots": shots, "seed": 5}) for _ in range(2)
        )
        gradient = optim.evaluate_gradient("parameter-shift", circuit, x, observable, planned)
        reference = _spliced_parameter_shift(circuit, x, observable, spliced)
        assert np.abs(reference).max() > 0.01
        assert np.array_equal(gradient, reference)


def _quadratic(minimum, with_gradient=False):
    """F(x) = sum (x - minimum)^2 + 1, filling grad_out when asked."""
    minimum = np.asarray(minimum, dtype=float)

    def function(x, grad_out):
        if grad_out.size:
            grad_out[:] = 2.0 * (x - minimum)
        return float(np.sum((x - minimum) ** 2) + 1.0)

    return optim.ObjectiveFunction(function, minimum.size, provides_gradient=with_gradient)


OPTIMIZERS = {
    "nelder-mead": lambda: (optim.NelderMead(), False),
    "gradient-descent": lambda: (optim.GradientDescent(), True),
    "gradient-descent-fd": lambda: (optim.GradientDescent(), False),
}


@pytest.fixture(params=sorted(OPTIMIZERS))
def optimizer(request):
    """(optimizer, whether the objective supplies its gradient)."""
    return OPTIMIZERS[request.param]()


class TestOptimizers:
    def test_reaches_quadratic_minimum(self, optimizer):
        opt, with_gradient = optimizer
        result = opt.optimize(
            _quadratic([0.7, -0.4], with_gradient), {"tolerance": 1e-14}
        )
        np.testing.assert_allclose(result.opt_params, [0.7, -0.4], atol=1e-5)
        assert result.opt_val == pytest.approx(1.0, abs=1e-9)
        assert result.converged

    def test_bounds_clip_the_result(self, optimizer):
        opt, with_gradient = optimizer
        result = opt.optimize(
            _quadratic([0.7, -0.4], with_gradient),
            {"tolerance": 1e-14, "lower-bounds": [-1.0, 0.0], "upper-bounds": [0.5, 1.0]},
        )
        np.testing.assert_allclose(result.opt_params, [0.5, 0.0], atol=1e-5)
        assert -1.0 <= result.opt_params[0] <= 0.5
        assert 0.0 <= result.opt_params[1] <= 1.0

    def test_wrong_length_initial_point(self, optimizer):
        opt, with_gradient = optimizer
        with pytest.raises(OptimizationError, match="initial-point has 3 entries"):
            opt.optimize(
                _quadratic([0.7, -0.4], with_gradient), {"initial-point": [0, 0, 0]}
            )

    def test_nan_objective(self, optimizer):
        opt, with_gradient = optimizer
        f = optim.ObjectiveFunction(
            lambda x, grad_out: float("nan"), 2, provides_gradient=with_gradient
        )
        with pytest.raises(OptimizationError, match="NaN"):
            opt.optimize(f)


def _noisy_quadratic(minimum, stderr, seed):
    """The quadratic plus normal noise of sd ``stderr``, reported with it."""
    rng = np.random.default_rng(seed)
    plain = _quadratic(minimum)

    def function(x, grad_out):
        return plain.value(x) + stderr * rng.normal(), stderr

    return optim.ObjectiveFunction(function, len(minimum))


class TestNoiseFloor:
    def test_an_error_free_objective_takes_the_tolerance_path(self):
        """A plain-float objective and one reporting stderr 0.0 take the
        same steps to the same answer and never stop at the noise floor."""
        plain = _quadratic([0.7, -0.4])
        paired = optim.ObjectiveFunction(lambda x, grad_out: (plain.value(x), 0.0), 2)
        for options in ({}, {"tolerance": 1e-14}, {"max-iterations": 3}):
            reference = optim.NelderMead().optimize(plain, options)
            result = optim.NelderMead().optimize(paired, options)
            assert result == reference
            expected = "max-iterations" if options.get("max-iterations") else "tolerance"
            assert result.stop_reason == expected
            assert result.converged == (expected == "tolerance")

    def test_noisy_objective_stops_at_the_noise_floor(self):
        """With stderr 0.01 on the quadratic no spread falls below 1e-8, yet
        every seed stops at the noise floor, near the minimum and long before
        the iteration limit."""
        for seed in range(20):
            calls = []
            noisy = _noisy_quadratic([0.7, -0.4], 0.01, seed)
            counted = optim.ObjectiveFunction(
                lambda x, grad_out: calls.append(1) or noisy.estimate(x), 2
            )
            result = optim.NelderMead().optimize(counted)
            assert result.stop_reason == "noise-floor"
            assert result.converged
            assert len(calls) < 200
            np.testing.assert_allclose(result.opt_params, [0.7, -0.4], atol=0.5)

    def test_estimate_defaults_the_error_to_zero(self):
        f = optim.ObjectiveFunction(lambda x, grad_out: float(np.sum(x)), 2)
        assert f.estimate(np.array([1.0, 2.0])) == (3.0, 0.0)
        assert f.value(np.array([1.0, 2.0])) == 3.0
        noisy = optim.ObjectiveFunction(lambda x, grad_out: (float(np.sum(x)), 0.25), 2)
        assert noisy.estimate(np.array([1.0, 2.0])) == (3.0, 0.25)
        assert noisy(np.array([1.0, 2.0]), np.empty(0)) == 3.0

    def test_exact_vqe_never_stops_at_the_noise_floor(self):
        ansatz = create_composite("h2")
        ansatz.add(create_instruction("Ry", [0], [Parameter.symbolic("t")]))
        ansatz.add(create_instruction("X", [1]))
        ansatz.add(create_instruction("CNOT", [0, 1]))
        for options in (None, {"tolerance": 1e-14, "max-iterations": 2000}, {"max-iterations": 4}):
            vqe = qcsim.get_algorithm(
                "vqe",
                {
                    "ansatz": ansatz,
                    "observable": pauli.load_hamiltonian(str(H2_PATH)),
                    "accelerator": qcsim.get_accelerator("statevector", {"shots": 0}),
                    "optimizer": qcsim.get_optimizer("nelder-mead", options),
                },
            )
            buffer = qcsim.qalloc(2)
            vqe.execute(buffer)
            assert buffer["stop-reason"] in ("tolerance", "max-iterations")
            assert buffer["converged"] == (buffer["stop-reason"] == "tolerance")

    def test_a_rounded_initial_simplex_is_not_contracted(self):
        """From x0 = pi/4 each initial offset rounds to 0.09999999999999998,
        below simplex_step; a spread within the noise there still moves
        the simplex before it stops."""
        x0 = [np.pi / 4, np.pi / 4]
        assert (x0[0] + optim.NelderMead.simplex_step) - x0[0] < optim.NelderMead.simplex_step
        calls = []

        def function(x, grad_out):
            calls.append(1)
            return 1e-4 * float(np.sum((x - np.pi / 4) ** 2)), 1.0

        result = optim.NelderMead().optimize(
            optim.ObjectiveFunction(function, 2), {"initial-point": x0}
        )
        assert result.stop_reason == "noise-floor"
        assert len(calls) > 3
