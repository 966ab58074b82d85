"""Prepare once, measure many: ``StatevectorAccelerator.prepare``.

Exact ``expect``, ``evolve`` and ``moments`` are checked against
``pauli.to_matrix`` on a state built from dense gate matrices; simulation
counts come from a counting wrapper around ``backend.statevector``;
sampled ``expect`` is checked in law against the per-string ``observe`` +
``execute_and_reduce`` loop over many seeds and against the exact value
within a Hoeffding bound, and sampled ``evolve`` and ``moments`` against
``expect`` on the equivalent state and powers.
"""
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qcsim
from qcsim import backend, pauli
from qcsim.algorithms import adapt as adapt_module
from qcsim.errors import BackendError
from qcsim.ir import create_composite, create_instruction, gate_matrix

H2_PATH = Path(__file__).resolve().parents[1] / "data" / "h2.ham"

_PROJECTORS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


def _kron(factors):
    out = np.ones((1, 1))
    for factor in factors:
        out = np.kron(out, factor)
    return out


def _dense_state(circuit, n):
    """circuit|0...0> from full 2^n x 2^n gate matrices (qubit 0 leftmost)."""
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for inst in circuit.instructions():
        if inst.name == "CNOT":
            control, target = inst.qubits
            x = gate_matrix(create_instruction("X", [0]))
            unitary = sum(
                _kron(
                    [
                        _PROJECTORS[bit] if q == control
                        else (x if bit and q == target else np.eye(2))
                        for q in range(n)
                    ]
                )
                for bit in (0, 1)
            )
        else:
            (q0,) = inst.qubits
            unitary = _kron([gate_matrix(inst) if q == q0 else np.eye(2) for q in range(n)])
        psi = unitary @ psi
    return psi


@st.composite
def ry_cnot_circuits(draw, n_qubits):
    circuit = create_composite("random")
    for _ in range(draw(st.integers(0, 10))):
        if n_qubits > 1 and draw(st.booleans()):
            control, target = draw(st.permutations(range(n_qubits)))[:2]
            circuit.add(create_instruction("CNOT", [control, target]))
        else:
            qubit = draw(st.integers(0, n_qubits - 1))
            angle = draw(st.floats(-np.pi, np.pi))
            circuit.add(create_instruction("Ry", [qubit], [angle]))
    return circuit


@st.composite
def states_and_operators(draw, max_qubits=4):
    n_qubits = draw(st.integers(1, max_qubits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    op = pauli.random_operator(rng, n_qubits, draw(st.integers(1, 8)), complex_coeffs=True)
    return n_qubits, draw(ry_cnot_circuits(n_qubits)), op


@st.composite
def two_blocks(draw):
    """A register size and two random circuits on it."""
    n_qubits = draw(st.integers(1, 4))
    return n_qubits, draw(ry_cnot_circuits(n_qubits)), draw(ry_cnot_circuits(n_qubits))


def _joined(first, second):
    circuit = create_composite("joined")
    circuit.add_all(first.children)
    circuit.add_all(second.children)
    return circuit


@pytest.fixture()
def simulations(monkeypatch):
    """Counts calls of ``backend.statevector`` while ``counting[0]`` is true."""
    calls, counting = [], [True]
    original = backend.statevector

    def statevector(circuit, n):
        if counting[0]:
            calls.append(circuit)
        return original(circuit, n)

    monkeypatch.setattr(backend, "statevector", statevector)
    return calls, counting


def _accelerator(seed, shots=300):
    return qcsim.get_accelerator("statevector", {"shots": shots, "seed": seed})


def _h2_state(t=0.7):
    circuit = create_composite("h2")
    circuit.add(create_instruction("Ry", [0], [t]))
    circuit.add(create_instruction("X", [1]))
    circuit.add(create_instruction("CNOT", [0, 1]))
    return circuit


class TestExactExpect:
    @given(states_and_operators(max_qubits=6))
    def test_matches_dense_matrix(self, case):
        n, circuit, op = case
        accelerator = qcsim.get_accelerator("statevector", {"shots": 0})
        psi = _dense_state(circuit, n)
        applied = pauli.to_matrix(op, n) @ psi
        reference = np.vdot(psi, applied)
        value = accelerator.prepare(circuit, n).expect(op)
        assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference))
        tolerance = 1e-12 * max(1.0, np.abs(applied).max())
        assert np.abs(backend.apply_pauli(op, psi) - applied).max() <= tolerance
        tensor = backend.apply_pauli(op, psi.reshape((2,) * n))
        assert tensor.shape == (2,) * n
        assert np.abs(tensor.reshape(-1) - applied).max() <= tolerance

    @pytest.mark.parametrize("sites", [6, 8])
    def test_apply_pauli_on_a_chain_is_bit_identical_to_reversed_strings(self, sites, hubbard_chain):
        """Index masks come from ``_index_bits``; on the 12- and 16-qubit
        chains op|psi> equals, bit for bit, the sum over the same strings
        with each mask read as a reversed binary string."""
        n = 2 * sites
        op = hubbard_chain(sites)
        rng = np.random.default_rng(n)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        index = np.arange(1 << n)
        reference = np.zeros(1 << n, dtype=complex)
        for (x, z), coefficient in op.masks():
            source = index ^ int(format(x, f"0{n}b")[::-1], 2)
            odd = np.bitwise_count(source & int(format(z, f"0{n}b")[::-1], 2)) & 1
            phase = coefficient * 1j ** ((x & z).bit_count() & 3)
            reference += np.where(odd, -phase, phase) * psi[source]
        assert np.array_equal(backend.apply_pauli(op, psi), reference)

    def test_index_bits_reverse_the_qubit_mask(self):
        for n in range(1, 7):
            for mask in range(1 << n):
                assert backend._index_bits(mask, n) == int(format(mask, f"0{n}b")[::-1], 2)

    def test_apply_pauli_rejects_an_operator_wider_than_the_state(self):
        with pytest.raises(BackendError, match="qubit 2"):
            backend.apply_pauli(pauli.PauliOperator({2: "Z"}), np.ones(4, dtype=complex))

    @pytest.mark.parametrize("shots", [0, 300])
    def test_one_simulation_for_many_operators(self, simulations, monkeypatch, shots):
        calls, _ = simulations
        simulated, simulate = [], backend._simulate

        def counted(circuit, n):
            simulated.append(circuit)
            return simulate(circuit, n)

        # also catches a re-simulation that bypasses ``statevector``
        monkeypatch.setattr(backend, "_simulate", counted)
        accelerator = _accelerator(seed=5, shots=shots)
        state = accelerator.prepare(_h2_state(), 2)
        rng = np.random.default_rng(5)
        for _ in range(6):
            state.expect(pauli.random_operator(rng, 2, 4, complex_coeffs=True))
        block = create_composite("block")
        block.add(create_instruction("H", [0]))
        evolved = state.evolve(block)
        evolved.expect(pauli.random_operator(rng, 2, 4, complex_coeffs=True))
        evolved.moments(pauli.load_hamiltonian(str(H2_PATH)), 3)
        assert len(calls) == 1
        assert len(simulated) == 1

    def test_a_hermitian_left_is_applied_once(self, monkeypatch):
        """L^dag psi is L psi when L^dag == L, so one Hermitian left costs one
        application, each right two, and every value is unchanged."""
        rng = np.random.default_rng(8)
        hermitian = pauli.load_hamiltonian(str(H2_PATH))
        rights = [pauli.random_operator(rng, 2, 3, complex_coeffs=True) for _ in range(4)]
        state = _accelerator(seed=0, shots=0).prepare(_h2_state(), 2)
        psi = state._amplitudes
        bras = backend.apply_pauli(hermitian.dagger(), psi).conj()[None, :]
        kets = backend.apply_pauli(hermitian, psi)[None, :]
        want = [
            (
                bras @ backend.apply_pauli(b, psi)
                - kets @ backend.apply_pauli(b.dagger(), psi).conj()
            )[0]
            for b in rights
        ]
        applied = []
        original = backend.apply_pauli

        def counted(op, amplitudes):
            applied.append(op)
            return original(op, amplitudes)

        monkeypatch.setattr(backend, "apply_pauli", counted)
        got = state.expect_commutators([hermitian], rights)
        assert len(applied) == 1 + 2 * len(rights)
        assert got[0].tolist() == want
        applied.clear()
        state.expect_commutators([rights[0]], rights)
        assert len(applied) == 2 + 2 * len(rights)


class TestEvolve:
    @given(two_blocks())
    def test_exact_amplitudes_match_joined_circuit(self, case):
        n, first, second = case
        accelerator = qcsim.get_accelerator("statevector", {"shots": 0})
        evolved = accelerator.prepare(first, n).evolve(second)
        joined = _joined(first, second)
        assert np.array_equal(evolved._amplitudes, backend.statevector(joined, n))
        assert np.allclose(evolved._amplitudes, _dense_state(joined, n), atol=1e-12)

    def test_sampled_draws_match_joined_circuit(self):
        first, second = _h2_state(0.3), create_composite("second")
        second.add(create_instruction("Ry", [2], [1.2]))
        second.add(create_instruction("CNOT", [1, 2]))
        second.add(create_instruction("Rx", [0], [-0.4]))
        rng = np.random.default_rng(8)
        ops = [pauli.random_operator(rng, 3, 5, complex_coeffs=True) for _ in range(4)]
        evolved = _accelerator(seed=23).prepare(first, 3).evolve(second)
        joined = _accelerator(seed=23).prepare(_joined(first, second), 3)
        assert [evolved.expect(op) for op in ops] == [joined.expect(op) for op in ops]

    def test_leaves_the_prepared_state_unchanged(self):
        accelerator = qcsim.get_accelerator("statevector", {"shots": 0})
        state = accelerator.prepare(_h2_state(), 2)
        before = state._amplitudes.copy()
        block = create_composite("block")
        block.add(create_instruction("H", [0]))
        state.evolve(block)
        assert np.array_equal(state._amplitudes, before)

    @pytest.mark.parametrize("shots", [0, 10])
    def test_many_evolves_keep_the_circuit_shallow(self, shots):
        circuit = create_composite("x")
        circuit.add(create_instruction("X", [0]))
        state = _accelerator(seed=4, shots=shots).prepare(circuit, 1)
        block = create_composite("h")
        block.add(create_instruction("H", [0]))
        for _ in range(3000):
            state = state.evolve(block)
        assert state.expect(pauli.PauliOperator({0: "Z"})).real == pytest.approx(-1.0)


class TestMoments:
    @given(states_and_operators(), st.integers(1, 5))
    def test_exact_matches_matrix_powers(self, case, highest):
        n, circuit, op = case
        op = 0.5 * (op + op.dagger())
        accelerator = qcsim.get_accelerator("statevector", {"shots": 0})
        psi = _dense_state(circuit, n)
        matrix = pauli.to_matrix(op, n)
        scale = max(1.0, np.linalg.norm(matrix, 2)) ** highest
        moments = accelerator.prepare(circuit, n).moments(op, highest)
        assert len(moments) == highest
        for k, moment in enumerate(moments, start=1):
            reference = np.vdot(psi, np.linalg.matrix_power(matrix, k) @ psi).real
            assert abs(moment - reference) <= 1e-12 * scale

    def test_sampled_matches_per_power_expect(self):
        observable = pauli.load_hamiltonian(str(H2_PATH))
        moments = _accelerator(seed=11).prepare(_h2_state(), 2).moments(observable, 4)
        state = _accelerator(seed=11).prepare(_h2_state(), 2)
        power, reference = pauli.PauliOperator.identity(1.0), []
        for _ in range(4):
            power = pauli.multiply(power, observable)
            reference.append(state.expect(power).real)
        assert moments == reference

    @pytest.mark.parametrize("shots", [0, 100])
    def test_rejects_non_hermitian_operator(self, shots):
        accelerator = _accelerator(seed=1, shots=shots)
        state = accelerator.prepare(_h2_state(), 2)
        before = accelerator._rng.bit_generator.state
        op = pauli.PauliOperator({0: "Z"}) + pauli.PauliOperator({0: "X"}, 0.3j)
        with pytest.raises(BackendError, match="Hermitian"):
            state.moments(op, 3)
        assert accelerator._rng.bit_generator.state == before


class TestSimulationCounts:
    def _qeom(self, observable, ansatz, n_electrons):
        accelerator = qcsim.get_accelerator("statevector", {"shots": 0})
        algorithm = qcsim.get_algorithm(
            "qeom",
            {
                "observable": observable,
                "accelerator": accelerator,
                "ansatz": ansatz,
                "n-electrons": n_electrons,
            },
        )
        buffer = qcsim.qalloc(observable.n_qubits())
        algorithm.execute(buffer)
        return buffer

    def test_qeom_h2_simulates_once(self, simulations):
        calls, _ = simulations
        buffer = self._qeom(pauli.load_hamiltonian(str(H2_PATH)), _h2_state(), 1)
        assert len(buffer["excitation-energies"]) >= 1
        assert len(calls) == 1

    def test_qeom_dimer_hf_simulates_once(self, simulations, hubbard_dimer):
        calls, _ = simulations
        circuit = qcsim.uccsd_circuit(qcsim.UccsdSpec(2, 4))
        hf = qcsim.evaluate(circuit, [0.0] * len(circuit.variables))
        buffer = self._qeom(hubbard_dimer, hf, 2)
        assert len(buffer["excitation-energies"]) >= 1
        assert len(calls) == 1

    def test_adapt_simulates_once_per_iteration(
        self, simulations, monkeypatch, hubbard_dimer
    ):
        calls, counting = simulations

        class UncountedVQE(adapt_module.VQE):
            def execute(self, buffer):
                counting[0] = False
                try:
                    super().execute(buffer)
                finally:
                    counting[0] = True

        monkeypatch.setattr(adapt_module, "VQE", UncountedVQE)
        algorithm = qcsim.get_algorithm(
            "adapt",
            {
                "observable": hubbard_dimer,
                "accelerator": qcsim.get_accelerator("statevector", {"shots": 0}),
                "optimizer": qcsim.get_optimizer("nelder-mead"),
                "n-electrons": 2,
                "pool": "uccsd",
                "sub-algorithm": "vqe",
            },
        )
        buffer = qcsim.qalloc(4)
        algorithm.execute(buffer)
        iterations = len(buffer["adapt-gradient-norms"])
        assert iterations >= 2
        # the reference energy, then one prepared state per gradient sweep
        assert len(calls) == 1 + iterations


class TestSampledExpect:
    @staticmethod
    def _per_string_loop(op, circuit, accelerator):
        """Each distinct non-identity string measured once, sorted."""
        n = max(circuit.max_qubit() + 1, op.n_qubits(), 1)
        strings = pauli.PauliOperator.from_terms(
            {term.ops: 1.0 for term in op.terms() if term.ops}
        )
        parities = {
            term.ops: accelerator.execute_and_reduce(measured, term, n)
            for term, measured in pauli.observe(strings, circuit)
        }
        total = complex(op.identity_coefficient)
        for term in op.terms():
            if term.ops:
                total += term.coefficient * parities[term.ops]
        return total

    def test_law_matches_per_string_loop(self):
        """Over 1,000 seeds both estimators centre on the exact value with
        the standard deviation of independent binomial parities."""
        shots, seeds = 200, range(1000)
        op = pauli.random_operator(np.random.default_rng(3), 3, 6)
        circuit = create_composite("three")
        for q, angle in ((0, 0.4), (1, -1.1), (2, 2.0)):
            circuit.add(create_instruction("Ry", [q], [angle]))
        circuit.add(create_instruction("CNOT", [0, 2]))
        exact_state = _accelerator(seed=0, shots=0).prepare(circuit, 3)
        exact = exact_state.expect(op).real
        variance = sum(
            term.coefficient.real**2
            * (1 - exact_state.expect(pauli.PauliOperator(term.ops)).real ** 2)
            for term in op.terms()
            if term.ops
        ) / shots
        prepared = np.array(
            [_accelerator(seed, shots).prepare(circuit, 3).expect(op).real for seed in seeds]
        )
        reference = np.array(
            [self._per_string_loop(op, circuit, _accelerator(seed, shots)).real for seed in seeds]
        )
        sd = np.sqrt(variance)
        for estimates in (prepared, reference):
            assert abs(estimates.mean() - exact) <= 4 * sd / np.sqrt(len(seeds))
            assert estimates.std(ddof=1) == pytest.approx(sd, rel=0.15)
        assert prepared.std(ddof=1) == pytest.approx(reference.std(ddof=1), rel=0.15)

    @given(states_and_operators(), st.integers(1, 5000), st.integers(0, 2**32 - 1))
    def test_within_hoeffding_bound_of_exact(self, case, shots, seed):
        """Each real and imaginary part is off by more than 8 sqrt(sum |c|^2 / shots)
        with probability below 2 exp(-32)."""
        n, circuit, op = case
        exact = _accelerator(seed, shots=0).prepare(circuit, n).expect(op)
        sampled = _accelerator(seed, shots).prepare(circuit, n).expect(op)
        bound = 8 * np.sqrt(sum(abs(t.coefficient) ** 2 for t in op.terms() if t.ops) / shots)
        assert abs((sampled - exact).real) <= bound
        assert abs((sampled - exact).imag) <= bound


@pytest.mark.parametrize(
    "entry, tail, match",
    [
        ("statevector", [("Measure", [1])], "already contains Measure"),
        ("statevector", [("X", [4])], "touches qubit 4"),
        ("execute", [("Measure", [0]), ("X", [4])], "touches qubit 4"),
        ("execute", [("Measure", [0]), ("X", [0])], "after Measure"),
    ],
)
def test_the_whole_circuit_is_checked_before_any_gate(entry, tail, match):
    """A fault at the end of a UCCSD circuit, whose excitations are applied
    in one pass each, is raised before any gate or rotation runs."""
    circuit = qcsim.evaluate(qcsim.uccsd_circuit(qcsim.UccsdSpec(2, 4)), [0.1, -0.2, 0.3])
    for name, qubits in tail:
        circuit.add(create_instruction(name, qubits))
    with mock.patch.object(backend, "_apply_gate") as gates, mock.patch.object(
        backend, "_rotate"
    ) as rotations, mock.patch.object(backend, "_excite") as excitations:
        with pytest.raises(BackendError, match=match):
            if entry == "statevector":
                backend.statevector(circuit, 4)
            else:
                _accelerator(seed=1, shots=0).execute(qcsim.qalloc(4), circuit)
    assert gates.call_count == rotations.call_count == excitations.call_count == 0


@pytest.mark.parametrize("shots", [0, 100])
class TestValidation:
    @staticmethod
    def _rejects_without_drawing(accelerator, circuit, n, match):
        before = accelerator._rng.bit_generator.state
        with pytest.raises(BackendError, match=match):
            accelerator.prepare(circuit, n)
        assert accelerator._rng.bit_generator.state == before

    def test_free_variables(self, shots, pair_rotation_ansatz):
        accelerator = _accelerator(seed=1, shots=shots)
        self._rejects_without_drawing(accelerator, pair_rotation_ansatz, 2, "free variables")

    def test_measured_circuit(self, shots):
        circuit = _h2_state()
        circuit.add(create_instruction("Measure", [0]))
        accelerator = _accelerator(seed=1, shots=shots)
        self._rejects_without_drawing(accelerator, circuit, 2, "Measure")

    def test_register_over_cap(self, shots):
        accelerator = _accelerator(seed=1, shots=shots)
        n = backend.MAX_QUBITS + 1
        self._rejects_without_drawing(accelerator, _h2_state(), n, "capped")

    @pytest.mark.parametrize("n", [0, -1])
    def test_register_under_one_qubit(self, shots, n):
        accelerator = _accelerator(seed=1, shots=shots)
        self._rejects_without_drawing(accelerator, create_composite("empty"), n, "size must be")
        self._rejects_without_drawing(accelerator, _h2_state(), n, "size must be")

    @pytest.mark.parametrize("highest", [0, -1])
    def test_moments_below_first(self, shots, highest):
        accelerator = _accelerator(seed=1, shots=shots)
        state = accelerator.prepare(_h2_state(), 2)
        before = accelerator._rng.bit_generator.state
        with pytest.raises(BackendError, match="highest >= 1"):
            state.moments(pauli.load_hamiltonian(str(H2_PATH)), highest)
        assert accelerator._rng.bit_generator.state == before

    def test_circuit_wider_than_register(self, shots):
        accelerator = _accelerator(seed=1, shots=shots)
        self._rejects_without_drawing(accelerator, _h2_state(), 1, "touches qubit 1")

    @staticmethod
    def _evolve_rejects_without_drawing(accelerator, block, match):
        state = accelerator.prepare(_h2_state(), 2)
        before = accelerator._rng.bit_generator.state
        with pytest.raises(BackendError, match=match):
            state.evolve(block)
        assert accelerator._rng.bit_generator.state == before

    def test_evolve_measured_block(self, shots):
        block = create_composite("block")
        block.add(create_instruction("H", [1]))
        block.add(create_instruction("Measure", [1]))
        self._evolve_rejects_without_drawing(_accelerator(seed=1, shots=shots), block, "Measure")

    def test_evolve_symbolic_block(self, shots):
        block = create_composite("block")
        block.add(create_instruction("Ry", [0], ["theta"]))
        self._evolve_rejects_without_drawing(
            _accelerator(seed=1, shots=shots), block, "free variables"
        )

    def test_evolve_block_beyond_register(self, shots):
        block = create_composite("block")
        block.add(create_instruction("CNOT", [1, 2]))
        self._evolve_rejects_without_drawing(
            _accelerator(seed=1, shots=shots), block, "touches qubit 2"
        )

    def test_operator_beyond_register(self, shots):
        accelerator = _accelerator(seed=1, shots=shots)
        state = accelerator.prepare(_h2_state(), 2)
        before = accelerator._rng.bit_generator.state
        with pytest.raises(BackendError, match="prepared register has 2"):
            state.expect(pauli.PauliOperator({0: "Z"}) + 0.5 * pauli.PauliOperator({2: "X"}))
        assert accelerator._rng.bit_generator.state == before
