"""Prepare once, measure many: ``StatevectorAccelerator.prepare``.

Exact ``expect``, ``evolve`` and ``moments`` are checked against
``pauli.to_matrix`` on a state built from dense gate matrices; simulation
counts come from a counting wrapper around ``backend.statevector``;
sampled ``expect`` is checked in law against the per-string ``observe`` +
``execute_and_reduce`` loop over many seeds and against the exact value
within a Hoeffding bound, and sampled ``evolve`` and ``moments`` against
``expect`` on the equivalent state and powers.  Exact ``expect_commutators``
is checked to apply each distinct operator once, up to sign, counted
through a wrapper around ``backend.apply_pauli``, its stacked reads against
the built commutators however the slots fall into stacks, and its peak
memory with ``tracemalloc``; an excitation applied on its amplitude pairs against
``apply_pauli`` of its JW image, and a stacked ``CompiledPauli.apply``
against its rows applied one at a time, bit for bit.  Seeded sampled ``expect`` is pinned, bit for bit, to a
reference loop of one scalar binomial per string, each drawn p against
(1 + <P>)/2 through a recording generator, and ``estimate``'s standard
error in law.  ``CompiledPauli``'s memory budget is checked with
``tracemalloc`` on the 12- and 16-qubit chains, and the in-place gate kernels
against dense Kronecker-built matrices on every qubit and ordered pair.
Exact application from the factored sign tables is checked against dense
matrices for n = 1..8 and on one string at ``MAX_QUBITS``, bit for bit
for equal operators and for -op, and a counting wrapper around
``PauliOperator.encoded`` checks how often the strings are read.
``CompiledCircuit`` runs are checked bit for bit against ``statevector``
of the circuit bound by ``ir.evaluate``, and its bad inputs to raise
before any kernel runs.
"""
import itertools
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qcsim
from qcsim import backend, fermion, pauli
from qcsim import ir as ir_module
from qcsim.algorithms import adapt as adapt_module
from qcsim.errors import BackendError
from qcsim.fermion import ExcitationOperator
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
    """Counts calls of ``backend.statevector`` and runs of a
    ``backend.CompiledCircuit`` while ``counting[0]`` is true."""
    calls, counting = [], [True]
    original, original_run = backend.statevector, backend.CompiledCircuit.run

    def statevector(circuit, n):
        if counting[0]:
            calls.append(circuit)
        return original(circuit, n)

    def run(compiled, values=()):
        if counting[0]:
            calls.append(compiled)
        return original_run(compiled, values)

    monkeypatch.setattr(backend, "statevector", statevector)
    monkeypatch.setattr(backend.CompiledCircuit, "run", run)
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
        chains op|psi> equals, bit for bit, the sum in the documented order
        (X groups in ascending x, each D_X * psi[j ^ X] added in turn) with
        each mask read as a reversed binary string and each sign read from
        the gathered index.  The chain's weights are small dyadic numbers,
        so every D_X is exact whatever order its strings are summed in."""
        n = 2 * sites
        op = hubbard_chain(sites)
        rng = np.random.default_rng(n)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        index = np.arange(1 << n)
        groups = {}
        for (x, z), coefficient in op.encoded():
            flip = int(format(x, f"0{n}b")[::-1], 2)
            parity = int(format(z, f"0{n}b")[::-1], 2)
            groups.setdefault(flip, []).append((parity, coefficient * 1j ** ((x & z).bit_count() & 3)))
        reference = np.zeros(1 << n, dtype=complex)
        for flip, strings in groups.items():
            source = index ^ flip
            diagonal = np.zeros(1 << n, dtype=complex)
            for parity, phase in strings:
                odd = np.bitwise_count(source & parity) & 1
                diagonal += np.where(odd, -phase, phase)
            reference += diagonal * psi[source]
        assert len(groups) < op.n_terms()
        assert np.array_equal(backend.apply_pauli(op, psi), reference)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize(
        "kind", ["hubbard", "commutator", "random", "z-only", "identity-only", "zero"]
    )
    def test_apply_pauli_matches_dense_matrix_when_strings_share_x_masks(
        self, n, kind, hubbard_chain
    ):
        rng = np.random.default_rng(100 * n + len(kind))
        if kind in ("hubbard", "commutator"):
            # an open chain on the even register, padded by one idle qubit when n is odd
            op = hubbard_chain(n // 2) if n > 1 else pauli.PauliOperator({0: "Z"}, 0.7)
            if kind == "commutator":
                other = pauli.random_operator(rng, n, 6, complex_coeffs=True)
                op = pauli.commutator(op, other)
        elif kind == "random":
            # up to 4^n strings over at most 2^n X masks: groups of several strings
            op = pauli.random_operator(rng, n, 3 * 2**n, complex_coeffs=True)
        elif kind == "z-only":
            op = pauli.PauliOperator.zero()
            for _ in range(6):
                ops = {q: "Z" for q in range(n) if rng.random() < 0.5}
                op = op + pauli.PauliOperator(ops, complex(rng.normal(), rng.normal()))
        elif kind == "identity-only":
            op = pauli.PauliOperator.identity(complex(rng.normal(), rng.normal()))
        else:
            op = pauli.PauliOperator.zero()
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        applied = pauli.to_matrix(op, n) @ psi
        got = backend.apply_pauli(op, psi)
        assert got.shape == psi.shape
        assert np.abs(got - applied).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(applied).max())

    def test_index_bits_reverse_the_qubit_mask(self):
        for n in range(1, 7):
            for mask in range(1 << n):
                assert backend._index_bits(mask, n) == int(format(mask, f"0{n}b")[::-1], 2)

    def test_apply_pauli_rejects_an_operator_wider_than_the_state(self):
        with pytest.raises(BackendError, match="qubit 2"):
            backend.apply_pauli(pauli.PauliOperator({2: "Z"}), np.ones(4, dtype=complex))

    @pytest.mark.parametrize("size", [0, 1, 3, 6, 12, 1000])
    @pytest.mark.parametrize("letter", ["Z", "X"])
    def test_apply_pauli_rejects_a_state_of_any_other_size_than_2_to_the_n(
        self, size, letter, monkeypatch
    ):
        """Neither a silently wrong vector (Z0) nor a bare IndexError (X0):
        a ``BackendError`` before anything is compiled."""
        monkeypatch.setattr(backend, "CompiledPauli", None)
        with pytest.raises(BackendError, match="2\\^n amplitudes"):
            backend.apply_pauli(pauli.PauliOperator({0: letter}), np.ones(size, dtype=complex))

    @pytest.mark.parametrize(
        "size, match", [(6, "2\\^n amplitudes"), (16, "compiled for 2 qubits")]
    )
    def test_a_compiled_operator_rejects_a_state_of_another_size(self, size, match):
        compiled = backend.CompiledPauli(pauli.PauliOperator({0: "X"}), 2)
        with pytest.raises(BackendError, match=match):
            backend.apply_pauli(compiled, np.ones(size, dtype=complex))

    def test_one_string_on_the_largest_register(self):
        """One string touching the first, a middle and the last of
        ``MAX_QUBITS`` qubits, against the string read from reversed masks."""
        n = backend.MAX_QUBITS
        ops, coefficient = {0: "Y", 7: "X", n - 1: "Z"}, 0.3 - 0.2j
        op = pauli.PauliOperator(ops, coefficient)
        x, z = pauli.encode(ops)
        flip = int(format(x, f"0{n}b")[::-1], 2)
        parity = int(format(z, f"0{n}b")[::-1], 2)
        rng = np.random.default_rng(n)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        source = np.arange(1 << n) ^ flip
        weight = coefficient * 1j ** ((x & z).bit_count() & 3)
        reference = np.where(np.bitwise_count(source & parity) & 1, -weight, weight) * psi[source]
        got = backend.apply_pauli(op, psi)
        assert np.abs(got - reference).max() <= 1e-15 * np.abs(reference).max()

    def test_equal_operators_give_identical_vectors_and_minus_op_the_negation(self):
        """Built from the same strings in two insertion orders, an operator
        gives the same vector bit for bit, and -op exactly its negation."""
        rng = np.random.default_rng(7)
        n = 7
        strings = list(pauli.random_operator(rng, n, 60, complex_coeffs=True).terms())
        forward = pauli.PauliOperator.from_terms({term.ops: term.coefficient for term in strings})
        backward = pauli.PauliOperator.from_terms(
            {term.ops: term.coefficient for term in reversed(strings)}
        )
        assert forward == backward
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        applied = backend.apply_pauli(forward, psi)
        assert np.array_equal(backend.apply_pauli(backward, psi), applied)
        assert np.array_equal(backend.apply_pauli(-backward, psi), -applied)

    @pytest.mark.parametrize("shots", [0, 300])
    def test_one_simulation_for_many_operators(self, simulations, monkeypatch, shots):
        calls, _ = simulations
        simulated, zero_state = [], backend._zero_state

        def counted(n):
            simulated.append(n)
            return zero_state(n)

        # every simulation starts from |0...0>: this also catches a
        # re-simulation that bypasses ``statevector``
        monkeypatch.setattr(backend, "_zero_state", counted)
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


def _counted_applications(monkeypatch):
    """The operators ``backend.apply_pauli`` is called with, in call order."""
    applied, original = [], backend.apply_pauli

    def counted(op, amplitudes):
        applied.append(op)
        return original(op, amplitudes)

    monkeypatch.setattr(backend, "apply_pauli", counted)
    return applied


def _perturbed_reference(n_qubits, occupied):
    """X on the occupied qubits, then an Ry layer and a CNOT chain."""
    circuit = create_composite("perturbed")
    for q in occupied:
        circuit.add(create_instruction("X", [q]))
    for q in range(n_qubits):
        circuit.add(create_instruction("Ry", [q], [0.2 + 0.1 * q]))
    for q in range(n_qubits - 1):
        circuit.add(create_instruction("CNOT", [q, q + 1]))
    return circuit


class TestCommutatorReuse:
    """Exact ``expect_commutators`` applies each distinct operator once, up
    to sign: the lefts' L psi and L^dag psi, and every right's R psi and
    R^dag psi, are read from a vector already at hand when the operator is
    equal to, or minus, one applied before.  Given H, the same pass applies
    H to psi once and, per slot the rights read, H to A psi and A to H psi."""

    def test_adapt_shape_costs_one_application_per_generator(self, monkeypatch, hubbard_dimer_mo):
        """A Hermitian left is applied once and every anti-Hermitian right
        (R^dag = -R) once: 1 + g applications for g generators."""
        pool = qcsim.build_pool("uccsd", 2, 4)
        generators = [pool.generator(k) for k in range(len(pool))]
        state = _accelerator(seed=0, shots=0).prepare(_perturbed_reference(4, (0, 2)), 4)
        applied = _counted_applications(monkeypatch)
        got, responses = state.expect_commutators([hubbard_dimer_mo], generators)
        assert responses is None
        assert len(applied) == 1 + len(generators)
        want = [state.expect(pauli.commutator(hubbard_dimer_mo, g)) for g in generators]
        assert np.abs(got[0] - want).max() <= 1e-12

    def test_qeom_on_the_six_qubit_chain_compiles_h_alone_and_applies_it_three_times(
        self, monkeypatch, hubbard_chain
    ):
        """14 excitations O_u: the lefts O_u^dag and their adjoints are 28
        distinct excitations, and the rights O_v and O_v^dag are all among
        them.  The pencil's one call applies each of the 28 on its amplitude
        pairs to psi and to H psi (56 pair applications), and H to psi and
        once to the 28 stacked kept vectors; the ground energy applies H a
        third time.  H is the only operator compiled.  With the JW images
        as the basis the run compiled 29 operators and applied 86."""
        reference = create_composite("reference")
        for q in (0, 3):
            reference.add(create_instruction("X", [q]))
        observable = hubbard_chain(3)
        algorithm = qcsim.get_algorithm(
            "qeom",
            {
                "observable": observable,
                "accelerator": _accelerator(seed=0, shots=0),
                "ansatz": reference,
                "n-electrons": 2,
            },
        )
        compiled, compile = [], backend.CompiledPauli.__init__
        monkeypatch.setattr(
            backend.CompiledPauli,
            "__init__",
            lambda self, op, n: compiled.append(op) or compile(self, op, n),
        )
        rows, apply = [], backend.CompiledPauli.apply
        monkeypatch.setattr(
            backend.CompiledPauli,
            "apply",
            lambda self, state: rows.append(state.size // 64) or apply(self, state),
        )
        paired, applier = [], backend._applier

        def counting(op, n, *pairs):
            applied = applier(op, n, *pairs)
            return lambda psi: paired.append(op) or applied(psi)

        monkeypatch.setattr(backend, "_applier", counting)
        algorithm.execute(qcsim.qalloc(6))
        assert compiled == [observable]
        assert rows == [1, 28, 1]
        assert len(paired) == 56
        assert len(set(paired)) == 28
        assert all(isinstance(op, ExcitationOperator) for op in paired)

    def test_values_match_nested_commutator_expectations(self, monkeypatch):
        """Rights equal to a left, its adjoint, minus either, or to each
        other up to sign reuse one vector, and every value stays within
        1e-12 of ``expect(commutator(L, R))``."""
        rng = np.random.default_rng(21)
        a, b, c, d = (pauli.random_operator(rng, 3, 5, complex_coeffs=True) for _ in range(4))
        hermitian = c + c.dagger()
        lefts = [a, hermitian, b]
        rights = [a, -a.dagger(), hermitian, -hermitian, d, -d, d.dagger(), b.dagger(), c]
        state = _accelerator(seed=0, shots=0).prepare(_perturbed_reference(3, (0,)), 3)
        applied = _counted_applications(monkeypatch)
        got, _ = state.expect_commutators(lefts, rights)
        # a, a^dag, hermitian, b, b^dag, d, d^dag, c, c^dag
        assert len(applied) == 9
        want = np.array(
            [[state.expect(pauli.commutator(left, right)) for right in rights] for left in lefts]
        )
        assert np.abs(got - want).max() <= 1e-12

    def test_memory_stays_at_the_lefts_plus_a_few_vectors(self, hubbard_chain):
        """One 12-qubit call with 1 left and 60 anti-Hermitian rights holds
        at most 2 * lefts + 4 vectors of 2^n at once; the call that returns
        D with P adds H psi, H applied to a right's vector and two compiled
        forms of the chain (about one vector each at 12 qubits):
        2 * lefts + 8.  With 8 single excitations as the lefts, and their
        adjoints and themselves as the rights, the kept rows are 2 * lefts
        and each excitation holds its 2^(n-2) amplitude pairs of 24 bytes
        (3/8 of a vector); H is applied to one kept row at a time, 2^12
        amplitudes, so the same few vectors cover the rest."""
        n = 12
        rng = np.random.default_rng(12)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = backend.PreparedState(_accelerator(seed=0, shots=0), psi / np.linalg.norm(psi))
        singles = [ExcitationOperator(occ, virt) for occ, virt in fermion.excitation_modes(2, n)[:8]]
        cases = [
            ([hubbard_chain(6)], [1j * pauli.random_operator(rng, n, 8) for _ in range(60)], 0.0),
            (singles, [op.dagger() for op in singles] + singles, 3 / 8),
        ]
        for lefts, rights, pairs in cases:
            for observable, few in [(None, 4), (backend.CompiledPauli(hubbard_chain(6), n), 8)]:
                tracemalloc.start()
                try:
                    state.expect_commutators(lefts, rights, observable)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak <= ((2 + pairs) * len(lefts) + few) * psi.nbytes


class TestStackedReads:
    """Exact ``expect_commutators`` reads the slots the rights name in
    stacks of at most ``_STACK_AMPLITUDES`` amplitudes: P is one product of
    each stack with the kept rows, and D one of H applied to the stack minus
    each slot's A (H psi).  However the slots fall into stacks, mixed
    excitation and Pauli operators give ``expect`` of the built commutators."""

    @staticmethod
    def _case(n):
        """A random state on n qubits, 2 excitations and 2 Pauli sums as the
        lefts, and rights naming 8 kept slots and 6 fresh ones, up to sign."""
        rng = np.random.default_rng(n)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = backend.PreparedState(_accelerator(seed=0, shots=0), psi / np.linalg.norm(psi))
        modes = fermion.excitation_modes(2, n, spin_preserving=False)
        e0, e1, e2, e3 = (
            ExcitationOperator(*modes[i], adjoint=bool(rng.integers(2)))
            for i in rng.choice(len(modes), 4, replace=False)
        )
        p0, p1, p2 = (pauli.random_operator(rng, n, 4, complex_coeffs=True) for _ in range(3))
        lefts = [e0, p0, e1, p1]
        rights = [e0.dagger(), -p0, e2, p2, e1, p1.dagger(), e3, -p2.dagger()]
        return state, lefts, rights

    @pytest.mark.parametrize("n", [4, 10, 12])
    @pytest.mark.parametrize(
        "rows, stacks", [(None, [14]), (4, [4, 4, 4, 2]), (1, [1] * 14)],
        ids=["one-stack", "stacks-of-4", "one-row"],
    )
    def test_every_stacking_gives_the_built_commutators(
        self, monkeypatch, hubbard_chain, n, rows, stacks
    ):
        state, lefts, rights = self._case(n)
        monkeypatch.setattr(backend, "_STACK_AMPLITUDES", (rows or 64) << n)
        h = hubbard_chain(n // 2)
        observable = backend.CompiledPauli(h, n)
        applied, apply = [], backend.CompiledPauli.apply
        monkeypatch.setattr(
            backend.CompiledPauli,
            "apply",
            lambda self, amplitudes: (self is observable and applied.append(amplitudes.size >> n))
            or apply(self, amplitudes),
        )
        alone, none = state.expect_commutators(lefts, rights)
        overlaps, responses = state.expect_commutators(lefts, rights, observable)
        assert none is None
        # H psi, then one application of H per stack
        assert applied == [1] + stacks
        images = [[op.image() if isinstance(op, ExcitationOperator) else op for op in side]
                  for side in (lefts, rights)]
        want_p = np.array([[state.expect(pauli.commutator(a, b)) for b in images[1]]
                           for a in images[0]])
        want_d = np.array([[state.expect(pauli.commutator(a, pauli.commutator(h, b)))
                            for b in images[1]] for a in images[0]])
        assert np.abs(alone - want_p).max() <= 1e-12
        assert np.abs(overlaps - want_p).max() <= 1e-12
        assert np.abs(responses - want_d).max() <= 1e-12

    @pytest.mark.parametrize("shots", [0, 100])
    @pytest.mark.parametrize("with_h", [False, True], ids=["alone", "with-h"])
    def test_no_lefts_or_no_rights_give_empty_tables(self, hubbard_chain, shots, with_h):
        state = _accelerator(seed=0, shots=shots).prepare(_perturbed_reference(4, (0, 2)), 4)
        ops = [ExcitationOperator((0,), (1,)), pauli.PauliOperator({0: "X", 1: "Y"}, 0.5j)]
        observable = hubbard_chain(2) if with_h else None
        for lefts, rights in (([], ops), (ops, [])):
            overlaps, responses = state.expect_commutators(lefts, rights, observable)
            assert overlaps.shape == (len(lefts), len(rights))
            if with_h:
                assert responses.shape == overlaps.shape
            else:
                assert responses is None


class TestExcitationPairs:
    """An excitation T or T^dag applied on its amplitude pairs equals
    ``apply_pauli`` of its JW image: every amplitude the image gives a
    non-zero value is the same bit for bit, and every other is 0 (the
    image's products may give -0.0 there)."""

    @pytest.mark.parametrize(
        "n_electrons, n_qubits", [(1, 4), (2, 4), (3, 4), (2, 6), (3, 6), (2, 8), (4, 8), (5, 8)]
    )
    def test_pairs_apply_as_the_image(self, n_electrons, n_qubits):
        rng = np.random.default_rng(10 * n_qubits + n_electrons)
        # singles, then doubles, spin flips included
        for occ, virt in fermion.excitation_modes(n_electrons, n_qubits, spin_preserving=False):
            for op in (ExcitationOperator(occ, virt), ExcitationOperator(occ, virt, adjoint=True)):
                psi = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
                got = backend._applier(op, n_qubits, backend._pairs)(psi)
                want = backend.apply_pauli(op.image(), psi)
                assert np.array_equal(got, want)
                assert got[want != 0].tobytes() == want[want != 0].tobytes()

    def test_a_left_t_and_t_dagger_share_their_pairs(self, monkeypatch):
        """One ``_pairs`` build per excitation of the lefts, not per operator."""
        built, original = [], backend._pairs
        monkeypatch.setattr(backend, "_pairs", lambda *args: built.append(args) or original(*args))
        modes = fermion.excitation_modes(2, 4, spin_preserving=False)
        lefts = [ExcitationOperator(occ, virt, adjoint=True) for occ, virt in modes]
        state = _accelerator(seed=0, shots=0).prepare(_perturbed_reference(4, (0, 2)), 4)
        state.expect_commutators(lefts, [op.dagger() for op in lefts])
        assert sorted(built) == sorted((occ, virt, 4) for occ, virt in modes)


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
        """The block's gates, X, CNOT and Ry among them, update a copy in place."""
        accelerator = qcsim.get_accelerator("statevector", {"shots": 0})
        state = accelerator.prepare(_h2_state(), 2)
        before = state._amplitudes.copy()
        block = create_composite("block")
        block.add(create_instruction("H", [0]))
        block.add(create_instruction("X", [1]))
        block.add(create_instruction("CNOT", [1, 0]))
        block.add(create_instruction("Ry", [0], [0.9]))
        evolved = state.evolve(block)
        assert np.array_equal(state._amplitudes, before)
        assert np.abs(evolved._amplitudes - _dense_state(_joined(_h2_state(), block), 2)).max() <= 1e-12

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
            },
        )
        buffer = qcsim.qalloc(4)
        algorithm.execute(buffer)
        iterations = len(buffer["adapt-gradient-norms"])
        assert iterations >= 2
        # one prepared state per gradient sweep; the first, the reference,
        # also gives the reference energy
        assert len(calls) == iterations


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

    @staticmethod
    def _one_draw_per_string(op, psi, rng, shots):
        """The reference loop: one scalar binomial per non-identity string, in
        ``encoded()`` order, with <P> = vdot(psi, P psi) read string by string."""
        n = psi.size.bit_length() - 1
        index = np.arange(psi.size)
        total = complex(op.identity_coefficient)
        for (x, z), coefficient in op.encoded():
            if (x, z) == (0, 0):
                continue
            source = index ^ backend._index_bits(x, n)
            odd = np.bitwise_count(source & backend._index_bits(z, n)) & 1
            phase = 1j ** ((x & z).bit_count() & 3)
            mean = np.vdot(psi, np.where(odd, -phase, phase) * psi[source]).real
            hits = rng.binomial(shots, np.clip((1 + mean) / 2, 0, 1))
            total += coefficient * (2 * hits - shots) / shots
        return total

    @pytest.mark.parametrize("seed", [5, 11, 23])
    def test_draws_match_one_scalar_binomial_per_string(self, seed, hubbard_chain):
        """Bit for bit, and leaving the generator where the loop leaves it.
        The H2 state has <Z0 Z1> = -1 and the basis state <Z> = +-1 exactly,
        so their draws have p = 0 or 1, where ``binomial`` consumes nothing."""
        h2 = pauli.load_hamiltonian(str(H2_PATH))
        basis = create_composite("basis")
        for q in (0, 3):
            basis.add(create_instruction("X", [q]))
        rng = np.random.default_rng(seed)
        cases = [
            (h2, _h2_state(0.2), 2),
            (h2, _h2_state(0.0), 2),
            (hubbard_chain(3), basis, 6),
            (pauli.random_operator(rng, 3, 7, complex_coeffs=True), _h2_state(1.3), 3),
        ]
        for op, circuit, n in cases:
            state = _accelerator(seed, shots=4000).prepare(circuit, n)
            reference = np.random.default_rng(seed)
            for _ in range(3):
                expected = self._one_draw_per_string(op, state._amplitudes, reference, 4000)
                assert state.expect(op) == expected
            assert state.accelerator._rng.random() == reference.random()

    @given(states_and_operators())
    def test_each_drawn_p_is_the_parity_probability_of_its_string(self, case):
        """One ``binomial`` call, whose p for each non-identity string, in
        ``encoded()`` order, is (1 + <P>)/2 with <P> = vdot(psi, P psi) from
        ``to_matrix``."""
        n, circuit, op = case
        psi = backend.statevector(circuit, n)
        recorder = _RecordingGenerator()
        backend.CompiledPauli(op, n).draw(psi, recorder, 100)
        letters = {pauli.encode(term.ops): term.ops for term in op.terms()}
        strings = [letters[masks] for masks, _ in op.encoded() if masks != (0, 0)]
        expected = [
            (1 + np.vdot(psi, pauli.to_matrix(pauli.PauliOperator(ops), n) @ psi).real) / 2
            for ops in strings
        ]
        assert len(recorder.probabilities) == (1 if strings else 0)
        for drawn in recorder.probabilities:
            assert drawn.shape == (len(strings),)
            assert np.abs(drawn - expected).max() <= 1e-14

    @pytest.mark.parametrize(
        "op",
        [pauli.PauliOperator.zero(), pauli.PauliOperator.identity(0.75 - 0.25j)],
        ids=["zero", "identity-only"],
    )
    def test_an_operator_with_no_string_to_draw_draws_nothing(self, op):
        accelerator = _accelerator(3, shots=1000)
        state = accelerator.prepare(_h2_state(), 2)
        before = accelerator._rng.bit_generator.state
        assert state.expect(op) == op.identity_coefficient
        assert state.estimate(op) == (op.identity_coefficient, 0.0)
        assert accelerator._rng.bit_generator.state == before

    def test_a_compiled_operator_draws_as_the_plain_one(self):
        op = pauli.load_hamiltonian(str(H2_PATH))
        compiled = backend.CompiledPauli(op, 2)
        plain = _accelerator(7, shots=1000).prepare(_h2_state(), 2)
        held = _accelerator(7, shots=1000).prepare(_h2_state(), 2)
        assert [plain.expect(op) for _ in range(5)] == [held.expect(compiled) for _ in range(5)]

    def test_estimate_draws_what_expect_draws(self):
        op = pauli.load_hamiltonian(str(H2_PATH))
        first = _accelerator(9, shots=1000).prepare(_h2_state(), 2)
        second = _accelerator(9, shots=1000).prepare(_h2_state(), 2)
        value, error = first.estimate(op)
        assert value == second.expect(op)
        assert error > 0
        assert first.expect(op) == second.expect(op)
        assert _accelerator(9, shots=0).prepare(_h2_state(), 2).estimate(op)[1] == 0.0

    def test_standard_error_law(self):
        """Over 600 seeds at a fixed point the mean reported standard error
        lies within 15% of the spread of the estimates."""
        op = pauli.load_hamiltonian(str(H2_PATH))
        estimates = [
            _accelerator(seed, shots=1000).prepare(_h2_state(0.5), 2).estimate(op)
            for seed in range(600)
        ]
        values = np.array([value.real for value, _ in estimates])
        errors = np.array([error for _, error in estimates])
        assert errors.mean() == pytest.approx(values.std(ddof=1), rel=0.15)


class _RecordingGenerator:
    """A generator stub that keeps each p passed to ``binomial`` and draws 0."""

    def __init__(self):
        self.probabilities = []

    def binomial(self, shots, p):
        self.probabilities.append(np.array(p, dtype=float))
        return np.zeros(np.shape(p), dtype=np.int64)


def _sign_tables_bytes(strings, n):
    """k (16 * 2^h + 8 * 2^l) bytes of sign factors for k strings on n
    qubits, l = n // 2 and h = n - l."""
    return strings * (16 * (1 << (n - n // 2)) + 8 * (1 << n // 2))


class TestCompiledPauli:
    @pytest.mark.parametrize("n, sites, masks, strings", [(12, 6, 11, 38), (16, 8, 15, 52)])
    def test_memory_budget_on_the_chain(self, hubbard_chain, n, sites, masks, strings):
        """Held: the sign factors of each mode, k (16 * 2^h + 8 * 2^l) bytes
        for an X mask of k strings, l = n // 2 and h = n - l, over every
        string for exact application and every non-identity one for draws.
        Peak over a draw and an exact application: besides those, a few
        vectors of 2^n; never a complex vector per string or per X mask."""
        op = hubbard_chain(sites)
        assert len({x for (x, _), _ in op.encoded()}) == masks
        assert sum(1 for (x, z), _ in op.encoded() if x or z) == strings
        rng = np.random.default_rng(4)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        size = 1 << n
        tracemalloc.start()
        try:
            compiled = backend.CompiledPauli(op, n)
            compiled.draw(psi, rng, 100)
            backend.apply_pauli(compiled, psi)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slack = 16 * 1024
        factors = _sign_tables_bytes(op.n_terms() + strings, n)
        assert held <= factors + slack
        assert peak <= factors + 4 * 16 * size + slack
        assert peak < 16 * strings * size

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_a_stack_applies_as_its_rows_one_at_a_time(self, n):
        rng = np.random.default_rng(n)
        compiled = backend.CompiledPauli(pauli.random_operator(rng, n, 12, complex_coeffs=True), n)
        stack = rng.normal(size=(5, 1 << n)) + 1j * rng.normal(size=(5, 1 << n))
        rows = np.array([compiled.apply(row) for row in stack])
        assert compiled.apply(stack).tobytes() == rows.tobytes()

    def test_applies_as_the_plain_operator(self, hubbard_chain):
        op = hubbard_chain(4)
        compiled = backend.CompiledPauli(op, 8)
        rng = np.random.default_rng(2)
        for _ in range(3):
            psi = rng.normal(size=256) + 1j * rng.normal(size=256)
            assert np.array_equal(backend.apply_pauli(compiled, psi), backend.apply_pauli(op, psi))

    @pytest.mark.parametrize("shots", [0, 100])
    def test_rejects_another_register(self, shots):
        compiled = backend.CompiledPauli(pauli.PauliOperator({0: "Z"}), 3)
        state = _accelerator(1, shots).prepare(_h2_state(), 2)
        with pytest.raises(BackendError, match="compiled for 3 qubits"):
            state.expect(compiled)

    @pytest.mark.parametrize("n", [-1, 0, backend.MAX_QUBITS + 1])
    def test_rejects_a_register_outside_one_to_max_qubits(self, n):
        with pytest.raises(BackendError, match="register size|capped"):
            backend.CompiledPauli(pauli.PauliOperator({0: "Z"}), n)

    def test_checks_width_and_hermiticity_once(self):
        with pytest.raises(BackendError, match="qubit 3"):
            backend.CompiledPauli(pauli.PauliOperator({3: "Z"}), 2)
        compiled = backend.CompiledPauli(pauli.PauliOperator({0: "Z"}, 1j), 2)
        assert not compiled.is_hermitian()
        with pytest.raises(BackendError, match="Hermitian"):
            backend.expectation(compiled, _h2_state(), _accelerator(1, 0))


def _count_string_reads(monkeypatch):
    """How often ``PauliOperator.encoded`` is called."""
    reads = {"encoded": 0}
    original = pauli.PauliOperator.encoded

    def counting(self):
        reads["encoded"] += 1
        return original(self)

    monkeypatch.setattr(pauli.PauliOperator, "encoded", counting)
    return reads


class TestStringReads:
    """Both modes' tables read ``encoded()``, once per mode; a rotation
    reads no string list and builds no table, but encodes its own ``ops``."""

    def test_a_one_off_exact_expect_reads_encoded_once(self, monkeypatch):
        state = _accelerator(1, shots=0).prepare(_h2_state(), 2)
        reads = _count_string_reads(monkeypatch)
        state.expect(pauli.load_hamiltonian(str(H2_PATH)))
        assert reads == {"encoded": 1}

    def test_sampled_expect_reads_encoded_once(self, monkeypatch):
        state = _accelerator(1, shots=100).prepare(_h2_state(), 2)
        reads = _count_string_reads(monkeypatch)
        state.expect(pauli.load_hamiltonian(str(H2_PATH)))
        assert reads == {"encoded": 1}

    def test_an_exact_qeom_operation_reads_the_strings_through_encoded(
        self, monkeypatch, hubbard_chain
    ):
        reference = create_composite("reference")
        for q in (0, 3):
            reference.add(create_instruction("X", [q]))
        algorithm = qcsim.get_algorithm(
            "qeom",
            {
                "observable": hubbard_chain(3),
                "accelerator": _accelerator(seed=0, shots=0),
                "ansatz": reference,
                "n-electrons": 2,
            },
        )
        reads = _count_string_reads(monkeypatch)
        algorithm.execute(qcsim.qalloc(6))
        assert reads["encoded"] > 0

    def test_a_rotation_never_builds_the_exact_table(self, monkeypatch):
        generator = pauli.PauliOperator({0: "X", 1: "Y", 2: "Z"}, 1j) + pauli.PauliOperator(
            {1: "X"}, -0.5j
        )
        circuit = qcsim.exp_pauli(generator, 0.4)
        built, original = [], backend.CompiledPauli._factors

        def counting(self, weighted):
            built.append(self)
            return original(self, weighted)

        monkeypatch.setattr(backend.CompiledPauli, "_factors", counting)
        reads = _count_string_reads(monkeypatch)
        psi = backend.statevector(circuit, 3)
        assert built == []
        assert reads == {"encoded": 0}
        assert np.abs(psi - _dense_state(circuit, 3)).max() <= 1e-12


def _dense_gate(matrix, qubits, n):
    """The 2^n x 2^n matrix of a gate on ``qubits`` (qubit 0 leftmost), built
    from Kronecker products of |i><k| on the gate qubits."""
    k = len(qubits)
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for row in range(1 << k):
        for column in range(1 << k):
            if matrix[row, column] == 0:
                continue
            factors = [np.eye(2)] * n
            for position, q in enumerate(qubits):
                unit = np.zeros((2, 2))
                shift = k - 1 - position
                unit[row >> shift & 1, column >> shift & 1] = 1.0
                factors[q] = unit
            out += matrix[row, column] * _kron(factors)
    return out


class TestGateKernels:
    """``_apply_gate``, run on the step ``_plan`` makes of one gate, updates
    a (2,)*n tensor in place; checked against dense Kronecker-built
    matrices on every qubit and every ordered pair."""

    NAMES = sorted(ir_module._FIXED_MATRICES) + ["Rx", "Ry", "Rz"]

    @pytest.mark.parametrize("name", NAMES)
    def test_matches_dense_matrices(self, name):
        rng = np.random.default_rng(len(name))
        fixed = ir_module._FIXED_MATRICES.get(name)
        arity = 1 if fixed is None else fixed.shape[0].bit_length() - 1
        angles = [[]] if fixed is not None else [[a] for a in rng.uniform(-7, 7, size=3)]
        for n in range(arity, 7):
            for qubits, params in itertools.product(
                itertools.permutations(range(n), arity), angles
            ):
                inst = create_instruction(name, list(qubits), params)
                psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                expected = _dense_gate(gate_matrix(inst), qubits, n) @ psi
                tensor = psi.reshape((2,) * n).copy()
                ((kernel, gate, angle),), _ = backend._plan(create_composite("g").add(inst), n)
                assert kernel is backend._apply_gate
                assert kernel(tensor, gate, angle) is tensor
                assert np.abs(tensor.reshape(-1) - expected).max() <= 1e-12


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


def _h2_kernel():
    return qcsim.parse_kernel(
        "__qpu__ void h2(qbit q, double t) {\n"
        "  Ry(q[0], t);\n  X(q[1]);\n  CNOT(q[0], q[1]);\n}"
    )


def _shared_scales():
    """One variable driving Rz(t), Rz(-t) and Rx(2t), among fixed gates."""
    symbolic = qcsim.Parameter.symbolic
    circuit = create_composite("scales")
    circuit.add(create_instruction("H", [0]))
    circuit.add(create_instruction("Rz", [0], [symbolic("t")]))
    circuit.add(create_instruction("CNOT", [0, 1]))
    circuit.add(create_instruction("Rz", [1], [symbolic("t", -1.0)]))
    circuit.add(create_instruction("Rx", [0], [symbolic("t", 2.0)]))
    circuit.add(create_instruction("Ry", [1], [symbolic("u", 0.5)]))
    return circuit


def _every_fixed_gate():
    """A symbolic Ry layer, then every fixed gate of ``GATE_TABLE``."""
    circuit = create_composite("fixed")
    for q in range(3):
        circuit.add(create_instruction("Ry", [q], [qcsim.Parameter.symbolic(f"t{q}")]))
    for name, (arity, n_params) in ir_module.GATE_TABLE.items():
        if name != "Measure" and not n_params:
            for qubits in itertools.permutations(range(3), arity):
                circuit.add(create_instruction(name, list(qubits)))
    return circuit


def _exp_pauli_leaves():
    rng = np.random.default_rng(17)
    generator = 1j * pauli.random_operator(rng, 3, 6)
    circuit = create_composite("rotations")
    circuit.add(create_instruction("H", [1]))
    circuit.add_all(qcsim.ansatz.exp_pauli(generator, "a").children)
    circuit.add_all(qcsim.ansatz.exp_pauli(generator, qcsim.Parameter.symbolic("b", -0.5)).children)
    return circuit


COMPILED_CIRCUITS = {
    "h2-kernel": (_h2_kernel, 2),
    "shared-scales": (_shared_scales, 2),
    "every-fixed-gate": (_every_fixed_gate, 3),
    "exp-pauli": (_exp_pauli_leaves, 3),
    "uccsd-2-4": (lambda: qcsim.uccsd_circuit(qcsim.UccsdSpec(2, 4)), 4),
    "uccsd-2-6": (lambda: qcsim.uccsd_circuit(qcsim.UccsdSpec(2, 6)), 6),
}


class TestCompiledCircuit:
    """A circuit planned once and run with x gives the amplitudes of the
    circuit bound to x (``ir.evaluate``) bit for bit, through ``run`` and
    through ``prepare``; every bad input raises before any kernel runs."""

    @pytest.mark.parametrize("name", sorted(COMPILED_CIRCUITS))
    def test_runs_equal_the_bound_circuit_bit_for_bit(self, name):
        build, n = COMPILED_CIRCUITS[name]
        circuit = build()
        compiled = backend.CompiledCircuit(circuit, n)
        accelerator = _accelerator(seed=0, shots=0)
        rng = np.random.default_rng(len(name))
        for x in rng.uniform(-3, 3, size=(4, len(circuit.variables))):
            expected = backend.statevector(qcsim.evaluate(circuit, x), n)
            assert np.array_equal(compiled.run(x), expected)
            assert np.array_equal(accelerator.prepare(compiled, n, list(x))._amplitudes, expected)

    def test_a_concrete_circuit_runs_with_no_values(self):
        circuit = _h2_state()
        compiled = backend.CompiledCircuit(circuit, 3)
        assert np.array_equal(compiled.run(), backend.statevector(circuit, 3))

    def test_sampled_draws_match_the_bound_circuit(self):
        observable = pauli.load_hamiltonian(str(H2_PATH))
        circuit = _h2_kernel()
        compiled = backend.CompiledCircuit(circuit, 2)
        planned, bound = _accelerator(seed=9), _accelerator(seed=9)
        for t in (0.3, -1.1, 2.0):
            assert planned.prepare(compiled, 2, [t]).expect(observable) == bound.prepare(
                qcsim.evaluate(circuit, [t]), 2
            ).expect(observable)

    @staticmethod
    def _rejects_before_any_kernel(action, match):
        with mock.patch.object(backend, "_apply_gate") as gates, mock.patch.object(
            backend, "_rotate"
        ) as rotations, mock.patch.object(backend, "_excite") as excitations, mock.patch.object(
            backend, "_zero_state"
        ) as zero_states:
            with pytest.raises(BackendError, match=match):
                action()
        assert gates.call_count == rotations.call_count == excitations.call_count == 0
        assert zero_states.call_count == 0

    @pytest.mark.parametrize("x", [[], [0.1, 0.2, 0.3, 0.4]])
    def test_wrong_length_x(self, x):
        circuit = qcsim.uccsd_circuit(qcsim.UccsdSpec(2, 4))
        compiled = backend.CompiledCircuit(circuit, 4)
        accelerator = _accelerator(seed=1, shots=100)
        before = accelerator._rng.bit_generator.state
        self._rejects_before_any_kernel(lambda: compiled.run(x), "3 variable")
        self._rejects_before_any_kernel(lambda: accelerator.prepare(compiled, 4, x), "3 variable")
        assert accelerator._rng.bit_generator.state == before

    def test_measure(self):
        circuit = _shared_scales().add(create_instruction("Measure", [0]))
        self._rejects_before_any_kernel(lambda: backend.CompiledCircuit(circuit, 2), "Measure")

    def test_too_wide_leaf(self):
        circuit = _exp_pauli_leaves()
        self._rejects_before_any_kernel(
            lambda: backend.CompiledCircuit(circuit, 2), "touches qubit 2"
        )

    @pytest.mark.parametrize("n, match", [(0, "size must be"), (backend.MAX_QUBITS + 1, "capped")])
    def test_register_out_of_range(self, n, match):
        self._rejects_before_any_kernel(lambda: backend.CompiledCircuit(_h2_kernel(), n), match)

    def test_prepare_checks_the_register_and_plain_values(self):
        compiled = backend.CompiledCircuit(_h2_kernel(), 2)
        accelerator = _accelerator(seed=1, shots=0)
        self._rejects_before_any_kernel(
            lambda: accelerator.prepare(compiled, 3, [0.1]), "compiled for 2 qubits"
        )
        self._rejects_before_any_kernel(
            lambda: accelerator.prepare(_h2_state(), 2, [0.1]), "not compiled"
        )
