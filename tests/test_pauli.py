import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qcsim
from qcsim.pauli import (
    PauliOperator,
    PauliTerm,
    commutator,
    encode,
    expectation_from_counts,
    multiply,
    observe,
    parse_hamiltonian,
    pauli_from_string,
    scalar_multiply,
    to_matrix,
    random_operator,
)


class TestFromString:
    def test_identity_coefficient(self):
        op = pauli_from_string("0.2976")
        assert op.identity_coefficient == pytest.approx(0.2976)
        assert op.n_terms() == 1

    def test_two_qubit_term(self):
        op = pauli_from_string("0.0896 X0 X1")
        assert op.coefficient({0: "X", 1: "X"}) == pytest.approx(0.0896)

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            pauli_from_string("1.0 W3")

    def test_complex_coefficient(self):
        op = pauli_from_string("(0.5,-1.5) Y2")
        assert op.coefficient({2: "Y"}) == pytest.approx(0.5 - 1.5j)

    def test_repeated_qubit_rejected(self):
        with pytest.raises(ValueError):
            pauli_from_string("1.0 X0 Z0")


class TestEncoding:
    """Every constructor validates and canonicalizes its strings alike."""

    def test_from_terms_canonicalizes_qubit_order(self):
        unordered = PauliOperator.from_terms({((1, "X"), (0, "Z")): 1})
        ordered = PauliOperator({0: "Z", 1: "X"})
        assert unordered == ordered
        assert (unordered - ordered).is_zero()
        assert [t.ops for t in unordered.terms()] == [((0, "Z"), (1, "X"))]

    def test_from_terms_merges_keys_that_canonicalize_alike(self):
        op = PauliOperator.from_terms(
            {((1, "X"), (0, "Z")): 1.0, ((0, "Z"), (1, "X")): 2.0, ((0, "I"), (1, "X")): 3.0}
        )
        assert op == PauliOperator({0: "Z", 1: "X"}, 3.0) + PauliOperator({1: "X"}, 3.0)

    def test_numpy_qubit_index_is_accepted(self):
        x3 = PauliOperator({np.int64(3): "X"})
        assert x3 == PauliOperator({3: "X"})
        assert multiply(x3, PauliOperator({3: "Z"})).coefficient({3: "Y"}) == pytest.approx(-1j)

    @pytest.mark.parametrize(
        "key", [((0, "Q"),), ((-1, "X"),), ((0.5, "X"),)], ids=["letter", "negative", "float"]
    )
    def test_from_terms_rejects_a_malformed_key(self, key):
        with pytest.raises(ValueError):
            PauliOperator.from_terms({key: 1})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PauliOperator([(0, "X"), (0, "Z")]),
            lambda: PauliOperator([(2, "Y"), (0, "Z"), (2, "Y")]),
            lambda: PauliOperator.from_terms({((0, "X"), (0, "X")): 1}),
            lambda: PauliOperator({0: "X"}).coefficient([(1, "X"), (1, "Z")]),
        ],
        ids=["constructor", "constructor-gapped", "from_terms", "coefficient"],
    )
    def test_repeated_qubit_rejected(self, build):
        with pytest.raises(ValueError, match="repeated"):
            build()

    def test_encoded_holds_the_encoded_terms_ordered_by_x_then_z(self):
        op = random_operator(np.random.default_rng(3), 4, 30, complex_coeffs=True)
        encoded = op.encoded()
        assert encoded == sorted((encode(term.ops), term.coefficient) for term in op.terms())
        xs = [x for (x, _), _ in encoded]
        # the strings sharing an x mask are one run
        assert len({x for x in xs}) == 1 + sum(a != b for a, b in zip(xs, xs[1:]))


class TestAlgebra:
    def test_dagger_and_negation_keep_every_kept_term(self):
        """|c| is unchanged by both, so a term just above the pruning
        threshold stays, and both undo themselves exactly."""
        op = PauliOperator({0: "X"}, 2e-14j) + PauliOperator({1: "Y"}, 0.3 - 0.7j)
        assert op.n_terms() == 2
        for image in (op.dagger(), -op):
            assert image.n_terms() == 2
        assert op.dagger().coefficient({0: "X"}) == -2e-14j
        assert (-op).coefficient({1: "Y"}) == -0.3 + 0.7j
        assert op.dagger().dagger() == op and -(-op) == op
        assert hash(-(-op)) == hash(op)

    def test_add_same_term(self):
        z = PauliOperator({0: "Z"})
        assert (z + z).coefficient({0: "Z"}) == pytest.approx(2.0)

    def test_add_cancellation(self):
        z = PauliOperator({0: "Z"})
        assert (z + (-1.0) * z).is_zero()

    def test_fig_hamiltonian_sum(self, h2):
        assert h2.n_terms() == 6
        assert h2.identity_coefficient == pytest.approx(0.2976)
        assert h2.coefficient({0: "Y", 1: "Y"}) == pytest.approx(0.0896)

    def test_multiply_xy(self):
        x, y = PauliOperator({0: "X"}), PauliOperator({0: "Y"})
        assert multiply(x, y).coefficient({0: "Z"}) == pytest.approx(1j)

    def test_multiply_square_is_identity(self):
        z = PauliOperator({0: "Z"})
        assert multiply(z, z).identity_coefficient == pytest.approx(1.0)

    def test_multiply_weight_two_vs_matrix_oracle(self):
        a = PauliOperator({0: "X", 1: "X"})
        b = PauliOperator({0: "Y", 1: "Y"})
        got = multiply(a, b)
        oracle = to_matrix(a, 2) @ to_matrix(b, 2)
        assert np.abs(to_matrix(got, 2) - oracle).max() < 1e-12
        assert got.coefficient({0: "Z", 1: "Z"}) == pytest.approx(-1.0)

    def test_scalar_multiply(self):
        z = PauliOperator({0: "Z"})
        assert scalar_multiply(z, 2.0).coefficient({0: "Z"}) == pytest.approx(2.0)
        assert scalar_multiply(z, 0.0).is_zero()

    def test_scalar_multiply_breaks_hermiticity(self, h2):
        assert h2.is_hermitian()
        assert not scalar_multiply(h2, 1j).is_hermitian()

    def test_commutator_disjoint_supports(self):
        assert commutator(PauliOperator({0: "Z"}), PauliOperator({1: "Z"})).is_zero()

    def test_commutator_su2(self):
        got = commutator(PauliOperator({0: "X"}), PauliOperator({0: "Y"}))
        assert got.coefficient({0: "Z"}) == pytest.approx(2j)

    def test_commutator_vs_matrix_oracle(self, h2):
        xx = PauliOperator({0: "X", 1: "X"})
        got = to_matrix(commutator(h2, xx), 2)
        a, b = to_matrix(h2, 2), to_matrix(xx, 2)
        assert np.abs(got - (a @ b - b @ a)).max() < 1e-12

    def test_commutator_with_self_is_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            op = random_operator(rng, 3, 4, complex_coeffs=True)
            assert commutator(op, op).isclose(PauliOperator.zero(), 1e-10)

    @given(st.integers(1, 6), st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_one_pass_commutator_matches_both_products(self, n, left, right, seed):
        """Only anticommuting pairs survive [a, b] = a b - b a, doubled: the
        same strings after pruning, each coefficient within 1e-14."""
        rng = np.random.default_rng(seed)
        a = random_operator(rng, n, left, complex_coeffs=True)
        b = random_operator(rng, n, right, complex_coeffs=True)
        got, reference = commutator(a, b), multiply(a, b) - multiply(b, a)
        assert [masks for masks, _ in got.encoded()] == [masks for masks, _ in reference.encoded()]
        assert got.isclose(reference, 1e-14)

    def test_equal_operators_are_one_key_whatever_their_term_order(self):
        terms = [PauliOperator({0: "X", 2: "Y"}, 0.5), PauliOperator({1: "Z"}, -0.25j), PauliOperator(0.3)]
        forward = terms[0] + terms[1] + terms[2]
        backward = terms[2] + terms[1] + terms[0]
        assert forward.encoded() == backward.encoded()
        assert forward == backward and hash(forward) == hash(backward)
        table = {forward: "forward"}
        assert table[backward] == "forward"
        assert table[PauliOperator({0: "X", 2: "Y"}, 0.5 + 0j) + terms[2] + terms[1]] == "forward"
        negated = -backward
        assert negated not in table
        assert table[-negated] == "forward"
        table[negated] = "negated"
        assert table[-forward] == "negated"
        assert PauliOperator.zero() not in table

    @given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
    def test_up_to_sign_keys_an_operator_and_its_negation_alike(self, n, terms, seed, imaginary):
        """op and -op share the key with opposite signs, the adjoint's key
        is that of the built dagger, and an operator that differs from
        op beyond its sign has another key."""
        rng = np.random.default_rng(seed)
        op = random_operator(rng, n, terms, complex_coeffs=True)
        if imaginary:
            op = 1j * (op + op.dagger())
        key, sign = op.up_to_sign()
        assert (-op).up_to_sign() == (key, -sign)
        adjoint_key, adjoint_sign = op.dagger().up_to_sign()
        assert op.up_to_sign(adjoint=True) == (adjoint_key, adjoint_sign)
        assert (-op).up_to_sign(adjoint=True) == (adjoint_key, -adjoint_sign)
        assert (op + PauliOperator({n: "X"})).up_to_sign()[0] != key
        assert (2 * op).up_to_sign()[0] != key
        assert PauliOperator.zero().up_to_sign() == (((), ()), 1.0)

    def test_pruning_threshold(self):
        tiny = PauliOperator({0: "Z"}, 1e-15)
        assert tiny.is_zero()


class TestToMatrix:
    def test_identity(self):
        assert np.allclose(to_matrix(PauliOperator.identity(1.0), 1), np.eye(2))

    def test_z0(self):
        assert np.allclose(to_matrix(PauliOperator({0: "Z"}), 1), np.diag([1, -1]))

    def test_qubit0_is_leftmost_factor(self):
        # Z0 on two qubits: Z (x) I
        assert np.allclose(
            to_matrix(PauliOperator({0: "Z"}), 2), np.diag([1, 1, -1, -1])
        )

    def test_h2_is_hermitian_with_real_spectrum(self, h2, h2_eigensystem):
        matrix = to_matrix(h2, 2)
        assert np.abs(matrix - matrix.conj().T).max() < 1e-12
        values, _ = h2_eigensystem
        assert values.shape == (4,)
        assert values[0] < -1.1  # bound state exists below the HF energy

    def test_size_cap(self):
        with pytest.raises(ValueError):
            to_matrix(PauliOperator({0: "Z"}), 13)

    def test_operator_outside_register(self):
        with pytest.raises(ValueError):
            to_matrix(PauliOperator({3: "Z"}), 2)


def _skewed_operator(rng, n_qubits, n_terms):
    """Random operator whose strings are Y-heavy with gapped supports."""
    terms = {}
    for _ in range(n_terms):
        letters = rng.choice(list("IXYZ"), size=n_qubits, p=[0.4, 0.1, 0.4, 0.1])
        key = tuple((q, str(letter)) for q, letter in enumerate(letters) if letter != "I")
        terms[key] = complex(rng.normal(), rng.normal())
    return PauliOperator.from_terms(terms)


class TestHomomorphismProperties:
    N_CHECKS = 1000

    def test_product_sum_commutator_homomorphism(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for check in range(self.N_CHECKS):
            n = int(rng.integers(1, 7))
            if check % 2:
                a, b = _skewed_operator(rng, n, 3), _skewed_operator(rng, n, 3)
            else:
                a = random_operator(rng, n, 3, complex_coeffs=True)
                b = random_operator(rng, n, 3, complex_coeffs=True)
            ma, mb = to_matrix(a, n), to_matrix(b, n)
            worst = max(worst, np.abs(to_matrix(multiply(a, b), n) - ma @ mb).max())
            worst = max(worst, np.abs(to_matrix(a + b, n) - (ma + mb)).max())
            worst = max(
                worst,
                np.abs(to_matrix(commutator(a, b), n) - (ma @ mb - mb @ ma)).max(),
            )
        assert worst < 1e-10


@st.composite
def pauli_operators(draw):
    """Sums of up to 6 strings on qubits 0..7, with complex coefficients."""
    letters = st.sampled_from("IXYZ")
    coefficients = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        key = tuple((q, letter) for q in range(8) if (letter := draw(letters)) != "I")
        terms[key] = complex(draw(coefficients), draw(coefficients))
    return PauliOperator.from_terms(terms)


class TestTermsView:
    @given(pauli_operators())
    def test_terms_are_sorted_and_str_round_trips(self, op):
        keys = [t.ops for t in op.terms()]
        assert keys == sorted(keys)
        assert parse_hamiltonian(str(op)) == op
        for term in op.terms():
            single = PauliOperator.from_terms({term.ops: term.coefficient})
            assert pauli_from_string(str(term)) == single


class TestObserve:
    def test_single_z_term(self, hf_circuit_2q):
        empty = qcsim.create_composite("empty")
        pairs = observe(PauliOperator({0: "Z"}), empty)
        assert len(pairs) == 1
        term, circuit = pairs[0]
        names = [i.name for i in circuit.instructions()]
        assert names == ["Measure"]

    def test_x_term_gets_hadamard_then_measure(self):
        empty = qcsim.create_composite("empty")
        ((term, circuit),) = observe(PauliOperator({0: "X"}), empty)
        names = [i.name for i in circuit.instructions()]
        assert names == ["H", "Measure"]

    def test_y_term_basis_change(self):
        empty = qcsim.create_composite("empty")
        ((_, circuit),) = observe(PauliOperator({0: "Y"}), empty)
        names = [i.name for i in circuit.instructions()]
        assert names == ["Sdg", "H", "Measure"]

    def test_fig_hamiltonian_observation(self, h2, hf_circuit_2q):
        pairs = observe(h2, hf_circuit_2q)
        assert len(pairs) == 5  # identity term carried as offset
        assert h2.identity_coefficient == pytest.approx(0.2976)

    def test_output_count_matches_non_identity_terms(self, h2):
        rng = np.random.default_rng(5)
        circuit = qcsim.create_composite("c")
        for _ in range(10):
            op = random_operator(rng, 3, 5)
            op = 0.5 * (op + op.dagger())
            pairs = observe(op, circuit)
            expected = op.n_terms() - (1 if abs(op.identity_coefficient) > 0 else 0)
            assert len(pairs) == expected

    def test_measures_exactly_the_support(self, h2, hf_circuit_2q):
        for term, circuit in observe(h2, hf_circuit_2q):
            measured = tuple(
                i.qubits[0] for i in circuit.instructions() if i.name == "Measure"
            )
            assert sorted(measured) == sorted(term.support)

    def test_rejects_measured_circuit(self):
        c = qcsim.create_composite("c")
        c.add(qcsim.create_instruction("Measure", [0]))
        with pytest.raises(ValueError):
            observe(PauliOperator({0: "Z"}), c)

    def test_rejects_non_hermitian(self):
        c = qcsim.create_composite("c")
        with pytest.raises(ValueError):
            observe(PauliOperator({0: "Z"}, 1j), c)


class TestExpectationFromCounts:
    def test_all_zero_outcome(self):
        term = PauliTerm(((0, "Z"),), 1.0)
        assert expectation_from_counts(term, {"0": 100}) == pytest.approx(1.0)

    def test_balanced_outcomes(self):
        term = PauliTerm(((0, "Z"),), 1.0)
        assert expectation_from_counts(term, {"0": 50, "1": 50}) == pytest.approx(0.0)

    def test_weighted_two_qubit_parity(self):
        # parity of "11" over support (0, 1) is even
        term = PauliTerm(((0, "Z"), (1, "Z")), 0.5818)
        assert expectation_from_counts(term, {"11": 100}) == pytest.approx(0.5818)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            expectation_from_counts(PauliTerm(((0, "Z"),), 1.0), {})

    def test_exact_weights_match_statevector(self, exact_accelerator):
        # sampling-free check: exact outcome weights reproduce <psi|term|psi>
        from qcsim.backend import statevector

        rng = np.random.default_rng(7)
        for _ in range(25):
            circuit = qcsim.create_composite("c")
            for q in range(2):
                circuit.add(qcsim.create_instruction("Ry", [q], [float(rng.normal())]))
            circuit.add(qcsim.create_instruction("CNOT", [0, 1]))
            op = random_operator(rng, 2, 2)
            op = 0.5 * (op + op.dagger())
            psi = statevector(circuit, 2)
            oracle = float(np.real(psi.conj() @ to_matrix(op, 2) @ psi))
            got = qcsim.expectation(op, circuit, exact_accelerator)
            assert abs(got - oracle) < 1e-12


class TestHamiltonianFiles:
    def test_comments_and_blanks(self):
        text = "# header\n\n0.5 Z0\n0.25 X0 X1  # trailing\n"
        op = parse_hamiltonian(text)
        assert op.n_terms() == 2

    def test_line_number_in_error(self):
        with pytest.raises(ValueError) as err:
            parse_hamiltonian("0.5 Z0\n1.0 W3\n")
        assert "line 2" in str(err.value)

    def test_partial_sums_that_cancel_mid_file_are_pruned_as_by_repeated_plus(self):
        """A string whose running sum falls below ``PRUNE_THRESHOLD`` leaves
        the sum, and comes back last if a later line names it again; a term
        below the threshold never enters.  Keys, order and values all equal
        those of summing the lines with ``+``."""
        lines = [
            "0.5 Z0",
            "1.0 X1",
            "0.125 Z0 Z1",
            "-0.5 Z0",
            "(0.0,1e-15) Y2",
            "0.25 Z0",
            "-0.5 X1",
            "(1e-15,0.0) X1",
            "0.3",
            "-0.125 Z0 Z1",
            "-0.3",
            "0.75 Z0 Z1",
        ]
        op = parse_hamiltonian("\n".join(lines) + "\n")
        summed = PauliOperator.zero()
        for line in lines:
            summed = summed + pauli_from_string(line)
        assert list(op._terms.items()) == list(summed._terms.items())
        assert list(op._terms) == [encode({1: "X"}), encode({0: "Z"}), encode({0: "Z", 1: "Z"})]
        assert list(op._terms.values()) == [0.5, 0.25, 0.75]
