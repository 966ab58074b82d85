import numpy as np
import pytest

from qcsim.fermion import (
    ExcitationOperator,
    FermionOperator,
    FermionTerm,
    excitation_modes,
    jordan_wigner,
    occupied_spin_orbitals,
)
from qcsim.ir import _jw_strings
from qcsim.pauli import PauliOperator, to_matrix


def ladder_matrix(mode: int, create: bool, n_modes: int) -> np.ndarray:
    """Dense fermionic ladder operator oracle (JW-independent construction).

    Built directly from the occupation-number basis with the same mode
    ordering convention as the qubit register (mode 0 leftmost).
    """
    dim = 2**n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for basis in range(dim):
        bits = [(basis >> (n_modes - 1 - m)) & 1 for m in range(n_modes)]
        if create and bits[mode] == 0:
            sign = (-1) ** sum(bits[:mode])
            new = basis | (1 << (n_modes - 1 - mode))
            out[new, basis] = sign
        if not create and bits[mode] == 1:
            sign = (-1) ** sum(bits[:mode])
            new = basis & ~(1 << (n_modes - 1 - mode))
            out[new, basis] = sign
    return out


def fermion_matrix(op: FermionOperator, n_modes: int) -> np.ndarray:
    dim = 2**n_modes
    total = np.zeros((dim, dim), dtype=complex)
    for term in op.terms:
        product = np.eye(dim, dtype=complex)
        for mode, create in term.ladder_ops:
            product = product @ ladder_matrix(mode, create, n_modes)
        total += term.coefficient * product
    return total


class TestJordanWigner:
    def test_annihilation_mode0(self):
        got = jordan_wigner(FermionOperator.ladder([(0, False)]), 1)
        assert got.coefficient({0: "X"}) == pytest.approx(0.5)
        assert got.coefficient({0: "Y"}) == pytest.approx(0.5j)

    def test_creation_mode1_matches_ladder_oracle(self):
        f = FermionOperator.ladder([(1, True)])
        got = to_matrix(jordan_wigner(f, 2), 2)
        assert np.abs(got - ladder_matrix(1, True, 2)).max() < 1e-12

    def test_number_operator(self):
        f = FermionOperator.ladder([(0, True), (0, False)])
        got = jordan_wigner(f, 1)
        assert got.identity_coefficient == pytest.approx(0.5)
        assert got.coefficient({0: "Z"}) == pytest.approx(-0.5)
        assert np.allclose(to_matrix(got, 1), np.diag([0.0, 1.0]))

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            jordan_wigner(FermionOperator.ladder([(3, True)]), 2)

    def test_jw_matches_matrix_oracle_on_products(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            length = int(rng.integers(1, 4))
            ops = [
                (int(rng.integers(0, n)), bool(rng.integers(0, 2)))
                for _ in range(length)
            ]
            f = FermionOperator.ladder(ops, complex(rng.normal(), rng.normal()))
            got = to_matrix(jordan_wigner(f, n), n)
            assert np.abs(got - fermion_matrix(f, n)).max() < 1e-10

    def test_anti_commutation_relations(self):
        n = 4
        for p in range(n):
            for q in range(n):
                a_p = to_matrix(
                    jordan_wigner(FermionOperator.ladder([(p, False)]), n), n
                )
                adag_q = to_matrix(
                    jordan_wigner(FermionOperator.ladder([(q, True)]), n), n
                )
                anti = a_p @ adag_q + adag_q @ a_p
                expected = np.eye(2**n) if p == q else np.zeros((2**n, 2**n))
                assert np.abs(anti - expected).max() < 1e-10


def excitation_operator(occ, virt) -> FermionOperator:
    """T = a†_virt... a_occ... (occ in reverse), built from ladders."""
    ops = [(v, True) for v in virt] + [(o, False) for o in reversed(occ)]
    return FermionOperator.ladder(ops)


def index_pairs(n_electrons, n_qubits, rank, spin_preserving=True):
    return [
        (occ, virt)
        for occ, virt in excitation_modes(n_electrons, n_qubits, spin_preserving)
        if len(occ) == rank
    ]


def excitation_images(n_electrons, n_qubits, spin_preserving=True):
    """(occ, virt, image) of each ``excitation_modes`` entry, with the JW
    image of its T from ``ExcitationOperator.image``."""
    return [
        (occ, virt, ExcitationOperator(occ, virt).image())
        for occ, virt in excitation_modes(n_electrons, n_qubits, spin_preserving)
    ]


class TestAntiHermitianExcitation:
    def test_single_structure(self):
        ((occ, virt, image),) = excitation_images(1, 2, spin_preserving=False)
        assert (occ, virt) == ((0,), (1,))
        assert image == jordan_wigner(excitation_operator(occ, virt), 2)
        assert len(image - image.dagger()) == 2

    def test_single_jw_image(self):
        # matrix oracle fixes the sign: a†1 a0 - a†0 a1 -> (i/2)(Y0 X1 - X0 Y1)
        ((_, _, image),) = excitation_images(1, 2, spin_preserving=False)
        gen = image - image.dagger()
        assert gen.coefficient({0: "Y", 1: "X"}) == pytest.approx(0.5j)
        assert gen.coefficient({0: "X", 1: "Y"}) == pytest.approx(-0.5j)
        matrix = to_matrix(gen, 2)
        t = FermionOperator.ladder([(1, True), (0, False)])
        oracle = fermion_matrix(t - t.dagger(), 2)
        assert np.abs(matrix - oracle).max() < 1e-12

    def test_anti_hermitian_matrix_image(self):
        for n_electrons, n_qubits in ((1, 2), (2, 4), (3, 6)):
            for occ, virt, image in excitation_images(n_electrons, n_qubits, False):
                matrix = to_matrix(image - image.dagger(), n_qubits)
                t = excitation_operator(occ, virt)
                oracle = fermion_matrix(t - t.dagger(), n_qubits)
                assert np.abs(matrix - oracle).max() < 1e-12
                assert np.abs(matrix + matrix.conj().T).max() < 1e-12

    @pytest.mark.parametrize("spin_preserving", [True, False])
    @pytest.mark.parametrize("n_electrons, n_qubits", [(2, 4), (2, 8), (4, 8), (3, 8)])
    def test_generator_is_jordan_wigner_of_t_minus_t_dagger(
        self, n_electrons, n_qubits, spin_preserving
    ):
        for occ, virt, image in excitation_images(n_electrons, n_qubits, spin_preserving):
            t = excitation_operator(occ, virt)
            assert image - image.dagger() == jordan_wigner(t - t.dagger(), n_qubits)


class TestExcitationOperator:
    """The value (occ, virt, adjoint): its image, built from its strings, is
    the ladder product that ``jordan_wigner`` builds, or that image's
    adjoint, and its width is the image's."""

    @pytest.mark.parametrize("n_electrons, n_qubits", [(1, 2), (2, 4), (3, 6), (4, 8)])
    def test_image_dagger_and_width(self, n_electrons, n_qubits):
        for occ, virt in excitation_modes(n_electrons, n_qubits, spin_preserving=False):
            op = ExcitationOperator(occ, virt)
            image = jordan_wigner(excitation_operator(occ, virt), n_qubits)
            assert op.image() == image
            assert list(op.image().encoded()) == list(image.encoded())
            assert op.dagger() == ExcitationOperator(occ, virt, adjoint=True)
            assert op.dagger().dagger() == op
            assert op.dagger().image() == image.dagger()
            assert op.n_qubits() == op.dagger().n_qubits() == image.n_qubits()

    def test_strings_of_any_ladder_product_are_its_jordan_wigner_image(self):
        """The closed-form sign and parity hold for any modes in any order,
        occ and virt of unequal lengths (an odd number of modes) included."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            modes = [int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
            k = int(rng.integers(0, len(modes) + 1))
            occ, virt = tuple(modes[:k]), tuple(modes[k:])
            strings = PauliOperator.from_terms(dict(_jw_strings(occ, virt)))
            assert strings == jordan_wigner(excitation_operator(occ, virt), n), (occ, virt)


class TestEnumeration:
    def test_occupied_layout(self):
        assert occupied_spin_orbitals(4, 8) == [0, 1, 4, 5]
        assert occupied_spin_orbitals(2, 4) == [0, 2]
        assert occupied_spin_orbitals(1, 2) == [0]

    def test_occupied_validation(self):
        with pytest.raises(ValueError):
            occupied_spin_orbitals(0, 4)
        with pytest.raises(ValueError):
            occupied_spin_orbitals(3, 2)

    def test_spin_preserving_singles(self):
        assert index_pairs(2, 4, 1) == [((0,), (1,)), ((2,), (3,))]

    def test_all_singles_include_spin_flips(self):
        got = index_pairs(2, 4, 1, spin_preserving=False)
        assert ((0,), (3,)) in got and len(got) == 4

    def test_doubles_h2(self):
        assert index_pairs(2, 4, 2) == [((0, 2), (1, 3))]

    def test_doubles_sz_filter(self):
        with_filter = index_pairs(2, 8, 2)
        without = index_pairs(2, 8, 2, spin_preserving=False)
        assert len(with_filter) == 9
        assert len(without) == 15  # C(6, 2) virtual pairs, one occupied pair

    @pytest.mark.parametrize("n_electrons, n_qubits", [(2, 4), (3, 8), (4, 12)])
    def test_singles_then_doubles_in_index_order(self, n_electrons, n_qubits):
        every = excitation_modes(n_electrons, n_qubits, False)
        assert every == sorted(every, key=lambda pair: (len(pair[0]), pair))

    @pytest.mark.parametrize("spin_preserving", [True, False])
    @pytest.mark.parametrize("n_electrons, n_qubits", [(1, 2), (2, 4), (3, 8), (4, 12)])
    def test_images_are_built_on_the_one_enumeration(self, n_electrons, n_qubits, spin_preserving):
        """The pool whose generators are built from these images holds the
        excitations of the enumeration: every one with spin flips for
        "uccsd", each spin-preserving one in one group for the singlets."""
        from qcsim.ansatz import build_pool

        modes = excitation_modes(n_electrons, n_qubits, spin_preserving)
        name = "singlet-adapted-uccsd" if spin_preserving else "uccsd"
        pool = build_pool(name, n_electrons, n_qubits)
        found = [(t.occ, t.virt) for _, _, group in pool.elements for t in group]
        assert sorted(found) == sorted(modes) and len(found) == len(modes)

    def test_uccsd_reads_the_modes_without_building_an_image(self, monkeypatch):
        import qcsim
        from qcsim import fermion

        built = []
        monkeypatch.setattr(fermion, "_jw_ladder", lambda *args: built.append(args))
        circuit = qcsim.uccsd_circuit(qcsim.UccsdSpec(4, 12))
        assert built == []
        assert len(list(circuit.leaves())) == 4 + len(excitation_modes(4, 12))

    @pytest.mark.parametrize("n_electrons, n_qubits", [(2, 4), (3, 8), (4, 12)])
    def test_spin_preserving_keeps_the_sz_conserving_subset(self, n_electrons, n_qubits):
        half = n_qubits // 2
        every = excitation_modes(n_electrons, n_qubits, False)
        kept = excitation_modes(n_electrons, n_qubits)
        assert kept == [
            (occ, virt)
            for occ, virt in every
            if sum(q >= half for q in occ) == sum(q >= half for q in virt)
        ]
