"""QEOM and the commutator expectations it reads.

``PreparedState.expect_commutators`` is checked against ``expect`` of the
built commutator and against dense ``to_matrix`` commutators (exact), and
against the nested ``expect(commutator)`` loop value for value (sampled),
for P, <[L, R]>, alone and with D, <[L, [H, R]]>, whose bad observables
raise before any vector or draw; P is the same with D as without.  QEOM
itself is checked on the Hubbard dimer against sector exact
diagonalization in the orbital basis, must refuse the site-basis state
whose metric is ill-conditioned, builds no Pauli sum in exact mode and
eigendecomposes its metric once, cut at its rounding floor: an exact null
is dropped and counted, a small direction above the floor refused, and no
threshold option is taken.  Its basis of excitation values gives
the pencil of their JW images: on random states in exact mode, and draw
for draw in sampled mode, which measures the images.
"""
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qcsim
from qcsim import backend, pauli
from qcsim.algorithms import qeom
from qcsim.errors import AlgorithmError, BackendError
from qcsim.fermion import ExcitationOperator, excitation_modes
from qcsim.linalg import indefinite_generalized_eig
from qcsim.ir import create_composite, create_instruction

DIMER_PATH = Path(__file__).resolve().parents[1] / "data" / "hubbard_dimer.ham"


def _accelerator(shots=0, seed=0):
    return qcsim.get_accelerator("statevector", {"shots": shots, "seed": seed})


@st.composite
def commutator_cases(draw):
    """A random Rx/Ry/CNOT state on 1-4 qubits and 1-3 random complex
    operators on each side of the commutator."""
    n_qubits = draw(st.integers(1, 4))
    circuit = create_composite("random")
    for _ in range(draw(st.integers(0, 10))):
        gate = draw(st.sampled_from(["Rx", "Ry", "CNOT"]))
        if gate == "CNOT":
            if n_qubits > 1:
                circuit.add(create_instruction("CNOT", draw(st.permutations(range(n_qubits)))[:2]))
        else:
            qubit = draw(st.integers(0, n_qubits - 1))
            circuit.add(create_instruction(gate, [qubit], [draw(st.floats(-np.pi, np.pi))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operators():
        return [
            pauli.random_operator(rng, n_qubits, draw(st.integers(1, 6)), complex_coeffs=True)
            for _ in range(draw(st.integers(1, 3)))
        ]

    return n_qubits, circuit, operators(), operators()


@given(commutator_cases())
def test_exact_matches_built_commutators_and_dense_matrices(case):
    n, circuit, lefts, rights = case
    state = _accelerator().prepare(circuit, n)
    got, responses = state.expect_commutators(lefts, rights)
    assert responses is None
    assert got.shape == (len(lefts), len(rights))
    psi = backend.statevector(circuit, n)
    for i, left in enumerate(lefts):
        a = pauli.to_matrix(left, n)
        for j, right in enumerate(rights):
            b = pauli.to_matrix(right, n)
            dense = np.vdot(psi, (a @ b - b @ a) @ psi)
            assert abs(got[i, j] - state.expect(pauli.commutator(left, right))) <= 1e-12
            assert abs(got[i, j] - dense) <= 1e-12


def _operators(n_qubits, count, seed):
    rng = np.random.default_rng(seed)
    return [pauli.random_operator(rng, n_qubits, 4, complex_coeffs=True) for _ in range(count)]


def _entangled(n_qubits):
    circuit = create_composite("entangled")
    for q in range(n_qubits):
        circuit.add(create_instruction("Ry", [q], [0.3 + 0.4 * q]))
    for q in range(n_qubits - 1):
        circuit.add(create_instruction("CNOT", [q, q + 1]))
    return circuit


def test_sampled_values_follow_the_nested_expect_loop():
    lefts, rights = _operators(3, 3, seed=1), _operators(3, 4, seed=2)
    got, responses = (
        _accelerator(500, seed=11).prepare(_entangled(3), 3).expect_commutators(lefts, rights)
    )
    assert responses is None
    reference = _accelerator(500, seed=11).prepare(_entangled(3), 3)
    want = [[reference.expect(pauli.commutator(a, b)) for b in rights] for a in lefts]
    assert got.tolist() == want


@st.composite
def observable_cases(draw):
    """A ``commutator_cases`` state and lefts, a Hermitian H on the same
    register, and rights that add to fresh operators each left, its
    adjoint and minus either."""
    n_qubits, circuit, lefts, fresh = draw(commutator_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = pauli.random_operator(rng, n_qubits, draw(st.integers(1, 6)), complex_coeffs=True)
    related = [op for left in lefts for op in (left, -left, left.dagger(), -left.dagger())]
    rights = fresh + draw(st.lists(st.sampled_from(related), min_size=1, max_size=4))
    return n_qubits, circuit, h + h.dagger(), lefts, rights


@given(observable_cases(), st.booleans())
def test_observable_form_matches_built_double_commutators(case, compile_first):
    n, circuit, h, lefts, rights = case
    state = _accelerator().prepare(circuit, n)
    observable = backend.CompiledPauli(h, n) if compile_first else h
    overlaps, got = state.expect_commutators(lefts, rights, observable)
    assert got.shape == (len(lefts), len(rights))
    # P comes from the same vectors as in the call without H, bit for bit
    assert np.array_equal(overlaps, state.expect_commutators(lefts, rights)[0])
    psi = backend.statevector(circuit, n)
    dense_h = pauli.to_matrix(h, n)
    for i, left in enumerate(lefts):
        a = pauli.to_matrix(left, n)
        for j, right in enumerate(rights):
            c = dense_h @ pauli.to_matrix(right, n)
            c = c - pauli.to_matrix(right, n) @ dense_h
            dense = np.vdot(psi, (a @ c - c @ a) @ psi)
            built = pauli.commutator(left, pauli.commutator(h, right))
            assert abs(got[i, j] - state.expect(built)) <= 1e-12
            assert abs(got[i, j] - dense) <= 1e-12


def test_sampled_observable_form_follows_the_nested_expect_loop():
    """[H, R_j] is formed once per right; every element of D is measured
    over i, then j, and then every element of P."""
    lefts, rights = _operators(3, 3, seed=1), _operators(3, 4, seed=2)
    (h,) = _operators(3, 1, seed=3)
    h = h + h.dagger()
    overlaps, got = (
        _accelerator(500, seed=11).prepare(_entangled(3), 3).expect_commutators(lefts, rights, h)
    )
    reference = _accelerator(500, seed=11).prepare(_entangled(3), 3)
    responses = [pauli.commutator(h, b) for b in rights]
    want = [[reference.expect(pauli.commutator(a, b)) for b in responses] for a in lefts]
    want_overlaps = [[reference.expect(pauli.commutator(a, b)) for b in rights] for a in lefts]
    assert got.tolist() == want
    assert overlaps.tolist() == want_overlaps


@pytest.mark.parametrize("shots", [0, 100])
@pytest.mark.parametrize(
    "observable, message",
    [
        (pauli.PauliOperator({0: "Z"}) + pauli.PauliOperator({1: "X"}, 0.5j), "Hermitian"),
        (pauli.PauliOperator({0: "Z"}) + pauli.PauliOperator({2: "X"}), "touches qubit 2"),
        (backend.CompiledPauli(pauli.PauliOperator({0: "Z"}), 3), "compiled for 3 qubits"),
    ],
    ids=["non-hermitian", "too-wide", "compiled-for-3"],
)
def test_a_bad_observable_raises_before_any_vector_or_draw(shots, observable, message):
    accelerator = _accelerator(shots, seed=3)
    state = accelerator.prepare(_entangled(2), 2)
    before = accelerator._rng.bit_generator.state
    lefts = [pauli.PauliOperator({0: "Z"}), pauli.PauliOperator({1: "X"})]
    rights = [pauli.PauliOperator({0: "X"}), pauli.PauliOperator({1: "Y"})]
    with mock.patch.object(backend, "apply_pauli") as vectors, mock.patch.object(
        backend, "commutator"
    ) as built:
        with pytest.raises(BackendError, match=message):
            state.expect_commutators(lefts, rights, observable)
    assert vectors.call_count == 0
    assert built.call_count == 0
    assert accelerator._rng.bit_generator.state == before


def _excitations(n_electrons, n_qubits):
    """QEOM's basis: one excitation value per ``excitation_modes`` entry."""
    return [
        ExcitationOperator(occ, virt)
        for occ, virt in excitation_modes(n_electrons, n_qubits, spin_preserving=False)
    ]


def _basis(n_electrons, n_qubits):
    """The JW images of ``_excitations``."""
    return [op.image() for op in _excitations(n_electrons, n_qubits)]


def _roots(pencil):
    values, _ = indefinite_generalized_eig(*pencil)
    return [float(e) for e in values if e > qeom._POSITIVE_ROOT_CUTOFF]


@pytest.mark.parametrize("sites, n_electrons", [(2, 2), (3, 2), (3, 3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_exact_excitation_pencil_matches_the_pauli_image_pencil(
    sites, n_electrons, seed, hubbard_chain
):
    """On a random state the basis applied on its amplitude pairs gives the
    pencil of its JW images read through compiled Pauli sums: the same B,
    A within 1e-15 and roots within 1e-14."""
    n = 2 * sites
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = backend.PreparedState(_accelerator(), psi / np.linalg.norm(psi))
    chain = hubbard_chain(sites)
    got = qeom.eom_pencil(chain, _excitations(n_electrons, n), state)
    want = qeom.eom_pencil(chain, _basis(n_electrons, n), state)
    assert np.array_equal(got[1], want[1])
    assert np.abs(got[0] - want[0]).max() <= 1e-15
    assert np.abs(np.array(_roots(got)) - np.array(_roots(want))).max() <= 1e-14


def test_a_seeded_sampled_run_measures_the_images(hubbard_dimer_mo):
    """Sampled QEOM measures each excitation as its JW image: a seeded run
    returns the roots of ``eom_pencil`` over the images, drawn from the same
    seed."""
    hartree_fock = qcsim.evaluate(qcsim.uccsd_circuit(qcsim.UccsdSpec(2, 4)), [0.0] * 3)
    algorithm = qcsim.get_algorithm(
        "qeom",
        {
            "observable": hubbard_dimer_mo,
            "accelerator": _accelerator(4000, seed=9),
            "ansatz": hartree_fock,
            "n-electrons": 2,
        },
    )
    buffer = qcsim.qalloc(4)
    algorithm.execute(buffer)
    state = _accelerator(4000, seed=9).prepare(hartree_fock, 4)
    want = _roots(qeom.eom_pencil(hubbard_dimer_mo, _basis(2, 4), state))
    assert want
    assert buffer["excitation-energies"] == want


def test_sampled_pencil_draws_the_responses_then_the_metric_in_loop_order(hubbard_dimer):
    """Seeded sampled QEOM measures M and Q over (i, j), each [H, O_j] and
    [H, O_j^dag] formed once, and then V and W over (i, j), with the same
    draws as this loop."""
    operators = _basis(2, 4)
    daggers = [op.dagger() for op in operators]
    got = qeom.eom_pencil(
        hubbard_dimer, operators, _accelerator(500, seed=5).prepare(_entangled(4), 4)
    )
    state = _accelerator(500, seed=5).prepare(_entangled(4), 4)
    dim = len(operators)
    m, q, v, w = (np.zeros((dim, dim), dtype=complex) for _ in range(4))
    responses = [
        (pauli.commutator(hubbard_dimer, op), pauli.commutator(hubbard_dimer, dagger))
        for op, dagger in zip(operators, daggers)
    ]
    for i in range(dim):
        for j, (h_op, h_dagger) in enumerate(responses):
            m[i, j] = state.expect(pauli.commutator(daggers[i], h_op))
            q[i, j] = -state.expect(pauli.commutator(daggers[i], h_dagger))
    for i in range(dim):
        for j in range(dim):
            v[i, j] = state.expect(pauli.commutator(daggers[i], operators[j]))
            w[i, j] = -state.expect(pauli.commutator(daggers[i], daggers[j]))
    a = np.block([[m, q], [q.conj(), m.conj()]])
    b = np.block([[v, w], [-w.conj(), -v.conj()]])
    assert np.array_equal(got[0], 0.5 * (a + a.conj().T))
    assert np.array_equal(got[1], 0.5 * (b + b.conj().T))


@pytest.mark.parametrize("shots", [0, 100])
def test_a_too_wide_operator_raises_before_any_vector_or_draw(shots):
    accelerator = _accelerator(shots, seed=3)
    state = accelerator.prepare(_entangled(2), 2)
    before = accelerator._rng.bit_generator.state
    lefts = [pauli.PauliOperator({0: "Z"}), pauli.PauliOperator({1: "X"})]
    rights = [pauli.PauliOperator({0: "X"}), pauli.PauliOperator({2: "Y"})]
    with mock.patch.object(backend, "apply_pauli") as vectors:
        with pytest.raises(BackendError, match="touches qubit 2"):
            state.expect_commutators(lefts, rights)
    assert vectors.call_count == 0
    assert accelerator._rng.bit_generator.state == before


def _qeom(observable, ansatz, n_electrons=2):
    algorithm = qcsim.get_algorithm(
        "qeom",
        {
            "observable": observable,
            "accelerator": _accelerator(),
            "ansatz": ansatz,
            "n-electrons": n_electrons,
        },
    )
    buffer = qcsim.qalloc(observable.n_qubits())
    return algorithm, buffer


def _vqe_state(observable):
    """The Nelder-Mead UCCSD(2,4)-VQE state from all-zero parameters."""
    circuit = qcsim.uccsd_circuit(qcsim.UccsdSpec(2, 4))
    vqe = qcsim.get_algorithm(
        "vqe",
        {
            "ansatz": circuit,
            "optimizer": qcsim.get_optimizer(
                "nelder-mead", {"tolerance": 1e-14, "max-iterations": 2000}
            ),
            "observable": observable,
            "accelerator": _accelerator(),
        },
    )
    buffer = qcsim.qalloc(4)
    vqe.execute(buffer)
    return qcsim.evaluate(circuit, list(buffer["opt-params"])), buffer["opt-val"]


def test_orbital_basis_dimer_roots_match_the_spectrum(hubbard_dimer_mo, sector_eigh):
    state, energy = _vqe_state(hubbard_dimer_mo)
    spectrum = sector_eigh(hubbard_dimer_mo, 4, 2, sz=None)[0]
    assert energy == pytest.approx(spectrum[0], abs=1e-6)
    algorithm, buffer = _qeom(hubbard_dimer_mo, state)
    algorithm.execute(buffer)
    # the triplet three times, then the two singlets
    expected = [0.828427, 0.828427, 0.828427, 4.828427, 5.656854]
    assert np.allclose(spectrum[1:] - spectrum[0], expected, atol=1e-6)
    assert buffer["excitation-energies"] == pytest.approx(spectrum[1:] - spectrum[0], abs=1e-6)
    assert buffer["qeom-metric-condition"] == pytest.approx(1.0, abs=1e-6)
    assert buffer["qeom-dropped-directions"] == 0


def test_site_basis_dimer_state_has_an_ill_conditioned_metric():
    """UCCSD-VQE in the site basis stops at -0.5 Ha, where some excitations
    are nearly dependent: the kept metric eigenvalues span ~7e8 and the
    roots the pencil gives (215 and 430 Ha) are noise."""
    site = pauli.load_hamiltonian(str(DIMER_PATH))
    state, energy = _vqe_state(site)
    assert energy == pytest.approx(-0.5, abs=1e-6)
    algorithm, buffer = _qeom(site, state)
    with pytest.raises(AlgorithmError, match="ill-conditioned metric"):
        algorithm.execute(buffer)
    assert buffer["qeom-metric-condition"] > qeom.MAX_METRIC_CONDITION
    assert "excitation-energies" not in buffer


def test_excitations_that_annihilate_the_state_are_dropped_and_counted(hubbard_dimer_mo):
    """From |1000> only the two singles out of qubit 0 act on the state;
    the other three excitations vanish in both directions, which drops
    six of the ten doubled directions, and the rest are a clean +/-1."""
    reference = create_composite("one_electron")
    reference.add(create_instruction("X", [0]))
    algorithm, buffer = _qeom(hubbard_dimer_mo, reference)
    algorithm.execute(buffer)
    assert buffer["qeom-dropped-directions"] == 6
    assert buffer["qeom-matrix-rank"] == 4
    assert buffer["qeom-metric-condition"] == pytest.approx(1.0)


def test_a_metric_dead_as_a_whole_raises(monkeypatch, hubbard_dimer_mo):
    """Every |lambda| of B is 1e-9: above B's rounding floor and spanning 1,
    but 1e-9 of the basis scale (1 for JW excitations)."""
    size = 2 * len(_basis(2, 4))
    metric = 1e-9 * np.diag([1.0, -1.0] * (size // 2))
    monkeypatch.setattr(qeom, "eom_pencil", lambda *_: (np.eye(size), metric))
    hartree_fock = qcsim.evaluate(qcsim.uccsd_circuit(qcsim.UccsdSpec(2, 4)), [0.0] * 3)
    algorithm, buffer = _qeom(hubbard_dimer_mo, hartree_fock)
    with pytest.raises(AlgorithmError, match="dead metric"):
        algorithm.execute(buffer)
    assert buffer["qeom-metric-condition"] == pytest.approx(1.0)
    assert "excitation-energies" not in buffer


def _crafted_run(monkeypatch, hubbard_dimer_mo, small):
    """QEOM on the dimer's HF state with the pencil (1, B), B = diag(+/-1)
    but for one direction of ``small``."""
    size = 2 * len(_basis(2, 4))
    metric = np.diag([1.0, -1.0] * (size // 2))
    metric[-1, -1] = small
    monkeypatch.setattr(qeom, "eom_pencil", lambda *_: (np.eye(size), metric))
    hartree_fock = qcsim.evaluate(qcsim.uccsd_circuit(qcsim.UccsdSpec(2, 4)), [0.0] * 3)
    algorithm, buffer = _qeom(hubbard_dimer_mo, hartree_fock)
    return algorithm, buffer


def test_an_exact_null_of_the_metric_is_dropped_and_counted(monkeypatch, hubbard_dimer_mo):
    algorithm, buffer = _crafted_run(monkeypatch, hubbard_dimer_mo, 0.0)
    algorithm.execute(buffer)
    assert buffer["qeom-dropped-directions"] == 1
    assert buffer["qeom-matrix-rank"] == 2 * len(_basis(2, 4)) - 1
    assert buffer["qeom-metric-condition"] == 1.0
    assert buffer["excitation-energies"] == pytest.approx([1.0] * 5)


def test_a_small_metric_direction_above_the_floor_is_refused(monkeypatch, hubbard_dimer_mo):
    """A 1e-11 direction beside +/-1 is no rounding: it is kept, and the
    kept |lambda| span 1e11, so the run raises instead of dropping it."""
    algorithm, buffer = _crafted_run(monkeypatch, hubbard_dimer_mo, 1e-11)
    with pytest.raises(AlgorithmError, match="ill-conditioned metric"):
        algorithm.execute(buffer)
    assert buffer["qeom-dropped-directions"] == 0
    assert buffer["qeom-metric-condition"] == pytest.approx(1e11)
    assert "excitation-energies" not in buffer


def test_exact_pencil_builds_no_product_or_commutator(monkeypatch, hubbard_chain):
    """On a 3-site chain the exact pencil builds no Pauli sum: no product
    and no commutator, in ``pauli`` or in ``backend``, which reads
    [H, O_v] psi from vectors."""
    chain = hubbard_chain(3)
    operators = _basis(2, 6)
    reference = create_composite("reference")
    for q in (0, 3):
        reference.add(create_instruction("X", [q]))
    state = _accelerator().prepare(reference, 6)
    built = []
    for module, name in [(pauli, "multiply"), (pauli, "commutator"), (backend, "commutator")]:
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda a, b, original=original: built.append(a) or original(a, b)
        )
    qeom.eom_pencil(chain, operators, state)
    assert len(operators) == 14
    assert built == []


def test_an_overlap_threshold_is_refused_before_any_simulation(hubbard_dimer):
    """The metric is cut at its rounding floor, so no threshold is declared."""
    accelerator = _accelerator(shots=100, seed=5)
    options = {
        "observable": hubbard_dimer,
        "accelerator": accelerator,
        "ansatz": _entangled(4),
        "n-electrons": 2,
        "overlap-threshold": 1e-10,
    }
    before = accelerator._rng.bit_generator.state
    with mock.patch.object(backend, "_zero_state") as simulated:
        with pytest.raises(AlgorithmError, match="qeom takes no overlap-threshold; it declares"):
            qcsim.get_algorithm("qeom", options).execute(qcsim.qalloc(4))
    assert simulated.call_count == 0
    assert accelerator._rng.bit_generator.state == before


def test_one_run_eigendecomposes_the_metric_once(monkeypatch, hubbard_dimer_mo):
    """B is eigendecomposed once, in ``linalg.indefinite_generalized_eig``,
    and QEOM's condition number, dropped count and rank read the kept
    |lambda| it returns."""
    pencils, calls = [], []
    pencil = qeom.eom_pencil
    monkeypatch.setattr(qeom, "eom_pencil", lambda *args: pencils.append(pencil(*args)) or pencils[-1])
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg,
            name,
            lambda m, *args, original=original, name=name, **kwargs: calls.append((name, m))
            or original(m, *args, **kwargs),
        )
    hartree_fock = qcsim.evaluate(qcsim.uccsd_circuit(qcsim.UccsdSpec(2, 4)), [0.0] * 3)
    algorithm, buffer = _qeom(hubbard_dimer_mo, hartree_fock)
    algorithm.execute(buffer)
    (_, b), = pencils
    assert [name for name, _ in calls] == ["eigh"]
    assert np.array_equal(calls[0][1], b)
    metric = np.abs(np.linalg.eigvalsh(b))
    kept = metric[metric > metric.size * np.finfo(float).eps * metric.max()]
    assert buffer["qeom-matrix-rank"] == kept.size
    assert buffer["qeom-dropped-directions"] == len(b) - kept.size
    assert buffer["qeom-metric-condition"] == pytest.approx(kept.max() / kept.min(), rel=1e-12)
