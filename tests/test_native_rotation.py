"""Native rotations: each ``ir.PauliRotation`` node that ``exp_pauli``
emits is simulated in one pass, psi <- cos(theta/2) psi - i sin(theta/2) P psi,
and each ``ir.ExcitationRotation`` node that ``uccsd_circuit`` emits as one
Givens rotation of the amplitude pairs its excitation connects.

The reference is the node's own gate sequence applied gate by gate with
``_apply_gate``, which is what the simulator does for a circuit without
rotation nodes (a parsed kernel, or ``node.instructions()`` copied into a
plain composite).  The gates a node lowers to, and so the kernel text,
are pinned against a golden file for UCCSD(2,4) and by count, depth and
digest for UCCSD(4,12); an excitation node's strings and angles are those
``exp_pauli`` gives its generator T - T†.
"""
import dataclasses
import hashlib
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcsim
from qcsim import backend, fermion, ir, optim, pauli
from qcsim.ansatz import UccsdSpec, build_pool, exp_pauli, hartree_fock_circuit, uccsd_circuit
from qcsim.ir import (
    ExcitationRotation,
    Instruction,
    Parameter,
    PauliRotation,
    count_gates,
    create_composite,
    create_instruction,
    depth,
    evaluate,
    pretty_print,
)
from qcsim.kernel import parse_kernel

GOLDEN = Path(__file__).resolve().parent / "uccsd_2_4.kernel"


def _flat(circuit):
    """The same leaves in a plain composite: simulated gate by gate."""
    return create_composite(circuit.name).add_all(list(circuit.instructions()))


def _pauli_uccsd(ne, nq):
    """UCCSD of Pauli rotations: one ``exp_pauli`` of T - T† per excitation."""
    circuit = create_composite("uccsd")
    circuit.add_all(hartree_fock_circuit(ne, nq).children)
    for k, (occ, virt) in enumerate(fermion.excitation_modes(ne, nq)):
        image = fermion.ExcitationOperator(occ, virt).image()
        circuit.add_all(exp_pauli(image - image.dagger(), f"t{k}").children)
    return circuit


@st.composite
def prefixes(draw, n_qubits):
    """A random circuit of H, S, Rx, Ry and CNOT: a complex, entangled state."""
    circuit = create_composite("prefix")
    for _ in range(draw(st.integers(0, 8))):
        gate = draw(st.sampled_from(["H", "S", "Rx", "Ry", "CNOT"]))
        if gate == "CNOT":
            if n_qubits > 1:
                circuit.add(create_instruction("CNOT", draw(st.permutations(range(n_qubits)))[:2]))
        elif gate in ("H", "S"):
            circuit.add(create_instruction(gate, [draw(st.integers(0, n_qubits - 1))]))
        else:
            qubit = draw(st.integers(0, n_qubits - 1))
            circuit.add(create_instruction(gate, [qubit], [draw(st.floats(-np.pi, np.pi))]))
    return circuit


ANGLES = st.one_of(st.sampled_from([0.0, np.pi, -np.pi]), st.floats(-2 * np.pi, 2 * np.pi))


@st.composite
def rotation_blocks(draw, n_qubits):
    """1-3 rotations R_P(theta), each about a string over X, Y, Z of weight 1..n."""
    block = create_composite("block")
    for _ in range(draw(st.integers(1, 3))):
        support = sorted(draw(st.permutations(range(n_qubits)))[: draw(st.integers(1, n_qubits))])
        letters = draw(st.lists(st.sampled_from("XYZ"), min_size=len(support), max_size=len(support)))
        # exp(angle * i c P) with c = -1/2 is R_P(angle)
        generator = pauli.PauliOperator(dict(zip(support, letters)), -0.5j)
        block.add_all(exp_pauli(generator, draw(ANGLES)).children)
    return block


@st.composite
def cases(draw):
    n_qubits = draw(st.integers(1, 5))
    return n_qubits, draw(prefixes(n_qubits)), draw(rotation_blocks(n_qubits))


def _counted():
    return (
        mock.patch.object(backend, "_rotate", wraps=backend._rotate),
        mock.patch.object(backend, "_apply_gate", wraps=backend._apply_gate),
    )


def _counted_excitations():
    return mock.patch.object(backend, "_excite", wraps=backend._excite)


@given(cases())
def test_one_pass_equals_the_gate_sequence_in_prepare(case):
    n, prefix, block = case
    circuit = create_composite("circuit").add_all(prefix.children).add_all(block.children)
    assert circuit.max_qubit() == max(q for inst in circuit.instructions() for q in inst.qubits)
    rotate, apply_gate = _counted()
    with rotate as rotations, apply_gate as gates:
        tagged = backend.statevector(circuit, n)
    assert rotations.call_count == len(block.children)
    assert gates.call_count == len(prefix.children)
    reference = backend.statevector(_flat(circuit), n)
    assert np.abs(tagged - reference).max() <= 1e-12


@given(cases())
def test_one_pass_equals_the_gate_sequence_in_evolve(case):
    n, prefix, block = case
    accelerator = qcsim.get_accelerator("statevector", {"shots": 0})
    state = accelerator.prepare(prefix, n)
    rotate, apply_gate = _counted()
    with rotate as rotations, apply_gate as gates:
        tagged = state.evolve(block)._amplitudes
    assert rotations.call_count == len(block.children)
    assert gates.call_count == 0
    reference = state.evolve(_flat(block))._amplitudes
    assert np.abs(tagged - reference).max() <= 1e-12


def test_exp_pauli_tags_each_term_with_its_unit_string():
    # i(0.5 X0 Y2 + 0.25 Z1 - 0.75 Y0): one node per term, in sorted order
    generator = (
        pauli.PauliOperator({2: "Y", 0: "X"}, 0.5j)
        + pauli.PauliOperator({1: "Z"}, 0.25j)
        + pauli.PauliOperator({0: "Y"}, -0.75j)
    )
    circuit = exp_pauli(generator, 0.4)
    assert all(isinstance(node, PauliRotation) for node in circuit.children)
    assert [node.ops for node in circuit.children] == [
        ((0, "X"), (2, "Y")),
        ((0, "Y"),),
        ((1, "Z"),),
    ]
    assert [node.qubits for node in circuit.children] == [(0, 2), (0,), (1,)]
    assert [node.angle.value for node in circuit.children] == pytest.approx([-0.4, 0.6, -0.2])


def test_evaluate_keeps_the_node_types_and_strings():
    circuit = _pauli_uccsd(2, 4)
    bound = evaluate(circuit, [0.1, -0.2, 0.3])
    assert [type(node) for node in bound.children] == [type(node) for node in circuit.children]
    pairs = [
        (node, bound_node)
        for node, bound_node in zip(circuit.children, bound.children)
        if isinstance(node, PauliRotation)
    ]
    assert len(pairs) == 12
    binding = dict(zip(circuit.variables, [0.1, -0.2, 0.3]))
    for node, bound_node in pairs:
        assert bound_node.ops is node.ops
        assert bound_node.qubits == node.qubits
        assert bound_node.angle.value == node.angle.evaluate(binding)
        values = [binding[var] for var in node.variables]
        assert list(bound_node.instructions()) == list(evaluate(_flat(node), values).instructions())


def test_uccsd_12_qubits_matches_its_parsed_kernel():
    circuit = uccsd_circuit(UccsdSpec(4, 12))
    x = np.random.default_rng(12).uniform(-0.2, 0.2, len(circuit.variables))
    bound = evaluate(circuit, x)
    parsed = parse_kernel(pretty_print(bound))
    assert not any(isinstance(node, PauliRotation) for node in parsed.children)
    assert np.abs(backend.statevector(bound, 12) - backend.statevector(parsed, 12)).max() <= 1e-12


def test_uccsd_kernel_text_is_unchanged():
    assert pretty_print(uccsd_circuit(UccsdSpec(2, 4))) == GOLDEN.read_text(encoding="utf-8")


def test_parameter_shift_runs_every_rotation_in_one_pass(hubbard_dimer, exact_accelerator):
    circuit = _pauli_uccsd(2, 4)
    rotate, apply_gate = _counted()
    with rotate as rotations, apply_gate as gates:
        optim.evaluate_gradient(
            "parameter-shift", circuit, [0.1, -0.2, 0.3], hubbard_dimer, exact_accelerator
        )
    # 12 rotations, each shifted both ways; every simulation applies 12
    # rotations and the two X gates of the reference
    simulations = 2 * 12
    assert rotations.call_count == 12 * simulations
    assert gates.call_count == 2 * simulations


def test_uccsd_12_qubits_keeps_its_gate_counts_and_kernel_text():
    # every value below was computed from the circuit before rotations
    # stopped storing their gates, when each node held its lowering as leaves
    circuit = uccsd_circuit(UccsdSpec(4, 12))
    assert circuit.n_instructions() == 16196
    assert count_gates(circuit) == {
        "X": 4, "H": 4992, "Sdg": 1248, "CNOT": 8064, "Rz": 640, "S": 1248
    }
    assert depth(evaluate(circuit, [0.0] * len(circuit.variables))) == 10517
    assert hashlib.sha256(pretty_print(circuit).encode("utf-8")).hexdigest() == (
        "74df859966266e40c69d02dafb439e297954f058e1b47e9efb58d1d66cd96e12"
    )


def test_a_rotation_is_its_string_and_angle():
    assert [field.name for field in dataclasses.fields(PauliRotation)] == [
        "ops", "parameters"
    ]
    (node,) = exp_pauli(pauli.PauliOperator({0: "X", 2: "Y"}, 0.5j), "t").children
    assert node.ops == ((0, "X"), (2, "Y"))
    assert node.parameters == (Parameter.symbolic("t", -1.0),)
    assert node.variables == ["t"] and not node.is_concrete
    assert node.max_qubit() == 2


def test_no_gate_is_built_for_a_rotation_by_build_or_bind():
    built = mock.patch.object(
        Instruction, "__init__", autospec=True, side_effect=Instruction.__init__
    )
    with built as constructed:
        circuit = _pauli_uccsd(2, 4)
    # the two X gates of the Hartree-Fock reference
    assert constructed.call_count == 2
    with built as constructed:
        bound = evaluate(circuit, [0.1, -0.2, 0.3])
    assert constructed.call_count == 0
    assert [type(node) for node in bound.leaves()] == [Instruction] * 2 + [PauliRotation] * 12
    assert bound.variables == [] and bound.is_concrete


UCCSD_SPECS = [(2, 4), (2, 8), (4, 12)]


@pytest.mark.parametrize("ne, nq", UCCSD_SPECS)
@settings(max_examples=3)
@given(data=st.data())
def test_an_excitation_pass_equals_the_gate_sequence(ne, nq, data):
    circuit = uccsd_circuit(UccsdSpec(ne, nq))
    x = data.draw(st.lists(ANGLES, min_size=len(circuit.variables), max_size=len(circuit.variables)))
    bound = evaluate(circuit, x)
    reference = _flat(bound)
    rotate, apply_gate = _counted()
    with rotate as rotations, apply_gate as gates, _counted_excitations() as excitations:
        tagged = backend.statevector(bound, nq)
    assert (excitations.call_count, rotations.call_count, gates.call_count) == (
        len(circuit.variables), 0, ne
    )
    assert np.abs(tagged - backend.statevector(reference, nq)).max() <= 1e-12
    # from an entangled state, where no pair starts empty
    accelerator = qcsim.get_accelerator("statevector", {"shots": 0})
    state = accelerator.prepare(data.draw(prefixes(nq)), nq)
    evolved = state.evolve(bound)._amplitudes
    assert np.abs(evolved - state.evolve(reference)._amplitudes).max() <= 1e-12


@pytest.mark.parametrize("ne, nq", [(1, 2), (2, 4), (3, 8), (4, 8), (4, 12)])
@pytest.mark.parametrize("spin_preserving", [True, False])
def test_an_excitation_holds_the_strings_exp_pauli_gives_its_generator(ne, nq, spin_preserving):
    for occ, virt in fermion.excitation_modes(ne, nq, spin_preserving):
        image = fermion.ExcitationOperator(occ, virt).image()
        node = ExcitationRotation(occ, virt, (Parameter.symbolic("t"),))
        pauli_rotations = exp_pauli(image - image.dagger(), "t").children
        assert node.rotations() == [(r.ops, r.angle) for r in pauli_rotations]
        assert node.qubits == tuple(sorted({q for r in pauli_rotations for q in r.qubits}))
        assert node.max_qubit() == max(node.qubits)


def test_an_excitation_is_its_modes_and_angle():
    assert [field.name for field in dataclasses.fields(ExcitationRotation)] == [
        "occ", "virt", "parameters"
    ]
    node = ExcitationRotation((0, 4), (2, 6), (Parameter.symbolic("t", 0.5),))
    assert node.variables == ["t"] and not node.is_concrete
    # a double's 8 strings: X/Y on 0, 2, 4 and 6, Z on 1 and 5
    assert {ops for ops, _ in node.rotations()} >= {
        ((0, "X"), (1, "Z"), (2, "X"), (4, "X"), (5, "Z"), (6, "Y"))
    }
    assert {abs(angle.scale) for _, angle in node.rotations()} == {0.125}
    assert node.qubits == (0, 1, 2, 4, 5, 6)


def test_uccsd_is_one_node_per_excitation():
    circuit = uccsd_circuit(UccsdSpec(4, 12))
    leaves = list(circuit.leaves())
    assert len(leaves) == 96
    assert [type(node) for node in leaves] == [Instruction] * 4 + [ExcitationRotation] * 92
    assert [(node.occ, node.virt) for node in leaves[4:]] == fermion.excitation_modes(4, 12)


def test_evaluate_keeps_the_excitation_nodes():
    circuit = uccsd_circuit(UccsdSpec(2, 4))
    values = [0.1, -0.2, 0.3]
    bound = evaluate(circuit, values)
    assert [type(node) for node in bound.children] == [type(node) for node in circuit.children]
    for node, bound_node, value in zip(circuit.children[2:], bound.children[2:], values):
        assert (bound_node.occ, bound_node.virt) == (node.occ, node.virt)
        assert bound_node.angle == Parameter.concrete(value)
        assert list(bound_node.instructions()) == list(evaluate(_flat(node), [value]).instructions())


def test_no_gate_is_built_for_an_excitation_by_build_or_bind():
    built = mock.patch.object(
        Instruction, "__init__", autospec=True, side_effect=Instruction.__init__
    )
    with built as constructed:
        circuit = uccsd_circuit(UccsdSpec(2, 4))
    # the two X gates of the Hartree-Fock reference
    assert constructed.call_count == 2
    with built as constructed:
        bound = evaluate(circuit, [0.1, -0.2, 0.3])
    assert constructed.call_count == 0
    assert [type(node) for node in bound.leaves()] == [Instruction] * 2 + [ExcitationRotation] * 3


def test_parameter_shift_shifts_each_string_of_an_excitation(hubbard_dimer, exact_accelerator):
    circuit = uccsd_circuit(UccsdSpec(2, 4))
    rotate, apply_gate = _counted()
    with rotate as rotations, apply_gate as gates, _counted_excitations() as excitations:
        optim.evaluate_gradient(
            "parameter-shift", circuit, [0.1, -0.2, 0.3], hubbard_dimer, exact_accelerator
        )
    # 2 + 2 + 8 strings, each shifted both ways by one extra fixed rotation
    # after its (unshifted) node; every simulation applies the 3 nodes
    simulations = 2 * 12
    assert excitations.call_count == 3 * simulations
    assert rotations.call_count == simulations
    assert gates.call_count == 2 * simulations


@pytest.mark.parametrize("ne, nq", [(2, 4), (2, 8)])
def test_parameter_shift_through_excitations_is_exact(ne, nq, hubbard_chain, exact_accelerator):
    observable = hubbard_chain(nq // 2)
    circuit = uccsd_circuit(UccsdSpec(ne, nq))
    rng = np.random.default_rng(nq)
    for _ in range(2):
        x = rng.uniform(-np.pi, np.pi, len(circuit.variables))
        shift = optim.evaluate_gradient("parameter-shift", circuit, x, observable, exact_accelerator)
        central = optim.evaluate_gradient("central", circuit, x, observable, exact_accelerator)
        lowered = optim.evaluate_gradient(
            "parameter-shift", _pauli_uccsd(ne, nq), x, observable, exact_accelerator
        )
        assert np.abs(shift - central).max() <= 1e-7
        assert np.abs(shift - lowered).max() <= 1e-12


# Electron-number sectors: after the X gates of a plan from |0...0>, every
# excitation keeps N, so its step holds only its pairs of N-electron
# determinants.  The reference is the same leaves through ``evolve``,
# which never plans a sector.

SECTOR_SPECS = [(2, 4), (2, 8), (4, 8), (4, 12), (4, 16)]


def _excitation_pairs(circuit, n):
    """The pairs data of each excitation step of the circuit's plan."""
    steps = backend.CompiledCircuit(circuit, n)._steps
    return [data[1] for kernel, data, _ in steps if kernel is backend._excite]


def _evolved(leaves, n, split):
    """leaves[:split] prepared, then leaves[split:] evolved: dense pairs throughout."""
    accelerator = qcsim.get_accelerator("statevector", {"shots": 0})
    state = accelerator.prepare(create_composite("head").add_all(leaves[:split]), n)
    return state.evolve(create_composite("tail").add_all(leaves[split:]))._amplitudes


@pytest.mark.parametrize("ne, nq", SECTOR_SPECS)
def test_a_sector_plan_equals_the_dense_one_bit_for_bit(ne, nq):
    circuit = uccsd_circuit(UccsdSpec(ne, nq))
    x = np.random.default_rng(nq + ne).uniform(-np.pi, np.pi, len(circuit.variables))
    bound = evaluate(circuit, x)
    dense = _evolved(list(bound.leaves()), nq, ne)
    assert all(pairs is not None for pairs in _excitation_pairs(bound, nq))
    assert np.array_equal(backend.statevector(bound, nq), dense)
    assert np.array_equal(backend.CompiledCircuit(circuit, nq).run(x), dense)
    (result,) = qcsim.get_accelerator("statevector", {"shots": 0}).execute(qcsim.qalloc(nq), bound)
    weights = np.abs(dense) ** 2
    assert result.probabilities == {
        format(i, f"0{nq}b"): float(weights[i]) for i in np.flatnonzero(weights > 1e-16)
    }


@pytest.mark.parametrize("ne, nq", SECTOR_SPECS + [(4, 20)])
def test_a_plan_holds_at_most_2_to_the_n_pairs(ne, nq):
    """Its pairs, C(n - 2r, N - r) for each excitation of rank r, are held
    while they number at most 2^n; otherwise each step holds, for each rank
    r, the C(n - 2r, N - r) indices of the other modes, and builds its pairs
    on them when it runs."""
    circuit = uccsd_circuit(UccsdSpec(ne, nq))
    held = _excitation_pairs(circuit, nq)
    ranks = [len(occ) for occ, _ in fermion.excitation_modes(ne, nq)]
    count = sum(math.comb(nq - 2 * r, ne - r) for r in ranks)
    if count <= 1 << nq:
        assert [(len(ab), len(sigma)) for ab, sigma in held] == [
            (2 * math.comb(nq - 2 * r, ne - r), math.comb(nq - 2 * r, ne - r)) for r in ranks
        ]
    else:
        assert {r: len(rest) for r, rest in held[0].items()} == {
            r: math.comb(nq - 2 * r, ne - r) for r in ranks
        }
    assert all(isinstance(pairs, tuple) for pairs in held) == (count <= 1 << nq)


def _random_excitations(rng, n, count):
    """``count`` excitations of rank 1 to 3 (at most n // 2) on random
    modes, with occ and virt each in a random order."""
    leaves = []
    for _ in range(count):
        r = int(rng.integers(1, min(3, n // 2) + 1))
        modes = [int(q) for q in rng.permutation(n)[: 2 * r]]
        leaves.append(ExcitationRotation(tuple(modes[:r]), tuple(modes[r:]), (Parameter.concrete(0.3),)))
    return leaves


def _rests(n, ne, ranks):
    """For each rank r, every index of n - 2r bits with N - r ones, ascending."""
    return {
        r: np.array([x for x in range(1 << n - 2 * r) if x.bit_count() == ne - r], dtype=np.int64)
        for r in ranks
    }


@pytest.mark.parametrize("n", range(4, 11))
def test_sector_pairs_are_the_dense_pairs_of_n_electron_determinants(n):
    """``_sector_pairs``' one-pass tables are ``_pairs`` restricted to the
    determinants with N electrons: a, b and sigma, in their order, for every
    N from 1 to n - 1, ranks 1 to 3 mixed, occ and virt unsorted, and ranks
    whose sector is empty (N < r, or N - r > n - 2r).  One leaf alone (a
    step past 2^n pairs) gets the same pairs, and so does a planned step."""
    rng = np.random.default_rng(n)
    for ne in range(1, n):
        leaves = _random_excitations(rng, n, 8)
        rests = _rests(n, ne, {len(leaf.occ) for leaf in leaves})
        built = backend._sector_pairs(leaves, n, rests)
        ones = [create_instruction("X", [int(q)]) for q in rng.permutation(n)[:ne]]
        planned = _excitation_pairs(create_composite("sector").add_all(ones + leaves), n)
        for leaf, (ab, sigma), held in zip(leaves, built, planned):
            dense, signs = backend._pairs(leaf.occ, leaf.virt, n)
            m = signs.size
            keep = np.bitwise_count(dense[:m]) == ne
            assert np.array_equal(ab, np.concatenate((dense[:m][keep], dense[m:][keep])))
            assert np.array_equal(sigma, signs[keep]) and sigma.dtype == np.float64
            ((alone, alone_sigma),) = backend._sector_pairs([leaf], n, rests)
            assert np.array_equal(alone, ab) and np.array_equal(alone_sigma, sigma)
            if not isinstance(held, tuple):
                (held,) = backend._sector_pairs([leaf], n, held)
            assert np.array_equal(held[0], ab) and np.array_equal(held[1], sigma)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_jw_parity_on_mode_arrays_is_that_of_each_excitation(rank):
    rng = np.random.default_rng(rank)
    modes = np.array([rng.permutation(10)[: 2 * rank] for _ in range(25)]).T
    sign, parity = ir._jw_parity(modes[:rank], modes[rank:])
    each = [ir._jw_parity(tuple(m[:rank].tolist()), tuple(m[rank:].tolist())) for m in modes.T]
    assert np.broadcast_to(sign, (25,)).tolist() == [s for s, _ in each]
    assert parity.tolist() == [p for _, p in each]


def test_a_uccsd_plan_reads_its_jw_signs_in_one_call(monkeypatch):
    """Planning UCCSD(4,12) from Hartree-Fock reads the (sign, parity) of
    its 92 excitations, of two ranks, in one ``_jw_parity`` call."""
    circuit = uccsd_circuit(UccsdSpec(4, 12))
    bound = evaluate(circuit, np.linspace(-1.0, 1.0, len(circuit.variables)))
    calls, original = [], ir._jw_parity
    counted = lambda occ, virt: calls.append(len(occ)) or original(occ, virt)
    monkeypatch.setattr(ir, "_jw_parity", counted)
    monkeypatch.setattr(backend, "_jw_parity", counted)
    backend.statevector(bound, 12)
    assert len([leaf for leaf in bound.leaves() if isinstance(leaf, ExcitationRotation)]) == 92
    assert calls == [2]


def _fallback_cases():
    """(leaves, dense steps) of each case: UCCSD(2,6) at random x with one
    leaf that may change N, and the excitation steps that must build all
    of their pairs."""
    ne, nq = 2, 6
    circuit = uccsd_circuit(UccsdSpec(ne, nq))
    x = np.random.default_rng(3).uniform(-np.pi, np.pi, len(circuit.variables))
    leaves = list(evaluate(circuit, x).leaves())
    reference, excitations = leaves[:ne], leaves[ne:]
    singlet = build_pool("singlet-adapted-uccsd", ne, nq)
    k = next(k for k, (_, _, group) in enumerate(singlet.elements) if len(group) > 1)
    every, later = range(len(excitations)), range(2, len(excitations))
    return {
        "gate-before": (reference + [create_instruction("H", [1])] + excitations, every),
        "x-after": (
            reference + excitations[:2] + [create_instruction("X", [nq - 1])] + excitations[2:],
            later,
        ),
        "singlet-block": (
            reference + excitations[:2] + singlet.block(k, 0.4) + excitations[2:], later
        ),
        "no-electrons": (excitations, every),
    }


@pytest.mark.parametrize("case", ["gate-before", "x-after", "singlet-block", "no-electrons"])
def test_a_leaf_that_may_change_n_ends_the_sector(case):
    leaves, dense_steps = _fallback_cases()[case]
    circuit = create_composite(case).add_all(leaves)
    pairs = _excitation_pairs(circuit, 6)
    assert [k for k, held in enumerate(pairs) if held is None] == list(dense_steps)
    assert np.array_equal(backend.statevector(circuit, 6), _evolved(leaves, 6, 0))
