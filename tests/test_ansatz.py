"""Circuit generators: the gate sequence of ``exp_pauli``, the size of
``uccsd_circuit``, directly and through ``qcsim bench-uccsd``, and the
operator pools: their generators against the Pauli sums built from
ladder operators, their blocks against ``exp_pauli`` of the generator,
and the ``singlet-adapted-uccsd`` pool driving ADAPT to sector ED.

These pin the term order and gate layout that the Pauli encoding must
reproduce: terms in sorted Pauli-string order, each as basis changes, a
CNOT ladder onto its highest support qubit, Rz(-2 c t) and the mirror.
"""
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qcsim
from qcsim import cli
from qcsim.ansatz import (
    UccsdSpec, build_pool, excitation_label, exp_pauli, reference_circuit, uccsd_circuit,
)
from qcsim.fermion import FermionOperator, excitation_modes, jordan_wigner
from qcsim.ir import ExcitationRotation, Parameter, create_composite, create_instruction
from qcsim.pauli import PauliOperator


def _gates(circuit):
    """(name, qubits, Rz scale or None) per instruction."""
    out = []
    for inst in circuit.instructions():
        scale = inst.parameters[0].scale if inst.parameters else None
        out.append((inst.name, inst.qubits, scale))
    return out


def test_exp_pauli_emits_the_documented_sequence():
    # i(0.5 X0 Y2 + 0.25 Z1 - 0.75 Y0); sorted order: X0 Y2, Y0, Z1
    generator = (
        PauliOperator({2: "Y", 0: "X"}, 0.5j)
        + PauliOperator({1: "Z"}, 0.25j)
        + PauliOperator({0: "Y"}, -0.75j)
    )
    circuit = exp_pauli(generator, Parameter.symbolic("t"))
    assert _gates(circuit) == [
        ("H", (0,), None),
        ("Sdg", (2,), None),
        ("H", (2,), None),
        ("CNOT", (0, 2), None),
        ("Rz", (2,), -1.0),
        ("CNOT", (0, 2), None),
        ("H", (2,), None),
        ("S", (2,), None),
        ("H", (0,), None),
        ("Sdg", (0,), None),
        ("H", (0,), None),
        ("Rz", (0,), 1.5),
        ("H", (0,), None),
        ("S", (0,), None),
        ("Rz", (1,), -0.5),
    ]
    assert {inst.parameters[0].var for inst in circuit.instructions() if inst.parameters} == {"t"}


def test_uccsd_12_qubits_4_electrons_size():
    circuit = uccsd_circuit(UccsdSpec(4, 12))
    assert len(circuit.variables) == 92
    assert circuit.n_instructions() == 16196


def test_bench_uccsd_columns(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    argv = ["bench-uccsd", "--nq", "8,12", "--ne", "2,4", "--repeats", "1", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    lines = [line for line in Path(out).read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    assert lines[0] == "nq,ne,double-excitations,variables,instructions,best-seconds"
    assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
        "8,2,36,15,1790",
        "12,2,225,35,5662",
        "12,4,225,92,16196",
    ]
    assert "skipping nq=8, ne=4" in capsys.readouterr().err


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_bench_uccsd_refuses_repeats_below_one_before_building(tmp_path, capsys, repeats):
    out = tmp_path / "bench.csv"
    argv = ["bench-uccsd", "--nq", "8", "--ne", "2", "--repeats", repeats, "--out", str(out)]
    with mock.patch.object(cli, "uccsd_circuit") as built:
        assert cli.main(argv) == cli.EXIT_CONFIG
    assert built.call_count == 0
    assert not out.exists()
    assert f"--repeats must be >= 1, got {repeats}" in capsys.readouterr().err


@pytest.mark.parametrize("nq, ne", [("x", "2"), ("8", "2,y")])
def test_bench_uccsd_refuses_a_bad_list_as_a_config_error(tmp_path, capsys, nq, ne):
    out = tmp_path / "bench.csv"
    argv = ["bench-uccsd", "--nq", nq, "--ne", ne, "--repeats", "1", "--out", str(out)]
    with mock.patch.object(cli, "uccsd_circuit") as built:
        assert cli.main(argv) == cli.EXIT_CONFIG
    assert built.call_count == 0
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: bad --nq/--ne list: ")


def _ladder_generator(occ, virt, nq):
    """T - T† of T = a†_virt... a_occ... (occ in reverse), mapped by
    ``jordan_wigner`` from ladder operators."""
    t = FermionOperator.ladder([(v, True) for v in virt] + [(o, False) for o in reversed(occ)])
    return jordan_wigner(t - t.dagger(), nq)


def _ladder_pool(name, ne, nq):
    """(label, generator) of each pool element, summed, normalized and
    deduplicated from ladder-operator generators as the pools once were."""
    if name == "uccsd":
        return [
            (excitation_label(occ, virt), _ladder_generator(occ, virt, nq))
            for occ, virt in excitation_modes(ne, nq, spin_preserving=False)
        ]
    half = nq // 2
    groups = {}
    for occ, virt in excitation_modes(ne, nq):
        signature = (tuple(sorted(i % half for i in occ)), tuple(sorted(a % half for a in virt)))
        groups[signature] = groups.get(signature, PauliOperator.zero()) + _ladder_generator(
            occ, virt, nq
        )
    elements, seen = [], []
    for signature in sorted(groups):
        norm = sum(abs(t.coefficient) ** 2 for t in groups[signature].terms()) ** 0.5
        combined = groups[signature] * (1.0 / norm)
        if combined.is_zero() or any(combined.isclose(p) for p in seen):
            continue
        seen.append(combined)
        elements.append((f"singlet_{excitation_label(*signature)}", combined))
    return elements


POOLS = ["uccsd", "singlet-adapted-uccsd"]


@pytest.mark.parametrize("name", POOLS)
@pytest.mark.parametrize("ne, nq", [(2, 4), (2, 6), (2, 8), (3, 8), (4, 8), (4, 12), (6, 12)])
def test_each_generator_is_the_ladder_operator_sum(name, ne, nq):
    """Every element's generator equals the Pauli sum built from ladder
    operators; the singlet pool keeps one element per spin group with no
    deduplication, since no two groups' sums are zero or alike."""
    pool = build_pool(name, ne, nq)
    want = _ladder_pool(name, ne, nq)
    assert pool.labels() == [label for label, _ in want]
    assert [pool.generator(k) for k in range(len(pool))] == [op for _, op in want]


def _entangled_reference(ne, nq):
    """The reference, then an Ry layer and a CNOT chain: every amplitude pair
    of every excitation is occupied."""
    circuit = reference_circuit(ne, nq)
    for q in range(nq):
        circuit.add(create_instruction("Ry", [q], [0.3 + 0.1 * q]))
    for q in range(nq - 1):
        circuit.add(create_instruction("CNOT", [q, q + 1]))
    return circuit


@pytest.mark.parametrize("name", POOLS)
@pytest.mark.parametrize("ne, nq", [(2, 4), (2, 6), (4, 8)])
def test_each_block_evolves_as_exp_pauli_of_its_generator(name, ne, nq):
    pool = build_pool(name, ne, nq)
    state = qcsim.get_accelerator("statevector", {"shots": 0}).prepare(
        _entangled_reference(ne, nq), nq
    )
    rng = np.random.default_rng(11)
    for k in range(len(pool)):
        theta = float(rng.uniform(-np.pi, np.pi))
        block = create_composite("block").add_all(pool.block(k, theta))
        want = state.evolve(exp_pauli(pool.generator(k), theta))._amplitudes
        assert np.abs(state.evolve(block)._amplitudes - want).max() <= 1e-12


def test_a_uccsd_block_is_one_excitation_rotation():
    """At (4,8) the 52 operators of the pool grow 52 excitation leaves, where
    their ``exp_pauli`` blocks are 320 Pauli rotations."""
    pool = build_pool("uccsd", 4, 8)
    blocks = [pool.block(k, f"t{k}") for k in range(len(pool))]
    assert len(pool) == 52
    assert all(len(b) == 1 and isinstance(b[0], ExcitationRotation) for b in blocks)
    assert [(b[0].occ, b[0].virt) for b in blocks] == excitation_modes(4, 8, spin_preserving=False)
    assert [b[0].angle for b in blocks] == [Parameter.symbolic(f"t{k}") for k in range(52)]
    assert sum(len(exp_pauli(pool.generator(k), "t").children) for k in range(52)) == 320


class TestSingletAdaptedPool:
    def test_dimer_pool_holds_the_spin_summed_single_and_double(self):
        pool = build_pool("singlet-adapted-uccsd", 2, 4)
        assert pool.labels() == ["singlet_(0)->(1)", "singlet_(0,0)->(1,1)"]
        for k in range(len(pool)):
            generator = pool.generator(k)
            assert generator.dagger().isclose(-generator, tolerance=1e-15)
            norm = sum(abs(c) ** 2 for _, c in generator.encoded())
            assert norm == pytest.approx(1.0, abs=1e-14)

    def test_adapt_reaches_the_sector_ground_state(self, hubbard_dimer_mo, sector_eigh):
        adapt = qcsim.get_algorithm(
            "adapt",
            {
                "optimizer": qcsim.get_optimizer("nelder-mead", {"tolerance": 1e-12}),
                "observable": hubbard_dimer_mo,
                "n-electrons": 2,
                "pool": "singlet-adapted-uccsd",
                "accelerator": qcsim.get_accelerator("statevector", {"shots": 0}),
            },
        )
        buffer = qcsim.qalloc(4)
        adapt.execute(buffer)
        ground = sector_eigh(hubbard_dimer_mo, 4, 2)[0][0]
        assert ground == pytest.approx(-0.8284271247, abs=1e-9)
        assert buffer["opt-val"] == pytest.approx(ground, abs=1e-6)
        assert buffer["adapt-ops"] == ["singlet_(0,0)->(1,1)"]
