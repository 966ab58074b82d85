"""Circuit generators: the gate sequence of ``exp_pauli``, the size of
``uccsd_circuit``, directly and through ``qcsim bench-uccsd``, and the
``singlet-adapted-uccsd`` pool, alone and driving ADAPT to sector ED.

These pin the term order and gate layout that the Pauli encoding must
reproduce: terms in sorted Pauli-string order, each as basis changes, a
CNOT ladder onto its highest support qubit, Rz(-2 c t) and the mirror.
"""
from pathlib import Path
from unittest import mock

import pytest

import qcsim
from qcsim import cli
from qcsim.ansatz import UccsdSpec, build_pool, exp_pauli, uccsd_circuit
from qcsim.ir import Parameter
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


class TestSingletAdaptedPool:
    def test_dimer_pool_holds_the_spin_summed_single_and_double(self):
        pool = build_pool("singlet-adapted-uccsd", 2, 4)
        assert pool.labels() == ["singlet_(0)->(1)", "singlet_(0,0)->(1,1)"]
        for _, generator in pool.elements:
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
