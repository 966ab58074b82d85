import dataclasses

import numpy as np
import pytest

from qcsim.errors import IRError
from qcsim.ir import (
    GATE_TABLE,
    ExcitationRotation,
    Parameter,
    PauliRotation,
    count_gates,
    create_composite,
    create_instruction,
    depth,
    evaluate,
    gate_matrix,
    pretty_print,
)


class TestCreateInstruction:
    def test_x_gate(self):
        inst = create_instruction("X", [0], [])
        assert inst.name == "X" and inst.qubits == (0,)

    def test_symbolic_rz(self):
        inst = create_instruction("Rz", [2], ["t0"])
        assert inst.parameters[0].is_symbolic
        assert inst.parameters[0].var == "t0"

    def test_duplicate_qubit_rejected(self):
        with pytest.raises(IRError):
            create_instruction("CNOT", [1, 1], [])

    def test_unknown_gate(self):
        with pytest.raises(IRError):
            create_instruction("Foo", [0], [])

    def test_arity_mismatch(self):
        with pytest.raises(IRError):
            create_instruction("X", [0, 1], [])

    def test_parameter_count_mismatch(self):
        with pytest.raises(IRError):
            create_instruction("Rz", [0], [])
        with pytest.raises(IRError):
            create_instruction("X", [0], [0.1])

    def test_negative_qubit(self):
        with pytest.raises(IRError):
            create_instruction("X", [-1], [])


class TestComposite:
    def test_empty(self):
        c = create_composite("initial-state")
        assert c.name == "initial-state"
        assert c.n_instructions() == 0
        assert c.variables == []

    def test_child_count(self):
        c = create_composite("c")
        c.add(create_instruction("X", [0]))
        assert len(c.children) == 1

    def test_nested_flattening(self):
        inner = create_composite("inner")
        inner.add(create_instruction("H", [0]))
        inner.add(create_instruction("CNOT", [0, 1]))
        outer = create_composite("outer")
        outer.add(create_instruction("X", [2]))
        outer.add(inner)
        names = [i.name for i in outer.instructions()]
        assert names == ["X", "H", "CNOT"]

    def test_variables_first_appearance_order(self):
        c = create_composite("c")
        c.add(create_instruction("Rz", [0], ["b"]))
        c.add(create_instruction("Ry", [1], ["a"]))
        c.add(create_instruction("Rx", [0], ["b"]))
        assert c.variables == ["b", "a"]


class TestEvaluate:
    def test_zero_binding(self):
        c = create_composite("c")
        c.add(create_instruction("Rz", [0], ["t0"]))
        out = evaluate(c, [0.0])
        (inst,) = list(out.instructions())
        assert inst.parameters[0].value == 0.0
        assert out.variables == []

    def test_linear_expression(self):
        c = create_composite("c")
        c.add(create_instruction("Rz", [0], [Parameter.symbolic("t0", -2.0)]))
        out = evaluate(c, [0.5])
        (inst,) = list(out.instructions())
        assert inst.parameters[0].value == pytest.approx(-1.0)

    def test_wrong_value_count(self):
        c = create_composite("c")
        c.add(create_instruction("Rz", [0], ["t0"]))
        with pytest.raises(IRError) as err:
            evaluate(c, [0.1, 0.2])
        assert "t0" in str(err.value)

    def test_idempotent_on_concrete(self):
        c = create_composite("c")
        c.add(create_instruction("Rz", [0], [0.25]))
        once = evaluate(c, [])
        twice = evaluate(once, [])
        assert once == twice == c

    def test_does_not_mutate_original(self):
        c = create_composite("c")
        c.add(create_instruction("Rz", [0], ["t0"]))
        evaluate(c, [1.0])
        assert c.variables == ["t0"]

    def test_binds_each_leaf_as_dataclasses_replace_would(self):
        """A bound leaf is the one ``dataclasses.replace`` makes: same type,
        fields, equality and hash, and frozen; a concrete leaf is shared."""
        leaves = [
            create_instruction("Rz", [0], [Parameter.symbolic("t0", -2.0)]),
            create_instruction("H", [1]),
            PauliRotation(((0, "X"), (2, "Y")), (Parameter.symbolic("t1", 0.5),)),
            PauliRotation(((1, "Z"),), (Parameter.concrete(0.3),)),
            ExcitationRotation((0, 2), (1, 3), (Parameter.symbolic("t0"),)),
            ExcitationRotation((1,), (3,), (Parameter.concrete(-0.2),)),
        ]
        nested = create_composite("inner").add_all(leaves[2:])
        c = create_composite("c").add_all(leaves[:2]).add(nested)
        binding = {"t0": 0.7, "t1": -1.3}
        bound = list(evaluate(c, [binding[var] for var in c.variables]).leaves())
        assert len(bound) == len(leaves)
        for leaf, got in zip(leaves, bound):
            if leaf.is_concrete:
                assert got is leaf
                continue
            want = dataclasses.replace(
                leaf,
                parameters=tuple(Parameter.concrete(p.evaluate(binding)) for p in leaf.parameters),
            )
            assert type(got) is type(want)
            assert [getattr(got, f.name) for f in dataclasses.fields(got)] == [
                getattr(want, f.name) for f in dataclasses.fields(want)
            ]
            assert got == want and hash(got) == hash(want)
            with pytest.raises(dataclasses.FrozenInstanceError):
                got.parameters = ()


class TestDepth:
    def test_empty(self):
        assert depth(create_composite("c")) == 0

    def test_parallel_gates(self):
        c = create_composite("c")
        c.add(create_instruction("X", [0]))
        c.add(create_instruction("X", [1]))
        assert depth(c) == 1

    def test_three_gate_chain(self):
        # hand-scheduled: X(q0) -> CNOT(q0,q1) -> X(q1) all conflict pairwise
        c = create_composite("c")
        c.add(create_instruction("X", [0]))
        c.add(create_instruction("CNOT", [0, 1]))
        c.add(create_instruction("X", [1]))
        assert depth(c) == 3

    def test_measure_counts(self):
        c = create_composite("c")
        c.add(create_instruction("H", [0]))
        c.add(create_instruction("Measure", [0]))
        assert depth(c) == 2

    def test_symbolic_rejected(self):
        c = create_composite("c")
        c.add(create_instruction("Rz", [0], ["t0"]))
        with pytest.raises(IRError):
            depth(c)

    def test_depth_bounds(self):
        c = create_composite("c")
        c.add(create_instruction("H", [0]))
        c.add(create_instruction("X", [1]))
        c.add(create_instruction("CNOT", [0, 1]))
        assert depth(c) <= c.n_instructions()

    def test_depth_equals_count_on_shared_qubit(self):
        c = create_composite("c")
        for _ in range(5):
            c.add(create_instruction("H", [0]))
        assert depth(c) == 5


class TestCountGates:
    def test_empty(self):
        assert count_gates(create_composite("c")) == {}

    def test_bell_pair(self):
        c = create_composite("c")
        c.add(create_instruction("H", [0]))
        c.add(create_instruction("CNOT", [0, 1]))
        assert count_gates(c) == {"H": 1, "CNOT": 1}

    def test_hf_prep_counts(self):
        from qcsim.ansatz import hartree_fock_circuit

        assert count_gates(hartree_fock_circuit(4, 8)) == {"X": 4}


class TestGateMatrix:
    def test_x(self):
        assert np.allclose(
            gate_matrix(create_instruction("X", [0])), [[0, 1], [1, 0]]
        )

    def test_rz_zero_is_identity(self):
        assert np.allclose(
            gate_matrix(create_instruction("Rz", [0], [0.0])), np.eye(2)
        )

    def test_rx_pi(self):
        # exp(-i pi X / 2) = -i X
        got = gate_matrix(create_instruction("Rx", [0], [np.pi]))
        assert np.allclose(got, -1j * np.array([[0, 1], [1, 0]]), atol=1e-12)

    def test_measure_has_no_matrix(self):
        with pytest.raises(IRError):
            gate_matrix(create_instruction("Measure", [0]))

    def test_symbolic_rejected(self):
        with pytest.raises(IRError):
            gate_matrix(create_instruction("Rz", [0], ["t"]))

    @pytest.mark.parametrize("name", [g for g, (n, p) in GATE_TABLE.items() if g != "Measure"])
    def test_all_gates_unitary(self, name):
        nq, np_ = GATE_TABLE[name]
        inst = create_instruction(name, list(range(nq)), [0.37] * np_)
        m = gate_matrix(inst)
        assert np.abs(m @ m.conj().T - np.eye(m.shape[0])).max() < 1e-12


class TestPrettyPrint:
    GOLDEN = (
        "__qpu__ void demo(qbit q, double t0) {\n"
        "  X(q[0]);\n"
        "  CNOT(q[0], q[1]);\n"
        "  Rz(q[1], -2.0*t0);\n"
        "  Ry(q[0], 0.25);\n"
        "}\n"
    )

    def test_golden_format(self):
        c = create_composite("demo")
        c.add(create_instruction("X", [0]))
        c.add(create_instruction("CNOT", [0, 1]))
        c.add(create_instruction("Rz", [1], [Parameter.symbolic("t0", -2.0)]))
        c.add(create_instruction("Ry", [0], [0.25]))
        assert pretty_print(c) == self.GOLDEN
