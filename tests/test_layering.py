"""Algorithms read states only through ``PreparedState``, only
``backend`` reads the exact/sampled mode, only ``pauli`` reads the
string encoding, and only ``backend`` reads a rotation node's string.

Each module under ``src/qcsim/algorithms`` is parsed with ``ast``: none
may read ``exact_mode`` or reach the simulator's raw-state functions,
whether imported from ``backend`` or called as attributes.  Neither they
nor ``optim.py`` may read ``.config`` or ``.shots``.  Every module under
``src/qcsim`` is parsed too: only ``pauli.py`` may read ``._terms``, and
only ``backend.py`` may read ``.pauli`` (``ir.PauliRotation`` stores it),
so the one-pass rotation stays the simulator's one path.  ``ir.py`` must
not import ``pauli``, which imports ``ir``.  No call in an algorithm module
takes a ``commutator(...)`` call as an argument, and ``adapt.py`` does not
import ``commutator``: commutator expectations are read through
``PreparedState.expect_commutators``, which in exact mode builds no product.
A Pauli rotation and an excitation rotation are leaves, not composites,
and ``ansatz.exp_pauli`` builds no gate: a rotation derives its gates
when they are read.  Neither ``ansatz.py`` nor an algorithm module calls
``jordan_wigner``: excitation images come only from
``fermion.excitations``.  ``ir.py`` does not import ``fermion`` either,
and ``backend.py`` never calls ``jordan_wigner``: an excitation node's
strings and signs come from its modes by bit arithmetic.  ``apply_pauli``
is the one exact application of a Pauli sum: it does not read the
per-string ``_strings`` generator, which only sampled ``expect`` and the
one-string ``_rotate`` read, and ``qeom.eom_pencil`` builds one
commutator per basis operator.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qcsim"
ALGORITHMS = PACKAGE / "algorithms"
RAW_STATE = {"statevector", "statevector_expectation", "apply_pauli", "apply_pauli_string"}


def _violations(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in RAW_STATE | {"exact_mode"}:
            found.append(f"line {node.lineno}: reads .{node.attr}")
        elif isinstance(node, ast.Name) and node.id == "exact_mode":
            found.append(f"line {node.lineno}: reads exact_mode")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("backend"):
            for alias in node.names:
                if alias.name in RAW_STATE:
                    found.append(f"line {node.lineno}: imports {alias.name} from backend")
    return found


MODULES = sorted(ALGORITHMS.glob("*.py"))


def test_algorithm_modules_exist():
    assert {path.stem for path in MODULES} >= {"adapt", "qcmx", "qeom", "qite", "vqe"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_reads_states_only_through_prepared_state(path):
    assert _violations(path) == []


def _reads(path, attributes):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in attributes
    ]


@pytest.mark.parametrize(
    "path", MODULES + [PACKAGE / "optim.py"], ids=lambda path: path.name
)
def test_algorithms_and_optim_never_read_the_mode(path):
    assert _reads(path, {"config", "shots"}) == []


ENCODING_OWNER = PACKAGE / "pauli.py"
OTHER_MODULES = [path for path in sorted(PACKAGE.rglob("*.py")) if path != ENCODING_OWNER]


def test_the_encoding_lives_in_pauli():
    assert _reads(ENCODING_OWNER, {"_terms"})


@pytest.mark.parametrize(
    "path", OTHER_MODULES, ids=lambda path: str(path.relative_to(PACKAGE))
)
def test_only_pauli_reads_the_string_encoding(path):
    assert _reads(path, {"_terms"}) == []


ROTATION_READER = PACKAGE / "backend.py"


def _loads(path, attribute):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == attribute
        and isinstance(node.ctx, ast.Load)
    ]


def test_the_simulator_reads_the_rotation_string():
    assert _loads(ROTATION_READER, "pauli")


@pytest.mark.parametrize(
    "path",
    [path for path in sorted(PACKAGE.rglob("*.py")) if path != ROTATION_READER],
    ids=lambda path: str(path.relative_to(PACKAGE)),
)
def test_only_the_simulator_reads_the_rotation_string(path):
    assert _loads(path, "pauli") == []


def _imported_by_ir():
    tree = ast.parse((PACKAGE / "ir.py").read_text(encoding="utf-8"))
    return [
        name.split(".")[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
    ]


def test_ir_does_not_import_pauli():
    assert "pauli" not in _imported_by_ir()


def test_ir_does_not_import_fermion():
    assert "fermion" not in _imported_by_ir()


def _calls_named(node, name):
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None),
        getattr(node.func, "attr", None),
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_commutator_is_built_to_be_measured(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and any(
            _calls_named(argument, "commutator")
            for argument in [*node.args, *(keyword.value for keyword in node.keywords)]
        )
    ] == []


def test_adapt_does_not_import_commutator():
    tree = ast.parse((ALGORITHMS / "adapt.py").read_text(encoding="utf-8"))
    assert [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.split(".")[-1] == "commutator"
    ] == []


def test_a_rotation_is_a_leaf():
    from qcsim.ir import CompositeInstruction, PauliRotation

    assert not issubclass(PauliRotation, CompositeInstruction)


def test_an_excitation_is_a_leaf():
    from qcsim.ir import CompositeInstruction, ExcitationRotation

    assert not issubclass(ExcitationRotation, CompositeInstruction)


def test_exp_pauli_builds_no_gate():
    tree = ast.parse((PACKAGE / "ansatz.py").read_text(encoding="utf-8"))
    (function,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "exp_pauli"
    ]
    assert [
        node.lineno
        for node in ast.walk(function)
        if _calls_named(node, "create_instruction") or _calls_named(node, "Instruction")
    ] == []


@pytest.mark.parametrize(
    "path", [PACKAGE / "ansatz.py", *MODULES], ids=lambda path: str(path.relative_to(PACKAGE))
)
def test_excitation_images_come_only_from_fermion_excitations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if _calls_named(node, "jordan_wigner")] == []


def test_the_simulator_never_maps_a_fermion_operator():
    tree = ast.parse((PACKAGE / "backend.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if _calls_named(node, "jordan_wigner")] == []


def _functions_reading(path, name):
    """The names of the functions (methods included) whose bodies read ``name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and any(
            isinstance(node, ast.Name) and node.id == name
            for statement in function.body
            for node in ast.walk(statement)
        )
    )


def test_apply_pauli_is_the_one_exact_application():
    backend = PACKAGE / "backend.py"
    assert "apply_pauli" not in _functions_reading(backend, "_strings")
    # sampled draws, and the one string of a Pauli rotation
    assert _functions_reading(backend, "_strings") == ["_rotate", "expect"]
    assert {"expect", "expect_commutators", "moments"} <= set(
        _functions_reading(backend, "apply_pauli")
    )


def test_eom_pencil_builds_one_commutator_per_basis_operator(monkeypatch):
    import qcsim
    from qcsim.algorithms import qeom
    from qcsim.fermion import excitations
    from qcsim.ir import create_composite, create_instruction

    operators = [image for _, _, image in excitations(2, 4, spin_preserving=False)]
    observable = qcsim.PauliOperator({0: "Z", 1: "Z"}) + qcsim.PauliOperator({1: "X", 2: "X"})
    reference = create_composite("reference")
    for q in (0, 2):
        reference.add(create_instruction("X", [q]))
    state = qcsim.get_accelerator("statevector", {"shots": 0}).prepare(reference, 4)
    built = []
    original = qeom.commutator
    monkeypatch.setattr(qeom, "commutator", lambda a, b: built.append(b) or original(a, b))
    qeom.eom_pencil(observable, operators, state)
    assert built == operators
