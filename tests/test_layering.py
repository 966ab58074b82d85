"""Algorithms read states only through ``PreparedState``, only
``backend`` reads the exact/sampled mode, and only ``pauli`` reads the
string encoding.

Each module under ``src/qcsim/algorithms`` is parsed with ``ast``: none
may read ``exact_mode`` or reach the simulator's raw-state functions,
whether imported from ``backend`` or called as attributes.  Neither they
nor ``optim.py`` may read ``.config`` or ``.shots``.  Every module under
``src/qcsim`` is parsed too: only ``pauli.py`` may read ``._terms``, and
only ``backend.py`` may reach ``pauli.encode``, which its ``_rotate`` calls
on a rotation's ``ops``: ``exp_pauli`` stores the string as given.
``ir.py`` must not import ``pauli``, which imports ``ir``.  No call in an
algorithm module takes a ``commutator(...)`` call as an argument, and
neither ``adapt.py`` nor ``qeom.py`` imports ``commutator``: commutator
expectations, double ones included, are read through
``PreparedState.expect_commutators``, which in exact mode builds no
product and no commutator.
A Pauli rotation and an excitation rotation are leaves, not composites,
and ``ansatz.exp_pauli`` builds no gate: a rotation derives its gates
when they are read.  Neither ``ansatz.py`` nor an algorithm module calls
``jordan_wigner``: excitation images come only from
``ExcitationOperator.image``, and ``fermion`` has no other excitation
source: its ladder images serve ``jordan_wigner`` alone, and a ``uccsd``
ADAPT run grows one ``ExcitationRotation`` per chosen operator.  ``ir.py``
does not import ``fermion`` either,
and ``backend.py`` never calls ``jordan_wigner``: an excitation node's
strings and signs come from its modes by bit arithmetic.  In ``backend``
only the compiled form reads an operator's strings: its one table builder
(``CompiledPauli._factors``), which serves exact application and sampled
draws alike, is the one reader of ``encoded()``, and only
``CompiledPauli.draw`` draws: exact application (``apply_pauli``) and
sampled ``expect`` read the compiled form, while a rotation (``_rotate``)
encodes its own ``ops`` and compiles nothing.  A
VQE run compiles its observable once, so does each ``evaluate_gradient``
call, and a QITE run compiles each basis string once (counting tests).
A VQE run plans its ansatz once, each gradient call plans its circuit
once, whatever the strategy, and none of them nor an ADAPT run binds a
tree with ``ir.evaluate``; ``optim.py`` imports nothing that binds or
splices one.
Gates are applied in place, without ``tensordot`` or ``moveaxis``.
The N-electron sector is found by the planner alone, ``_excite`` is the
one excitation kernel, and ``backend`` keeps no module-level cache.
Each algorithm module reads through ``self.options`` exactly the keys its
class declares in ``option_kinds``: no key read undeclared, none declared
and left unread, and ``required_keys`` is a subset of them.
``qeom.eom_pencil`` builds no commutator in exact mode, and an exact QEOM
run compiles its observable and nothing else, and multiplies no Pauli sums.
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


def _option_key(node):
    """The key argument of a read through ``self.options`` or
    ``self._check_real``, or None when ``node`` is no such read."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args):
        return None
    owner = node.func.value
    through_options = (
        isinstance(owner, ast.Attribute)
        and owner.attr == "options"
        and isinstance(owner.value, ast.Name)
        and owner.value.id == "self"
    )
    checked = isinstance(owner, ast.Name) and owner.id == "self" and node.func.attr == "_check_real"
    return node.args[0] if through_options or checked else None


def _option_reads(path, module):
    """(keys read, lines of reads by a key no table names): a string key is
    read as written; a key variable only inside ``for ... in TABLE.items()``
    over a module-level table, which reads every key of that table."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    keys, by_table = set(), set()
    for node in ast.walk(tree):
        iterated = node.iter if isinstance(node, ast.For) else None
        if (
            isinstance(iterated, ast.Call)
            and isinstance(iterated.func, ast.Attribute)
            and iterated.func.attr == "items"
            and isinstance(iterated.func.value, ast.Name)
        ):
            reads = [inner for inner in ast.walk(node) if isinstance(_option_key(inner), ast.Name)]
            if reads:
                keys |= set(getattr(module, iterated.func.value.id))
                by_table |= {id(inner) for inner in reads}
    unnamed = []
    for node in ast.walk(tree):
        key = _option_key(node)
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
        elif key is not None and id(node) not in by_table:
            unnamed.append(node.lineno)
    return keys, unnamed


@pytest.mark.parametrize("name", ["adapt", "qcmx", "qeom", "qite", "vqe"])
def test_an_algorithm_reads_exactly_the_keys_it_declares(name):
    import importlib

    from qcsim.registry import ServiceKind, get_service

    module = importlib.import_module(f"qcsim.algorithms.{name}")
    declared = get_service(ServiceKind.ALGORITHM, name).option_kinds
    assert type(get_service(ServiceKind.ALGORITHM, name)).__module__ == module.__name__
    keys, unnamed = _option_reads(ALGORITHMS / f"{name}.py", module)
    assert unnamed == []
    assert keys == set(declared)
    assert set(get_service(ServiceKind.ALGORITHM, name).required_keys) <= set(declared)


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


def _reaches_encoder(path):
    """Lines that import ``encode`` or read it as an attribute: reaching
    pauli's encoder from outside ``pauli.py``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and "encode" in {alias.name for alias in node.names})
        or (isinstance(node, ast.Attribute) and node.attr == "encode")
    ]


def test_the_simulator_reads_the_rotation_string():
    tree = ast.parse(ROTATION_READER.read_text(encoding="utf-8"))
    (rotate,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_rotate"
    ]
    assert [
        node.lineno
        for node in ast.walk(rotate)
        if _calls_named(node, "encode")
        and any(isinstance(argument, ast.Attribute) and argument.attr == "ops" for argument in node.args)
    ]
    assert _reaches_encoder(ROTATION_READER)


@pytest.mark.parametrize(
    "path",
    [path for path in sorted(PACKAGE.rglob("*.py")) if path != ROTATION_READER],
    ids=lambda path: str(path.relative_to(PACKAGE)),
)
def test_only_the_simulator_reads_the_rotation_string(path):
    # exp_pauli stores ops as given; the simulator alone encodes them
    assert _reaches_encoder(path) == []


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


def _imports_of(path, names):
    """The imports of ``path`` whose last name part is one of ``names``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.split(".")[-1] in names
    ]


def test_adapt_does_not_import_commutator():
    assert _imports_of(ALGORITHMS / "adapt.py", {"commutator"}) == []


def test_qeom_does_not_import_commutator():
    assert _imports_of(ALGORITHMS / "qeom.py", {"commutator"}) == []


def test_optim_neither_binds_nor_splices_a_tree():
    tree_tools = {"evaluate", "Parameter", "PauliRotation", "ExcitationRotation", "replace"}
    assert _imports_of(PACKAGE / "optim.py", tree_tools) == []


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


def test_the_ladder_images_serve_jordan_wigner_alone():
    from qcsim import fermion

    assert not hasattr(fermion, "excitations")
    calls = {
        (path.name, node.lineno)
        for path in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _calls_named(node, "_jw_ladder")
    }
    tree = ast.parse((PACKAGE / "fermion.py").read_text(encoding="utf-8"))
    (mapper,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "jordan_wigner"
    ]
    assert calls == {
        ("fermion.py", node.lineno) for node in ast.walk(mapper) if _calls_named(node, "_jw_ladder")
    }
    assert calls


def test_a_uccsd_adapt_run_grows_one_excitation_leaf_per_chosen_operator(
    monkeypatch, hubbard_chain
):
    import qcsim
    from qcsim import backend
    from qcsim.ansatz import excitation_label
    from qcsim.ir import ExcitationRotation, Instruction

    planned = []
    plan = backend.CompiledCircuit.__init__
    monkeypatch.setattr(
        backend.CompiledCircuit,
        "__init__",
        lambda self, circuit, n: planned.append(circuit) or plan(self, circuit, n),
    )
    adapt = qcsim.get_algorithm(
        "adapt",
        {
            "optimizer": qcsim.get_optimizer("nelder-mead"),
            "observable": hubbard_chain(3),
            "n-electrons": 2,
            "pool": "uccsd",
            "max-iter": 3,
            "accelerator": qcsim.get_accelerator("statevector", {"shots": 0}),
        },
    )
    buffer = qcsim.qalloc(6)
    adapt.execute(buffer)
    leaves = list(planned[-1].leaves())
    chosen = buffer["adapt-ops"]
    assert len(chosen) == 3
    # the reference's X gates, then one excitation per chosen operator
    assert [type(leaf) for leaf in leaves] == [Instruction] * 2 + [ExcitationRotation] * 3
    assert [excitation_label(leaf.occ, leaf.virt) for leaf in leaves[2:]] == chosen


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


def _functions_calling(path, attribute):
    """``Class.method`` or ``function`` for each function whose body calls
    ``.attribute(...)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owners = {
        id(function): f"{cls.name}.{function.name}"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for function in cls.body
        if isinstance(function, ast.FunctionDef)
    }
    return sorted(
        owners.get(id(function), function.name)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attribute
            for statement in function.body
            for node in ast.walk(statement)
        )
    )


def test_one_compiled_form_reads_the_strings_of_a_pauli_sum():
    backend = PACKAGE / "backend.py"
    # the compiled form's one table builder is the only reader of an
    # operator's strings, in encoded() order, for both modes
    assert _functions_calling(backend, "encoded") == ["CompiledPauli._factors"]
    # every draw of a sampled evaluation is one call, in the compiled form
    assert _functions_calling(backend, "binomial") == ["CompiledPauli.draw"]
    # exact applications, one-off and held, go through it; a rotation
    # encodes its own string and builds no compiled form
    readers = set(_functions_reading(backend, "CompiledPauli"))
    assert {"_compiled", "compile_observable", "moments"} <= readers
    assert "_rotate" not in readers
    assert {"expect", "expect_commutators", "moments"} <= set(
        _functions_reading(backend, "apply_pauli")
    )


def test_gates_are_applied_in_place():
    tree = ast.parse((PACKAGE / "backend.py").read_text(encoding="utf-8"))
    kernels = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("_apply_gate", "_blocks")
    ]
    assert len(kernels) == 2
    assert [
        node.lineno
        for kernel in kernels
        for node in ast.walk(kernel)
        if (getattr(node, "attr", None) or getattr(node, "id", None)) in ("tensordot", "moveaxis")
    ] == []


def test_the_electron_sector_is_planned_in_one_place():
    backend = PACKAGE / "backend.py"
    tree = ast.parse(backend.read_text(encoding="utf-8"))
    # the N-electron determinants are filtered by popcount in the planner alone
    filters = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, ast.Eq) for op in node.ops)
        and any(
            isinstance(side, ast.Call) and getattr(side.func, "attr", None) == "bitwise_count"
            for side in (node.left, *node.comparators)
        )
    ]
    assert filters == ["_plan"]
    # one kernel per leaf kind, (state, data, angle): no second excitation kernel
    kernels = sorted(
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and len(node.args.args) == 3
        and node.args.args[0].arg == "state"
        and node.args.args[2].arg in ("theta", "angle")
    )
    assert kernels == ["_apply_gate", "_excite", "_rotate"]
    # sector pairs are built by the planner and applied by the excitation kernel
    assert _functions_reading(backend, "_sector_pairs") == ["_excite", "_plan"]
    assert _functions_reading(backend, "_pairs") == ["_excite", "expect_commutators"]


def test_backend_keeps_no_module_level_cache():
    tree = ast.parse((PACKAGE / "backend.py").read_text(encoding="utf-8"))
    module_names = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    mutators = {"append", "add", "update", "setdefault", "extend", "insert", "pop", "clear"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append(f"line {node.lineno}: global {node.names}")
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = getattr(target, "attr", None) or getattr(target, "id", None)
                if name in ("cache", "lru_cache"):
                    found.append(f"line {node.lineno}: @{name} on {node.name}")
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_names
        ) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in mutators
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in module_names
        ):
            found.append(f"line {node.lineno}: writes a module-level name")
    # a cache made at import time, rather than inside one call
    for node in tree.body:
        for call in ast.walk(node) if isinstance(node, (ast.Assign, ast.Expr)) else ():
            name = getattr(getattr(call, "func", None), "attr", None)
            if isinstance(call, ast.Call) and name in ("cache", "lru_cache"):
                found.append(f"line {call.lineno}: module-level {name}")
    assert found == []


def _count_compiles(monkeypatch):
    from qcsim import backend

    compiled = []
    original = backend.CompiledPauli.__init__

    def counting(self, op, n):
        compiled.append(op)
        original(self, op, n)

    monkeypatch.setattr(backend.CompiledPauli, "__init__", counting)
    return compiled


def _h2_vqe(shots, **options):
    import qcsim
    from qcsim.ir import Parameter, create_composite, create_instruction

    ansatz = create_composite("h2")
    ansatz.add(create_instruction("Ry", [0], [Parameter.symbolic("t")]))
    ansatz.add(create_instruction("X", [1]))
    ansatz.add(create_instruction("CNOT", [0, 1]))
    observable = qcsim.load_hamiltonian(str(PACKAGE.parents[1] / "data" / "h2.ham"))
    vqe = qcsim.get_algorithm(
        "vqe",
        {
            "ansatz": ansatz,
            "observable": observable,
            "accelerator": qcsim.get_accelerator("statevector", {"shots": shots, "seed": 3}),
            "max-iterations": 15,
            **options,
        },
    )
    buffer = qcsim.qalloc(2)
    vqe.execute(buffer)
    return observable, buffer


@pytest.mark.parametrize("shots", [0, 1000])
def test_a_vqe_run_compiles_its_observable_once(monkeypatch, shots):
    import qcsim

    compiled = _count_compiles(monkeypatch)
    observable, buffer = _h2_vqe(shots, optimizer=qcsim.get_optimizer("nelder-mead"))
    assert len(buffer["energy-history"]) > 15
    assert compiled == [observable]


def _count_plans(monkeypatch):
    """The circuits ``backend._plan`` checks, in call order."""
    from qcsim import backend

    planned, original = [], backend._plan

    def counting(circuit, *args, **kwargs):
        planned.append(circuit)
        return original(circuit, *args, **kwargs)

    monkeypatch.setattr(backend, "_plan", counting)
    return planned


def _count_calls(monkeypatch, original):
    """The first arguments ``original`` is called with, wherever qcsim
    imported it."""
    import sys

    called = []

    def counting(first, *args):
        called.append(first)
        return original(first, *args)

    for name, module in list(sys.modules.items()):
        if name == "qcsim" or name.startswith("qcsim."):
            for attribute, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attribute, counting)
    return called


def _count_evaluations(monkeypatch):
    """The circuits ``ir.evaluate`` binds, wherever qcsim imported it."""
    from qcsim import ir

    return _count_calls(monkeypatch, ir.evaluate)


@pytest.mark.parametrize("shots", [0, 1000])
def test_a_vqe_run_plans_its_ansatz_once(monkeypatch, shots):
    import qcsim

    planned = _count_plans(monkeypatch)
    bound = _count_evaluations(monkeypatch)
    _, buffer = _h2_vqe(shots, optimizer=qcsim.get_optimizer("nelder-mead"))
    # every evaluation and the final estimate run the one plan
    assert len(buffer["energy-history"]) > 15
    assert [circuit.name for circuit in planned] == ["h2"]
    assert bound == []


@pytest.mark.parametrize("shots", [0, 1000])
@pytest.mark.parametrize("strategy", ["central", "forward", "backward", "parameter-shift"])
def test_each_gradient_plans_once(monkeypatch, shots, strategy):
    import qcsim
    from qcsim import optim

    ansatz = qcsim.uccsd_circuit(qcsim.UccsdSpec(2, 4))
    observable = qcsim.load_hamiltonian(str(PACKAGE.parents[1] / "data" / "hubbard_dimer_mo.ham"))
    accelerator = qcsim.get_accelerator("statevector", {"shots": shots, "seed": 3})
    planned = _count_plans(monkeypatch)
    bound = _count_evaluations(monkeypatch)
    for x in ([0.1, -0.2, 0.3], [0.0, 0.5, -0.1]):
        optim.evaluate_gradient(strategy, ansatz, x, observable, accelerator)
    assert planned == [ansatz, ansatz]
    assert bound == []


def test_an_adapt_run_binds_no_tree(monkeypatch, hubbard_dimer_mo):
    import qcsim

    bound = _count_evaluations(monkeypatch)
    adapt = qcsim.get_algorithm(
        "adapt",
        {
            "optimizer": qcsim.get_optimizer("nelder-mead"),
            "observable": hubbard_dimer_mo,
            "n-electrons": 2,
            "pool": "uccsd",
            "accelerator": qcsim.get_accelerator("statevector", {"shots": 0}),
        },
    )
    buffer = qcsim.qalloc(4)
    adapt.execute(buffer)
    # two gradient sweeps: the reference's and the chosen double's
    assert len(buffer["adapt-gradient-norms"]) == 2
    assert bound == []


def test_each_gradient_compiles_its_observable_once(monkeypatch):
    import qcsim
    from qcsim.algorithms import vqe

    compiled = _count_compiles(monkeypatch)
    gradients = []
    original = vqe.evaluate_gradient

    def counting(*args):
        gradients.append(1)
        return original(*args)

    monkeypatch.setattr(vqe, "evaluate_gradient", counting)
    observable, _ = _h2_vqe(
        0,
        optimizer=qcsim.get_optimizer("gradient-descent"),
        **{"gradient-strategy": "parameter-shift"},
    )
    assert gradients
    assert compiled == [observable] * (1 + len(gradients))


@pytest.mark.parametrize("shots", [0, 1000])
def test_a_qite_run_compiles_each_basis_string_once(monkeypatch, shots):
    import qcsim
    from qcsim.algorithms.qite import StepSystem
    from qcsim.ir import create_composite, create_instruction

    observable = qcsim.load_hamiltonian(str(PACKAGE.parents[1] / "data" / "h2.ham"))
    reference = create_composite("reference").add(create_instruction("X", [1]))
    steps = 3
    qite = qcsim.get_algorithm(
        "qite",
        {
            "accelerator": qcsim.get_accelerator("statevector", {"shots": shots, "seed": 3}),
            "observable": observable,
            "ansatz": reference,
            "step-size": 0.1,
            "steps": steps,
        },
    )
    basis = StepSystem(observable, 2).basis
    compiled = _count_compiles(monkeypatch)
    buffer = qcsim.qalloc(2)
    qite.execute(buffer)
    assert len(buffer["energy-history"]) == steps + 1
    # the 15 basis strings once for the run, and the final energy's observable;
    # no rotation of the steps' exp_pauli blocks compiles its string
    assert compiled == [qcsim.PauliOperator.from_terms({key: 1.0}) for key in basis] + [
        observable
    ]


def test_eom_pencil_builds_no_commutator(monkeypatch):
    import qcsim
    from qcsim import pauli
    from qcsim.algorithms import qeom
    from qcsim.fermion import ExcitationOperator, excitation_modes
    from qcsim.ir import create_composite, create_instruction

    operators = [
        ExcitationOperator(occ, virt).image()
        for occ, virt in excitation_modes(2, 4, spin_preserving=False)
    ]
    observable = qcsim.PauliOperator({0: "Z", 1: "Z"}) + qcsim.PauliOperator({1: "X", 2: "X"})
    reference = create_composite("reference")
    for q in (0, 2):
        reference.add(create_instruction("X", [q]))
    state = qcsim.get_accelerator("statevector", {"shots": 0}).prepare(reference, 4)
    built = _count_calls(monkeypatch, pauli.commutator)
    qeom.eom_pencil(observable, operators, state)
    assert built == []


def test_an_exact_qeom_run_compiles_h_once_and_builds_no_commutator(monkeypatch, hubbard_chain):
    import qcsim
    from qcsim import pauli
    from qcsim.ir import create_composite, create_instruction

    observable = hubbard_chain(3)
    reference = create_composite("reference")
    for q in (0, 3):
        reference.add(create_instruction("X", [q]))
    qeom = qcsim.get_algorithm(
        "qeom",
        {
            "observable": observable,
            "accelerator": qcsim.get_accelerator("statevector", {"shots": 0}),
            "ansatz": reference,
            "n-electrons": 2,
        },
    )
    compiled = _count_compiles(monkeypatch)
    built = _count_calls(monkeypatch, pauli.commutator)
    multiplied = _count_calls(monkeypatch, pauli.multiply)
    buffer = qcsim.qalloc(6)
    qeom.execute(buffer)
    assert len(buffer["excitation-energies"]) == 14
    # the pencil and the ground energy share one compiled H, and the basis is
    # applied on its amplitude pairs: no JW image is built or compiled
    assert compiled == [observable]
    assert built == []
    assert multiplied == []
