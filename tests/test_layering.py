"""Algorithms read states only through ``PreparedState``.

Each module under ``src/qcsim/algorithms`` is parsed with ``ast``: none
may read ``exact_mode`` or reach the simulator's raw-state functions,
whether imported from ``backend`` or called as attributes.
"""
import ast
from pathlib import Path

import pytest

ALGORITHMS = Path(__file__).resolve().parents[1] / "src" / "qcsim" / "algorithms"
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
