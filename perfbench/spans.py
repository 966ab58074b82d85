"""In-memory span tracer around the public functions of qcsim's layers.

Each span records its name, start, end, parent and the counts taken from
its call arguments (and result).  Wrappers are bound at every import
site: qcsim modules import functions by name (``from ..pauli import
multiply``), so replacing only the defining module's attribute would
miss most calls.  Individual gates and Pauli strings are never wrapped.
"""
from __future__ import annotations

import functools
import sys
import time

# module -> layer; qcsim.algorithms.<name> maps to layer "algorithms.<name>"
LAYERS = {
    "qcsim.cli": "cli",
    "qcsim.kernel": "kernel",
    "qcsim.ir": "ir",
    "qcsim.ansatz": "ansatz",
    "qcsim.fermion": "fermion",
    "qcsim.pauli": "pauli",
    "qcsim.backend": "backend",
    "qcsim.optim": "optim",
    "qcsim.linalg": "linalg",
}

# Called once per gate or per Pauli string: a span there would cost more
# than the work it times.
PER_ELEMENT = {
    "qcsim.ir": {"as_parameter", "create_instruction", "create_composite", "gate_matrix"},
    "qcsim.backend": {"apply_pauli_string", "qalloc"},
}

SIMULATING = ("backend.statevector", "backend.execute", "backend.execute_and_reduce")


def _layer(module: str) -> str | None:
    if module.startswith("qcsim.algorithms."):
        return "algorithms." + module.rsplit(".", 1)[1]
    return LAYERS.get(module)


def _circuit_counts(circuit, n_qubits: int, shots: int = 0) -> dict:
    instructions = tuple(circuit.instructions())
    gates = sum(1 for inst in instructions if inst.name != "Measure")
    return {
        "simulations": 1,
        "gates": gates,
        "gate_amps": gates * 2**n_qubits,
        "shots": shots,
        "circuit": hash(instructions),
    }


def _count_statevector(circuit, n, *_, **__):
    return _circuit_counts(circuit, n)


def _count_execute_and_reduce(accelerator, circuit, term, n_qubits, *_, **__):
    counts = _circuit_counts(circuit, n_qubits, accelerator.config.shots)
    counts["measured_terms"] = 1
    return counts


def _count_execute(accelerator, buffer, circuits, *_, **__):
    if not isinstance(circuits, (list, tuple)):
        circuits = [circuits]
    total: dict = {"circuits": []}
    for circuit in circuits:
        one = _circuit_counts(circuit, buffer.size, accelerator.config.shots)
        total["circuits"].append(one.pop("circuit"))
        for key, value in one.items():
            total[key] = total.get(key, 0) + value
    return total


def _count_multiply(a, b, *_, **__):
    return {"term_pairs": a.n_terms() * b.n_terms()}


def _kept_terms(counts, result):
    counts["kept_terms"] = result.n_terms()


def _iterations(counts, result):
    return {"iterations": result.iterations}


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.clock = time.perf_counter
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: list[dict | None] = []
        # tracer time spent inside a span's interval but outside its children
        self.overhead: list[float] = []
        self._stack: list[int] = []

    # ---- recording ----

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.counts.append(None)
        self.overhead.append(0.0)
        self._stack.append(index)
        return index

    def root(self, name: str):
        return _Root(self, name)

    def wrap(self, name, fn, before=None, after=None):
        """``name`` is a string or a function of the call's first argument."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            clock = tracer.clock
            entered = clock()
            counts = before(*args, **kwargs) if before else None
            index = tracer._open(name if isinstance(name, str) else name(args[0]))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                tracer._stack.pop()
                if after and result is not None:
                    counts = after(counts, result) or counts
                tracer.starts[index], tracer.ends[index] = start, end
                tracer.counts[index] = counts
                parent = tracer.parents[index]
                if parent >= 0:
                    tracer.overhead[parent] += (start - entered) + (clock() - end)

        return wrapper

    # ---- installation ----

    def install(self) -> None:
        """Wrap every layer's public functions and the methods that carry
        layer work, then rebind each wrapper wherever qcsim imported it."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "qcsim" or name.startswith("qcsim.")
        }
        replaced: dict[int, object] = {}
        special = {
            ("qcsim.backend", "statevector"): (_count_statevector, None),
            ("qcsim.pauli", "multiply"): (_count_multiply, _kept_terms),
        }
        for mod_name, module in modules.items():
            layer = _layer(mod_name)
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not callable(value)
                    or isinstance(value, type)
                    or getattr(value, "__module__", None) != mod_name
                    or attr in PER_ELEMENT.get(mod_name, ())
                ):
                    continue
                span = f"{layer}.{attr}"
                if (mod_name, attr) == ("qcsim.pauli", "scalar_multiply"):
                    span = "pauli.sum"
                before, after = special.get((mod_name, attr), (None, None))
                replaced[id(value)] = self.wrap(span, value, before, after)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])

        backend, pauli, optim = (modules[f"qcsim.{m}"] for m in ("backend", "pauli", "optim"))
        base = modules["qcsim.algorithms.base"]
        accelerator = backend.StatevectorAccelerator
        self._method(accelerator, "execute", "backend.execute", _count_execute)
        self._method(
            accelerator, "execute_and_reduce", "backend.execute_and_reduce",
            _count_execute_and_reduce,
        )
        self._method(pauli.PauliOperator, "__add__", "pauli.sum")
        self._method(optim.ObjectiveFunction, "__call__", "optim.objective")
        for optimizer in (optim.NelderMead, optim.GradientDescent):
            self._method(optimizer, "optimize", "optim.optimize", after=_iterations)
        self._method(
            base.Algorithm, "execute", lambda alg: f"algorithms.{alg.algorithm_name}.execute"
        )

    def _method(self, cls, attr, name, before=None, after=None):
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), before, after))

    # ---- analysis ----

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [
            (self.ends[i] - self.starts[i]) - child[i] - self.overhead[i]
            for i in range(len(self.names))
        ]

    def summarize(self) -> dict[int, dict]:
        """Per root span: self time and calls per span name, and summed counts."""
        self_times = self.self_times()
        roots: list[int] = []
        out: dict[int, dict] = {}
        circuits: dict[int, set] = {}
        for i, name in enumerate(self.names):
            root = i if self.parents[i] < 0 else roots[self.parents[i]]
            roots.append(root)
            if root == i:
                out[i] = {"name": name, "self": {}, "calls": {}, "counts": {}}
                circuits[i] = set()
            summary = out[root]
            summary["self"][name] = summary["self"].get(name, 0.0) + self_times[i]
            summary["calls"][name] = summary["calls"].get(name, 0) + 1
            for key, value in (self.counts[i] or {}).items():
                if key == "circuit":
                    circuits[root].add(value)
                elif key == "circuits":
                    circuits[root].update(value)
                else:
                    summary["counts"][key] = summary["counts"].get(key, 0) + value
        for root, summary in out.items():
            summary["counts"]["distinct_circuits"] = len(circuits[root])
        return out

    def subtrees(self, name: str) -> list[dict]:
        """Duration, gates and simulation self time under each span ``name``."""
        self_times = self.self_times()
        owner: list[int] = []
        out: dict[int, dict] = {}
        for i, span in enumerate(self.names):
            parent = self.parents[i]
            top = i if span == name else (owner[parent] if parent >= 0 else -1)
            owner.append(top)
            if top < 0:
                continue
            entry = out.setdefault(
                top,
                {
                    "duration_s": self.ends[top] - self.starts[top],
                    "gates": 0,
                    "simulations": 0,
                    "simulate_self_s": 0.0,
                    "circuits": set(),
                },
            )
            counts = self.counts[i] or {}
            if "circuit" in counts:
                entry["circuits"].add(counts["circuit"])
            entry["gates"] += counts.get("gates", 0)
            entry["simulations"] += counts.get("simulations", 0)
            if span in SIMULATING:
                entry["simulate_self_s"] += self_times[i]
        for entry in out.values():
            entry["distinct_ratio"] = len(entry.pop("circuits")) / max(entry["simulations"], 1)
        return list(out.values())

    def dump(self) -> dict:
        return {
            "names": self.names,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "counts": [
                {k: v for k, v in (c or {}).items() if k not in ("circuit", "circuits")}
                for c in self.counts
            ],
        }


class _Root:
    """Harness-level span (set-up or one operation)."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        self.tracer.starts[self.index] = self.tracer.clock()
        return self.index

    def __exit__(self, *exc):
        self.tracer.ends[self.index] = self.tracer.clock()
        self.tracer._stack.pop()
        return False
