"""Each service reads only the option keys it declares.

An algorithm's ``option_kinds``, the accelerator's ``option_kinds`` and
``optim.OPTIMIZER_KINDS`` are the one list of each service's keys: a key
outside it raises the service's own ``QcsimError`` subclass, naming the
key, before anything is simulated, drawn or evaluated, and every given key
is read at its declared kind up front.  An optimizer's keys are checked
when ``get_optimizer`` sets them and again by each ``optimize`` call.
"""
from unittest import mock

import numpy as np
import pytest

import qcsim
from qcsim import backend, optim
from qcsim.errors import AlgorithmError, BackendError, HetMapTypeError, OptimizationError
from qcsim.registry import ServiceKind, get_service

# each misspelling that the services once dropped without a word
MISSPELT = {
    "qite-stpes": ("qite", {"stpes": 40}),
    "qite-ridge": ("qite", {"ridge": 1e-6}),
    "qeom-overlap_threshold": ("qeom", {"overlap_threshold": 0.5}),
    "adapt-max_iter": ("adapt", {"max_iter": 1}),
    "adapt-sub-algorithm": ("adapt", {"sub-algorithm": "vqe"}),
    "vqe-gradient_strategy": ("vqe", {"gradient_strategy": "parameter-shift"}),
    "vqe-max-iter": ("vqe", {"max-iter": 3}),
    "accelerator-shot": ("accelerator", {"shot": 1000}),
    "optimizer-max-iter-tol": ("optimizer", {"max-iter": 2, "tol": 0.1}),
}
ERRORS = {"accelerator": BackendError, "optimizer": OptimizationError}


@pytest.fixture()
def options_of(h2, hf_circuit_2q, pair_rotation_ansatz, hubbard_dimer_mo):
    """Valid options of each algorithm on ``accelerator``."""

    def build(algorithm, accelerator):
        optimizer = qcsim.get_optimizer("nelder-mead")
        own = {
            "vqe": {"observable": h2, "ansatz": pair_rotation_ansatz, "optimizer": optimizer},
            "adapt": {"observable": hubbard_dimer_mo, "optimizer": optimizer, "n-electrons": 2},
            "qite": {"observable": h2, "ansatz": hf_circuit_2q, "step-size": 0.1, "steps": 2},
            "qeom": {"observable": h2, "ansatz": hf_circuit_2q, "n-electrons": 1},
        }[algorithm]
        return {"accelerator": accelerator, **own}

    return build


@pytest.fixture()
def objective_calls(monkeypatch):
    calls = []
    original = optim.ObjectiveFunction.__call__
    monkeypatch.setattr(
        optim.ObjectiveFunction,
        "__call__",
        lambda self, x, grad_out: calls.append(list(x)) or original(self, x, grad_out),
    )
    return calls


@pytest.mark.parametrize("service, extra", MISSPELT.values(), ids=MISSPELT.keys())
def test_an_undeclared_key_raises_before_any_work(service, extra, options_of, objective_calls):
    accelerator = qcsim.get_accelerator("statevector", {"shots": 100, "seed": 5})
    config, before = accelerator.config, accelerator._rng.bit_generator.state
    first = next(iter(extra))
    with mock.patch.object(backend, "_zero_state") as simulated:
        with pytest.raises(ERRORS.get(service, AlgorithmError), match=f"takes no {first}"):
            if service == "accelerator":
                accelerator.initialize(extra)
            elif service == "optimizer":
                qcsim.get_optimizer("nelder-mead", extra)
            else:
                get_service(ServiceKind.ALGORITHM, service).initialize(
                    {**options_of(service, accelerator), **extra}
                )
    assert simulated.call_count == 0
    assert objective_calls == []
    assert accelerator.config is config
    assert accelerator._rng.bit_generator.state == before


def test_the_error_names_every_undeclared_key_and_the_declared_ones(h2, hf_circuit_2q):
    accelerator = qcsim.get_accelerator("statevector", {"shots": 0})
    options = {"observable": h2, "ansatz": hf_circuit_2q, "accelerator": accelerator}
    with pytest.raises(AlgorithmError) as raised:
        qcsim.get_algorithm("qeom", {**options, "n-electrons": 1, "ridge": 1.0, "steps": 3})
    message = str(raised.value)
    assert "qeom takes no ridge, steps" in message
    assert all(key in message for key in get_service(ServiceKind.ALGORITHM, "qeom").option_kinds)


@pytest.mark.parametrize(
    "algorithm, extra",
    [("qeom", {"n-electrons": 1.0}), ("qite", {"steps": 2.5}), ("adapt", {"pool": 3})],
    ids=["qeom-real-n-electrons", "qite-real-steps", "adapt-int-pool"],
)
def test_a_declared_key_of_the_wrong_kind_raises_from_initialize(
    algorithm, extra, options_of, objective_calls
):
    accelerator = qcsim.get_accelerator("statevector", {"shots": 100, "seed": 5})
    before = accelerator._rng.bit_generator.state
    instance = get_service(ServiceKind.ALGORITHM, algorithm)
    with mock.patch.object(backend, "_zero_state") as simulated:
        with pytest.raises(HetMapTypeError, match=next(iter(extra))):
            instance.initialize({**options_of(algorithm, accelerator), **extra})
    assert simulated.call_count == 0
    assert objective_calls == []
    assert accelerator._rng.bit_generator.state == before


def test_a_gradient_strategy_outside_the_declared_choices_raises_from_initialize(
    options_of, objective_calls
):
    accelerator = qcsim.get_accelerator("statevector", {"shots": 0})
    options = {**options_of("vqe", accelerator), "gradient-strategy": "sideways"}
    with pytest.raises(AlgorithmError, match="gradient-strategy 'sideways': choose from central"):
        qcsim.get_algorithm("vqe", options)
    assert objective_calls == []


@pytest.mark.parametrize("name", ["nelder-mead", "gradient-descent"])
def test_an_optimizer_refuses_undeclared_keys_before_the_objective(name, objective_calls):
    f = optim.ObjectiveFunction(lambda x, grad_out: float(np.dot(x, x)), 2)
    with pytest.raises(OptimizationError, match="optimizer takes no max-iter, tol; it declares"):
        qcsim.get_optimizer(name).optimize(f, {"max-iter": 2, "tol": 0.1})
    assert objective_calls == []


def test_an_undeclared_optimizer_key_set_after_get_optimizer_raises_before_the_objective(
    options_of, objective_calls
):
    accelerator = qcsim.get_accelerator("statevector", {"shots": 100, "seed": 5})
    before = accelerator._rng.bit_generator.state
    options = options_of("vqe", accelerator)
    options["optimizer"].options = {"max-iter": 2}
    with mock.patch.object(backend, "_zero_state") as simulated:
        with pytest.raises(OptimizationError, match="optimizer takes no max-iter"):
            qcsim.get_algorithm("vqe", options).execute(qcsim.qalloc(2))
    assert simulated.call_count == 0
    assert objective_calls == []
    assert accelerator._rng.bit_generator.state == before


def test_every_declared_optimizer_key_reaches_the_optimizer(h2, pair_rotation_ansatz):
    """VQE forwards exactly ``optim.OPTIMIZER_KINDS`` to its optimizer."""
    seen = []
    optimizer = qcsim.get_optimizer("nelder-mead")
    original = optimizer.optimize
    optimizer.optimize = lambda f, options: seen.append(dict(options)) or original(f, options)
    forwarded = {
        "max-iterations": 3,
        "tolerance": 1e-3,
        "initial-point": [0.1],
        "lower-bounds": [-1.0],
        "upper-bounds": [1.0],
    }
    assert set(forwarded) == set(optim.OPTIMIZER_KINDS)
    vqe = qcsim.get_algorithm(
        "vqe",
        {
            "ansatz": pair_rotation_ansatz,
            "optimizer": optimizer,
            "observable": h2,
            "accelerator": qcsim.get_accelerator("statevector", {"shots": 0}),
            **forwarded,
        },
    )
    vqe.execute(qcsim.qalloc(2))
    assert seen == [forwarded]
