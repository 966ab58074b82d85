"""qcsim: hybrid quantum-classical chemistry simulation framework.

A polymorphic circuit IR with a kernel-source parser, Pauli/fermion
operator algebra, a noiseless statevector accelerator, classical
optimizers with pluggable gradient strategies, and the VQE, ADAPT-VQE,
QITE, QCMX, and QEOM algorithms, all wired through an in-process service
registry.
"""
from __future__ import annotations

from . import _bootstrap
from .ansatz import (
    OperatorPool,
    UccsdSpec,
    build_pool,
    count_double_excitations,
    exp_pauli,
    hartree_fock_circuit,
    uccsd_circuit,
)
from .backend import (
    AcceleratorBuffer,
    AcceleratorConfig,
    StatevectorAccelerator,
    expectation,
    operator_expectation,
    qalloc,
    statevector,
)
from .errors import OptimizationError
from .fermion import FermionOperator, FermionTerm, jordan_wigner
from .ir import (
    CompositeInstruction,
    Instruction,
    Parameter,
    count_gates,
    create_composite,
    create_instruction,
    depth,
    evaluate,
    gate_matrix,
    pretty_print,
)
from .kernel import parse_kernel
from .optim import OPTIMIZER_KINDS, ObjectiveFunction, OptimizerResult
from .pauli import (
    PauliOperator,
    PauliTerm,
    commutator,
    expectation_from_counts,
    load_hamiltonian,
    observe,
    parse_hamiltonian,
    pauli_from_string,
    to_matrix,
)
from .registry import (
    HeterogeneousMap,
    ServiceKind,
    get_service,
    list_services,
    register_service,
)

__version__ = "0.1.0"

_bootstrap.initialize()


def get_accelerator(name: str, options=None) -> StatevectorAccelerator:
    accelerator = get_service(ServiceKind.ACCELERATOR, name)
    return accelerator.initialize(options)


def get_optimizer(name: str, options=None):
    optimizer = get_service(ServiceKind.OPTIMIZER, name)
    if options is not None:
        HeterogeneousMap(options).read_declared(OPTIMIZER_KINDS, name, OptimizationError)
        optimizer.options = dict(options)
    return optimizer


def get_algorithm(name: str, options=None):
    algorithm = get_service(ServiceKind.ALGORITHM, name)
    if options is not None:
        algorithm.initialize(options)
    return algorithm


def get_compiler(name: str):
    return get_service(ServiceKind.COMPILER, name)
