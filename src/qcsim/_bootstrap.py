"""Compile-time service registration, run once at package import.

Stands in for a plugin loader: every built-in implementation registers
itself here behind the same (kind, name) lookup used by the public API.
"""
from __future__ import annotations

from . import optim as _optim
from .algorithms import QCMX, QEOM, QITE, VQE, AdaptVQE
from .backend import StatevectorAccelerator
from .kernel import parse_kernel
from .registry import ServiceKind, register_service


class XasmCompiler:
    """Kernel-source compiler service."""

    def name(self) -> str:
        return "xasm"

    def compile(self, source: str):
        return parse_kernel(source)


_done = False


def initialize() -> None:
    """Register every built-in service; safe to call more than once."""
    global _done
    if _done:
        return
    register_service(ServiceKind.ACCELERATOR, "statevector", StatevectorAccelerator)
    register_service(ServiceKind.OPTIMIZER, "nelder-mead", _optim.NelderMead)
    register_service(ServiceKind.OPTIMIZER, "gradient-descent", _optim.GradientDescent)
    register_service(ServiceKind.ALGORITHM, "vqe", VQE)
    register_service(ServiceKind.ALGORITHM, "adapt", AdaptVQE)
    register_service(ServiceKind.ALGORITHM, "qite", QITE)
    register_service(ServiceKind.ALGORITHM, "qcmx", QCMX)
    register_service(ServiceKind.ALGORITHM, "qeom", QEOM)
    register_service(ServiceKind.COMPILER, "xasm", XasmCompiler)
    _done = True
