"""In-process service registry and the heterogeneous options map.

Every pluggable piece of the framework (accelerators, optimizers,
algorithms and the kernel compiler) is registered under a
(ServiceKind, name) key and retrieved by name through a public getter.
Registration happens once at import time; lookups construct a fresh
instance on every call.
"""
from __future__ import annotations

import threading
from enum import Enum
from typing import Any, Callable

from .errors import DuplicateServiceError, HetMapTypeError, ServiceNotFoundError


class ServiceKind(Enum):
    ACCELERATOR = "accelerator"
    OPTIMIZER = "optimizer"
    ALGORITHM = "algorithm"
    COMPILER = "compiler"


# Closed set of value kinds a HeterogeneousMap may hold.  Reference kinds
# ("observable", "composite", ...) are identified structurally via duck
# typing so the map does not import the heavy modules.
_SCALAR_KINDS = ("bool", "int", "real", "string")
_LIST_KINDS = ("int-list", "real-list", "string-list")
_REF_KINDS = ("observable", "composite", "optimizer", "accelerator")


def _infer_kind(value: Any) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "real"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if items and all(isinstance(v, bool) for v in items):
            raise HetMapTypeError("lists of booleans are not a supported kind")
        if all(isinstance(v, int) for v in items):
            return "int-list"
        if all(isinstance(v, (int, float)) for v in items):
            return "real-list"
        if all(isinstance(v, str) for v in items):
            return "string-list"
        raise HetMapTypeError(f"unsupported list content: {value!r}")
    # structural checks for framework references
    if hasattr(value, "terms") and hasattr(value, "is_hermitian"):
        return "observable"
    if hasattr(value, "children") and hasattr(value, "variables"):
        return "composite"
    if hasattr(value, "optimize"):
        return "optimizer"
    if hasattr(value, "execute") and hasattr(value, "initialize"):
        return "accelerator"
    raise HetMapTypeError(f"value of type {type(value).__name__} has no supported kind")


class HeterogeneousMap:
    """String-keyed map of mixed-type values used for options plumbing.

    Reading a key with a mismatched kind raises :class:`HetMapTypeError`
    instead of coercing.  Inserting an existing key replaces the value.
    """

    def __init__(self, entries: dict[str, Any] | None = None, **kwargs: Any):
        self._entries: dict[str, tuple[str, Any]] = {}
        for source in (entries or {}), kwargs:
            for key, value in source.items():
                self.insert(key, value)

    def insert(self, key: str, value: Any) -> None:
        if isinstance(value, HeterogeneousMap):
            raise HetMapTypeError("nested HeterogeneousMap values are not supported")
        self._entries[key] = (_infer_kind(value), value)

    def contains(self, key: str) -> bool:
        return key in self._entries

    __contains__ = contains

    def kind_of(self, key: str) -> str:
        self._require(key)
        return self._entries[key][0]

    def get(self, key: str, kind: str) -> Any:
        self._require(key)
        stored_kind, value = self._entries[key]
        if stored_kind in _LIST_KINDS and kind in _LIST_KINDS and not value:
            # an empty list, stored as an int-list, is every list kind
            return []
        if stored_kind != kind:
            # ints are acceptable where reals are requested; everything
            # else is a hard mismatch
            if kind == "real" and stored_kind == "int":
                return float(value)
            if kind == "real-list" and stored_kind == "int-list":
                return [float(v) for v in value]
            raise HetMapTypeError(
                f"key '{key}' holds kind '{stored_kind}', requested '{kind}'"
            )
        if stored_kind in _LIST_KINDS:
            return list(value)
        return value

    def get_bool(self, key: str) -> bool:
        return self.get(key, "bool")

    def get_int(self, key: str) -> int:
        return self.get(key, "int")

    def get_real(self, key: str) -> float:
        return self.get(key, "real")

    def get_string(self, key: str) -> str:
        return self.get(key, "string")

    def get_int_list(self, key: str) -> list[int]:
        return self.get(key, "int-list")

    def get_real_list(self, key: str) -> list[float]:
        return self.get(key, "real-list")

    def get_string_list(self, key: str) -> list[str]:
        return self.get(key, "string-list")

    def get_observable(self, key: str) -> Any:
        return self.get(key, "observable")

    def get_composite(self, key: str) -> Any:
        return self.get(key, "composite")

    def get_optimizer(self, key: str) -> Any:
        return self.get(key, "optimizer")

    def get_accelerator(self, key: str) -> Any:
        return self.get(key, "accelerator")

    def get_or(self, key: str, kind: str, default: Any) -> Any:
        if not self.contains(key):
            return default
        return self.get(key, kind)

    def read_declared(self, kinds: dict[str, Any], owner: str, error: type) -> None:
        """Raise ``error`` naming every key not in ``kinds``, then read each
        key at its declared kind: a map kind, or a tuple of the strings the
        key may hold."""
        undeclared = [key for key in self._entries if key not in kinds]
        if undeclared:
            raise error(f"{owner} takes no {', '.join(undeclared)}; it declares {', '.join(kinds)}")
        for key in self._entries:
            kind = kinds[key]
            value = self.get(key, "string" if isinstance(kind, tuple) else kind)
            if isinstance(kind, tuple) and value not in kind:
                raise error(f"{owner} {key} '{value}': choose from {', '.join(kind)}")

    def _require(self, key: str) -> None:
        if key not in self._entries:
            raise KeyError(f"no entry for key '{key}'")

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {kind}" for k, (kind, _) in self._entries.items())
        return f"HeterogeneousMap({inner})"


def as_het_map(options: "HeterogeneousMap | dict[str, Any] | None") -> HeterogeneousMap:
    """Accept plain dicts anywhere a HeterogeneousMap is expected."""
    if options is None:
        return HeterogeneousMap()
    if isinstance(options, HeterogeneousMap):
        return options
    return HeterogeneousMap(options)


_registry: dict[tuple[ServiceKind, str], Callable[[], Any]] = {}
_lock = threading.Lock()


def register_service(kind: ServiceKind, name: str, factory: Callable[[], Any]) -> None:
    """Register a factory for (kind, name); duplicates are rejected."""
    if not name:
        raise ValueError("service name must be non-empty")
    with _lock:
        key = (kind, name)
        if key in _registry:
            raise DuplicateServiceError(f"{kind.value} '{name}' is already registered")
        _registry[key] = factory


def get_service(kind: ServiceKind, name: str) -> Any:
    """Construct a fresh, uninitialized service instance."""
    try:
        factory = _registry[(kind, name)]
    except KeyError:
        available = ", ".join(list_services(kind)) or "<none>"
        raise ServiceNotFoundError(
            f"no {kind.value} named '{name}'; available: {available}"
        ) from None
    return factory()


def list_services(kind: ServiceKind) -> list[str]:
    return sorted(name for (k, name) in _registry if k == kind)
