"""Common initialize/execute contract for algorithms."""
from __future__ import annotations

import math

from ..backend import AcceleratorBuffer
from ..errors import AlgorithmError
from ..registry import HeterogeneousMap, as_het_map

# the keys of the run's state, which every algorithm reads
STATE_KINDS = {"accelerator": "accelerator", "observable": "observable"}


class Algorithm:
    """Base class: a subclass declares ``option_kinds``, each key it reads
    (``STATE_KINDS`` and its own) mapped to its ``HeterogeneousMap`` kind or
    to the tuple of strings it may hold, and ``required_keys``, the subset it
    cannot run without, and implements ``_execute``.  ``initialize`` raises
    ``AlgorithmError`` naming any other key, and reads each given key at its
    declared kind, before ``_validate`` and any simulation."""

    algorithm_name = "algorithm"
    option_kinds: dict[str, "str | tuple[str, ...]"] = {}
    required_keys: tuple[str, ...] = ()

    def __init__(self):
        self.options = HeterogeneousMap()
        self._initialized = False

    def name(self) -> str:
        return self.algorithm_name

    def initialize(self, options: "HeterogeneousMap | dict") -> "Algorithm":
        options = as_het_map(options)
        options.read_declared(self.option_kinds, self.algorithm_name, AlgorithmError)
        missing = [key for key in self.required_keys if not options.contains(key)]
        if missing:
            raise AlgorithmError(
                f"{self.algorithm_name} is missing required option(s): "
                + ", ".join(missing)
            )
        self.options = options
        self._validate()
        self._initialized = True
        return self

    def _validate(self) -> None:
        """Optional extra option validation in subclasses."""

    def _check_real(self, key: str, positive: bool) -> None:
        """Raise unless the real option ``key``, when given, is finite and
        > 0 (``positive``) or >= 0; an absent one keeps its default."""
        if not self.options.contains(key):
            return
        value = self.options.get_real(key)
        if not math.isfinite(value) or value < 0 or (positive and value == 0):
            raise AlgorithmError(
                f"{self.algorithm_name} {key} must be finite and "
                f"{'> 0' if positive else '>= 0'}, got {value}"
            )

    def execute(self, buffer: AcceleratorBuffer) -> None:
        if not self._initialized:
            raise AlgorithmError(
                f"{self.algorithm_name} must be initialized before execute"
            )
        self._execute(buffer)

    def _execute(self, buffer: AcceleratorBuffer) -> None:
        raise NotImplementedError
