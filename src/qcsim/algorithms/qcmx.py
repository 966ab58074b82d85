"""Ground-state estimates from Hamiltonian moments <H^k>.

Raw moments up to order 2K-1 are measured at the prepared state and
turned into connected moments; three expansion families then produce an
energy estimate at every order 2..K:

  "cmx"     - connected-moments expansion (nested-determinant recursion)
  "pds"     - moment linear system -> monic polynomial -> lowest real root
  "knowles" - generalized Pade form I_1 - b^T A^-1 b over connected moments

At an exact eigenstate every connected moment beyond I_1 vanishes and all
three families collapse to <H>.
"""
from __future__ import annotations

from math import comb

import numpy as np

from ..backend import AcceleratorBuffer
from ..errors import AlgorithmError
from ..linalg import poly_roots, solve_min_norm_lsq
from .base import STATE_KINDS, Algorithm

COLLAPSE_TOLERANCE = 1e-9
_REAL_ROOT_TOLERANCE = 1e-7


def connected_moments(raw: list[float]) -> list[float]:
    """I_k from raw moments M_k (both lists 0-indexed at k=1)."""
    connected: list[float] = []
    for n in range(len(raw)):
        value = raw[n]
        for k in range(n):
            value -= comb(n, k) * connected[k] * raw[n - 1 - k]
        connected.append(value)
    return connected


def _is_eigenstate(connected: list[float]) -> bool:
    scale = max(1.0, abs(connected[0]) ** 2)
    return abs(connected[1]) <= COLLAPSE_TOLERANCE * scale


def cmx_energy(connected: list[float], order: int) -> float:
    """Connected-moments expansion of the given order (uses I_1..I_{2K-1})."""
    if _is_eigenstate(connected):
        return connected[0]
    energy = connected[0]
    row = connected[1 : 2 * order - 1]
    denominator_acc = 1.0
    scale = max(abs(v) for v in connected[: 2 * order - 1])
    for _ in range(order - 1):
        if abs(row[1] * denominator_acc) < 1e-14 * scale:
            break
        energy -= row[0] ** 2 / (row[1] * denominator_acc)
        denominator_acc *= row[1] ** 2
        row = [
            row[i] * row[i + 2] - row[i + 1] ** 2 for i in range(len(row) - 2)
        ]
        if len(row) < 2:
            break
    return energy


def knowles_energy(connected: list[float], order: int) -> float:
    """Generalized Pade estimate I_1 - b^T A^-1 b.

    b = (I_2 .. I_K), A_ij = I_{i+j+1} (1-based, so A_11 = I_3);
    rank-deficient A is handled with the minimum-norm solve.  At order 2
    this is I_1 - I_2^2 / I_3, the same as CMX(2).
    """
    if _is_eigenstate(connected):
        return connected[0]
    k = order
    b = np.array([connected[i] for i in range(1, k)])
    a = np.array([[connected[i + j + 2] for j in range(k - 1)] for i in range(k - 1)])
    x = solve_min_norm_lsq(a, b)
    return float(connected[0] - np.real(np.dot(b, x)))


def pds_energy(raw: list[float], order: int) -> float:
    """Lowest real root of the monic polynomial from the moment system.

    Solves M a = Y with M_ij = <H^(2K-i-j)>, Y_i = -<H^(2K-i)> (K = order,
    <H^0> = 1) and returns the minimum real root of
    E^K + a_1 E^(K-1) + ... + a_K.
    """
    k = order

    def moment(power: int) -> float:
        return 1.0 if power == 0 else raw[power - 1]

    matrix = np.array(
        [[moment(2 * k - i - j) for j in range(1, k + 1)] for i in range(1, k + 1)]
    )
    rhs = np.array([-moment(2 * k - i) for i in range(1, k + 1)])
    coeffs = np.real(solve_min_norm_lsq(matrix, rhs))
    # ascending-power coefficients of E^k + a_1 E^(k-1) + ... + a_k
    ascending = list(coeffs[::-1]) + [1.0]
    roots = poly_roots(np.array(ascending))
    real_roots = [
        float(r.real)
        for r in roots
        if abs(r.imag) <= _REAL_ROOT_TOLERANCE * max(1.0, abs(r))
    ]
    if not real_roots:
        raise AlgorithmError(f"PDS order {order}: no real root found")
    return min(real_roots)


class QCMX(Algorithm):
    algorithm_name = "qcmx"
    option_kinds = {**STATE_KINDS, "ansatz": "composite", "cmx-order": "int"}
    required_keys = ("ansatz", "accelerator", "observable", "cmx-order")

    def _validate(self):
        order = self.options.get_int("cmx-order")
        if order < 2:
            raise AlgorithmError("cmx-order must be >= 2")
        if order > 16:
            raise AlgorithmError("cmx-order capped at 16 (polynomial root bound)")
        if not self.options.get_composite("ansatz").is_concrete:
            raise AlgorithmError("qcmx needs a concrete ansatz")

    def _execute(self, buffer: AcceleratorBuffer) -> None:
        observable = self.options.get_observable("observable")
        accelerator = self.options.get_accelerator("accelerator")
        ansatz = self.options.get_composite("ansatz")
        order = self.options.get_int("cmx-order")
        if not observable.is_hermitian():
            raise AlgorithmError("qcmx needs a Hermitian observable")

        n = max(observable.n_qubits(), ansatz.max_qubit() + 1, 1)
        raw = accelerator.prepare(ansatz, n).moments(observable, 2 * order - 1)
        connected = connected_moments(raw)

        cmx, pds, knowles = [], [], []
        for m in range(2, order + 1):
            cmx.append(cmx_energy(connected, m))
            pds.append(pds_energy(raw, m))
            knowles.append(knowles_energy(connected, m))

        buffer.metadata.insert("raw-moments", raw)
        buffer.metadata.insert("connected-moments", connected)
        buffer.metadata.insert("cmx-energies", cmx)
        buffer.metadata.insert("pds-energies", pds)
        buffer.metadata.insert("knowles-energies", knowles)
