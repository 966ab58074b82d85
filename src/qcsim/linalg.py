"""Small dense complex linear-algebra kernel.

Backed by numpy's LAPACK bindings behind the contracts the rest of the
framework relies on: ridge-regularized least squares (QITE, QCMX), the
indefinite generalized eigenproblem of a response pencil (QEOM), and
polynomial root finding (QCMX).
"""
from __future__ import annotations

import numpy as np

HERMITIAN_INPUT_TOLERANCE = 1e-10


def _as_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _require_hermitian(m: np.ndarray, label: str) -> None:
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m - m.conj().T).max(initial=0.0) > HERMITIAN_INPUT_TOLERANCE * scale:
        raise ValueError(f"{label} is not Hermitian within tolerance")


def solve_regularized_lsq(a: np.ndarray, b: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Minimize ||a x - b||^2 + ridge ||x||^2.

    ridge > 0 solves the normal equations directly; ridge == 0 falls back
    to the minimum-norm least-squares solution so rank-deficient systems
    stay well defined.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: a is {a.shape}, b has {b.shape[0]} rows")
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    if ridge == 0.0:
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        return x
    ata = a.conj().T @ a + ridge * np.eye(a.shape[1])
    return np.linalg.solve(ata, a.conj().T @ b)


def indefinite_generalized_eig(
    a: np.ndarray, b: np.ndarray, threshold: float = 1e-10
) -> tuple[np.ndarray, int]:
    """Real eigenvalues of A x = E B x for Hermitian A and *indefinite*
    Hermitian B (response-type pencils with a +/- metric signature).

    B is eigendecomposed, directions with |eigenvalue| <= threshold are
    projected out, the rest are scaled to a pure sign metric, and the
    resulting similarity problem is solved densely.  Returns the sorted
    real parts and the numerical rank of B.
    """
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    _require_hermitian(a, "pencil matrix")
    _require_hermitian(b, "metric matrix")
    b_values, b_vectors = np.linalg.eigh(b)
    keep = np.abs(b_values) > threshold
    rank = int(keep.sum())
    if rank == 0:
        return np.array([]), 0
    basis = b_vectors[:, keep] / np.sqrt(np.abs(b_values[keep]))
    signs = np.sign(b_values[keep])
    reduced = basis.conj().T @ a @ basis
    reduced = 0.5 * (reduced + reduced.conj().T)
    roots = np.linalg.eig(np.diag(signs) @ reduced)[0]
    return np.sort(roots.real), rank


def poly_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of sum_k coeffs[k] x^k (ascending-power coefficients).

    Companion-matrix eigenvalues refined by a few Newton steps so the
    residual bound |P(root)| <= 1e-8 ||coeffs|| holds with margin.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size < 2:
        raise ValueError("need at least a degree-1 polynomial")
    if coeffs[-1] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    if coeffs.size - 1 > 16:
        raise ValueError("polynomial degree capped at 16")
    descending = coeffs[::-1]
    derivative = np.polyder(descending)
    roots = np.roots(descending)
    for _ in range(3):
        slope = np.polyval(derivative, roots)
        safe = np.abs(slope) > 1e-30
        update = np.zeros_like(roots)
        update[safe] = np.polyval(descending, roots[safe]) / slope[safe]
        roots = roots - update
    return roots
