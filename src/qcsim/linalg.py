"""Small dense linear-algebra kernel.

Backed by numpy's LAPACK bindings behind the contracts the rest of the
framework relies on: the spectral solve of a Gram system (QITE),
minimum-norm least squares (QCMX), the indefinite generalized
eigenproblem of a response pencil (QEOM), and polynomial root finding
(QCMX).

Neither ``solve_gram`` nor ``indefinite_generalized_eig`` takes a tuned
cut.  By Weyl's inequality ``eigh`` of an n x n matrix moves each
eigenvalue by up to about n eps times the largest |eigenvalue|, so no
eigenvalue below that can be told apart from zero, and the truncated
pseudo-inverse (Hansen, BIT 27, 534 (1987)) drops those directions: the
metric B of a response pencil loses each |lambda| at or below
n eps max|lambda|.  A Gram matrix is positive semidefinite in exact
arithmetic, so a negative eigenvalue is rounding or shot noise as well,
and ``solve_gram`` drops every eigenvalue at or below
max(n eps lambda_max, -lambda_min).
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


def solve_gram(s: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """x = sum of v (v^T b) / lambda over the eigenpairs of S with lambda
    above max(n eps lambda_max, -lambda_min), and the number kept.

    S must equal its transpose bit for bit, as a Gram matrix built from one
    value per pair does: ``eigh`` would silently read only one triangle.
    """
    s = np.asarray(s, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: S is {s.shape}, b has {b.shape[0]} rows")
    if not np.array_equal(s, s.T):
        raise ValueError("Gram matrix is not symmetric")
    values, vectors = np.linalg.eigh(s)
    rounding = values.size * np.finfo(float).eps * values.max(initial=0.0)
    noise = max(rounding, -values.min(initial=0.0))
    keep = values > noise
    kept = vectors[:, keep]
    return kept @ ((kept.T @ b) / values[keep]), int(keep.sum())


def solve_min_norm_lsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minimum-norm x minimizing ||a x - b||, so rank-deficient systems
    stay well defined."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: a is {a.shape}, b has {b.shape[0]} rows")
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return x


def indefinite_generalized_eig(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real eigenvalues of A x = E B x for Hermitian A and *indefinite*
    Hermitian B (response-type pencils with a +/- metric signature).

    B is eigendecomposed, directions with |lambda| at or below
    n eps max|lambda| (B's rounding floor) are projected out, the rest are
    scaled to a pure sign metric, and the resulting similarity problem is
    solved densely.  Returns the sorted real parts and the kept |lambda| of
    B, whose size is B's numerical rank.
    """
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    _require_hermitian(a, "pencil matrix")
    _require_hermitian(b, "metric matrix")
    b_values, b_vectors = np.linalg.eigh(b)
    magnitudes = np.abs(b_values)
    keep = magnitudes > magnitudes.size * np.finfo(float).eps * magnitudes.max(initial=0.0)
    kept = magnitudes[keep]
    basis = b_vectors[:, keep] / np.sqrt(kept)
    signs = np.sign(b_values[keep])
    reduced = basis.conj().T @ a @ basis
    reduced = 0.5 * (reduced + reduced.conj().T)
    roots = np.linalg.eig(np.diag(signs) @ reduced)[0]
    return np.sort(roots.real), kept


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
