import numpy as np
import pytest

from qcsim.linalg import indefinite_generalized_eig, poly_roots, solve_gram, solve_min_norm_lsq


class TestMinNormLsq:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(solve_min_norm_lsq(np.eye(3), b), b)

    def test_random_well_conditioned_residual(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 3)) + np.eye(3) * 3
        b = rng.normal(size=3)
        x = solve_min_norm_lsq(a, b)
        assert np.linalg.norm(a @ x - b) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_min_norm_lsq(np.eye(3), np.ones(2))


class TestSolveGram:
    def test_full_rank_spd_system_agrees_with_solve(self):
        rng = np.random.default_rng(10)
        for n in (1, 4, 30):
            m = rng.normal(size=(n, n))
            s = m @ m.T + n * np.eye(n)
            b = rng.normal(size=n)
            x, rank = solve_gram(s, b)
            reference = np.linalg.solve(s, b)
            assert rank == n
            assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_rank_deficient_gram_matrix_gives_the_minimum_norm_solution(self):
        """S = V V^T of 12 vectors of length 5 has rank 5; x solves the
        normal equations on range(S) and has no part in its null space."""
        rng = np.random.default_rng(11)
        vectors = rng.normal(size=(12, 5))
        s = vectors @ vectors.T
        b = rng.normal(size=12)
        x, rank = solve_gram(s, b)
        assert rank == np.linalg.matrix_rank(s) == 5
        assert np.abs(x - np.linalg.pinv(s, hermitian=True) @ b).max() <= 1e-10
        null = np.linalg.svd(vectors.T)[2][5:]
        assert np.abs(null @ x).max() <= 1e-12 * np.linalg.norm(x)
        assert np.abs(s @ (s @ x) - s @ b).max() <= 1e-10 * np.linalg.norm(s @ b)

    def test_noise_below_the_most_negative_eigenvalue_is_cut(self):
        s = np.diag([2.0, 1e-9, 0.0, -1e-8])
        x, rank = solve_gram(s, np.ones(4))
        assert rank == 1
        assert np.abs(x - [0.5, 0.0, 0.0, 0.0]).max() <= 1e-15

    def test_zero_matrix_gives_zero_at_rank_zero(self):
        x, rank = solve_gram(np.zeros((3, 3)), np.ones(3))
        assert rank == 0
        assert np.array_equal(x, np.zeros(3))

    @pytest.mark.parametrize(
        "s, b",
        [
            (np.ones((3, 2)), np.ones(3)),
            (np.ones(3), np.ones(3)),
            (np.eye(3), np.ones(2)),
            (np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones(2)),
        ],
        ids=["non-square", "vector", "mismatched", "non-symmetric"],
    )
    def test_bad_input_raises(self, s, b):
        with pytest.raises(ValueError):
            solve_gram(s, b)


class TestIndefiniteGeneralizedEig:
    def test_sign_metric(self):
        a = np.diag([3.0, 5.0])
        b = np.diag([1.0, -1.0])
        values, kept = indefinite_generalized_eig(a, b)
        assert kept.size == 2
        assert np.allclose(values, [-5.0, 3.0])

    def test_projects_null_directions(self):
        a = np.diag([3.0, 5.0, 7.0])
        b = np.diag([1.0, -1.0, 0.0])
        values, kept = indefinite_generalized_eig(a, b)
        assert kept.size == 2 and len(values) == 2

    def test_returns_the_kept_magnitudes_of_the_metric(self):
        """|lambda| of B above its rounding floor, 4 eps 2 here, in the
        ascending order of lambda: 1e-11 is kept and 1e-16 dropped."""
        a = np.diag([3.0, 5.0, 7.0, 11.0])
        values, kept = indefinite_generalized_eig(a, np.diag([2.0, -0.5, 1e-11, 1e-16]))
        assert kept.tolist() == [0.5, 1e-11, 2.0]
        assert np.allclose(values, [-10.0, 1.5, 7e11])

    def test_a_zero_metric_keeps_nothing(self):
        values, kept = indefinite_generalized_eig(np.eye(2), np.zeros((2, 2)))
        assert values.size == 0 and kept.size == 0

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_the_cut_follows_the_scale_of_the_metric(self, scale):
        """c B keeps the directions B keeps, with c |lambda|, and its roots
        are those of B over c: an exact null is dropped at every c."""
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        q, _ = np.linalg.qr(m)
        metric = q @ np.diag([2.0, -1.0, 0.5, -0.25, 1e-6, 0.0]) @ q.conj().T
        metric = 0.5 * (metric + metric.conj().T)
        a = rng.normal(size=(6, 6))
        a = a + a.T
        values, kept = indefinite_generalized_eig(a, metric)
        scaled_values, scaled_kept = indefinite_generalized_eig(a, scale * metric)
        assert kept.size == scaled_kept.size == 5
        assert np.allclose(scaled_kept, scale * kept, rtol=1e-9, atol=0.0)
        assert np.allclose(scale * scaled_values, values, rtol=1e-9, atol=0.0)

    def test_positive_definite_metric_gives_the_hermitian_spectrum(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 5))
        m = a + a.T
        values, kept = indefinite_generalized_eig(m, np.eye(5))
        assert kept.size == 5
        assert np.allclose(values, np.linalg.eigvalsh(m), atol=1e-10)
        s = a @ a.T + np.eye(5)
        values, _ = indefinite_generalized_eig(2.0 * s, s)
        assert np.allclose(values, 2.0, atol=1e-10)

    def test_non_hermitian_input_rejected(self):
        with pytest.raises(ValueError):
            indefinite_generalized_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
        with pytest.raises(ValueError):
            indefinite_generalized_eig(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPolyRoots:
    def test_quadratic(self):
        roots = sorted(poly_roots(np.array([-1.0, 0.0, 1.0])).real)
        assert np.allclose(roots, [-1.0, 1.0])

    def test_linear(self):
        assert poly_roots(np.array([-3.0, 1.0]))[0] == pytest.approx(3.0)

    def test_random_cubic_recovers_roots(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            chosen = np.sort(rng.normal(size=3))
            coeffs = np.poly(chosen)[::-1]  # ascending
            got = np.sort(poly_roots(coeffs).real)
            assert np.allclose(got, chosen, atol=1e-8)

    def test_residual_bound_property(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            degree = int(rng.integers(1, 9))
            coeffs = rng.normal(size=degree + 1)
            if abs(coeffs[-1]) < 0.1:
                coeffs[-1] = 1.0
            roots = poly_roots(coeffs)
            norm = np.linalg.norm(coeffs)
            for root in roots:
                value = sum(c * root**k for k, c in enumerate(coeffs))
                assert abs(value) <= 1e-8 * norm * max(1.0, abs(root) ** degree)

    def test_zero_leading_coefficient(self):
        with pytest.raises(ValueError):
            poly_roots(np.array([1.0, 2.0, 0.0]))

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            poly_roots(np.ones(18))
