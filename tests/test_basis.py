import numpy as np
import pytest

import funcuq as fq
from funcuq.basis import BSPLINE, FOURIER, BasisSystem


def dense_quadrature(values_fn, n_b, n_pts=10001):
    t = np.linspace(0.0, 1.0, n_pts)
    V = values_fn(t)
    return np.trapezoid(V[:, :, None] * V[:, None, :], t, axis=0)


def test_fourier_at_zero():
    sys = BasisSystem(FOURIER, 5, 0.0, 1.0)
    vals = sys.evaluate(0.0)[0]
    assert np.allclose(vals, [1.0, 0.0, np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-14)


def test_fourier_quarter_period():
    sys = BasisSystem(FOURIER, 5, 0.0, 1.0)
    vals = sys.evaluate(0.25)[0]
    expected = [1.0, np.sqrt(2), 0.0, 0.0, -np.sqrt(2)]
    assert np.allclose(vals, expected, atol=1e-13)


def test_fourier_scaling_general_interval():
    T = 2.5
    sys = BasisSystem(FOURIER, 7, 1.0, 1.0 + T)
    vals = sys.evaluate(1.0)[0]
    assert vals[0] == pytest.approx(1.0 / np.sqrt(T), abs=1e-14)


def test_fourier_validation():
    with pytest.raises(ValueError):
        BasisSystem(FOURIER, 4, 0.0, 1.0)
    with pytest.raises(ValueError):
        BasisSystem(FOURIER, 1, 0.0, 1.0)


def test_bspline_partition_of_unity():
    sys = BasisSystem(BSPLINE, 9, 0.0, 1.0)
    for t in np.linspace(0.0, 1.0, 23):
        vals = sys.evaluate(t)[0]
        assert vals.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(vals >= -1e-14) and np.all(vals <= 1.0 + 1e-14)


def test_bspline_validation():
    with pytest.raises(ValueError):
        BasisSystem(BSPLINE, 3, 0.0, 1.0)
    with pytest.raises(ValueError):
        BasisSystem(BSPLINE, 8, 0.0, 1.0, order=3)


def test_eval_outside_interval_errors():
    sys = BasisSystem(FOURIER, 3, 0.0, 1.0)
    with pytest.raises(ValueError):
        sys.evaluate(1.5)
    with pytest.raises(ValueError):
        BasisSystem(BSPLINE, 8, 0.0, 1.0).evaluate(-0.1)


def test_fourier_d2_analytic():
    sys = BasisSystem(FOURIER, 7, 0.0, 2.0)
    omega = np.pi  # 2 pi / T with T = 2
    for t in (0.0, 0.3, 1.7, 2.0):
        vals = sys.evaluate(t)[0]
        d2 = sys.evaluate_d2(t)[0]
        assert d2[0] == 0.0
        for k in (1, 2, 3):
            w2 = (k * omega) ** 2
            assert d2[2 * k - 1] == pytest.approx(-w2 * vals[2 * k - 1], rel=1e-12)
            assert d2[2 * k] == pytest.approx(-w2 * vals[2 * k], rel=1e-12)


def test_bspline_d2_finite_difference():
    sys = BasisSystem(BSPLINE, 10, 0.0, 1.0)
    h = 1e-4
    for t in np.linspace(0.08, 0.92, 20):
        d2 = sys.evaluate_d2(t)[0]
        fd = (
            sys.evaluate(t - h)[0] - 2 * sys.evaluate(t)[0] + sys.evaluate(t + h)[0]
        ) / h**2
        scale = np.abs(d2).max()
        assert np.abs(d2 - fd).max() <= 1e-5 * scale


def test_design_matrix_rows_match_eval():
    grid = fq.TimeGrid(0.0, 1.0, 17)
    for sys in (BasisSystem(FOURIER, 5, 0.0, 1.0), BasisSystem(BSPLINE, 8, 0.0, 1.0)):
        H = fq.design_matrix(sys, grid)
        for i, t in enumerate(grid.nodes):
            assert np.array_equal(H[i], sys.evaluate(t)[0])


def test_design_matrix_bspline_row_sums():
    H = fq.design_matrix(BasisSystem(BSPLINE, 12, 0.0, 2.0), fq.TimeGrid(0.0, 2.0, 31))
    assert np.allclose(H.sum(axis=1), 1.0, atol=1e-12)


def test_fourier_design_trapezoid_consistency():
    # (1/n_t) H'H approximates (1/T) W for a fine grid; the uniform sum
    # differs from the trapezoid rule only through the endpoint weights.
    grid = fq.TimeGrid(0.0, 2.0, 401)
    sys = BasisSystem(FOURIER, 201, 0.0, 2.0)
    H = fq.design_matrix(sys, grid)
    W = fq.gram_matrix(sys)
    diff = np.abs(H.T @ H / grid.n_t - W / sys.span).max()
    assert diff < 2.0 / grid.n_t


def test_roughness_fourier_closed_form():
    sys = BasisSystem(FOURIER, 5, 0.0, 1.0)
    R = fq.roughness_matrix(sys)
    assert np.all(R[0] == 0.0) and np.all(R[:, 0] == 0.0)
    assert R[1, 1] == pytest.approx((2 * np.pi) ** 4, rel=1e-12)
    assert R[2, 2] == pytest.approx((2 * np.pi) ** 4, rel=1e-12)
    assert R[3, 3] == pytest.approx((4 * np.pi) ** 4, rel=1e-12)
    assert np.abs(R - np.diag(np.diag(R))).max() == 0.0


def test_roughness_fourier_matches_quadrature():
    sys = BasisSystem(FOURIER, 7, 0.0, 1.0)
    R = fq.roughness_matrix(sys)
    R_dense = dense_quadrature(sys.evaluate_d2, 7, 20001)
    assert np.abs(R - R_dense).max() <= 1e-6 * np.abs(R).max()


def test_roughness_bspline_matches_dense_quadrature():
    sys = BasisSystem(BSPLINE, 10, 0.0, 1.0)
    R = fq.roughness_matrix(sys)
    R_dense = dense_quadrature(sys.evaluate_d2, 10)
    assert np.abs(R - R_dense).max() <= 1e-6 * np.abs(R).max()
    assert np.abs(R - R.T).max() <= 1e-10 * np.abs(R).max()
    eigvals = np.linalg.eigvalsh(R)
    assert eigvals.min() >= -1e-8 * eigvals.max()
    for i in range(10):
        for j in range(10):
            if abs(i - j) >= sys.order:
                assert R[i, j] == 0.0


def test_gram_fourier_identity():
    for n_b in (3, 9, 21):
        W = fq.gram_matrix(BasisSystem(FOURIER, n_b, 0.0, 2.0))
        assert np.abs(W - np.eye(n_b)).max() <= 1e-10


def test_gram_bspline_banded_spd():
    sys = BasisSystem(BSPLINE, 12, 0.0, 1.0)
    W = fq.gram_matrix(sys)
    assert np.abs(W - W.T).max() <= 1e-14
    band = 2 * sys.order - 1
    for i in range(12):
        for j in range(12):
            if abs(i - j) >= sys.order:
                assert W[i, j] == pytest.approx(0.0, abs=1e-15)
            elif abs(i - j) < sys.order:
                assert W[i, j] >= 0.0
    assert np.abs(W - np.triu(np.tril(W, band // 2), -(band // 2))).max() == 0.0
    rng = fq.make_rng(3)
    for _ in range(100):
        x = rng.normal(size=12)
        assert x @ W @ x > 0.0


def test_gram_bspline_matches_dense_quadrature():
    sys = BasisSystem(BSPLINE, 8, 0.0, 1.0)
    W = fq.gram_matrix(sys)
    W_dense = dense_quadrature(sys.evaluate, 8)
    assert np.abs(W - W_dense).max() <= 1e-6 * np.abs(W).max()


def test_matrices_deterministic():
    a = BasisSystem(BSPLINE, 9, 0.0, 2.0)
    b = BasisSystem(BSPLINE, 9, 0.0, 2.0)
    assert np.array_equal(fq.gram_matrix(a), fq.gram_matrix(b))
    assert np.array_equal(fq.roughness_matrix(a), fq.roughness_matrix(b))
    grid = fq.TimeGrid(0.0, 2.0, 21)
    assert np.array_equal(fq.design_matrix(a, grid), fq.design_matrix(b, grid))
