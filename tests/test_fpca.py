import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, solve_triangular

import funcuq as fq
from funcuq import fpca, smoothing
from funcuq.basis import FOURIER, BasisSystem
from funcuq.core import fit_nodes, mirror_rows
from funcuq.fpca import VARIANCE_TARGET, fit_reducer, select_m
from funcuq.smoothing import effective_nb, select_nb, select_tau


def project(red, curves):
    """Scores of curves by the penalized fit an unmirrored functional
    reducer was built with: B' W C, C the coefficients of the centered
    curves."""
    H = fq.design_matrix(red.basis, red.grid)
    C = fq.fit_coefficients(H, fq.roughness_matrix(red.basis), red.tau,
                            np.atleast_2d(curves) - red.mean_curve)
    B = np.asarray(red.B)
    return (B.T @ fq.gram_matrix(red.basis) @ C).T


def reconstruct(red, xi):
    """Curve of a score vector: the mean curve plus the latent functions
    times the scores."""
    return red.mean_curve + red.phi @ xi


def nrmse_curve(y, y_hat) -> float:
    """Range-normalized l2 error of one curve: ||y - y_hat|| / (max y - min y)."""
    span = np.max(y) - np.min(y)
    assert span > 0.0
    return float(np.linalg.norm(np.asarray(y) - y_hat) / span)


def make_ensemble(rng, n=40, n_b=7, grid=None, offset=0.3):
    """Curves lying exactly in the span of the first n_b Fourier functions."""
    grid = grid or fq.TimeGrid(0.0, 1.0, 101)
    sys = BasisSystem(FOURIER, n_b, grid.t0, grid.te)
    H = fq.design_matrix(sys, grid)
    coeffs = rng.normal(size=(n, n_b)) * np.linspace(2.0, 0.2, n_b)
    Y = coeffs @ H.T + offset
    return fq.ResponseEnsemble(rng.normal(size=(n, 2)), Y, grid), coeffs


def test_select_m_single_component():
    assert select_m([1.0, 0.0, 0.0]) == 1


def test_select_m_cumulative_arithmetic():
    assert select_m([10.0, 0.5, 0.3, 0.1, 0.1]) == 4


def test_select_m_validation():
    with pytest.raises(ValueError):
        select_m([0.0, 0.0])
    with pytest.raises(ValueError):
        select_m([1.0, 2.0])
    with pytest.raises(ValueError):
        select_m([1.0, -0.5])


def test_two_curve_antisymmetric_ensemble():
    grid = fq.TimeGrid(0.0, 1.0, 201)
    t = grid.nodes
    phi = np.sin(2 * np.pi * t) + 0.5 * np.cos(4 * np.pi * t)
    Y = np.vstack([phi, -phi])
    ens = fq.ResponseEnsemble(np.array([[0.0], [1.0]]), Y, grid)
    red, scores = fit_reducer(ens, kind="fourier", mirror=False,
                              tau_override=0.0, n_b0=5)
    assert red.m == 1
    assert np.all(red.eigenvalues[1:] <= 1e-12 * red.eigenvalues[0])
    # Quadrature oracle: score variance of the normalized mode.
    norm = np.sqrt(np.trapezoid(phi * phi, t))
    oracle_scores = np.array([np.trapezoid(c * phi / norm, t) for c in Y])
    lam_oracle = oracle_scores.var(ddof=1)
    assert red.eigenvalues[0] == pytest.approx(lam_oracle, rel=1e-8)


def test_identical_curves_give_m_zero():
    grid = fq.TimeGrid(0.0, 1.0, 51)
    Y = np.tile(np.sin(grid.nodes), (5, 1))
    ens = fq.ResponseEnsemble(np.zeros((5, 1)), Y, grid)
    red, scores = fit_reducer(ens, kind="bspline", n_b0=8)
    assert red.m == 0
    assert scores.shape == (5, 0)
    assert np.all(red.eigenvalues <= 1e-12 * np.abs(Y).max() ** 2)
    assert np.allclose(reconstruct(red, np.zeros(0)), Y[0], atol=1e-9)


def test_fourier_reduces_to_coefficient_pca():
    rng = fq.make_rng(21)
    ens, _ = make_ensemble(rng)
    red, scores = fit_reducer(ens, kind="fourier", mirror=False,
                              tau_override=0.0, n_b0=7)
    assert np.abs(fq.gram_matrix(red.basis) - np.eye(red.basis.n_b)).max() <= 1e-10
    # Rebuild C and run a plain PCA on it.
    H = fq.design_matrix(red.basis, ens.grid)
    C = np.linalg.solve(H.T @ H, H.T @ (ens.responses - red.mean_curve).T)
    lam_pca, U = np.linalg.eigh(C @ C.T / (ens.n - 1))
    lam_pca = lam_pca[::-1]
    assert np.allclose(red.eigenvalues[: red.m], lam_pca[: red.m], rtol=1e-8)
    pca_scores = (U[:, ::-1][:, : red.m].T @ C).T
    assert np.allclose(np.abs(scores), np.abs(pca_scores), atol=1e-8 * lam_pca[0] ** 0.5)


def test_eigenfunction_w_orthonormality():
    rng = fq.make_rng(22)
    grid = fq.TimeGrid(0.0, 2.0, 81)
    t = grid.nodes
    Y = (rng.normal(size=(30, 1)) * np.sin(np.pi * t)
         + rng.normal(size=(30, 1)) * t**2 + rng.normal(size=(30, 1)))
    ens = fq.ResponseEnsemble(rng.normal(size=(30, 3)), Y, grid)
    red, _ = fit_reducer(ens, kind="bspline", n_b0=8)
    B = np.asarray(red.B)
    gram = B.T @ fq.gram_matrix(red.basis) @ B
    assert np.abs(gram - np.eye(red.m)).max() <= 1e-8


def test_eigenvalue_trace_identity():
    # The spectrum sums to the covariance's trace tr(C' W C) / (N-1).
    rng = fq.make_rng(23)
    ens, _ = make_ensemble(rng)
    for kind, n_b in (("fourier", 7), ("bspline", 12)):
        red, _ = fit_reducer(ens, kind=kind, mirror=False, tau_override=0.0, nb_override=n_b)
        H = fq.design_matrix(red.basis, ens.grid)
        C = np.linalg.solve(H.T @ H, H.T @ (ens.responses - red.mean_curve).T)
        trace = np.trace(C.T @ fq.gram_matrix(red.basis) @ C) / (ens.n - 1)
        assert red.eigenvalues.sum() == pytest.approx(trace, rel=1e-10)


def w_half_eigenpairs(W, C, n):
    """The eigenequation (N-1)^-1 W^(1/2) C C' W^(1/2) u = lambda u written
    out: the descending eigenvalues and the coordinates W^(-1/2) u."""
    vals, vecs = eigh(W)
    root = np.sqrt(vals)
    G = ((vecs * root) @ vecs.T) @ C
    lam, U = eigh(G @ G.T / (n - 1))
    return lam[::-1], ((vecs / root) @ vecs.T) @ U[:, ::-1]


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["bspline", "fourier"]),
    mirror=st.booleans(),
    n=st.integers(3, 30),
    n_b=st.integers(4, 40),
    tau=st.one_of(st.just(0.0), st.floats(1e-10, 1e-3)),
)
def test_reducer_solves_the_w_half_eigenequation(seed, kind, mirror, n, n_b, tau):
    rng = fq.make_rng(seed)
    grid = fq.TimeGrid(0.0, 1.0, 61)
    t = grid.nodes
    shapes = np.array([np.sin((k + 1) * np.pi * t) + t**k for k in range(6)])
    Y = (rng.normal(size=(n, 6)) * 0.5 ** np.arange(6)) @ shapes + rng.normal()
    ens = fq.ResponseEnsemble(rng.normal(size=(n, 2)), Y, grid)
    red, _ = fit_reducer(ens, kind=kind, mirror=mirror, nb_override=n_b, tau_override=tau)
    nodes, _ = fit_nodes(grid, mirror)
    Y_fit = mirror_rows(Y) if mirror else Y
    H = fq.design_matrix(red.basis, nodes)
    C = fq.fit_coefficients(H, fq.roughness_matrix(red.basis), tau, Y_fit - Y_fit.mean(axis=0))
    W = fq.gram_matrix(red.basis)
    lam_ref, B_ref = w_half_eigenpairs(W, C, n)
    scale = lam_ref[0]
    # min(N, n_b) eigenvalues; the rest are zero by rank.
    k = min(n, red.basis.n_b)
    assert red.eigenvalues.shape == (k,)
    assert np.abs(red.eigenvalues - lam_ref[:k]).max() <= 1e-10 * scale
    assert np.abs(lam_ref[k:]).max(initial=0.0) <= 1e-10 * scale
    B = np.asarray(red.B)
    assert np.abs(B.T @ W @ B - np.eye(red.m)).max() <= 1e-12
    m_ref = select_m(np.clip(lam_ref, 0.0, None))
    fractions = np.cumsum(lam_ref) / lam_ref.sum()
    if np.abs(fractions - VARIANCE_TARGET).min() > 1e-9:
        assert red.m == m_ref
    # Latent functions up to sign, where the eigenvalue is apart from its
    # neighbours (an eigenvector is defined only up to that gap).
    phi_ref = (H @ B_ref)[: grid.n_t]
    padded = np.concatenate([[np.inf], lam_ref, [-np.inf]])
    for j in range(min(red.m, m_ref)):
        if min(padded[j] - padded[j + 1], padded[j + 1] - padded[j + 2]) <= 1e-6 * scale:
            continue
        ref = phi_ref[:, j] * np.sign(phi_ref[:, j] @ red.phi[:, j])
        assert np.abs(red.phi[:, j] - ref).max() <= 1e-9 * np.abs(ref).max()


def test_a_singular_gram_matrix_fails_by_name(monkeypatch):
    ens, _ = make_ensemble(fq.make_rng(34))
    monkeypatch.setattr(fpca, "gram_matrix", lambda basis: np.ones((basis.n_b, basis.n_b)))
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^Gram matrix is numerically singular \(redundant basis\)$"):
        fit_reducer(ens, kind="bspline", nb_override=8)


def test_score_statistics():
    rng = fq.make_rng(24)
    ens, _ = make_ensemble(rng, n=60)
    red, scores = fit_reducer(ens, kind="fourier", mirror=False,
                              tau_override=0.0, n_b0=7)
    lam = red.eigenvalues[: red.m]
    emp = scores.var(axis=0, ddof=1)
    assert np.allclose(emp, lam, rtol=1e-6)
    cov = np.cov(scores.T)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() <= 1e-6 * lam[0]
    assert np.abs(scores.mean(axis=0)).max() <= 1e-10 * np.sqrt(lam[0])


def test_variance_fraction_target():
    rng = fq.make_rng(25)
    for kind in ("fourier", "bspline"):
        ens, _ = make_ensemble(rng, n=25)
        red, _ = fit_reducer(ens, kind=kind)
        assert red.variance_fraction >= 0.99


def test_project_mean_curve_is_zero():
    rng = fq.make_rng(26)
    ens, _ = make_ensemble(rng)
    red, _ = fit_reducer(ens, kind="fourier", mirror=False, tau_override=0.0, n_b0=7)
    xi = project(red, red.mean_curve)[0]
    assert np.abs(xi).max() <= 1e-10 * np.sqrt(red.eigenvalues[0])


def test_project_left_inverse_identity():
    rng = fq.make_rng(27)
    ens, _ = make_ensemble(rng)
    red, _ = fit_reducer(ens, kind="fourier", mirror=False, tau_override=0.0, n_b0=7)
    xi_hat = rng.normal(size=red.m)
    y = reconstruct(red, xi_hat)
    assert np.allclose(project(red, y)[0], xi_hat, atol=1e-8)


def test_training_scores_match_projection():
    rng = fq.make_rng(28)
    ens, _ = make_ensemble(rng)
    red, scores = fit_reducer(ens, kind="bspline", n_b0=8)
    again = project(red, ens.responses)
    assert np.allclose(scores, again, atol=1e-10 * max(1.0, np.abs(scores).max()))


def test_roundtrip_on_in_span_data():
    # Comparable mode variances keep the 99% rule from truncating anything,
    # so project/reconstruct is exact on the training curves.
    rng = fq.make_rng(29)
    grid = fq.TimeGrid(0.0, 1.0, 101)
    sys = BasisSystem(FOURIER, 7, 0.0, 1.0)
    H = fq.design_matrix(sys, grid)
    Y = rng.normal(size=(40, 7)) @ H.T + 0.3
    ens = fq.ResponseEnsemble(rng.normal(size=(40, 2)), Y, grid)
    red, _ = fit_reducer(ens, kind="fourier", mirror=False, tau_override=0.0, n_b0=7)
    assert red.m == 7
    for i in (0, 5, 17):
        y = ens.responses[i]
        rec = reconstruct(red, project(red, y)[0])
        assert nrmse_curve(y, rec) <= 1e-6


def test_reconstruct_zero_gives_mean():
    rng = fq.make_rng(30)
    ens, _ = make_ensemble(rng)
    red, _ = fit_reducer(ens, kind="bspline", n_b0=8)
    assert np.allclose(reconstruct(red, np.zeros(red.m)), red.mean_curve, atol=1e-12)


def test_reconstruct_affine_superposition():
    rng = fq.make_rng(31)
    ens, _ = make_ensemble(rng)
    red, _ = fit_reducer(ens, kind="fourier", mirror=False, tau_override=0.0, n_b0=7)
    xi1, xi2 = rng.normal(size=(2, red.m))
    a, b = 1.7, -0.6
    combined = reconstruct(red, a * xi1 + b * xi2)
    expected = (a * reconstruct(red, xi1) + b * reconstruct(red, xi2)
                - (a + b - 1) * red.mean_curve)
    assert np.allclose(combined, expected, atol=1e-9 * max(1.0, np.abs(expected).max()))


def test_mirror_roundtrip_on_periodicized_data():
    # Non-periodic smooth data handled through reflection with Fourier.
    rng = fq.make_rng(32)
    grid = fq.TimeGrid(0.0, 1.0, 101)
    t = grid.nodes
    Y = rng.normal(size=(25, 1)) * t + rng.normal(size=(25, 1)) * t**2 + 1.0
    ens = fq.ResponseEnsemble(rng.normal(size=(25, 2)), Y, grid)
    red, scores = fit_reducer(ens, kind="fourier")
    assert red.mirror
    # The training scores are the projections of the training curves.
    rec = reconstruct(red, scores[3])
    assert nrmse_curve(Y[3], rec) <= 0.05
    assert red.phi.shape == (grid.n_t, red.m)


def test_sign_convention_reproducible():
    rng = fq.make_rng(33)
    ens, _ = make_ensemble(rng)
    red1, s1 = fit_reducer(ens, kind="bspline", n_b0=8)
    red2, s2 = fit_reducer(ens, kind="bspline", n_b0=8)
    B1 = np.asarray(red1.B)
    assert np.array_equal(B1, np.asarray(red2.B))
    assert np.array_equal(red1.phi, red2.phi)
    assert np.array_equal(s1, s2)
    for j in range(red1.m):
        col = B1[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_fit_reducer_needs_two_curves():
    grid = fq.TimeGrid(0.0, 1.0, 11)
    ens = fq.ResponseEnsemble(np.zeros((1, 1)), np.ones((1, 11)), grid)
    with pytest.raises(ValueError):
        fit_reducer(ens)


# ---------------------------------------------------------------------------
# One basis fit per reduction


def refit_reference(ens, kind, n_b0=None, tau_override=None, nb_override=None):
    """(reducer arrays, scores) built by selecting n_b and tau first and then
    fitting the basis, H, R and C once more at them, with the retention
    rule written out for identical curves."""
    mirror = kind == FOURIER
    Y = mirror_rows(ens.responses) if mirror else ens.responses
    nodes, interval = fit_nodes(ens.grid, mirror)
    mean = Y.mean(axis=0)
    centered = Y - mean
    if nb_override is None:
        trace: list = []
        select_nb(kind, centered, nodes, interval, n_b0=n_b0,
                  tau_override=tau_override, trace=trace)
        n_b, tau = trace[-1]["n_b"], trace[-1]["tau"]
    else:
        n_b, tau = effective_nb(kind, nb_override), tau_override
    basis = BasisSystem(kind, n_b, *interval)
    H = fq.design_matrix(basis, nodes)
    R = fq.roughness_matrix(basis)
    if tau is None:
        tau = select_tau(H, R, centered)
    C = fq.fit_coefficients(H, R, tau, centered)
    W = fq.gram_matrix(basis)
    L = np.linalg.cholesky(W)
    _, svals, Vt = np.linalg.svd(C.T @ L, full_matrices=False)
    lam = svals**2 / (ens.n - 1)
    if lam.sum() <= 1e-14 * max(1.0, np.abs(Y).max() ** 2):
        B, scores = np.zeros((n_b, 0)), np.zeros((ens.n, 0))
    else:
        B = fpca._fix_signs(solve_triangular(L, Vt[: select_m(lam)].T, trans="T", lower=True))
        scores = (B.T @ (W @ C)).T
    n_t = ens.grid.n_t
    return {"phi": (H @ B)[:n_t], "B": B, "mean_curve": mean[:n_t], "eigenvalues": lam}, scores


def duffing_ensemble(n=30):
    """Duffing curves on every fourth node of their grid (101 nodes)."""
    ens = fq.generate_dataset("duffing", n, fq.make_rng(31))
    return fq.ResponseEnsemble(ens.inputs, ens.responses[:, ::4], fq.TimeGrid(0.0, 2.0, 101))


FIT_PATHS = {
    "kfdr-b growth": dict(kind="bspline", n_b0=45),
    "kfdr-f mirrored growth": dict(kind="fourier"),
    "nb_override": dict(kind="bspline", nb_override=120),
    "nb_override, tau_override 0": dict(kind="bspline", nb_override=60, tau_override=0.0),
}


@pytest.mark.parametrize("identical", [False, True], ids=["duffing", "identical curves"])
@pytest.mark.parametrize("path", sorted(FIT_PATHS))
def test_reducer_equals_refit_at_selected_basis(path, identical):
    ens = duffing_ensemble()
    if identical:
        ens = fq.ResponseEnsemble(ens.inputs, np.tile(ens.responses[0], (ens.n, 1)), ens.grid)
    red, scores = fit_reducer(ens, **FIT_PATHS[path])
    ref, ref_scores = refit_reference(ens, **FIT_PATHS[path])
    assert (red.m == 0) == identical
    assert np.array_equal(red.phi, ref["phi"])
    assert np.array_equal(np.asarray(red.B).reshape(ref["B"].shape), ref["B"])
    assert np.array_equal(scores, ref_scores)
    assert np.array_equal(red.mean_curve, ref["mean_curve"])
    assert np.array_equal(red.eigenvalues, ref["eigenvalues"])


@pytest.mark.parametrize("path", sorted(FIT_PATHS))
def test_one_coefficient_fit_per_round(monkeypatch, path):
    calls, original = [], smoothing.fit_coefficients

    def counted(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(smoothing, "fit_coefficients", counted)
    # A coefficient fit of fit_reducer's own, through a name of fpca's,
    # would count too.
    monkeypatch.setattr(fpca, "fit_coefficients", counted, raising=False)
    trace: list = []
    red, _ = fit_reducer(duffing_ensemble(), nb_trace=trace, **FIT_PATHS[path])
    rounds = 1 if "nb_override" in FIT_PATHS[path] else len(trace)
    assert rounds >= 1
    assert len(calls) == rounds
    assert calls[-1] == red.tau
