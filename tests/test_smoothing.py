import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funcuq as fq
from funcuq import smoothing
from funcuq.basis import BSPLINE, FOURIER
from funcuq.core import fit_nodes
from funcuq.smoothing import (
    SingularSystemError,
    effective_nb,
    select_nb,
    tau_grid,
)


@pytest.fixture
def fourier_setup():
    grid = fq.TimeGrid(0.0, 1.0, 41)
    sys = fq.BasisSystem(FOURIER, 7, 0.0, 1.0)
    H = fq.design_matrix(sys, grid)
    R = fq.roughness_matrix(sys)
    return grid, sys, H, R


def test_fit_exact_representation(fourier_setup):
    _, _, H, R = fourier_setup
    y = H[:, 1].copy()
    C = fq.fit_coefficients(H, R, 0.0, y[None, :])
    expected = np.zeros(7)
    expected[1] = 1.0
    assert np.allclose(C[:, 0], expected, atol=1e-10)


def test_fit_square_interpolation():
    # Square collocation system: B-splines at as many nodes as functions.
    grid = fq.TimeGrid(0.0, 1.0, 8)
    sys = fq.BasisSystem(BSPLINE, 8, 0.0, 1.0)
    H = fq.design_matrix(sys, grid)
    R = fq.roughness_matrix(sys)
    rng = fq.make_rng(0)
    y = rng.normal(size=8)
    C = fq.fit_coefficients(H, R, 0.0, y[None, :])
    assert np.linalg.norm(y - H @ C[:, 0]) <= 1e-8 * np.linalg.norm(y)


def test_fit_huge_tau_forces_affine():
    # The roughness null space of cubic splines is the affine functions,
    # so tau -> inf drives the fit to the straight-line least squares fit.
    grid = fq.TimeGrid(0.0, 1.0, 60)
    t = grid.nodes
    sys = fq.BasisSystem(BSPLINE, 10, 0.0, 1.0)
    H = fq.design_matrix(sys, grid)
    R = fq.roughness_matrix(sys)
    rng = fq.make_rng(1)
    y = np.sin(2 * np.pi * t) + 0.1 * rng.normal(size=t.size)
    C = fq.fit_coefficients(H, R, 1e6, y[None, :])
    fitted = H @ C[:, 0]
    slope, intercept = np.polyfit(t, y, 1)
    assert np.abs(fitted - (slope * t + intercept)).max() <= 1e-3


def test_fit_objective_minimum(fourier_setup):
    _, _, H, R = fourier_setup
    rng = fq.make_rng(2)
    y = rng.normal(size=H.shape[0])
    tau = 0.37
    c = fq.fit_coefficients(H, R, tau, y[None, :])[:, 0]

    def objective(cv):
        return np.sum((y - H @ cv) ** 2) + tau * cv @ R @ cv

    base = objective(c)
    for _ in range(50):
        d = rng.normal(size=c.size)
        d /= np.linalg.norm(d)
        assert objective(c + 1e-3 * d) >= base - 1e-12
        assert objective(c - 1e-3 * d) >= base - 1e-12


def test_gcv_dense_s_oracle():
    # Tiny case where the full smoother matrix is cheap to build.
    rng = fq.make_rng(3)
    H = rng.normal(size=(4, 2))
    R = np.array([[0.5, 0.1], [0.1, 2.0]])
    Yc = rng.normal(size=(3, 4))
    for tau in (0.0, 0.2, 5.0):
        S = H @ np.linalg.inv(H.T @ H + tau * R) @ H.T
        C = np.linalg.inv(H.T @ H + tau * R) @ H.T @ Yc.T
        sse = np.sum((Yc.T - H @ C) ** 2)
        n_obs = H.shape[0]
        expected = n_obs / (n_obs - np.trace(S)) ** 2 * sse
        assert fq.gcv(tau, H, R, Yc) == pytest.approx(expected, abs=1e-12)


def test_gcv_noiseless_prefers_zero(fourier_setup):
    _, _, H, R = fourier_setup
    rng = fq.make_rng(4)
    Yc = (rng.normal(size=(5, 7)) @ H.T)  # exactly representable curves
    g0 = fq.gcv(0.0, H, R, Yc)
    for tau in tau_grid(13):
        assert g0 <= fq.gcv(tau, H, R, Yc) + 1e-12


def test_gcv_large_tau_worse_on_noisy(fourier_setup):
    grid, _, H, R = fourier_setup
    rng = fq.make_rng(5)
    t = grid.nodes
    amps = rng.normal(size=(20, 1))
    Y = amps * np.sin(2 * np.pi * t)[None, :] + 0.05 * rng.normal(size=(20, t.size))
    Yc = Y - Y.mean(axis=0)
    tau_star = fq.select_tau(H, R, Yc)
    assert fq.gcv(1e6, H, R, Yc) > fq.gcv(tau_star, H, R, Yc)


def test_gcv_trace_guard():
    # Square invertible smoother: trace(S) equals the observation count,
    # which must trip the division guard.
    grid = fq.TimeGrid(0.0, 1.0, 8)
    sys = fq.BasisSystem(BSPLINE, 8, 0.0, 1.0)
    H = fq.design_matrix(sys, grid)
    R = fq.roughness_matrix(sys)
    y = fq.make_rng(6).normal(size=(2, 8))
    assert fq.gcv(0.0, H, R, y) == math.inf


def test_tau_grid_13_points():
    grid = tau_grid(13)
    assert np.allclose(grid, 10.0 ** np.arange(-6, 7), rtol=1e-12)


def test_select_tau_is_grid_argmin(fourier_setup):
    grid, _, H, R = fourier_setup
    rng = fq.make_rng(7)
    t = grid.nodes
    Y = np.sin(2 * np.pi * t)[None, :] + 0.1 * rng.normal(size=(10, t.size))
    Yc = Y - Y.mean(axis=0)
    for n_tau in (13, 25):
        tau_star = fq.select_tau(H, R, Yc, n_tau)
        g_star = fq.gcv(tau_star, H, R, Yc)
        for tau in tau_grid(n_tau):
            assert g_star <= fq.gcv(tau, H, R, Yc) + 1e-12


def test_select_tau_tie_breaks_small():
    # Curves exactly in the basis span with zero roughness interaction give
    # GCV values that are flat in tau; the smallest grid point must win.
    grid = fq.TimeGrid(0.0, 1.0, 21)
    sys = fq.BasisSystem(FOURIER, 3, 0.0, 1.0)
    H = fq.design_matrix(sys, grid)
    R = np.zeros((3, 3))  # no penalty at all: GCV constant in tau
    Yc = (fq.make_rng(8).normal(size=(4, 3)) @ H.T)
    assert fq.select_tau(H, R, Yc) == pytest.approx(1e-6)


@pytest.mark.parametrize("kind, n_b, n_t", [(BSPLINE, 4, 2), (FOURIER, 3, 1)],
                         ids=["4 B-splines on 2 nodes", "3 Fourier functions on 1 node"])
def test_select_tau_fails_by_name_without_a_finite_score(kind, n_b, n_t):
    # The smoother reproduces any curve on these nodes at every tau, so GCV
    # is 0/0 on the whole grid.
    nodes = np.linspace(0.0, 1.0, n_t) if n_t > 1 else np.array([0.3])
    sys = fq.BasisSystem(kind, n_b, 0.0, 1.0)
    H = fq.design_matrix(sys, nodes)
    R = fq.roughness_matrix(sys)
    Yc = fq.make_rng(16).normal(size=(3, n_t))
    assert not np.isfinite(smoothing._gcv_curve(tau_grid(25), H, R, Yc)).any()
    with pytest.raises(SingularSystemError,
                       match=f"for {n_b} basis functions on {n_t} nodes"):
        fq.select_tau(H, R, Yc)


def _count_gcv_calls(monkeypatch):
    calls = []
    direct = smoothing.gcv

    def counted(*args):
        calls.append(args[0])
        return direct(*args)

    monkeypatch.setattr(smoothing, "gcv", counted)
    return calls


# Towards tau -> inf the GCV curve flattens onto its limit and both forms
# lose digits there (up to 3e-6 relative apart on such problems), so two
# values closer than RESOLVED form a tie that rounding decides.
RESOLVED = 1e-5


def _assert_direct_argmin(tau_star, direct):
    """tau_star is the argmin of the direct gcv values on tau_grid(25), or
    ties with it."""
    taus = tau_grid(25)
    best, second = np.sort(direct)[:2]
    assert direct[taus == tau_star][0] <= best * (1.0 + RESOLVED)
    if second > best * (1.0 + RESOLVED):
        assert tau_star == taus[int(np.argmin(direct))]


def _noisy_sines(t):
    rng = fq.make_rng(14)
    Y = np.sin(2 * np.pi * t) * rng.normal(size=(8, 1)) + 0.1 * rng.normal(size=(8, t.size))
    return Y - Y.mean(axis=0)


@pytest.mark.parametrize(
    "n_b, n_t, curves",
    [(10, 60, _noisy_sines), (12, 8, lambda t: fq.make_rng(15).normal(size=(3, t.size)))],
    ids=["10_on_60", "12_on_8"],
)
def test_select_tau_scores_every_basis_count_without_gcv(monkeypatch, n_b, n_t, curves):
    # 12 B-splines on 8 nodes: H'H is singular, and only H'H + s R factors.
    grid = fq.TimeGrid(0.0, 1.0, n_t)
    sys = fq.BasisSystem(BSPLINE, n_b, 0.0, 1.0)
    H = fq.design_matrix(sys, grid)
    R = fq.roughness_matrix(sys)
    Yc = curves(grid.nodes)
    direct = np.array([smoothing.gcv(t, H, R, Yc) for t in tau_grid(25)])
    calls = _count_gcv_calls(monkeypatch)
    _assert_direct_argmin(fq.select_tau(H, R, Yc), direct)
    assert calls == []


@settings(max_examples=60)
@given(
    kind=st.sampled_from([BSPLINE, FOURIER, "mirrored fourier"]),
    n_b=st.integers(4, 15),
    nodes_per_function=st.integers(2, 5),
    node_offset=st.one_of(st.none(), st.integers(-3, 3)),
    n_curves=st.integers(1, 8),
    noise=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**16),
)
def test_gcv_curve_matches_direct_gcv(
    kind, n_b, nodes_per_function, node_offset, n_curves, noise, seed
):
    # The fitted node count is nodes_per_function * n_b, or n_b + node_offset
    # around the basis count.  At least 3 nodes: on 2, cubic B-splines
    # reproduce any curve at every tau, so GCV is 0/0 on the whole grid.
    mirrored = kind == "mirrored fourier"
    kind = FOURIER if mirrored else kind
    n_b = effective_nb(kind, n_b)
    n_fit = nodes_per_function * n_b if node_offset is None else max(3, n_b + node_offset)
    grid = fq.TimeGrid(0.0, 1.0, n_fit // 2 + 1 if mirrored else n_fit)
    nodes, interval = fit_nodes(grid, mirrored)
    sys = fq.BasisSystem(kind, n_b, *interval)
    H = fq.design_matrix(sys, nodes)
    R = fq.roughness_matrix(sys)
    rng = fq.make_rng(seed)
    Y = rng.normal(size=(n_curves, n_b)) @ H.T + noise * rng.normal(size=(n_curves, nodes.size))
    taus = tau_grid(25)
    fast = smoothing._gcv_curve(taus, H, R, Y)
    direct = np.array([smoothing.gcv(t, H, R, Y) for t in taus])
    small = taus <= 1.0
    assert np.allclose(fast[small], direct[small], rtol=1e-8, atol=0.0)
    for rows in (Y, Y[rng.permutation(n_curves)]):
        _assert_direct_argmin(fq.select_tau(H, R, rows), direct)


def test_gcv_curve_matches_high_precision_gcv_at_large_tau():
    # 12 B-splines on 8 nodes: the roughness null directions have mu = 1 and
    # lam = 0; rounding noise in 1 - mu taken as a lam > 0 biased the score
    # low by up to 3.3e-6 at tau = 1e6.
    mpmath = pytest.importorskip("mpmath")
    grid = fq.TimeGrid(0.0, 1.0, 8)
    sys = fq.BasisSystem(BSPLINE, 12, 0.0, 1.0)
    H = fq.design_matrix(sys, grid)
    R = fq.roughness_matrix(sys)
    y = fq.make_rng(0).normal(size=(1, grid.n_t))
    taus = tau_grid(25)
    with mpmath.workdps(50):
        Hm, Rm, ym = (mpmath.matrix(a.tolist()) for a in (H, R, y[0]))
        exact = []
        for tau in taus:
            S = Hm * mpmath.inverse(Hm.T * Hm + mpmath.mpf(tau) * Rm) * Hm.T
            sse = sum(r**2 for r in ym - S * ym)
            trace = sum(S[i, i] for i in range(grid.n_t))
            exact.append(float(grid.n_t * sse / (grid.n_t - trace) ** 2))
    fast = smoothing._gcv_curve(taus, H, R, y)
    assert np.max(np.abs(fast / np.array(exact) - 1.0)) <= 1e-6


def test_effective_nb():
    assert effective_nb("fourier", 10) == 11
    assert effective_nb("fourier", 11) == 11
    assert effective_nb("fourier", 2) == 3
    assert effective_nb("bspline", 2) == 4
    assert effective_nb("bspline", 8) == 8


def test_select_nb_in_span_data():
    grid = fq.TimeGrid(0.0, 1.0, 101)
    sys15 = fq.BasisSystem(FOURIER, 15, 0.0, 1.0)
    H15 = fq.design_matrix(sys15, grid)
    rng = fq.make_rng(9)
    Y = rng.normal(size=(12, 15)) @ H15.T
    Yc = Y - Y.mean(axis=0)
    trace: list = []
    basis, _, _, _ = select_nb(
        "fourier", Yc, grid.nodes, (0.0, 1.0), n_b0=5, tau_override=0.0, trace=trace
    )
    assert basis.n_b >= 15
    assert trace[-1]["delta"] <= 1e-6
    # brute-force delta curve confirms the stop landed after stagnation
    deltas = [r["delta"] for r in trace]
    assert deltas[-1] <= deltas[0]


def test_select_nb_follows_schedule():
    grid = fq.TimeGrid(0.0, 1.0, 101)
    rng = fq.make_rng(10)
    t = grid.nodes
    Y = np.sin(2 * np.pi * t)[None, :] * rng.normal(size=(8, 1)) + rng.normal(
        size=(8, 1)
    ) * np.cos(2 * np.pi * t)[None, :]
    Yc = Y - Y.mean(axis=0)
    trace: list = []
    select_nb("fourier", Yc, t, (0.0, 1.0), n_b0=5, tau_override=0.0, trace=trace)
    # raw schedule 5, 10, 20, 35, ... odd-adjusted for Fourier
    raw = [5]
    k = 1
    while len(raw) < len(trace):
        raw.append(raw[-1] + k * 5)
        k += 1
    assert [r["n_b"] for r in trace] == [effective_nb("fourier", n) for n in raw]


def test_select_nb_constant_curves_converge_immediately():
    grid = fq.TimeGrid(0.0, 1.0, 31)
    Yc = np.zeros((5, 31))
    trace: list = []
    basis, _, _, _ = select_nb(
        "bspline", Yc, grid.nodes, (0.0, 1.0), n_b0=8, trace=trace
    )
    assert basis.n_b == 8
    assert len(trace) == 1


def test_select_nb_nonconvergence_error():
    # White noise on a periodic basis cannot stagnate below the threshold,
    # and a large starting count overflows the 4 * n_t cap immediately.
    grid = fq.TimeGrid(0.0, 1.0, 21)
    rng = fq.make_rng(11)
    Yc = rng.normal(size=(6, 21))
    Yc -= Yc.mean(axis=0)
    with pytest.raises(RuntimeError):
        select_nb(
            "fourier", Yc, grid.nodes, (0.0, 1.0),
            n_b0=63, delta_r=1e-12, tau_override=1e-18,
        )


def test_select_nb_default_delta_r():
    import inspect

    sig = inspect.signature(select_nb)
    assert sig.parameters["delta_r"].default == 0.05


def test_monotone_roughness_in_tau(fourier_setup):
    grid, _, H, R = fourier_setup
    rng = fq.make_rng(12)
    t = grid.nodes
    Y = np.sin(2 * np.pi * t)[None, :] + 0.2 * rng.normal(size=(6, t.size))
    Yc = Y - Y.mean(axis=0)
    previous = None
    for tau in tau_grid(25):
        C = fq.fit_coefficients(H, R, tau, Yc)
        rough = float(np.sum(C * (R @ C)))
        if previous is not None:
            assert rough <= previous + 1e-10 * max(1.0, previous)
        previous = rough


# Both entry points factor H'H + tau R through the same function.
FIT_AND_GCV = [fq.fit_coefficients, lambda H, R, tau, Y: fq.gcv(tau, H, R, Y)]
SOLVES = pytest.mark.parametrize("solve", FIT_AND_GCV, ids=["fit_coefficients", "gcv"])


@pytest.mark.parametrize(
    "solve", [*FIT_AND_GCV, lambda H, R, tau, Y: fq.select_tau(H, R, Y)],
    ids=["fit_coefficients", "gcv", "select_tau"],
)
def test_singular_system_error(solve):
    H = np.zeros((4, 3))
    R = np.zeros((3, 3))
    with pytest.raises(SingularSystemError, match="penalized normal equations"):
        solve(H, R, 0.0, np.ones((2, 4)))


@SOLVES
def test_negative_tau_rejected(solve):
    H = np.eye(3)
    R = np.eye(3)
    with pytest.raises(ValueError, match="tau must be nonnegative"):
        solve(H, R, -0.1, np.ones((2, 3)))


def test_solver_never_inverts_explicitly(fourier_setup):
    # Residual orthogonality: H'(y - Hc) + tau R c = 0 at the solution.
    _, _, H, R = fourier_setup
    rng = fq.make_rng(13)
    y = rng.normal(size=H.shape[0])
    tau = 0.8
    c = fq.fit_coefficients(H, R, tau, y[None, :])[:, 0]
    grad = H.T @ (y - H @ c) - tau * R @ c
    assert np.abs(grad).max() <= 1e-8
