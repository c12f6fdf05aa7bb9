import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import funcuq as fq
from funcuq.core import (
    FLOAT_FMT,
    JITTERS,
    cho_with_jitter,
    derive_seed,
    _loaded_openblas,
    mirror_rows,
    one_blas_thread,
    read_table,
    write_atomic,
    write_table,
)


def test_time_grid_nodes_uniform():
    grid = fq.TimeGrid(0.0, 2.0, 401)
    nodes = grid.nodes
    assert nodes[0] == 0.0 and nodes[-1] == 2.0
    steps = np.diff(nodes)
    assert np.allclose(steps, steps[0], rtol=0, atol=1e-14)
    assert np.all(steps > 0)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        fq.TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        fq.TimeGrid(0.0, 1.0, 1)


def test_ensemble_shape_checks():
    grid = fq.TimeGrid(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        fq.ResponseEnsemble(np.zeros((3, 2)), np.zeros((4, 5)), grid)
    with pytest.raises(ValueError):
        fq.ResponseEnsemble(np.zeros((3, 2)), np.full((3, 5), np.nan), grid)


# Centering: both fitters subtract the across-sample mean curve.


def test_center_identical_rows():
    v = np.array([1.0, -2.0, 3.0])
    ens = fq.ResponseEnsemble(np.zeros((4, 1)), np.tile(v, (4, 1)), fq.TimeGrid(0.0, 1.0, 3))
    red, scores = fq.fit_pca_reducer(ens)
    assert np.array_equal(red.mean_curve, v)
    assert red.m == 0 and scores.shape == (4, 0)


def test_center_symmetry():
    curves = np.array([[0.0, 2.0], [2.0, 0.0]])
    ens = fq.ResponseEnsemble([[0.0], [1.0]], curves, fq.TimeGrid(0.0, 1.0, 2))
    red, scores = fq.fit_pca_reducer(ens)
    assert np.array_equal(red.mean_curve, [1.0, 1.0])
    assert np.allclose(scores @ red.phi.T, [[-1.0, 1.0], [1.0, -1.0]], rtol=0, atol=1e-15)


def test_center_duffing_column_means():
    ens = fq.generate_dataset("duffing", 100, fq.make_rng(3))
    scale = np.abs(ens.responses).max()
    for red, scores in (fq.fit_pca_reducer(ens),
                        fq.fit_reducer(ens, nb_override=120, tau_override=1e-6)):
        assert np.array_equal(red.mean_curve, ens.responses.mean(axis=0))
        assert np.abs(scores.mean(axis=0)).max() < 1e-12
        assert np.abs(scores.mean(axis=0)).max() <= 1e-10 * scale


def test_center_empty():
    empty = fq.ResponseEnsemble(np.zeros((0, 1)), np.zeros((0, 4)), fq.TimeGrid(0.0, 1.0, 4))
    for fit in (fq.fit_pca_reducer, fq.fit_reducer):
        with pytest.raises(ValueError):
            fit(empty)


def test_model_nrmse_values():
    truth = np.array([[0.0, 1.0]])
    assert fq.model_nrmse(truth, truth) == 0.0
    assert fq.model_nrmse(truth, [[0.0, 0.0]]) == pytest.approx(np.sqrt(0.5), abs=1e-14)


def test_model_nrmse_two_curve_oracle():
    truth = np.array([[0.0, 1.0, 2.0, 1.0], [3.0, 1.0, 0.0, 2.0]])
    pred = np.array([[0.1, 0.9, 2.2, 1.0], [2.8, 1.1, 0.3, 1.9]])
    manual = 0.0
    for i in range(2):
        rms = np.sqrt(np.mean((truth[i] - pred[i]) ** 2))
        manual += rms / (truth[i].max() - truth[i].min())
    manual /= 2
    assert fq.model_nrmse(truth, pred) == pytest.approx(manual, abs=1e-14)


def test_model_nrmse_errors():
    with pytest.raises(ValueError):
        fq.model_nrmse(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        fq.model_nrmse(np.ones((1, 3)), np.ones((1, 3)))


def test_nrmse_shift_invariance():
    rng = fq.make_rng(2)
    y = rng.normal(size=30)
    y_hat = y + rng.normal(scale=0.1, size=30)
    for c in (-3.7, 0.0, 11.0):
        assert fq.model_nrmse(y[None] + c, y_hat[None] + c) == pytest.approx(
            fq.model_nrmse(y[None], y_hat[None]), rel=1e-12
        )
    assert fq.model_nrmse(y[None] + 5.0, y_hat[None] + 5.0) == pytest.approx(
        fq.model_nrmse(y[None], y_hat[None]), rel=1e-12
    )


def test_latin_hypercube_stratification():
    for n in (1, 4, 17):
        x = fq.latin_hypercube(n, 3, [(0, 1)] * 3, fq.make_rng(5))
        for j in range(3):
            counts = np.histogram(x[:, j], bins=n, range=(0, 1))[0]
            assert np.all(counts == 1)


def test_latin_hypercube_four_strata():
    x = fq.latin_hypercube(4, 1, [(0.0, 1.0)], fq.make_rng(9))[:, 0]
    assert sorted(np.floor(x * 4).astype(int).tolist()) == [0, 1, 2, 3]


def test_latin_hypercube_deterministic():
    a = fq.latin_hypercube(8, 2, [(0, 1), (-1, 1)], fq.make_rng(123))
    b = fq.latin_hypercube(8, 2, [(0, 1), (-1, 1)], fq.make_rng(123))
    assert np.array_equal(a, b)


def test_latin_hypercube_mean_near_midpoint():
    x = fq.latin_hypercube(1000, 2, [(0, 1), (2, 4)], fq.make_rng(7))
    assert abs(x[:, 0].mean() - 0.5) < 0.02
    assert abs(x[:, 1].mean() - 3.0) < 0.02 * 2


def test_latin_hypercube_invalid_bounds():
    with pytest.raises(ValueError):
        fq.latin_hypercube(4, 1, [(1.0, 1.0)], fq.make_rng(0))


def test_mirror_periodic_values():
    assert np.array_equal(mirror_rows([0.0, 1.0, 2.0])[0], [0.0, 1.0, 2.0, 1.0])
    const = mirror_rows([3.0, 3.0, 3.0, 3.0])[0]
    assert np.all(const == 3.0)
    assert const.size == 6


def test_mirror_periodic_wraparound_continuity():
    rng = fq.make_rng(4)
    y = np.cumsum(rng.normal(size=12))
    out = mirror_rows(y)[0]
    assert out.size == 2 * y.size - 2
    # One period: appending the first sample again continues the mirror.
    extended = np.concatenate([out, out[:1]])
    assert extended[-1] == y[0]
    assert extended[-2] == y[1]


def test_mirror_periodic_self_inverse():
    rng = fq.make_rng(6)
    y = rng.normal(size=9)
    # The mirrored half (read back to the start) is the reversed curve;
    # mirroring it again and reversing recovers the original.
    reversed_half = mirror_rows(y)[0, y.size - 1 :]
    reversed_full = np.concatenate([reversed_half, y[:1]])
    again = mirror_rows(reversed_full)[0]
    assert np.array_equal(again[: y.size][::-1], y)


def test_mirror_rows_matches_rowwise():
    rng = fq.make_rng(8)
    Y = rng.normal(size=(3, 7))
    out = mirror_rows(Y)
    for i in range(3):
        assert np.array_equal(out[i], mirror_rows(Y[i])[0])


def test_random_source_same_seed_same_stream():
    a = fq.make_rng(42).random(5)
    b = fq.make_rng(42).random(5)
    assert np.array_equal(a, b)
    c = fq.make_rng(43).random(5)
    assert not np.array_equal(a, c)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "data") == derive_seed(7, "data")
    assert derive_seed(7, "data") != derive_seed(7, "folds")
    assert derive_seed(8, "data") != derive_seed(7, "data")


def test_ensemble_csv_roundtrip(tmp_path):
    ens = fq.generate_dataset("duffing", 5, fq.make_rng(1))
    rp, ip = tmp_path / "responses.csv", tmp_path / "inputs.csv"
    fq.save_ensemble(ens, rp, ip)
    header = rp.read_text().splitlines()[0]
    assert len(header.split(",")) == ens.grid.n_t
    assert ip.read_text().splitlines()[0] == ",".join(ens.input_names)
    back = fq.load_ensemble(rp, ip)
    assert back.grid.n_t == ens.grid.n_t
    assert back.input_names == ens.input_names
    # 10-significant-digit text round trip
    assert np.allclose(back.responses, ens.responses, rtol=1e-9, atol=1e-12)
    assert np.allclose(back.inputs, ens.inputs, rtol=1e-9, atol=1e-12)


def test_write_atomic_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.csv"
    write_atomic(path, ["a,b", "1,2"])
    assert path.read_text() == "a,b\n1,2\n"
    assert list(tmp_path.iterdir()) == [path]
    # A failed write keeps the old file and removes its temporary.
    with pytest.raises(TypeError):
        write_atomic(path, ["a,b", 3])
    assert path.read_text() == "a,b\n1,2\n"
    assert list(tmp_path.iterdir()) == [path]


def test_load_ensemble_rejects_non_uniform_nodes(tmp_path):
    rp, ip = tmp_path / "responses.csv", tmp_path / "inputs.csv"
    rp.write_text("0,0.1,1\n1,2,3\n4,5,6\n")
    ip.write_text("x1\n0.5\n0.7\n")
    expected = r"responses\.csv: time node 2 is 0\.1, uniform grid has 0\.5"
    with pytest.raises(ValueError, match=expected):
        fq.load_ensemble(rp, ip)
    rp.write_text("0,nan,1\n1,2,3\n4,5,6\n")
    with pytest.raises(ValueError, match=r"responses\.csv: time node 2 is nan, uniform grid"):
        fq.load_ensemble(rp, ip)
    rp.write_text("0,abc,1\n1,2,3\n4,5,6\n")
    with pytest.raises(ValueError, match=re.escape(
            f"responses file {rp}: time nodes: could not convert string to float: 'abc'")):
        fq.load_ensemble(rp, ip)
    # Nodes within 1e-6 dt of the uniform grid load.
    rp.write_text("0,0.5000000001,1\n1,2,3\n4,5,6\n")
    assert fq.load_ensemble(rp, ip).grid.n_t == 3


DBL_MAX = np.finfo(float).max
# Every finite float.  The edges of the 10-digit text's overflow: the
# smallest double whose 10-digit text is 1.797693135e+308, which parses to
# inf, and the double below it.
TABLE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308,
                     DBL_MAX, -DBL_MAX, 1.7976931345e308, np.nextafter(1.7976931345e308, 0)]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def printed_value(v):
    """The value write_table's text of v reads back as: its 10 digits, or v
    itself where those would read as inf."""
    value = float(FLOAT_FMT % v)
    return v if math.isinf(value) else value


@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
               elements=TABLE_FLOATS),
    st.data(),
)
def test_table_roundtrip_reads_the_printed_values(tmp_path_factory, table, data):
    header = data.draw(st.lists(st.text("abcxyz_0123456789", min_size=1),
                                min_size=table.shape[1], max_size=table.shape[1]))
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_table(path, header, table)
    got_header, got = read_table("test", path)
    assert got_header == header
    want = np.array([[printed_value(v) for v in row] for row in table])
    # Bit for bit, so that -0.0 and subnormals count.
    assert got.shape == table.shape and got.tobytes() == want.tobytes()


def test_write_table_keeps_the_largest_doubles_finite(tmp_path):
    # Only a cell whose 10 digits would round past the largest double gets 17.
    path = tmp_path / "t.csv"
    below = np.nextafter(1.7976931345e308, 0)
    write_table(path, ["a", "b"], [[DBL_MAX, -1.7976931345e308], [below, 0.1]])
    assert path.read_text() == (
        "a,b\n1.7976931348623157e+308,-1.7976931345e+308\n1.797693134e+308,0.1\n")
    assert read_table("test", path)[1].tolist() == [[DBL_MAX, -1.7976931345e308],
                                                    [1.797693134e308, 0.1]]


def test_write_table_prints_strings_as_they_are(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["name", "n", "x"], [["a", "12345678901", 0.1], ["b", "2", np.float64(1 / 3)]])
    assert path.read_text() == "name,n,x\na,12345678901,0.1\nb,2,0.3333333333\n"


def test_ensemble_roundtrip_on_offset_grid(tmp_path):
    # 1000 + j/300 printed to 10 significant digits is off by up to 5e-7,
    # more than 1e-6 dt; the node check must still accept its own files.
    grid = fq.TimeGrid(1000.0, 1001.0, 301)
    ens = fq.ResponseEnsemble(np.zeros((2, 1)), np.ones((2, 301)), grid)
    rp, ip = tmp_path / "responses.csv", tmp_path / "inputs.csv"
    fq.save_ensemble(ens, rp, ip)
    assert fq.load_ensemble(rp, ip).grid == grid


def test_cho_with_jitter_reports_the_jitter():
    A = np.array([[4.0, 2.0], [2.0, 3.0]])
    L, jitter = cho_with_jitter(A)
    assert jitter == 0.0
    # dpotrf's lower factor, its upper triangle zero.
    assert np.array_equal(L, np.tril(L))
    assert np.allclose(L @ L.T, A, rtol=0, atol=1e-14)
    # Rank one: the first jitter that factorizes is reported in absolute terms.
    ones = np.ones((3, 3))
    L, jitter = cho_with_jitter(ones)
    assert jitter in [rel * 1.0 for rel in JITTERS[1:]]
    with pytest.raises(np.linalg.LinAlgError, match="singular even after jitter"):
        cho_with_jitter(-np.eye(2))


def test_load_ensemble_names_a_responses_header_of_another_width(tmp_path):
    rp, ip = tmp_path / "responses.csv", tmp_path / "inputs.csv"
    rp.write_text("0,0.5,1\n1,2\n4,5\n")
    ip.write_text("x1\n0.5\n0.7\n")
    with pytest.raises(ValueError, match=re.escape(
            f"responses file {rp}: header has 3 cells, rows have 2 columns")):
        fq.load_ensemble(rp, ip)


def test_load_ensemble_names_an_inputs_header_of_another_width(tmp_path):
    rp, ip = tmp_path / "responses.csv", tmp_path / "inputs.csv"
    rp.write_text("0,0.5,1\n1,2,3\n4,5,6\n")
    ip.write_text("x1,x2\n0.5\n0.7\n")
    with pytest.raises(ValueError, match=re.escape(
            f"inputs file {ip}: header has 2 cells, rows have 1 columns")):
        fq.load_ensemble(rp, ip)


def test_load_ensemble_names_a_table_without_data_rows(tmp_path):
    rp, ip = tmp_path / "responses.csv", tmp_path / "inputs.csv"
    rp.write_text("0,0.5,1\n")
    ip.write_text("x1\n0.5\n")
    with pytest.raises(ValueError, match=re.escape(f"responses file {rp}: no data rows")):
        fq.load_ensemble(rp, ip)


def test_one_blas_thread_pins_and_restores_each_bundled_blas():
    libs = _loaded_openblas()
    before = [getter() for _, getter in libs]
    with one_blas_thread() as pinned:
        assert pinned == bool(libs)
        assert [getter() for _, getter in libs] == [1] * len(libs)
    assert [getter() for _, getter in libs] == before
