"""Shared numerical primitives: time grids, response ensembles, error
metrics, Latin hypercube designs, seeded randomness, the periodic
mirroring preprocessor, the CSV table format, the BLAS thread pin and
the process pool.

Random state is always passed in explicitly.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf

FLOAT_FMT = "%.10g"

# Relative jitter ladder tried before declaring a symmetric matrix singular.
JITTERS = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)

# (setter, getter) of the thread count in the OpenBLAS builds that numpy
# (64-bit integer interface) and scipy bundle.
OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def make_rng(seed: int) -> np.random.Generator:
    """Build the toolkit-wide generator for a seed: counter-based Philox,
    so every stochastic result replays from a single seed."""
    return np.random.Generator(np.random.Philox(int(seed)))


def derive_seed(master: int, label: str) -> int:
    """Derive a named 63-bit sub-seed from a master seed.

    Uses SHA-256 of ``"<master>/<label>"`` so each component of a run
    (data, folds, optimizer starts, samplers) is reseeded independently
    of evaluation order or platform.
    """
    digest = hashlib.sha256(f"{int(master)}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with nodes t_j = t0 + (j-1) (te-t0)/(n_t-1)."""

    t0: float
    te: float
    n_t: int

    def __post_init__(self):
        if not np.isfinite(self.t0) or not np.isfinite(self.te):
            raise ValueError("grid endpoints must be finite")
        if not self.te > self.t0:
            raise ValueError(f"te must exceed t0, got [{self.t0}, {self.te}]")
        if self.n_t < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n_t}")

    @property
    def span(self) -> float:
        return self.te - self.t0

    @property
    def dt(self) -> float:
        return (self.te - self.t0) / (self.n_t - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.t0, self.te, self.n_t)


class ResponseEnsemble:
    """N input samples paired with N discretized response curves.

    Parameters
    ----------
    inputs : array-like of shape (N, p)
        Input samples, one row per realization.
    responses : array-like of shape (N, n_t)
        Curve samples on the shared grid, one row per realization.
    grid : TimeGrid
        The common uniform time grid.
    input_names : sequence of str, optional
        Column names for the inputs; defaults to x1..xp.
    """

    def __init__(self, inputs, responses, grid: TimeGrid, input_names=None):
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        responses = np.atleast_2d(np.asarray(responses, dtype=float))
        if inputs.shape[0] != responses.shape[0]:
            raise ValueError(
                f"row mismatch: {inputs.shape[0]} inputs vs "
                f"{responses.shape[0]} responses"
            )
        if responses.shape[1] != grid.n_t:
            raise ValueError(
                f"responses have {responses.shape[1]} columns, grid has {grid.n_t}"
            )
        if not np.all(np.isfinite(inputs)):
            raise ValueError("non-finite input entries")
        if not np.all(np.isfinite(responses)):
            raise ValueError("non-finite response entries")
        if input_names is None:
            input_names = tuple(f"x{i + 1}" for i in range(inputs.shape[1]))
        elif len(input_names) != inputs.shape[1]:
            raise ValueError("input_names length does not match input columns")
        self.inputs = inputs
        self.responses = responses
        self.grid = grid
        self.input_names = tuple(input_names)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def p(self) -> int:
        return self.inputs.shape[1]


def model_nrmse(truth, pred) -> float:
    """Test-set error: per-curve RMS over time divided by curve range,
    averaged over all curves.
    """
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    if truth.shape != pred.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {pred.shape}")
    spans = truth.max(axis=1) - truth.min(axis=1)
    if np.any(spans <= 0.0):
        raise ValueError("constant truth curve; NRMSE undefined")
    rms = np.sqrt(np.mean((truth - pred) ** 2, axis=1))
    return float(np.mean(rms / spans))


def cho_with_jitter(A):
    """Lower Cholesky factor L of a symmetric matrix as dpotrf returns it
    (upper triangle zero), for dpotrs(L, b, lower=1).

    Tries each relative jitter on the JITTERS ladder in turn, adding
    jitter * max|diag A| to the diagonal, and returns (L, absolute jitter
    added) for the first that factorizes.  Raises LinAlgError when none
    does, and ValueError on a NaN or inf, which dpotrf does not reject.
    """
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has a non-finite entry")
    scale = np.abs(np.diag(A)).max()
    for rel in JITTERS:
        L, info = dpotrf(A + rel * scale * np.eye(A.shape[0]), lower=1)
        if info == 0:
            return L, rel * scale
    raise np.linalg.LinAlgError(
        f"singular even after jitter up to {JITTERS[-1]:.0e} * max|diag| = "
        f"{JITTERS[-1] * scale:.3e}"
    )


def _loaded_openblas() -> list:
    """(setter, getter) ctypes functions of each bundled OpenBLAS that
    /proc/self/maps lists in this process; none where it cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for set_name, get_name in OPENBLAS_THREAD_FUNCTIONS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((setter, getter))
    return found


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's and scipy's bundled OpenBLAS at one thread
    each, and restore their thread counts on exit.  Yields whether it
    pinned any: a BLAS without OPENBLAS_THREAD_FUNCTIONS is left as it is.

    A BLAS call split over threads sums in an order that depends on the
    thread count, so results computed under the pin have the same bits
    whatever OPENBLAS_NUM_THREADS is.  Processes forked inside the block
    inherit the pin.
    """
    libs = _loaded_openblas()
    previous = [getter() for _, getter in libs]
    for setter, _ in libs:
        setter(1)
    try:
        yield bool(libs)
    finally:
        for (setter, _), count in zip(libs, previous):
            setter(count)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def run_tasks(task, tasks: range, cpus: int, name, what: str) -> list:
    """[task(i) for i in tasks], computed on up to min(cpus, len(tasks))
    processes: this one and helpers forked from it, where the platform can
    fork.  Every process takes the next i from one shared counter, and a
    helper sends its results once, after the counter runs out, so a full
    pipe never stalls it while this process still computes.  Callers pass
    cpus > 1 only with BLAS pinned (one_blas_thread), which the helpers
    inherit; unpinned, each would start its own BLAS threads.  Helpers are
    forked, not spawned: a spawned one imports numpy and scipy afresh, and
    it gets `task` without pickling it.

    An exception stops the handing out of tasks; the tasks already taken
    finish, and the exception of the lowest failing i is raised, its
    message prefixed with `name(i)`.  Every i below a failing one was
    taken before it, so that is the same exception for any process count.
    A helper that exits without sending its results raises RuntimeError
    with its exit code, naming `what` it did not send.  No helper outlives
    the call.
    """
    fork = cpus > 1 and len(tasks) > 1 and "fork" in multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if fork else None)
    counter = ctx.Value("i", 0)

    def share():
        """(the (i, result) pairs computed, (i, exception) or None)."""
        done = []
        while True:
            with counter.get_lock():
                k = counter.value
                counter.value += 1
            if k >= len(tasks):
                return done, None
            i = tasks[k]
            try:
                done.append((i, task(i)))
            except Exception as err:
                err.args = (f"{name(i)}: {err}",)
                with counter.get_lock():
                    counter.value = len(tasks)
                return done, (i, err)

    def helper(conn) -> None:
        conn.send(share())
        conn.close()

    helpers = []
    try:
        for _ in range(min(cpus, len(tasks)) - 1 if fork else 0):
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=helper, args=(sender,))
            proc.start()
            helpers.append((proc, receiver))
            sender.close()
        shares = [share()]
        for proc, receiver in helpers:
            try:
                shares.append(receiver.recv())
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"a helper process exited with code {proc.exitcode} "
                    f"before sending its {what}"
                ) from None
    finally:
        for proc, receiver in helpers:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            receiver.close()
    failures = [failed for _, failed in shares if failed]
    if failures:
        raise min(failures, key=lambda pair: pair[0])[1]
    done = sorted((pair for pairs, _ in shares for pair in pairs), key=lambda pair: pair[0])
    return [result for _, result in done]


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "true or false",
               int: "a nonnegative integer"}


def json_field(doc: dict, source: str, where: str, key: str, kind: type = float, shape=()):
    """doc[key] of the JSON document `source` (e.g. "model file"), where doc
    sits at key path `where`; ValueError naming `source: where.key` otherwise.

    kind dict, list, str, bool or int: a value of that JSON type (int: a
    nonnegative integer).  kind float: a finite float array of `shape` (an
    entry None: any length), a float for shape (); or for shape None one
    finite JSON number, as a float.  Strings, booleans and integers too large
    for a float are not numbers, though the one conversion per field reads a
    boolean among numbers (or a string among integers beyond int64) as one.
    """
    name = f"{source}: {where}.{key}" if where else f"{source}: {key}"
    if key not in doc:
        raise ValueError(f"{name} is missing")
    value = doc[key]
    if kind is not float:
        if not isinstance(value, kind) or kind is int and (isinstance(value, bool) or value < 0):
            raise ValueError(f"{name} must be {_JSON_KINDS[kind]}, got {value!r}")
        return value
    try:
        array = np.asarray(value)
        # Strings and booleans have dtype kinds of their own.  An integer
        # beyond int64 makes an object array, whose cast overflows past a float.
        array = array.astype(float, copy=False) if array.dtype.kind in "iufO" else None
    except (TypeError, ValueError, OverflowError):  # also ragged nesting
        array = None
    if shape is None:
        if array is None or array.ndim or not np.isfinite(array):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        return float(array)
    if array is None:
        raise ValueError(f"{name} is not an array of numbers")
    if array.ndim != len(shape) or any(
        want is not None and got != want for got, want in zip(array.shape, shape)
    ):
        want = tuple("any" if w is None else w for w in shape)
        raise ValueError(f"{name} has shape {array.shape}, expected {want}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} has a non-finite value")
    return array if array.ndim else float(array)


def check_nodes(where: str, times, grid: TimeGrid, grid_name: str) -> None:
    """Raise ValueError naming `where` and a node count of `times` that is not
    the grid's, or the first node that is NaN or more than 1e-6 dt off the grid's.

    The tolerance also admits the rounding of FLOAT_FMT's 10 significant
    digits, so that nodes this package wrote always pass.
    """
    if times.size != grid.n_t:
        raise ValueError(f"{where}: {times.size} time nodes, {grid_name} has {grid.n_t}")
    tol = 1e-6 * grid.dt + 1e-9 * max(abs(grid.t0), abs(grid.te))
    off = np.flatnonzero(~(np.abs(times - grid.nodes) <= tol))
    if off.size:
        j = off[0]
        raise ValueError(
            f"{where}: time node {j + 1} is {FLOAT_FMT % times[j]}, "
            f"{grid_name} has {FLOAT_FMT % grid.nodes[j]}"
        )


def latin_hypercube(n: int, p: int, bounds, rng: np.random.Generator):
    """Latin hypercube design: one sample in each of n equal strata per dim.

    Parameters
    ----------
    n : int
        Number of samples (>= 1).
    p : int
        Number of dimensions.
    bounds : sequence of (lower, upper) pairs, length p.
    rng : numpy Generator.

    Returns
    -------
    ndarray of shape (n, p)
    """
    if n < 1:
        raise ValueError("need n >= 1")
    bounds = np.asarray(bounds, dtype=float).reshape(p, 2)
    if np.any(bounds[:, 0] >= bounds[:, 1]):
        raise ValueError("each lower bound must be below its upper bound")
    out = np.empty((n, p))
    for j in range(p):
        strata = (rng.permutation(n) + rng.random(n)) / n
        lo, hi = bounds[j]
        out[:, j] = lo + strata * (hi - lo)
    return out


def mirror_rows(curves):
    """Reflect each sampled curve (row) about its endpoint to one full period.

    [y_1..y_n] becomes [y_1..y_n, y_{n-1}..y_2]; appending the first sample
    after the last closes a continuous periodic extension with period
    2 (te - t0) and no repeated samples.
    """
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    return np.concatenate([curves, curves[:, -2:0:-1]], axis=1)


def fit_nodes(grid: TimeGrid, mirror: bool):
    """(nodes, interval) on which curves of `grid` are fitted: the grid
    itself, or with `mirror` the 2 n_t - 2 nodes of mirror_rows' period
    and the basis interval [t0, t0 + 2 (te - t0)]."""
    if mirror:
        nodes = grid.t0 + grid.dt * np.arange(2 * grid.n_t - 2)
        return nodes, (grid.t0, grid.t0 + 2.0 * grid.span)
    return grid.nodes, (grid.t0, grid.te)


def write_atomic(path, lines) -> None:
    """Write newline-terminated lines to path through a temporary sibling
    and a rename, so a reader sees either the old file or the whole new one."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# FLOAT_FMT's text of the finite values within about 1e299 of the largest
# double, which rounds up past it and would read back as inf.
_OVERFLOWING_TEXT = {FLOAT_FMT % v for v in (np.finfo(float).max, -np.finfo(float).max)}


def write_table(path, header, rows) -> None:
    """Write a CSV table through write_atomic: the header cells, then one line
    per row; a cell that is a string as it is, a number with FLOAT_FMT, or
    with 17 significant digits where FLOAT_FMT would round it to inf."""
    def cell(c):
        if isinstance(c, str):
            return c
        text = FLOAT_FMT % c
        return "%.17g" % c if text in _OVERFLOWING_TEXT else text

    def line(cells):
        return ",".join(map(cell, cells))

    write_atomic(path, [line(header)] + [line(row) for row in rows])


def read_table(what: str, path):
    """(header cells, rows) of a CSV table: the first line split at commas,
    and the numbers below it as a float array of shape (rows, columns).

    A ValueError names the `what` file at path: loadtxt's message for a cell
    that does not parse or a row of another length, the two counts for a
    header whose cell count differs from the rows' column count, and for a
    NaN or inf the data row (1 = first after the header line), the column
    and its header cell.  A header line with no data rows below it is
    rejected too."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        lines = fh.readlines()
    if not any(line.strip() for line in lines):
        raise ValueError(f"{what} file {path}: no data rows")
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as err:
        raise ValueError(f"{what} file {path}: {err}") from None
    if len(header) != data.shape[1]:
        raise ValueError(
            f"{what} file {path}: header has {len(header)} cells, "
            f"rows have {data.shape[1]} columns"
        )
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValueError(
            f"{what} file {path}: data row {row + 1}, column {col + 1} ({header[col]}) "
            f"is {data[row, col]} ({bad.shape[0]} non-finite in the file)"
        )
    return header, data


def save_ensemble(ens: ResponseEnsemble, responses_path, inputs_path) -> None:
    """Write an ensemble as two CSV tables: the responses under a header of
    time nodes, and the inputs under their names."""
    write_table(responses_path, ens.grid.nodes, ens.responses)
    write_table(inputs_path, ens.input_names, ens.inputs)


def load_ensemble(responses_path, inputs_path) -> ResponseEnsemble:
    """Read an ensemble written by save_ensemble.

    The time nodes must be uniform: check_nodes against the grid through
    the first and last node.
    """
    nodes, curves = read_table("responses", responses_path)
    try:
        times = np.array(nodes, dtype=float)
    except ValueError as err:
        raise ValueError(f"responses file {responses_path}: time nodes: {err}") from None
    names, inputs = read_table("inputs", inputs_path)
    grid = TimeGrid(float(times[0]), float(times[-1]), times.size)
    check_nodes(f"responses file {responses_path}", times, grid, "uniform grid")
    return ResponseEnsemble(inputs, curves, grid, input_names=names)
