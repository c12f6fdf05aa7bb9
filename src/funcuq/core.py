"""Shared numerical primitives: time grids, response ensembles, error
metrics, Latin hypercube designs, seeded randomness, the periodic
mirroring preprocessor, the CSV table format, the JSON value check, the
BLAS thread pin and the process pool.

Random state is always passed in explicitly.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import itertools
import json
import multiprocessing
import operator
import os
import sys
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
        L, info = dpotrf(A + rel * scale * np.eye(A.shape[0]) if rel else A, lower=1)
        if info == 0:
            return L, rel * scale
    raise np.linalg.LinAlgError(
        f"singular even after jitter up to {JITTERS[-1]:.0e} * max|diag| = "
        f"{JITTERS[-1] * scale:.3e}"
    )


@functools.cache
def _loaded_openblas() -> tuple:
    """(setter, getter) ctypes functions of each bundled OpenBLAS that
    /proc/self/maps lists in this process; none where it cannot be read.
    Cached: this module's imports have loaded both before the first call."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
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
    return tuple(found)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's and scipy's bundled OpenBLAS at one thread
    each, and restore their thread counts on exit.  Yields whether it
    pinned any: a BLAS without OPENBLAS_THREAD_FUNCTIONS is left as it is.

    A BLAS call split over threads sums in an order that depends on the
    thread count, so results computed under the pin have the same bits
    whatever OPENBLAS_NUM_THREADS is.  Processes forked inside the block
    inherit the pin.  Blocks may nest.
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


def run_tasks(task, tasks: range, name, what: str) -> list:
    """[task(i) for i in tasks], computed with BLAS at one thread
    (one_blas_thread) on up to min(usable_cpus(), len(tasks)) processes:
    this one and helpers forked from it, which inherit the pin.  Where no
    BLAS can be pinned, or the platform cannot fork, every task runs in
    this process: an unpinned helper would start its own BLAS threads.
    Every process takes the next i from one shared counter, and a helper
    sends its results once, after the counter runs out, so a full pipe
    never stalls it while this process still computes.  Helpers are
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
    with one_blas_thread() as pinned:
        fork = pinned and "fork" in multiprocessing.get_all_start_methods()
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
            for _ in range(min(usable_cpus(), len(tasks)) - 1 if fork else 0):
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


_JSON_BOUNDS = {">=": operator.ge, ">": operator.gt, "<": operator.lt}
_JSON_WORDS = {dict: "an object", list: "an array", str: "a string", bool: "true or false",
               int: "an integer", float: "a finite number"}


def read_json(source: str, path) -> dict:
    """The JSON object in the file at path; ValueError naming `source` (e.g.
    "config c.json") when the text is not JSON or its top level is not an
    object."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:  # also a file that is not UTF-8
            raise ValueError(f"{source}: not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: the top level must be a JSON object, got {doc!r}")
    return doc


def json_field(doc: dict, source: str, where: str, key: str, kind=float, *bounds: str,
               shape=None):
    """doc[key] of the JSON document `source` (e.g. "model file"), where doc
    sits at key path `where`, if it is of `kind` and, for a number, meets
    each of `bounds` (e.g. ">= 0"); otherwise ValueError naming
    `source: where.key`.

    kind dict, list, str or bool: a value of that JSON type.  A tuple: one
    of its values.  [kind]: an array, {str: kind}: an object, each of whose
    entries, named key[i] or key.k, is of kind and meets the bounds.  int:
    an integer; float: a finite number, returned as a float; with a
    `shape`, a finite float array of that shape (an entry None: any
    length).  Strings, booleans, NaN, inf and integers too large for a
    float are not numbers, in an array or alone.
    """
    path = f"{where}.{key}" if where else key
    name = f"{source}: {path}"
    if key not in doc:
        raise ValueError(f"{name} is missing")
    value = doc[key]
    if shape is not None:
        try:
            # An object array keeps each entry's JSON type (bool is not int
            # here); the cast of an integer too large for a float overflows.
            array = np.asarray(value, dtype=object)
            array = array.astype(float) if set(map(type, array.flat)) <= {int, float} else None
        except (TypeError, ValueError, OverflowError):  # also ragged nesting
            array = None
        if array is None:
            raise ValueError(f"{name} is not an array of numbers")
        if array.ndim != len(shape) or any(
            want is not None and got != want for got, want in zip(array.shape, shape)
        ):
            want = tuple("any" if w is None else w for w in shape)
            raise ValueError(f"{name} has shape {array.shape}, expected {want}")
        if not np.all(np.isfinite(array)):
            raise ValueError(f"{name} has a non-finite value")
        return array
    if isinstance(kind, (list, dict)):
        json_field(doc, source, where, key, type(kind))
        if isinstance(kind, dict):
            (inner,), entries = kind.values(), ((f"{path}.{k}", v) for k, v in value.items())
        else:
            (inner,), entries = kind, ((f"{path}[{i}]", v) for i, v in enumerate(value))
        for sub, entry in entries:
            json_field({sub: entry}, source, "", sub, inner, *bounds)
        return value
    if isinstance(kind, tuple):
        ok, want = value in kind, f"one of {list(kind)}"
    elif kind is int or kind is float:
        ok = ((type(value) is int or kind is float and type(value) is float)
              and abs(value) <= sys.float_info.max  # not NaN, inf or beyond a float
              and all(_JSON_BOUNDS[op](value, float(limit))
                      for op, limit in map(str.split, bounds)))
        want = ("a nonnegative integer" if (kind, bounds) == (int, (">= 0",))
                else f"{_JSON_WORDS[kind]} {' and '.join(bounds)}".rstrip())
    else:
        ok, want = isinstance(value, kind), _JSON_WORDS[kind]
    if not ok:
        raise ValueError(f"{name} must be {want}, got {value!r}")
    return float(value) if kind is float else value


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
# Rows per `%` operation of write_table, which bounds its tuple of cells.
_TABLE_BLOCK_ROWS = 256


def write_table(path, header, rows) -> None:
    """Write a CSV table through write_atomic: the header cells, then one line
    per row; a cell that is a string as it is, a number with FLOAT_FMT, or
    with 17 significant digits where FLOAT_FMT would round it to inf.

    Rows (an ndarray, read through .tolist(), or any iterable, read once) go
    in blocks of _TABLE_BLOCK_ROWS, each rendered by one `%` over its
    flattened cells: %s in the columns where the block's first row has a
    string, FLOAT_FMT in the others.  A block whose rows differ in length or
    in where their strings are, or whose text has an overflowing cell, is
    rendered again cell by cell."""
    def cell(c):
        if isinstance(c, str):
            return c
        text = FLOAT_FMT % c
        return "%.17g" % c if text in _OVERFLOWING_TEXT else text

    def render(block):
        first = block[0]
        strings = [j for j, c in enumerate(first) if isinstance(c, str)]
        if len(set(map(len, block))) == 1 and all(
                isinstance(row[j], str) for row in block for j in strings):
            fmt = ",".join("%s" if j in strings else FLOAT_FMT for j in range(len(first)))
            try:
                text = "\n".join([fmt] * len(block)) % tuple(itertools.chain.from_iterable(block))
            except TypeError:
                pass
            else:
                if not any(t in text for t in _OVERFLOWING_TEXT):
                    return text
        return "\n".join(",".join(map(cell, row)) for row in block)

    if isinstance(rows, np.ndarray):
        blocks = (rows[i:i + _TABLE_BLOCK_ROWS].tolist()
                  for i in range(0, len(rows), _TABLE_BLOCK_ROWS))
    else:
        it = iter(rows)
        blocks = iter(lambda: list(itertools.islice(it, _TABLE_BLOCK_ROWS)), [])
    write_atomic(path, [render([list(header)])] + [render(block) for block in blocks])


def _parses(text: str) -> bool:
    """Whether loadtxt reads the non-empty text as one comma-separated row."""
    try:
        np.loadtxt([text], delimiter=",")
    except ValueError:
        return False
    return True


def _parse_error(err: ValueError, lines, header) -> str:
    """loadtxt's reason for rejecting `lines`, located by read_table's
    convention instead of numpy's, which counts a bad cell's row from 0 and
    a ragged row's from 1.  Data rows are the lines loadtxt reads: what
    precedes a '#' on a line, unless that is empty."""
    reason = str(err).split(" at row ")[0]
    ragged = reason.startswith("the number of columns changed")
    rows = [text for text in (line.split("#", 1)[0].rstrip("\r\n") for line in lines) if text]
    width = len(rows[0].split(","))
    for r, text in enumerate(rows, 1):
        cells = text.split(",")
        if ragged:
            if len(cells) != width:
                return f"{reason} at data row {r}"
        elif not _parses(text):
            for c, cell in enumerate(cells):
                if not (cell.strip() and _parses(cell)):
                    name = f" ({header[c]})" if c < len(header) else ""
                    return f"{reason} at data row {r}, column {c + 1}{name}"
    return str(err)


def read_table(what: str, path):
    """(header cells, rows) of a CSV table: the first line split at commas,
    and the numbers below it as a float array of shape (rows, columns).

    A ValueError names the `what` file at path and, for a cell that does not
    parse, a row of another length or a NaN or inf, the data row (1 = first
    after the header line), and for a cell its column and header cell.  A
    header whose cell count differs from the rows' column count fails with
    the two counts, and a header line with no data rows below it fails
    too."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        lines = fh.readlines()
    if not any(line.strip() for line in lines):
        raise ValueError(f"{what} file {path}: no data rows")
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as err:
        raise ValueError(f"{what} file {path}: {_parse_error(err, lines, header)}") from None
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
