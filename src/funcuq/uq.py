"""Forward uncertainty propagation through a batched model (a surrogate
or an exact-model hook) by Monte Carlo, kernel density estimates of
extreme-value distributions, and Bayesian inverse inference of inputs
and noise scale with an affine-invariant ensemble sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import read_table, run_tasks, write_table

DEFAULT_WALKERS = 100
DEFAULT_ITERATIONS = 300
DEFAULT_BURN_IN = 0.5
STRETCH_A = 2.0

_LOG_2PI = math.log(2.0 * math.pi)

# Gaussian-kernel window, in bandwidths.  exp(-z^2/2) rounds to exactly
# 0.0 in double precision once z^2/2 > 1075 ln 2 = 745.13 (below half the
# smallest subnormal), that is for |z| > 38.604.  38.7 leaves a margin for
# the rounding of x -/+ KDE_REACH * h, so no nonzero term lies outside it.
KDE_REACH = 38.7


# ---------------------------------------------------------------------------
# Marginal distributions


@dataclass(frozen=True)
class Normal:
    mean: float
    std: float

    def __post_init__(self):
        if self.std <= 0:
            raise ValueError("std must be positive")

    def sample(self, rng, n):
        return rng.normal(self.mean, self.std, n)

    def logpdf(self, x):
        z = (x - self.mean) / self.std
        return -0.5 * z * z - math.log(self.std) - 0.5 * _LOG_2PI


@dataclass(frozen=True)
class Lognormal:
    """Parameterized by the mean and standard deviation of the variable
    itself (not of its logarithm)."""

    mean: float
    std: float

    def __post_init__(self):
        if self.mean <= 0 or self.std <= 0:
            raise ValueError("lognormal needs positive mean and std")

    @property
    def _sigma2_log(self) -> float:
        return math.log1p((self.std / self.mean) ** 2)

    @property
    def _mu_log(self) -> float:
        return math.log(self.mean) - 0.5 * self._sigma2_log

    def sample(self, rng, n):
        return rng.lognormal(self._mu_log, math.sqrt(self._sigma2_log), n)

    def logpdf(self, x):
        """-inf where x <= 0; a scalar for a scalar x."""
        x = np.asarray(x, dtype=float)
        s2 = self._sigma2_log
        with np.errstate(divide="ignore", invalid="ignore"):
            log_x = np.log(x)
            z = log_x - self._mu_log
            lp = -0.5 * z * z / s2 - log_x - 0.5 * math.log(s2) - 0.5 * _LOG_2PI
        return np.where(x > 0, lp, -math.inf)[()]


@dataclass(frozen=True)
class Uniform:
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("lower bound must be below upper bound")

    def sample(self, rng, n):
        return rng.uniform(self.lower, self.upper, n)

    def logpdf(self, x):
        """A scalar for a scalar x."""
        inside = (self.lower <= x) & (x <= self.upper)
        return np.where(inside, -math.log(self.upper - self.lower), -math.inf)[()]


class InputDistribution:
    """Independent per-dimension marginals."""

    def __init__(self, marginals):
        self.marginals = tuple(marginals)
        if not self.marginals:
            raise ValueError("need at least one marginal")

    @property
    def p(self) -> int:
        return len(self.marginals)

    def sample(self, rng, n):
        out = np.empty((n, self.p))
        for j, marg in enumerate(self.marginals):
            out[:, j] = marg.sample(rng, n)
        return out

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        return sum(marg.logpdf(x[j]) for j, marg in enumerate(self.marginals))


# ---------------------------------------------------------------------------
# Forward UQ


@dataclass
class ForwardUqResult:
    """Monte Carlo moments of the response and its extreme values."""

    mean: np.ndarray
    std: np.ndarray
    maxima: np.ndarray = field(repr=False)
    minima: np.ndarray = field(repr=False)
    kde_grid: np.ndarray = field(repr=False)
    kde_max: np.ndarray = field(repr=False)
    kde_min: np.ndarray = field(repr=False)
    n_mcs: int


def silverman_bandwidth(samples) -> float:
    """0.9 min(std, IQR/1.34) n^(-1/5); errors on zero spread or on
    non-finite samples."""
    samples = np.asarray(samples, dtype=float)
    bad = int(np.count_nonzero(~np.isfinite(samples)))
    if bad:
        raise ValueError(f"{bad} of {samples.size} samples are not finite")
    if samples.size < 2 or samples.min() == samples.max():
        raise ValueError("need at least 2 distinct samples")
    sd = samples.std(ddof=1)
    q75, q25 = np.percentile(samples, [75, 25])
    h = 0.9 * min(sd, (q75 - q25) / 1.34) * samples.size ** (-0.2)
    if h <= 0.0:
        raise ValueError("zero bandwidth (degenerate interquartile range)")
    return float(h)


def kde_pdf(samples, eval_points) -> np.ndarray:
    """Gaussian kernel density estimate with the Silverman bandwidth.

    Exact: each evaluation point sums exp(-z^2/2), z = (x - sample) / h,
    over the contiguous run of sorted samples within KDE_REACH bandwidths
    of it; every term outside that run is exactly 0.0 in double
    precision.  Only the order of summation differs from summing over all
    samples.  Costs O(points x samples in the window) time and O(samples)
    memory: every window is evaluated in the same two buffers.
    """
    samples = np.asarray(samples, dtype=float)
    eval_points = np.asarray(eval_points, dtype=float)
    for name, values in (("samples", samples), ("evaluation points", eval_points)):
        bad = np.count_nonzero(~np.isfinite(values))
        if bad:
            raise ValueError(f"kde_pdf: {bad} non-finite {name}")
    h = silverman_bandwidth(samples)
    ordered = np.sort(samples)
    reach = KDE_REACH * h
    starts = np.searchsorted(ordered, eval_points - reach, side="left")
    stops = np.searchsorted(ordered, eval_points + reach, side="right")
    sums = np.empty(eval_points.size)
    width = int((stops - starts).max(initial=0))
    z_buf, term_buf = np.empty(width), np.empty(width)
    for i, (x, start, stop) in enumerate(zip(eval_points, starts, stops)):
        # exp(-0.5 * z * z) with z = (x - samples) / h, step by step.
        z = np.subtract(x, ordered[start:stop], out=z_buf[: stop - start])
        z /= h
        term = np.multiply(-0.5, z, out=term_buf[: stop - start])
        term *= z
        sums[i] = np.exp(term, out=term).sum()
    return sums / (samples.size * h * math.sqrt(2 * math.pi))


def forward_uq(model, samples, batch_size: int = 4096, kde_points: int = 512) -> ForwardUqResult:
    """Monte Carlo statistics of a batched model over drawn input samples.

    The model, a fitted surrogate or an exact-model hook alike, maps an
    (n, p) block of input rows to (n, n_t) response curves and returns a
    new array per call, which forward_uq overwrites; a result that is not
    C-ordered is copied first.  n_t comes from the first block, and every
    later block must match it.  The mean and the population (1/N)
    standard deviation are accumulated around the first curve, so the
    variance of nearly degenerate inputs is not lost to cancellation.

    Blocks of batch_size samples are evaluated in core.run_tasks' pool,
    with BLAS at one thread.  Block 0 is evaluated alone, in this process,
    and fixes the first curve; the later blocks are shared by the pool's
    processes, each evaluating one block at a time and freeing its curves
    before the next.  A block gives its maxima, its minima and its column
    sums of shifted curves and of their squares, and the sums are added in
    block order, so every result field has the same bits for any process
    count.  A hook runs in whichever process evaluates its block, so this
    process may not see its side effects.  An error names its block and
    rows.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError(f"need an (n, p) array of at least 2 samples, got shape {samples.shape}")
    n_mcs = samples.shape[0]
    starts = range(0, n_mcs, batch_size)
    ref = None

    def block_stats(b):
        nonlocal ref
        block = samples[starts[b] : starts[b] + batch_size]
        curves = np.ascontiguousarray(model(block), dtype=float)
        expected = (block.shape[0], curves.shape[-1] if ref is None else ref.size)
        if curves.shape != expected:
            raise ValueError(f"model returned curves of shape {curves.shape}, expected {expected}")
        maxima, minima = curves.max(axis=1), curves.min(axis=1)
        if ref is None:
            ref = curves[0].copy()
        curves -= ref
        shift_sum = curves.sum(axis=0)
        np.square(curves, out=curves)
        return maxima, minima, shift_sum, curves.sum(axis=0)

    def block_name(b):
        stop = min(starts[b] + batch_size, n_mcs)
        return f"Monte Carlo block {b} (rows {starts[b]}-{stop - 1})"

    # Block 0 sets ref before any helper is forked.
    stats = run_tasks(block_stats, range(1), block_name, "blocks")
    stats += run_tasks(block_stats, range(1, len(starts)), block_name, "blocks")
    maxima = np.concatenate([s[0] for s in stats])
    minima = np.concatenate([s[1] for s in stats])
    shift_sum, shift_sumsq = np.zeros(ref.size), np.zeros(ref.size)
    for _, _, block_sum, block_sumsq in stats:
        shift_sum += block_sum
        shift_sumsq += block_sumsq
    bad = np.count_nonzero(~(np.isfinite(maxima) & np.isfinite(minima)))
    if bad:
        raise ValueError(f"{bad} of {n_mcs} Monte Carlo samples gave non-finite responses")

    mean = ref + shift_sum / n_mcs
    mu_shift = mean - ref
    var = (
        shift_sumsq / n_mcs
        - 2.0 * mu_shift * (shift_sum / n_mcs)
        + mu_shift**2
    )
    std = np.sqrt(np.clip(var, 0.0, None))

    try:
        h_max = silverman_bandwidth(maxima)
        h_min = silverman_bandwidth(minima)
    except ValueError:
        # Degenerate point-mass input: no spread to estimate.
        kde_grid = np.array([])
        kde_max = np.array([])
        kde_min = np.array([])
    else:
        lo = min(maxima.min() - 6 * h_max, minima.min() - 6 * h_min)
        hi = max(maxima.max() + 6 * h_max, minima.max() + 6 * h_min)
        kde_grid = np.linspace(lo, hi, kde_points)
        kde_max = kde_pdf(maxima, kde_grid)
        kde_min = kde_pdf(minima, kde_grid)
    return ForwardUqResult(
        mean=mean,
        std=std,
        maxima=maxima,
        minima=minima,
        kde_grid=kde_grid,
        kde_max=kde_max,
        kde_min=kde_min,
        n_mcs=n_mcs,
    )


# ---------------------------------------------------------------------------
# Inverse UQ


def log_posterior_block(model, x_priors, sigma_prior, observations, thetas) -> np.ndarray:
    """Unnormalized log posterior of a block of inputs and noise stds.

    Each row of thetas is [x_1, ..., x_p, sigma].  Independent Gaussian
    noise of variance sigma^2 at each of the n_t nodes gives each
    observation the likelihood factor
    -(n_t/2) ln(2 pi sigma^2) - ||y_i - M(x)||^2 / (2 sigma^2).
    The priors are scored column by column over the whole block, sigma's
    first.  The model maps an (n, p) input block to (n, n_t) mean curves
    and is called once, on the rows inside the prior support; the other
    rows get -inf.  The observations are copied to C order if they are not
    in it, so the residual sums run over contiguous rows and give the same
    bits for any layout of the same values.
    """
    observations = np.atleast_2d(np.ascontiguousarray(observations, dtype=float))
    if observations.shape[0] == 0:
        raise ValueError("need at least one observation")
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != len(x_priors) + 1:
        raise ValueError(
            f"thetas have {thetas.shape[1]} columns, expected {len(x_priors) + 1}: "
            "one per input prior, then sigma"
        )
    sigma = thetas[:, -1]
    lp = np.array(sigma_prior.logpdf(sigma), dtype=float)
    for j, prior in enumerate(x_priors):
        lp += prior.logpdf(thetas[:, j])
    # A sigma below about 1.5e-162 squares to 0, where the likelihood is
    # inf - inf or 0/0; it gets -inf, the limit for a nonzero residual.
    lp[(sigma <= 0) | (sigma * sigma == 0)] = -math.inf
    inside = np.flatnonzero(lp > -math.inf)
    if inside.size == 0:
        return lp
    curves = np.asarray(model(thetas[inside, :-1]), dtype=float)
    if curves.ndim != 2 or curves.shape[0] != inside.size:
        raise ValueError(f"model returned shape {curves.shape} for {inside.size} input rows")
    n_t = curves.shape[1]
    sigma2 = thetas[inside, -1:] ** 2
    resid2 = ((observations[None, :, :] - curves[:, None, :]) ** 2).sum(axis=2)
    # Below about 1e-154 a sigma's residual term overflows to inf: -inf.
    with np.errstate(over="ignore"):
        loglik = -0.5 * n_t * np.log(2 * math.pi * sigma2) - resid2 / (2 * sigma2)
    lp[inside] += loglik.sum(axis=1)
    return lp


def log_posterior(model, x_priors, sigma_prior, observations, x, sigma) -> float:
    """log_posterior_block of the single row [x, sigma]; here the model maps
    one input point to its mean curve.  Returns -inf outside the prior
    support."""
    theta = np.append(np.asarray(x, dtype=float), sigma)
    return float(log_posterior_block(
        lambda X: np.reshape(model(X[0]), (1, -1)),
        x_priors, sigma_prior, observations, theta,
    )[0])


@dataclass
class PosteriorSamples:
    """Post-burn-in ensemble draws with sampler metadata."""

    draws: np.ndarray = field(repr=False)
    walkers: int
    iterations: int
    burn_in: float
    acceptance_rate: float
    names: tuple = ()


def stretch_draw(rng: np.random.Generator, a: float = STRETCH_A, size=None):
    """Stretch factors with density proportional to 1/sqrt(z) on [1/a, a]:
    one float, or an array of the given size."""
    u = rng.random(size)
    return ((a - 1.0) * u + 1.0) ** 2 / a


def min_walkers(d: int) -> int:
    """The fewest walkers ensemble_mcmc accepts in d dimensions: 2 (d + 1)."""
    return 2 * (d + 1)


def ensemble_mcmc(
    logpost,
    priors,
    walkers: int = DEFAULT_WALKERS,
    iterations: int = DEFAULT_ITERATIONS,
    burn_in: float = DEFAULT_BURN_IN,
    rng: np.random.Generator | None = None,
    a: float = STRETCH_A,
    names=None,
) -> PosteriorSamples:
    """Affine-invariant ensemble sampler with red-blue stretch moves.

    Walkers start at prior draws and are split into two halves,
    [0, W//2) and [W//2, W).  Each iteration moves the first half, then
    the second: every walker k of the moving half proposes
    Y = X_j + z (X_k - X_j) against a random walker j of the other half,
    with z drawn from the 1/sqrt(z) density on [1/a, a], and is accepted
    with probability min(1, z^(d-1) exp(delta log posterior)).  All
    proposals of a half are scored in one logpost call (Foreman-Mackey et
    al. 2013, section 2): logpost maps an (n, d) block to (n,) values.
    The first burn_in fraction of iterations is discarded.
    """
    d = len(priors)
    if walkers < min_walkers(d):
        raise ValueError(f"need at least {min_walkers(d)} walkers for {d} dimensions")
    if iterations < 2:
        raise ValueError("need at least 2 iterations")
    if not 0.0 <= burn_in < 1.0:
        raise ValueError("burn_in fraction must be in [0, 1)")
    if rng is None:
        raise ValueError("an explicit generator is required")

    def logpost_block(block):
        values = np.asarray(logpost(block), dtype=float)
        if values.shape != (block.shape[0],):
            raise ValueError(f"logpost returned shape {values.shape} for {block.shape[0]} rows")
        return values

    state = np.empty((walkers, d))
    for j, prior in enumerate(priors):
        state[:, j] = prior.sample(rng, walkers)
    logp = logpost_block(state)
    if not np.any(np.isfinite(logp)):
        raise ValueError("log posterior is -inf at every initial walker")

    half = walkers // 2
    halves = (slice(0, half), slice(half, walkers))
    chain = np.empty((iterations, walkers, d))
    accepted = 0
    for it in range(iterations):
        for moving, other in (halves, halves[::-1]):
            current = state[moving]
            n = current.shape[0]
            partners = state[rng.integers(other.start, other.stop, size=n)]
            z = stretch_draw(rng, a, size=n)
            proposals = partners + z[:, None] * (current - partners)
            lp_new = logpost_block(proposals)
            # -inf minus -inf (a walker that started outside the support
            # proposing outside it again) is NaN and is rejected.
            with np.errstate(invalid="ignore"):
                log_ratio = (d - 1) * np.log(z) + lp_new - logp[moving]
                accept = rng.random(n) < np.exp(np.minimum(log_ratio, 0.0))
            current[accept] = proposals[accept]
            logp[moving][accept] = lp_new[accept]
            accepted += int(accept.sum())
        chain[it] = state
    n_burn = int(burn_in * iterations)
    draws = chain[n_burn:].reshape(-1, d)
    return PosteriorSamples(
        draws=draws,
        walkers=walkers,
        iterations=iterations,
        burn_in=burn_in,
        acceptance_rate=accepted / (walkers * iterations),
        names=tuple(names) if names else tuple(f"x{j + 1}" for j in range(d)),
    )


def posterior_summary(samples: PosteriorSamples):
    """Per-parameter mean and equal-tailed 95% credible interval."""
    if samples.draws.size == 0:
        raise ValueError("empty sample set")
    lo, hi = np.percentile(samples.draws, [2.5, 97.5], axis=0)
    means = samples.draws.mean(axis=0)
    return [
        {"name": samples.names[j], "mean": float(means[j]),
         "ci_low": float(lo[j]), "ci_high": float(hi[j])}
        for j in range(samples.draws.shape[1])
    ]


# ---------------------------------------------------------------------------
# Observation files: time nodes in column 1, one observation per later column


def save_observations(path, times, observations) -> None:
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    header = ["t"] + [f"obs{i + 1}" for i in range(observations.shape[0])]
    write_table(path, header, np.column_stack([times, observations.T]))


def load_observations(path):
    """Time nodes and observed curves (one row each), as read_table reads
    the file."""
    _, data = read_table("observations", path)
    times = data[:, 0]
    observations = np.ascontiguousarray(data[:, 1:].T)
    if observations.shape[0] == 0:
        raise ValueError(f"observations file {path}: no observation columns")
    return times, observations
