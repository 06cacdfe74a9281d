"""Log-space distributions behind the contamination p-value formulas.

Covers the negative hypergeometric law governing order statistics of
conformal p-values (every NHG CDF comes from one kernel, :func:`nhg_cdf_rows`),
the inlier-count binomial that weights batch compositions, the chi-square
and Irwin-Hall CDFs used by the asymptotic combination tests, and Monte
Carlo CDFs for sums of a transformed uniform.

All combinatorial masses are computed in log space (via ``gammaln``) and
exponentiated at the end, so batch sizes of a few hundred stay exact to
double precision instead of overflowing naive factorials.

Everything here is pure given its inputs; the only shared state is the
Monte Carlo sample cache behind :func:`gsum_cdf`, which is lock-protected
(pre-warm it single-threaded if you plan to hammer it from many threads).
"""

from __future__ import annotations

import math
import threading
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammainc, gammaln

__all__ = [
    "BinomParams",
    "GFunction",
    "NhgParams",
    "binom_pmf_inliers",
    "binom_pmf_inliers_vector",
    "chi2_cdf",
    "fisher_variant_g",
    "gsum_cdf",
    "identity_g",
    "irwin_hall_cdf",
    "log_binom_coef",
    "nhg_cdf",
    "nhg_cdf_rows",
    "nhg_cdf_table",
]

# Beyond this order the exact alternating sum costs big-integer arithmetic
# for nothing: the CLT error is already below 1e-3 test tolerances.
IRWIN_HALL_EXACT_MAX = 30

GSUM_MC_SAMPLES = 10**6
GSUM_MC_SEED = 20250801


@dataclass(frozen=True)
class NhgParams:
    """Negative hypergeometric parameters.

    The variate is the number of successes drawn, without replacement, from
    a population of ``population_size`` items (of which ``success_states``
    are successes) before the ``failures``-th failure appears.  Support is
    ``{0, ..., success_states}``.  ``failures = 0`` degenerates to a point
    mass at ``success_states``: with no failure to stop on, every success
    is eventually drawn.
    """

    population_size: int
    success_states: int
    failures: int

    def __post_init__(self) -> None:
        n, ks, r = self.population_size, self.success_states, self.failures
        if n < 1:
            raise ValueError(f"population_size must be >= 1, got {n}")
        if not 0 <= ks <= n:
            raise ValueError(f"success_states must lie in [0, {n}], got {ks}")
        if not 0 <= r <= n - ks:
            raise ValueError(f"failures must lie in [0, {n - ks}], got {r}")


@dataclass(frozen=True)
class BinomParams:
    """Inlier-count binomial for a batch of ``trials`` points.

    The variate k counts inliers: mass C(m, k) (1-pi)^k pi^(m-k) where pi is
    the contamination factor, so pi = 0 puts all mass at k = m.
    """

    trials: int
    contamination: float

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 <= self.contamination <= 1.0:
            raise ValueError(
                f"contamination must lie in [0, 1], got {self.contamination}"
            )


def _log_comb(n, k):
    # no validation: callers guarantee 0 <= k <= n elementwise
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def log_binom_coef(n: int, k: int) -> float:
    """ln C(n, k) via log-gamma."""
    if n < 0 or k < 0:
        raise ValueError(f"arguments must be nonnegative, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    return float(_log_comb(n, k))


def binom_pmf_inliers_vector(trials: int, contamination: float) -> np.ndarray:
    """PMF of the inlier-count binomial over k = 0..trials.

    Endpoints pi in {0, 1} are handled as exact point masses so the
    degenerate no-contamination / all-contamination batches carry weight
    exactly 1.
    """
    m, pi = trials, contamination
    if m < 1:
        raise ValueError(f"trials must be >= 1, got {m}")
    if not 0.0 <= pi <= 1.0:
        raise ValueError(f"contamination must lie in [0, 1], got {pi}")
    out = np.zeros(m + 1)
    if pi == 0.0:
        out[m] = 1.0
        return out
    if pi == 1.0:
        out[0] = 1.0
        return out
    k = np.arange(m + 1)
    logp = _log_comb(m, k) + k * math.log1p(-pi) + (m - k) * math.log(pi)
    return np.exp(logp)


def binom_pmf_inliers(k: int, params: BinomParams) -> float:
    """P(k inliers) = C(m, k) (1-pi)^k pi^(m-k)."""
    if not 0 <= k <= params.trials:
        raise ValueError(f"k must lie in [0, {params.trials}], got {k}")
    return float(binom_pmf_inliers_vector(params.trials, params.contamination)[k])


def nhg_cdf_rows(n: int, j: int, k, x_hi: int) -> np.ndarray:
    """NHG CDF rows F(x; n+k, n, k-j) over x = 0..x_hi, one row per entry of k.

    Row i is the CDF of the number of successes drawn, from n successes and
    k[i] failures, before the (k[i]-j)-th failure.  Requires every
    k > j >= 0 (at least one failure to stop on) and 0 <= x_hi <= n.
    """
    r = np.asarray(k, dtype=np.int64) - j  # failures to stop on
    x = np.arange(x_hi + 1)
    lf = gammaln(np.arange(n + j + int(r.max()) + 1) + 1.0)  # lf[i] = ln i!
    # P(X = x) = C(x+r-1, x) C(n+j-x, n-x) / C(n+j+r, n), its log built in
    # place; window r-1 of lf holds lf[x+r-1] for every x.
    pmf = sliding_window_view(lf, x_hi + 1)[r - 1]
    pmf -= lf[x]
    pmf -= lf[r - 1][:, None]
    pmf += _log_comb(n + j - x, n - x)
    pmf -= _log_comb(n + j + r, n)[:, None]
    cdf = np.cumsum(np.exp(pmf, out=pmf), axis=1, out=pmf)
    np.minimum(cdf, 1.0, out=cdf)
    if x_hi == n:
        cdf[:, n] = 1.0  # top of support, exact by definition
    return cdf


def nhg_cdf(x, params: NhgParams) -> float:
    """P(X <= x) for X ~ NHG(params); arguments outside the support clamp.

    Integer x expected; a float is floored first.
    """
    x = math.floor(x)
    if x < 0:
        return 0.0
    return float(nhg_cdf_table(params)[min(x, params.success_states)])


def nhg_cdf_table(params: NhgParams) -> np.ndarray:
    """CDF over the full support {0, ..., success_states}."""
    n = params.success_states
    k = params.population_size - n
    if params.failures == 0:
        return (np.arange(n + 1) == n).astype(float)  # point mass at n
    return nhg_cdf_rows(n, k - params.failures, [k], n)[0]


def chi2_cdf(x: float, dof: int) -> float:
    """Chi-square CDF: the regularized lower incomplete gamma P(dof/2, x/2)."""
    if dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    if x <= 0.0:
        return 0.0
    return float(gammainc(dof / 2.0, x / 2.0))


def irwin_hall_cdf(x: float, k: int, exact_max: int = IRWIN_HALL_EXACT_MAX) -> float:
    """CDF of the sum of k iid standard uniforms.

    Alternating sum (1/k!) sum_j (-1)^j C(k, j) (x-j)^k up to ``exact_max``.
    The signed terms reach ~1e11 at k = 30 while the result stays in [0, 1],
    so double-precision terms would surrender ~11 digits to cancellation;
    instead x is taken as the exact dyadic rational it is and the sum is
    evaluated in integer arithmetic, leaving a single correctly-rounded
    float division at the end.  Past ``exact_max`` a normal approximation
    with mean k/2 and variance k/12 is used; its error there is below 1e-3.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if x <= 0.0:
        return 0.0
    if x >= k:
        return 1.0
    if k <= exact_max:
        num, den = float(x).as_integer_ratio()
        total = 0
        for j in range(math.floor(x) + 1):
            term = math.comb(k, j) * (num - j * den) ** k
            total += -term if j & 1 else term
        val = total / (den**k * math.factorial(k))
        return min(1.0, max(0.0, val))
    z = (x - k / 2.0) / math.sqrt(k / 12.0)
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class GFunction:
    """Increasing, nonnegative transform of a p-value on [0, 1].

    ``exact_integral`` is the exact value of int_0^1 fn(u) du, needed by the
    finite-sample centering of the asymptotic p-values.  When
    ``closed_form_cdf`` is set, it evaluates the CDF of sum_{i<=k} fn(U_i)
    directly and the Monte Carlo path is skipped.  ``name`` identifies the
    transform in the Monte Carlo cache, so distinct transforms must not
    share a name.

    The moment/regularity conditions that make the asymptotic p-value valid
    are the caller's responsibility; only nonnegativity and monotonicity are
    probed (and only on the Monte Carlo path).
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    exact_integral: float
    closed_form_cdf: Callable[[float, int], float] | None = None

    def __call__(self, u):
        return self.fn(u)


def _identity_fn(u):
    return np.asarray(u, dtype=float)


identity_g = GFunction(
    name="identity",
    fn=_identity_fn,
    exact_integral=0.5,
    closed_form_cdf=irwin_hall_cdf,
)


def fisher_variant_g(n_cal: int) -> GFunction:
    """Fisher-shaped transform g(u) = 2 log((n_cal+1) u).

    Increasing with int_0^1 g = 2 log(n_cal+1) - 2, and nonnegative on the
    conformal p-value grid {1, ..., n_cal+1}/(n_cal+1) (not on all of
    (0, 1), which is why this transform always rides its closed form:
    sum_i g(U_i) = 2k log(n_cal+1) - chi^2_{2k} in distribution, so
    P(sum <= y) = 1 - F_chi2_{2k}(2k log(n_cal+1) - y).
    """
    if n_cal < 1:
        raise ValueError(f"n_cal must be >= 1, got {n_cal}")
    ln_np1 = math.log(n_cal + 1.0)

    def fn(u):
        return 2.0 * (np.log(np.asarray(u, dtype=float)) + ln_np1)

    def cdf(y: float, k: int) -> float:
        return 1.0 - chi2_cdf(2.0 * k * ln_np1 - y, 2 * k)

    return GFunction(
        name=f"fisher_n{n_cal}",
        fn=fn,
        exact_integral=2.0 * ln_np1 - 2.0,
        closed_form_cdf=cdf,
    )


_gsum_cache: dict[tuple, np.ndarray] = {}
_gsum_lock = threading.Lock()


def _probe_monotone(g: GFunction, grid_size: int = 257) -> None:
    u = np.linspace(0.0, 1.0, grid_size)
    v = np.asarray(g(u), dtype=float)
    if np.any(np.diff(v) < -1e-12):
        raise ValueError(f"g={g.name!r} is not non-decreasing on [0, 1]")
    if np.any(v < -1e-12):
        raise ValueError(f"g={g.name!r} takes negative values on [0, 1]")


def _gsum_mc_sample(g: GFunction, k: int, mc_samples: int, mc_seed: int) -> np.ndarray:
    key = (g.name, k, mc_samples, mc_seed)
    with _gsum_lock:
        hit = _gsum_cache.get(key)
    if hit is not None:
        return hit
    _probe_monotone(g)
    rng = np.random.default_rng([mc_seed, zlib.crc32(g.name.encode()), k])
    total = np.zeros(mc_samples)
    for _ in range(k):
        total += np.asarray(g(rng.uniform(size=mc_samples)), dtype=float)
    total.sort()
    with _gsum_lock:
        return _gsum_cache.setdefault(key, total)


def gsum_cdf(
    y: float,
    k: int,
    g: GFunction,
    mc_samples: int = GSUM_MC_SAMPLES,
    mc_seed: int = GSUM_MC_SEED,
    force_mc: bool = False,
) -> float:
    """CDF of sum_{i=1}^k g(U_i), U_i iid standard uniform, at y.

    Transforms with a closed form use it; anything else gets an
    empirical CDF over a cached Monte Carlo sample drawn under a sub-seed
    fixed by (mc_seed, g.name, k), so repeated calls are deterministic.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if g.closed_form_cdf is not None and not force_mc:
        return float(g.closed_form_cdf(y, k))
    sample = _gsum_mc_sample(g, k, mc_samples, mc_seed)
    return float(np.searchsorted(sample, y, side="right")) / sample.size
