"""Conformal data contamination tests.

Each family maps a batch of m conformal p-values to a statistic T and a
p-value u for H0: contamination factor <= pi_th.  Decomposing over the
number k of inliers in the batch, with b_k the inlier-count binomial mass
and U(j, x) = sum_{k<=j} b_k + sum_{k>j} b_k F_NHG(x; n+k, n, k-j):

  Storey    T = #{p_i > lambda},      exact at any calibration size:
            u = U(T, floor(lambda (n+1)) - 1)
  Quantile  T = (n+1) p_(m-i0),       exact:
            u = U(i0, T - 1)
  Fisher    T = 2 sum log((n+1) p_i), asymptotic in n
  Sum       T = sum p_i,              asymptotic in n
  GenericG  T = sum g(p_i) for an increasing nonnegative g, asymptotic

with n the calibration-set size.  The asymptotic families share one
formula: u = pi_th^m + sum_{k>=1} b_k F_{g,k}((T + k(s_k - 1) I_g)/s_k)
where s_k = sqrt(1 + k/n), I_g = int_0^1 g, and F_{g,k} is the CDF of a
k-fold sum of g over uniforms.  Storey and Quantile p-values depend on the
data only through a small integer statistic, so their full value tables
are cached per configuration.  Both read U, built from rows of the one NHG
kernel :func:`~confcontam.statdist.nhg_cdf_rows`, along its two axes.

The Fisher family defaults to the form derived by mapping its transform
through the chi-square complement (``fisher_formula="derived"``); the
variant with the chi-square CDF applied directly (``"printed"``) is kept
for comparison.  The two differ only by F vs 1-F of the same argument, and
Monte Carlo under the null shows the derived orientation is the
superuniform one that also rejects under heavy contamination.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
# nhg_cdf and nhg_cdf_table stay bound for bench/tracing.py, which patches them here
from .statdist import (  # noqa: F401
    GFunction,
    binom_pmf_inliers_vector,
    fisher_variant_g,
    gsum_cdf,
    identity_g,
    nhg_cdf,
    nhg_cdf_rows,
    nhg_cdf_table,
)

__all__ = [
    "FAMILIES",
    "ContamTestResult",
    "ContamTestSpec",
    "default_i0",
    "default_lambda",
    "fisher_pvalue",
    "fisher_stat",
    "generic_g_pvalue",
    "quantile_pvalue",
    "quantile_stat",
    "resolve_spec",
    "run_contam_test",
    "run_contam_tests",
    "storey_pvalue",
    "storey_stat",
    "sum_pvalue",
    "sum_stat",
]

FAMILIES = ("storey", "quantile", "fisher", "sum", "generic_g")

# entries kept per exact-table cache, so scans over fresh pi_th stay bounded
TABLE_CACHE_SIZE = 128


@dataclass(frozen=True)
class ContamTestSpec:
    """Test family, contamination threshold, and family hyperparameters.

    lam (Storey) must sit on the grid {1, ..., n_cal}/(n_cal + 1); i0
    (Quantile) in [0, m-1]; g (GenericG) an increasing nonnegative
    transform.  Leave lam/i0 as None to get the defaults
    floor(n_cal/8)/(n_cal+1) and floor(m/3) at run time.
    """

    family: str
    pi_th: float
    lam: float | None = None
    i0: int | None = None
    g: GFunction | None = None
    fisher_formula: str = "derived"  # or "printed"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if not 0.0 <= self.pi_th < 1.0:
            raise ConfigurationError(f"pi_th must lie in [0, 1), got {self.pi_th}")
        if self.fisher_formula not in ("derived", "printed"):
            raise ConfigurationError(
                f"fisher_formula must be 'derived' or 'printed', got {self.fisher_formula!r}"
            )


@dataclass(frozen=True)
class ContamTestResult:
    statistic: float
    p_value: float
    spec: ContamTestSpec
    m: int
    n_cal: int


def default_lambda(n_cal: int) -> float:
    """floor(n_cal/8)/(n_cal+1), clamped onto the grid for tiny n_cal."""
    return max(1, n_cal // 8) / (n_cal + 1)


def default_i0(m: int) -> int:
    """floor(m/3)."""
    return m // 3


def lambda_grid_index(lam: float, n_cal: int) -> int:
    """Map lam to its integer grid index r with lam = r/(n_cal+1); off-grid values raise."""
    t = lam * (n_cal + 1)
    r = round(t)
    if abs(t - r) > 1e-9 or not 1 <= r <= n_cal:
        raise ConfigurationError(
            f"lambda={lam} is not on the grid {{1,...,{n_cal}}}/{n_cal + 1}"
        )
    return r


def _one_row(pvalues) -> np.ndarray:
    return np.asarray(pvalues, dtype=float).reshape(1, -1)


def _storey_stats(p: np.ndarray, lam: float, n_cal: int) -> np.ndarray:
    lam_grid = lambda_grid_index(lam, n_cal) / (n_cal + 1)
    return np.sum(p > lam_grid, axis=1)


def storey_stat(pvalues, lam: float, n_cal: int) -> int:
    """Count of conformal p-values strictly above lambda."""
    return int(_storey_stats(_one_row(pvalues), lam, n_cal)[0])


def _mixture(b: np.ndarray, n_cal: int, j: int, x_hi: int) -> np.ndarray:
    """U(j, x) over x = 0..x_hi, for b the binomial over k = 0..m and j < m."""
    rows = nhg_cdf_rows(n_cal, j, np.arange(j + 1, b.size), x_hi)
    return np.minimum(np.sum(b[: j + 1]) + b[j + 1 :] @ rows, 1.0)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _storey_table(m: int, n_cal: int, lam_index: int, pi_th: float) -> np.ndarray:
    """U(T, lam_index - 1) at index T = 0..m."""
    b = binom_pmf_inliers_vector(m, pi_th)
    x = lam_index - 1
    # U(m, x) sums the whole binomial: 1 exactly
    table = np.array([_mixture(b, n_cal, t, x)[x] for t in range(m)] + [1.0])
    table.flags.writeable = False  # cached, so shared by every caller
    return table


def storey_pvalue(T: int, m: int, n_cal: int, spec: ContamTestSpec) -> float:
    if not 0 <= T <= m:
        raise ValueError(f"T must lie in [0, {m}], got {T}")
    lam = spec.lam if spec.lam is not None else default_lambda(n_cal)
    lam_index = lambda_grid_index(lam, n_cal)
    return float(_storey_table(m, n_cal, lam_index, spec.pi_th)[T])


def _check_i0(i0: int, m: int) -> None:
    if not 0 <= i0 <= m - 1:
        raise ConfigurationError(f"i0 must lie in [0, {m - 1}], got {i0}")


def _quantile_stats(p: np.ndarray, i0: int, n_cal: int) -> np.ndarray:
    m = p.shape[1]
    _check_i0(i0, m)
    order_stat = np.sort(p, axis=1)[:, m - i0 - 1]
    t = order_stat * (n_cal + 1)
    T = np.round(t)
    on_grid = (np.abs(t - T) <= 1e-6) & (1 <= T) & (T <= n_cal + 1)
    if not on_grid.all():
        raise ValueError(
            f"p-value {order_stat[~on_grid][0]} is not on the conformal grid for n_cal={n_cal}"
        )
    return T.astype(np.int64)


def quantile_stat(pvalues, i0: int, n_cal: int) -> int:
    """T = (n_cal+1) p_(m-i0), an integer by the p-value grid property."""
    return int(_quantile_stats(_one_row(pvalues), i0, n_cal)[0])


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _quantile_table(m: int, n_cal: int, i0: int, pi_th: float) -> np.ndarray:
    """U(i0, T - 1) at index T - 1, for T = 1..n_cal+1; requires i0 < m."""
    table = _mixture(binom_pmf_inliers_vector(m, pi_th), n_cal, i0, n_cal)
    table.flags.writeable = False
    return table


def quantile_pvalue(T: int, m: int, n_cal: int, spec: ContamTestSpec) -> float:
    if not 1 <= T <= n_cal + 1:
        raise ValueError(f"T must lie in [1, {n_cal + 1}], got {T}")
    i0 = spec.i0 if spec.i0 is not None else default_i0(m)
    _check_i0(i0, m)
    return float(_quantile_table(m, n_cal, i0, spec.pi_th)[T - 1])


def _fisher_stats(p: np.ndarray, n_cal: int) -> np.ndarray:
    if np.any(p <= 0.0):
        raise ValueError("p-values must be positive (grid property violated)")
    return np.sum(fisher_variant_g(n_cal)(p), axis=1)


def fisher_stat(pvalues, n_cal: int) -> float:
    """T = 2 sum_i log((n_cal+1) p_i); zero iff every p-value is minimal."""
    return float(_fisher_stats(_one_row(pvalues), n_cal)[0])


def _gsum_pvalue(T, m: int, n_cal: int, pi_th: float, g: GFunction):
    """u at every entry of T, over every inlier count k at once.

    The terms b_k F_{g,k}(y_k) are added to pi_th^m left to right in k, so
    each entry gets the bits of a scalar loop over k.
    """
    T = np.asarray(T, dtype=float)
    b = binom_pmf_inliers_vector(m, pi_th)
    # skipped terms total below 1e-16 since every CDF is <= 1
    k = np.flatnonzero(b[1:] >= 1e-18) + 1
    scale = np.sqrt(1.0 + k / n_cal)
    y = (T[..., None] + k * (scale - 1.0) * g.exact_integral) / scale
    terms = np.empty(T.shape + (k.size + 1,))
    terms[..., 0] = pi_th**m
    terms[..., 1:] = b[k] * gsum_cdf(y, k, g)
    return np.fmin(np.add.accumulate(terms, axis=-1)[..., -1], 1.0)


def _fisher_g(n_cal: int, formula: str) -> GFunction:
    g = fisher_variant_g(n_cal)
    if formula == "printed":
        # The formula as printed applies the chi-square CDF directly at
        # 2k ln(n+1) - y: the complement of the closed form.  Kept only for
        # comparison: its orientation reverses, so it does not reject under
        # heavy contamination.
        cdf = g.closed_form_cdf
        g = replace(g, closed_form_cdf=lambda y, k: 1.0 - cdf(y, k))
    return g


def fisher_pvalue(T: float, m: int, n_cal: int, spec: ContamTestSpec) -> float:
    return float(_gsum_pvalue(T, m, n_cal, spec.pi_th, _fisher_g(n_cal, spec.fisher_formula)))


def _sum_stats(p: np.ndarray) -> np.ndarray:
    return np.sum(identity_g(p), axis=1)


def _check_sum_stat(T, m: int) -> None:
    T = np.asarray(T)
    inside = (-1e-12 <= T) & (T <= m + 1e-12)
    if not inside.all():
        raise ValueError(f"T must lie in [0, {m}], got {T[~inside].flat[0]}")


def sum_stat(pvalues) -> float:
    return float(_sum_stats(_one_row(pvalues))[0])


def sum_pvalue(T: float, m: int, n_cal: int, spec: ContamTestSpec) -> float:
    _check_sum_stat(T, m)
    return float(_gsum_pvalue(T, m, n_cal, spec.pi_th, identity_g))


def generic_g_pvalue(pvalues, g: GFunction, n_cal: int, pi_th: float) -> float:
    """Asymptotic p-value for the statistic sum_i g(p_i).

    With g identity_g or fisher_variant_g this reproduces sum_pvalue and
    the derived fisher_pvalue bit for bit (same code path); a g without a
    closed-form CDF goes through the Monte Carlo CDF.
    """
    p = np.asarray(pvalues, dtype=float)
    T = float(np.sum(g(p)))
    return float(_gsum_pvalue(T, p.size, n_cal, pi_th, g))


def resolve_spec(spec: ContamTestSpec, m: int, n_cal: int) -> ContamTestSpec:
    """The spec with its defaults filled in for batches of m points, checked.

    An off-grid lambda, an i0 outside [0, m-1] or a generic_g spec without
    its transform raises ConfigurationError.
    """
    if spec.family == "storey":
        if spec.lam is None:
            spec = replace(spec, lam=default_lambda(n_cal))
        lambda_grid_index(spec.lam, n_cal)
    elif spec.family == "quantile":
        if spec.i0 is None:
            spec = replace(spec, i0=default_i0(m))
        _check_i0(spec.i0, m)
    elif spec.family == "generic_g" and spec.g is None:
        raise ConfigurationError("generic_g family requires a GFunction")
    return spec


def run_contam_tests(pvalues, spec: ContamTestSpec, n_cal: int) -> tuple[np.ndarray, np.ndarray]:
    """Statistics and p-values of every row of an (agents, m) p-value matrix.

    Row i gets the bits that :func:`run_contam_test` gives it alone: the
    exact families gather every row from one cached table, and the
    asymptotic ones evaluate every row and every inlier count in one pass.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 2 or p.shape[1] == 0:
        raise ConfigurationError(
            f"need an (agents, m) p-value matrix with m >= 1, got shape {p.shape}"
        )
    m = p.shape[1]
    spec = resolve_spec(spec, m, n_cal)
    if spec.family == "storey":
        T = _storey_stats(p, spec.lam, n_cal)
        u = _storey_table(m, n_cal, lambda_grid_index(spec.lam, n_cal), spec.pi_th)[T]
    elif spec.family == "quantile":
        T = _quantile_stats(p, spec.i0, n_cal)
        u = _quantile_table(m, n_cal, spec.i0, spec.pi_th)[T - 1]
    elif spec.family == "fisher":
        T = _fisher_stats(p, n_cal)
        u = _gsum_pvalue(T, m, n_cal, spec.pi_th, _fisher_g(n_cal, spec.fisher_formula))
    elif spec.family == "sum":
        T = _sum_stats(p)
        _check_sum_stat(T, m)
        u = _gsum_pvalue(T, m, n_cal, spec.pi_th, identity_g)
    else:  # generic_g
        T = np.sum(spec.g(p), axis=1)
        u = _gsum_pvalue(T, m, n_cal, spec.pi_th, spec.g)
    return T.astype(float), u


def run_contam_test(pvalues, spec: ContamTestSpec, n_cal: int) -> ContamTestResult:
    """The test of one batch: :func:`run_contam_tests` on a one-row matrix.

    The returned result carries the resolved spec (defaults filled in) so a
    run is reproducible from its record alone.
    """
    p = _one_row(pvalues)
    m = p.shape[1]
    if m == 0:
        raise ConfigurationError("empty batch: need at least one conformal p-value")
    spec = resolve_spec(spec, m, n_cal)
    T, u = run_contam_tests(p, spec, n_cal)
    return ContamTestResult(
        statistic=float(T[0]), p_value=float(u[0]), spec=spec, m=m, n_cal=n_cal
    )
