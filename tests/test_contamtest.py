"""Contamination test families: hand-derived values, duality, properties.

Tolerance guide:
  - hand-derived / closed-form values:        abs 1e-12
  - Storey-Quantile duality:                  abs 1e-12
  - exact tables against scipy references:    abs 1e-12
  - generic-G closed-form consistency:        bitwise
  - generic-G Monte Carlo CDF consistency:    3 Monte Carlo SEs
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy.special import gammainc

from confcontam.contamtest import (
    ContamTestSpec,
    default_i0,
    default_lambda,
    fisher_pvalue,
    fisher_stat,
    generic_g_pvalue,
    quantile_pvalue,
    quantile_stat,
    run_contam_test,
    run_contam_tests,
    storey_pvalue,
    storey_stat,
    sum_pvalue,
    sum_stat,
)
from confcontam.errors import ConfigurationError
from confcontam.statdist import (
    GFunction,
    NhgParams,
    binom_pmf_inliers_vector,
    fisher_variant_g,
    identity_g,
    nhg_cdf,
)


def _spec(family, pi_th, **kw):
    return ContamTestSpec(family=family, pi_th=pi_th, **kw)


class TestStoreyStat:
    def test_direct_counts(self):
        p = [0.1, 0.5, 0.9]
        assert storey_stat(p, 0.3, 9) == 2
        assert storey_stat([0.1, 0.2], 0.3, 9) == 0
        assert storey_stat([0.5, 0.9], 0.3, 9) == 2

    def test_off_grid_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            storey_stat([0.5], 0.37, 9)


class TestStoreyPvalue:
    def test_t_equals_m_gives_one(self):
        spec = _spec("storey", 0.3, lam=2 / 11)
        assert storey_pvalue(5, 5, 10, spec) == 1.0
        # degenerate zero-threshold variant lands there too
        spec0 = _spec("storey", 0.0, lam=2 / 11)
        assert storey_pvalue(5, 5, 10, spec0) == 1.0

    def test_zero_threshold_reduces_to_single_nhg(self):
        # pi_th = 0 concentrates the binomial at k = m
        lam, n_cal, m, T = 3 / 11, 10, 4, 2
        spec = _spec("storey", 0.0, lam=lam)
        expected = nhg_cdf(2, NhgParams(n_cal + m, n_cal, m - T))
        assert storey_pvalue(T, m, n_cal, spec) == pytest.approx(expected, abs=1e-15)

    def test_hand_derived_value(self):
        # n_cal=4, m=2, lambda=2/5, pi_th=0.5, T=0:
        # 0.5 * F_NHG(1;5,4,1) + 0.25 * F_NHG(1;6,4,2) + 0.25 = 0.5
        spec = _spec("storey", 0.5, lam=2 / 5)
        assert storey_pvalue(0, 2, 4, spec) == pytest.approx(0.5, abs=1e-12)

    def test_t_out_of_range(self):
        spec = _spec("storey", 0.5, lam=2 / 5)
        with pytest.raises(ValueError):
            storey_pvalue(3, 2, 4, spec)


class TestQuantileStat:
    def test_order_statistic_selection(self):
        p = [1 / 5, 3 / 5]
        assert quantile_stat(p, 0, 4) == 3
        assert quantile_stat(p, 1, 4) == 1

    def test_largest_and_smallest(self):
        p = [2 / 6, 4 / 6, 5 / 6]
        assert quantile_stat(p, 0, 5) == 5
        assert quantile_stat(p, 2, 5) == 2

    def test_i0_out_of_range(self):
        with pytest.raises(ConfigurationError):
            quantile_stat([0.2, 0.4], 2, 4)


class TestQuantilePvalue:
    def test_floor_from_second_sum(self):
        # i0 = m-1 keeps at least sum_{k<=m-1} b_k = 1 - (1-pi)^m
        spec = _spec("quantile", 0.5, i0=1)
        assert quantile_pvalue(1, 2, 4, spec) >= 0.75 - 1e-12

    def test_hand_derived_duality_value(self):
        spec = _spec("quantile", 0.5, i0=0)
        assert quantile_pvalue(2, 2, 4, spec) == pytest.approx(0.5, abs=1e-12)

    def test_top_of_support_gives_one(self):
        spec = _spec("quantile", 0.0, i0=1)
        assert quantile_pvalue(5, 3, 4, spec) == pytest.approx(1.0, abs=1e-12)

    def test_t_out_of_range(self):
        spec = _spec("quantile", 0.5, i0=0)
        with pytest.raises(ValueError):
            quantile_pvalue(0, 2, 4, spec)


class TestStoreyQuantileDuality:
    def test_small_sweep_exact(self):
        for n_cal in (2, 5, 8):
            for m in (1, 3, 6):
                for pi_th in (0.0, 0.2, 0.5):
                    for r in range(1, n_cal + 1):
                        for i0 in range(0, m):
                            s = storey_pvalue(
                                i0, m, n_cal, _spec("storey", pi_th, lam=r / (n_cal + 1))
                            )
                            q = quantile_pvalue(
                                r, m, n_cal, _spec("quantile", pi_th, i0=i0)
                            )
                            assert abs(s - q) <= 1e-12


class TestExactTablesAtScale:
    """Storey and Quantile tables at benchmark sizes against scipy.

    The reference reads F_NHG(x; n+k, n, r) as a hypergeometric tail: X <= x
    iff at least r of the first x + r draws are failures.  scipy's
    hypergeom survival function stays within ~1e-15 of exact arithmetic at
    these sizes, where the betaln pmf behind nhypergeom drifts by up to
    ~9e-13, so the tail identity is itself checked against nhypergeom at
    the smaller size only.
    """

    @staticmethod
    def _nhg_cdf(x, n_cal, k, r):
        from scipy.stats import hypergeom

        return hypergeom.sf(r - 1, n_cal + k, k, x + r)

    def test_tail_identity_matches_nhypergeom(self):
        from scipy.stats import nhypergeom

        m, n_cal, i0 = 100, 200, default_i0(100)
        k, x = np.arange(i0 + 1, m + 1)[:, None], np.arange(n_cal + 1)
        reference = np.cumsum(nhypergeom.pmf(x, n_cal + k, n_cal, k - i0), axis=1)
        assert np.abs(self._nhg_cdf(x, n_cal, k, k - i0) - reference).max() <= 1e-12

    @pytest.mark.parametrize("m,n_cal", [(100, 200), (200, 1000)])
    def test_against_scipy(self, m, n_cal):
        from scipy.stats import binom

        lam = default_lambda(n_cal)
        x_star = round(lam * (n_cal + 1)) - 1
        i0 = default_i0(m)
        k = np.arange(1, m + 1)
        # storey_rows[t, k-1] = F_NHG(x_star; n+k, n, k-t), zero where k <= t
        t_col = np.arange(m)[:, None]
        r = np.maximum(k - t_col, 1)
        storey_rows = np.where(k > t_col, self._nhg_cdf(x_star, n_cal, k, r), 0.0)
        # quantile_rows[k-i0-1, s] = F_NHG(ts[s]-1; n+k, n, k-i0) for k > i0
        kq = k[i0:, None]
        ts = np.arange(1, n_cal + 2, 7)
        quantile_rows = self._nhg_cdf(ts - 1, n_cal, kq, kq - i0)
        for pi_th in (0.03, 0.2, 0.45):
            b = binom.pmf(np.arange(m + 1), m, 1.0 - pi_th)
            storey = _spec("storey", pi_th, lam=lam)
            for t in range(m):
                expected = b[: t + 1].sum() + b[1:] @ storey_rows[t]
                assert abs(storey_pvalue(t, m, n_cal, storey) - expected) <= 1e-12
            assert storey_pvalue(m, m, n_cal, storey) == 1.0
            quantile = _spec("quantile", pi_th, i0=i0)
            expected = b[: i0 + 1].sum() + b[i0 + 1 :] @ quantile_rows
            for t, u in zip(ts, expected):
                assert abs(quantile_pvalue(int(t), m, n_cal, quantile) - u) <= 1e-12


class TestFisherStat:
    def test_all_minimal_gives_zero(self):
        n_cal = 10
        p = np.full(3, 1 / (n_cal + 1))
        assert fisher_stat(p, n_cal) == pytest.approx(0.0, abs=1e-12)

    def test_single_maximal(self):
        assert fisher_stat([1.0], 100) == pytest.approx(2 * math.log(101), rel=1e-12)

    def test_additivity(self):
        rng = np.random.default_rng(0)
        a = rng.integers(1, 12, size=5) / 12
        b = rng.integers(1, 12, size=3) / 12
        total = fisher_stat(np.concatenate([a, b]), 11)
        assert total == pytest.approx(fisher_stat(a, 11) + fisher_stat(b, 11), rel=1e-12)

    def test_zero_pvalue_rejected(self):
        with pytest.raises(ValueError):
            fisher_stat([0.0, 0.5], 10)


class TestFisherPvalue:
    def test_floor(self):
        spec = _spec("fisher", 0.3)
        assert fisher_pvalue(5.0, 4, 50, spec) >= 0.3**4

    def test_frozen_closed_form_value(self):
        # m=1, pi_th=0, n_cal=100, minimal p-value (T=0); independent oracle
        # via the closed exponential form of the chi-square with 2 dof:
        # u = exp(-(2 ln 101 - y1)/2), y1 = (sqrt(1.01)-1)(2 ln 101 - 2)/sqrt(1.01)
        scale = math.sqrt(1.01)
        y1 = (scale - 1.0) * (2 * math.log(101) - 2.0) / scale
        oracle = math.exp(-(2 * math.log(101) - y1) / 2.0)
        spec = _spec("fisher", 0.0)
        assert fisher_pvalue(0.0, 1, 100, spec) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(0.01008, abs=5e-6)

    def test_maximal_pvalue_tends_to_one(self):
        n_cal = 10**6
        spec = _spec("fisher", 0.0)
        T = fisher_stat([1.0], n_cal)
        assert fisher_pvalue(T, 1, n_cal, spec) > 0.999

    def test_printed_variant_flips_orientation(self):
        spec_d = _spec("fisher", 0.0)
        spec_p = _spec("fisher", 0.0, fisher_formula="printed")
        u_d = fisher_pvalue(0.0, 1, 100, spec_d)
        u_p = fisher_pvalue(0.0, 1, 100, spec_p)
        assert u_d == pytest.approx(1.0 - u_p, abs=1e-12)


class TestSumFamily:
    def test_stat_values(self):
        assert sum_stat([0.25, 0.75]) == 1.0
        n_cal = 9
        assert sum_stat(np.full(3, 1 / (n_cal + 1))) == pytest.approx(0.3, rel=1e-12)

    def test_large_calibration_limit(self):
        spec = _spec("sum", 0.0)
        assert sum_pvalue(0.5, 1, 10**6, spec) == pytest.approx(0.5, abs=1e-3)

    def test_minimal_statistic_closed_form(self):
        n_cal = 50
        spec = _spec("sum", 0.0)
        scale = math.sqrt(1 + 1 / n_cal)
        expected = (scale - 1.0) / (2.0 * scale)  # F_IH1 of a small positive
        assert sum_pvalue(0.0, 1, n_cal, spec) == pytest.approx(expected, rel=1e-12)

    def test_t_out_of_range(self):
        with pytest.raises(ValueError):
            sum_pvalue(3.5, 3, 10, _spec("sum", 0.1))


class TestGenericG:
    def test_identity_matches_sum_bitwise(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n_cal = int(rng.integers(5, 60))
            m = int(rng.integers(1, 12))
            pi_th = float(rng.choice([0.0, 0.1, 0.4]))
            p = rng.integers(1, n_cal + 2, size=m) / (n_cal + 1)
            via_generic = generic_g_pvalue(p, identity_g, n_cal, pi_th)
            via_sum = sum_pvalue(sum_stat(p), m, n_cal, _spec("sum", pi_th))
            assert via_generic == via_sum

    def test_fisher_variant_matches_fisher_bitwise(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n_cal = int(rng.integers(5, 60))
            m = int(rng.integers(1, 12))
            pi_th = float(rng.choice([0.0, 0.1, 0.4]))
            p = rng.integers(1, n_cal + 2, size=m) / (n_cal + 1)
            via_generic = generic_g_pvalue(p, fisher_variant_g(n_cal), n_cal, pi_th)
            via_fisher = fisher_pvalue(
                fisher_stat(p, n_cal), m, n_cal, _spec("fisher", pi_th)
            )
            assert via_generic == via_fisher

    def test_square_transform_monte_carlo(self):
        g = GFunction(name="square", fn=lambda u: np.asarray(u) ** 2, exact_integral=1 / 3)
        n_mc = 10**6
        u = generic_g_pvalue([0.5], g, 10**9, 0.0)
        # P(U^2 <= 0.25) = 0.5 up to the vanishing finite-n correction
        assert u == pytest.approx(0.5, abs=3 * math.sqrt(0.25 / n_mc) + 1e-6)


class TestRunContamTest:
    def test_storey_dispatch_hand_value(self):
        # p-values {1/5, 2/5} with lambda=2/5: strict comparison gives T=0
        spec = _spec("storey", 0.5, lam=2 / 5)
        res = run_contam_test([1 / 5, 2 / 5], spec, n_cal=4)
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(0.5, abs=1e-12)
        assert res.m == 2 and res.n_cal == 4

    def test_defaults_resolved_into_result(self):
        res = run_contam_test([0.5, 0.7, 0.9], _spec("storey", 0.1), n_cal=40)
        assert res.spec.lam == pytest.approx(default_lambda(40))
        res_q = run_contam_test([0.5, 0.7, 0.9], _spec("quantile", 0.1), n_cal=9)
        assert res_q.spec.i0 == default_i0(3)

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            run_contam_test([], _spec("sum", 0.1), n_cal=10)

    def test_quantile_i0_mismatch(self):
        with pytest.raises(ConfigurationError):
            run_contam_test([0.5, 0.7], _spec("quantile", 0.1, i0=2), n_cal=9)

    def test_generic_requires_g(self):
        with pytest.raises(ConfigurationError):
            run_contam_test([0.5], _spec("generic_g", 0.1), n_cal=9)

    def test_generic_with_g_runs(self):
        g = GFunction(name="sqrt", fn=lambda u: np.sqrt(np.asarray(u)), exact_integral=2 / 3)
        res = run_contam_test([0.3, 0.6], _spec("generic_g", 0.1, g=g), n_cal=9)
        assert 0.0 <= res.p_value <= 1.0


class TestSharedInvariants:
    """Floor, range, and monotonicity hold across all families."""

    def _grid_pvalues(self, rng, m, n_cal):
        return rng.integers(1, n_cal + 2, size=m) / (n_cal + 1)

    def test_floor_and_range(self):
        rng = np.random.default_rng(11)
        for family in ("storey", "quantile", "fisher", "sum"):
            for _ in range(25):
                n_cal = int(rng.integers(4, 40))
                m = int(rng.integers(1, 10))
                pi_th = float(rng.uniform(0.0, 0.9))
                p = self._grid_pvalues(rng, m, n_cal)
                res = run_contam_test(p, _spec(family, pi_th), n_cal)
                assert res.p_value <= 1.0
                assert res.p_value >= pi_th**m * (1 - 1e-12)

    def test_monotone_in_statistic(self):
        n_cal, m, pi_th = 12, 6, 0.2
        storey = [
            storey_pvalue(t, m, n_cal, _spec("storey", pi_th, lam=3 / 13))
            for t in range(m + 1)
        ]
        assert np.all(np.diff(storey) >= -1e-15)
        quantile = [
            quantile_pvalue(t, m, n_cal, _spec("quantile", pi_th, i0=2))
            for t in range(1, n_cal + 2)
        ]
        assert np.all(np.diff(quantile) >= -1e-15)
        fisher = [
            fisher_pvalue(t, m, n_cal, _spec("fisher", pi_th))
            for t in np.linspace(0, 40, 60)
        ]
        assert np.all(np.diff(fisher) >= -1e-15)
        sums = [
            sum_pvalue(t, m, n_cal, _spec("sum", pi_th)) for t in np.linspace(0, m, 60)
        ]
        assert np.all(np.diff(sums) >= -1e-15)

    def test_monotone_in_pi_th(self):
        rng = np.random.default_rng(12)
        n_cal, m = 15, 5
        p = self._grid_pvalues(rng, m, n_cal)
        for family in ("storey", "quantile", "fisher", "sum"):
            us = [
                run_contam_test(p, _spec(family, pi_th), n_cal).p_value
                for pi_th in np.linspace(0.0, 0.9, 12)
            ]
            assert np.all(np.diff(us) >= -1e-12)


class TestOrderStatisticLaw:
    """Rank enumeration ties the conformal grid to the NHG parameterization.

    With k exchangeable test points against n calibration points, the j-th
    smallest conformal p-value satisfies
    P(p_(j) <= t/(n+1)) = F_NHG(t-1; n+k, n, j) exactly.
    """

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (5, 2), (6, 4)])
    def test_rank_enumeration(self, n, k):
        placements = list(combinations(range(n + k), k))
        total = len(placements)
        for j in range(1, k + 1):
            # grid value of the j-th smallest test p-value per placement
            ranks = [pos[j - 1] - (j - 1) + 1 for pos in placements]
            for t in range(1, n + 2):
                lhs = Fraction(sum(1 for r in ranks if r <= t), total)
                rhs = nhg_cdf(t - 1, NhgParams(n + k, n, j))
                assert abs(float(lhs) - rhs) <= 1e-12


# -- the scalar k-loop that the matrix evaluation replaced, kept as the reference


def _scalar_irwin_hall(x: float, k: int) -> float:
    if x <= 0.0:
        return 0.0
    if x >= k:
        return 1.0
    if k <= 30:
        num, den = float(x).as_integer_ratio()
        total = 0
        for j in range(math.floor(x) + 1):
            term = math.comb(k, j) * (num - j * den) ** k
            total += -term if j & 1 else term
        return min(1.0, max(0.0, total / (den**k * math.factorial(k))))
    z = (x - k / 2.0) / math.sqrt(k / 12.0)
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _scalar_fisher_cdf(y: float, k: int, n_cal: int) -> float:
    x = 2.0 * k * math.log(n_cal + 1.0) - y
    return 1.0 - (0.0 if x <= 0.0 else float(gammainc((2 * k) / 2.0, x / 2.0)))


def _scalar_gsum_pvalue(T: float, m: int, n_cal: int, pi_th: float, family: str) -> float:
    b = binom_pmf_inliers_vector(m, pi_th)
    integral = 0.5 if family == "sum" else 2.0 * math.log(n_cal + 1.0) - 2.0
    acc = pi_th**m
    for k in range(1, m + 1):
        if b[k] < 1e-18:
            continue
        scale = math.sqrt(1.0 + k / n_cal)
        y = (T + k * (scale - 1.0) * integral) / scale
        if family == "sum":
            cdf = _scalar_irwin_hall(y, k)
        elif family == "fisher":
            cdf = _scalar_fisher_cdf(y, k, n_cal)
        else:  # the printed Fisher formula
            cdf = 1.0 - _scalar_fisher_cdf(y, k, n_cal)
        acc += b[k] * cdf
    return min(1.0, acc)


class TestMatrixAsymptoticPvalues:
    """run_contam_tests gives every row the bits of the scalar k-loop."""

    @pytest.mark.parametrize("variant", ["sum", "fisher", "printed"])
    def test_bitwise_equal_to_scalar_loop(self, variant):
        rng = np.random.default_rng({"sum": 1, "fisher": 2, "printed": 3}[variant])
        family = "sum" if variant == "sum" else "fisher"
        formula = "printed" if variant == "printed" else "derived"
        reached_exact = False
        for _ in range(120):
            m = int(rng.integers(1, 151))
            n_cal = int(rng.integers(5, 401))
            pi_th = 0.0 if rng.uniform() < 0.2 else float(rng.uniform(0.0, 0.6))
            rows = rng.integers(1, n_cal + 2, size=(3, m)) / (n_cal + 1)
            spec = _spec(family, pi_th, fisher_formula=formula)
            stats, us = run_contam_tests(rows, spec, n_cal)
            for row, t, u in zip(rows, stats, us):
                if family == "sum":
                    assert t == sum_stat(row) == float(np.sum(row))
                else:
                    assert t == fisher_stat(row, n_cal)
                assert u == _scalar_gsum_pvalue(t, m, n_cal, pi_th, variant)
                assert u == run_contam_test(row, spec, n_cal).p_value
            b = binom_pmf_inliers_vector(m, pi_th)
            reached_exact |= bool(np.any(b[1:31] >= 1e-18))
        assert reached_exact  # some cells take the k <= 30 Irwin-Hall branch
