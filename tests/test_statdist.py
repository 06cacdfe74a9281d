"""Distribution layer: exact values, independent oracles, CDF sanity.

Tolerance guide:
  - binomial PMF vs big-integer rationals:               rel 1e-12
  - NHG CDF vs exact enumeration oracle:                 abs 1e-12
  - binomial PMF normalization:                          abs 1e-12
  - Irwin-Hall symmetry identity (k <= 30):              abs 1e-9
  - Irwin-Hall vs numerical convolution oracle (k<=10):  abs 1e-6
  - Monte Carlo G-sum CDF:                               3 binomial SEs
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from confcontam.harness import oracle_nhg_enumeration
from confcontam.statdist import (
    GSUM_MC_SEED,
    GFunction,
    NhgParams,
    binom_pmf_inliers_vector,
    chi2_cdf,
    fisher_variant_g,
    gsum_cdf,
    identity_g,
    irwin_hall_cdf,
    nhg_cdf,
    nhg_cdf_table,
)


class TestBinomPmfInliers:
    def test_trivial_values(self):
        assert binom_pmf_inliers_vector(2, 0.0)[2] == 1.0
        assert binom_pmf_inliers_vector(2, 0.5)[1] == pytest.approx(0.5, abs=1e-15)
        # C(3,2) * 0.9^2 * 0.1, by hand
        assert binom_pmf_inliers_vector(3, 0.1)[2] == pytest.approx(0.243, abs=1e-14)

    def test_against_big_integer_oracle(self):
        # C(m, k) (1-pi)^k pi^(m-k) in exact rationals, pi taken as the
        # binary fraction it is
        for pi in (0.1, 0.5, 0.9):
            q = Fraction(pi)
            for m in range(1, 61, 5):
                pmf = binom_pmf_inliers_vector(m, pi)
                for k in range(m + 1):
                    exact = math.comb(m, k) * (1 - q) ** k * q ** (m - k)
                    assert pmf[k] == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("pi", [0.0, 0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("m", [1, 7, 50, 500])
    def test_normalization(self, m, pi):
        total = float(binom_pmf_inliers_vector(m, pi).sum())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binom_pmf_inliers_vector(0, 0.5)
        with pytest.raises(ValueError):
            binom_pmf_inliers_vector(2, 1.5)
        with pytest.raises(ValueError):
            binom_pmf_inliers_vector(2, -0.1)


class TestNhgCdf:
    def test_support_edges(self):
        params = NhgParams(7, 4, 2)
        assert nhg_cdf(4, params) == 1.0
        assert nhg_cdf(99, params) == 1.0
        assert nhg_cdf(-1, params) == 0.0

    def test_derived_enumeration_values(self):
        # N=5, Ks=4, r=1: X uniform on {0..4}
        assert nhg_cdf(1, NhgParams(5, 4, 1)) == pytest.approx(0.4, abs=1e-12)
        # N=6, Ks=4, r=2: P(X=0)=1/15, P(X=1)=2/15
        assert nhg_cdf(1, NhgParams(6, 4, 2)) == pytest.approx(0.2, abs=1e-12)

    def test_zero_failures_is_point_mass(self):
        params = NhgParams(6, 4, 0)
        assert nhg_cdf(3, params) == 0.0
        assert nhg_cdf(4, params) == 1.0
        table = nhg_cdf_table(params)
        assert list(table[:-1]) == [0.0] * 4 and table[-1] == 1.0

    def test_matches_enumeration_oracle_exhaustively(self):
        for big_n in range(1, 9):
            for ks in range(0, big_n + 1):
                for r in range(0, big_n - ks + 1):
                    params = NhgParams(big_n, ks, r)
                    oracle = oracle_nhg_enumeration(params)
                    table = nhg_cdf_table(params)
                    for x, frac in enumerate(oracle):
                        assert nhg_cdf(x, params) == pytest.approx(float(frac), abs=1e-12)
                        assert table[x] == pytest.approx(float(frac), abs=1e-12)

    def test_monotone_nondecreasing(self):
        params = NhgParams(20, 12, 5)
        table = nhg_cdf_table(params)
        assert np.all(np.diff(table) >= -1e-15)
        assert table[-1] == pytest.approx(1.0, abs=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NhgParams(5, 6, 0)
        with pytest.raises(ValueError):
            NhgParams(5, 3, 3)


class TestChi2Cdf:
    def test_closed_forms(self):
        # dof=2 is exponential with rate 1/2
        assert chi2_cdf(2.0, 2) == pytest.approx(1 - math.exp(-1), rel=1e-12)
        assert chi2_cdf(0.0, 4) == 0.0
        assert chi2_cdf(9.21034, 2) == pytest.approx(0.99, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            chi2_cdf(1.0, 0)


def _ih_convolution_oracle(k_max, h=1.0 / 8192):
    """Numerical k-fold convolution of the uniform density on a grid.

    f_k(x) = F_{k-1}(x) - F_{k-1}(x-1), integrated by cumulative trapezoid;
    the grid aligns with the integer knots so panels stay smooth.
    """
    xs = np.arange(0.0, k_max + h / 2, h)
    cdf = np.clip(xs, 0.0, 1.0)
    tables = {1: cdf.copy()}
    for k in range(2, k_max + 1):
        shifted = np.interp(xs - 1.0, xs, cdf, left=0.0)
        dens = cdf - shifted
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * h / 2)])
        tables[k] = cdf.copy()
    return xs, tables


class TestIrwinHall:
    def test_trivial_values(self):
        assert irwin_hall_cdf(0.5, 1) == 0.5
        assert irwin_hall_cdf(0.5, 2) == pytest.approx(0.125, abs=1e-15)
        assert irwin_hall_cdf(-0.1, 3) == 0.0
        assert irwin_hall_cdf(3.2, 3) == 1.0

    @pytest.mark.parametrize("k", range(1, 11))
    def test_midpoint_symmetry(self, k):
        assert irwin_hall_cdf(k / 2, k) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_identity_exact_regime(self):
        rng = np.random.default_rng(7)
        for k in range(1, 31):
            for x in rng.uniform(0, k, 50):
                total = irwin_hall_cdf(float(x), k) + irwin_hall_cdf(float(k - x), k)
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_convolution_oracle(self):
        xs, tables = _ih_convolution_oracle(10)
        for k in range(1, 11):
            sel = xs <= k
            grid = xs[sel][::57]
            ref = tables[k][sel][::57]
            for x, expected in zip(grid, ref):
                assert irwin_hall_cdf(float(x), k) == pytest.approx(expected, abs=1e-6)

    def test_approximate_regime_is_sane(self):
        # above the exact cutoff: normal approximation, still a CDF
        values = [irwin_hall_cdf(x, 40) for x in np.linspace(0, 40, 101)]
        assert values[0] == 0.0 and values[-1] == 1.0
        assert np.all(np.diff(values) >= 0)
        assert irwin_hall_cdf(20.0, 40) == pytest.approx(0.5, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            irwin_hall_cdf(0.5, 0)


class TestGsumCdf:
    def test_identity_uses_irwin_hall(self):
        assert gsum_cdf(1.0, 2, identity_g) == pytest.approx(0.5, abs=1e-12)
        assert gsum_cdf(0.25, 1, identity_g) == 0.25

    def test_forced_mc_matches_irwin_hall(self):
        n_mc = 200_000
        for y, k in [(0.7, 1), (1.3, 2), (2.0, 4)]:
            exact = irwin_hall_cdf(y, k)
            mc = gsum_cdf(y, k, identity_g, mc_samples=n_mc, force_mc=True)
            se = math.sqrt(exact * (1 - exact) / n_mc)
            assert abs(mc - exact) <= 3 * se

    def test_square_transform_analytic(self):
        g = GFunction(name="square", fn=lambda u: np.asarray(u) ** 2, exact_integral=1 / 3)
        # P(U^2 <= 0.25) = P(U <= 0.5) = 0.5
        mc = gsum_cdf(0.25, 1, g, mc_samples=200_000)
        assert mc == pytest.approx(0.5, abs=3 * math.sqrt(0.25 / 200_000))

    def test_mc_path_is_deterministic(self):
        g = GFunction(name="cube", fn=lambda u: np.asarray(u) ** 3, exact_integral=0.25)
        a = gsum_cdf(0.4, 2, g, mc_samples=50_000)
        b = gsum_cdf(0.4, 2, g, mc_samples=50_000, mc_seed=GSUM_MC_SEED)
        assert a == b

    def test_mc_cache_safe_under_concurrent_insert(self):
        from concurrent.futures import ThreadPoolExecutor

        g = GFunction(
            name="quartic", fn=lambda u: np.asarray(u) ** 4, exact_integral=0.2
        )
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(
                    lambda _: gsum_cdf(0.6, 3, g, mc_samples=50_000), range(16)
                )
            )
        assert len(set(results)) == 1

    def test_rejects_non_monotone_transform(self):
        bad = GFunction(name="hump", fn=lambda u: np.sin(np.asarray(u) * math.pi), exact_integral=2 / math.pi)
        with pytest.raises(ValueError):
            gsum_cdf(0.5, 1, bad, mc_samples=10_000)

    def test_fisher_variant_closed_form(self):
        g = fisher_variant_g(100)
        # sum of one term: P(2 log(101 U) <= y) = P(U <= e^{y/2}/101)
        y = 2.0 * math.log(101 * 0.3)
        assert gsum_cdf(y, 1, g) == pytest.approx(0.3, rel=1e-10)
        assert g.exact_integral == pytest.approx(2 * math.log(101) - 2, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gsum_cdf(0.5, 0, identity_g)


class TestCdfShapeProperties:
    """Every CDF is non-decreasing over a dense probe grid with limits 0 and 1."""

    def test_nhg_shape(self):
        params = NhgParams(30, 18, 7)
        vals = [nhg_cdf(x, params) for x in range(-1, 19)]
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert np.all(np.diff(vals) >= -1e-15)

    def test_chi2_shape(self):
        xs = np.linspace(-1, 60, 200)
        vals = [chi2_cdf(float(x), 6) for x in xs]
        assert vals[0] == 0.0
        assert vals[-1] > 0.999999
        assert np.all(np.diff(vals) >= -1e-15)

    def test_irwin_hall_shape(self):
        for k in (3, 17, 45):
            xs = np.linspace(-0.5, k + 0.5, 157)
            vals = [irwin_hall_cdf(float(x), k) for x in xs]
            assert vals[0] == 0.0 and vals[-1] == 1.0
            assert np.all(np.diff(vals) >= -1e-12)
