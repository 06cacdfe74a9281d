"""Scenario generation, Monte Carlo studies, the enumeration oracle and the data source."""

import hashlib
import math

import numpy as np
import pytest

from confcontam.conformal import (
    conformal_pvalues,
    conformal_pvalues_from_scores,
    split_fit,
    stack_features,
)
from confcontam.contamtest import ContamTestSpec, run_contam_test
from confcontam.errors import ConfigurationError
from confcontam.harness import (
    GaussianSource,
    ScenarioConfig,
    gen_scenario,
    mc_fdr_tdr,
    mc_power,
    null_agent_mask,
    oracle_nhg_enumeration,
)
from confcontam.mht import PValueVector, bh, storey_bh
from confcontam.protocol import trainer_from_tag
from confcontam.statdist import NhgParams


def _config(**overrides):
    base = dict(
        n=40, m=15, k=1, ell=0, mu1=4.0,
        pi_rule="fixed", pi_values=(0.3,),
        pi_th=0.1, alpha=0.05, replicates=50, seed=9,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestGenScenario:
    def test_deterministic_per_replicate(self):
        config = _config()
        null_a, batches_a, masks_a = gen_scenario(config, 3)
        null_b, batches_b, masks_b = gen_scenario(config, 3)
        assert np.array_equal(stack_features(null_a), stack_features(null_b))
        assert np.array_equal(
            stack_features(batches_a[0].points), stack_features(batches_b[0].points)
        )
        assert np.array_equal(masks_a[0], masks_b[0])

    def test_distinct_replicates_differ(self):
        config = _config()
        _, batches_a, _ = gen_scenario(config, 0)
        _, batches_b, _ = gen_scenario(config, 1)
        assert not np.array_equal(
            stack_features(batches_a[0].points), stack_features(batches_b[0].points)
        )

    def test_pi_zero_all_inliers(self):
        config = _config(pi_values=(0.0,))
        _, _, masks = gen_scenario(config, 0)
        assert not masks[0].any()

    def test_pi_one_all_outliers_per_2m(self):
        config = _config(pi_values=(1.0,), count_rule="per_2m")
        _, _, masks = gen_scenario(config, 0)
        assert masks[0].all()

    def test_outliers_are_shifted(self):
        config = _config(pi_values=(1.0,), mu1=10.0)
        _, batches, masks = gen_scenario(config, 2)
        feats = stack_features(batches[0].points)
        assert masks[0].all()
        assert feats.mean() > 5.0

    def test_zero_shift_degenerates(self):
        config = _config(mu1=0.0, pi_values=(1.0,))
        null_sample, batches, _ = gen_scenario(config, 0)
        # outliers and inliers share the law; nothing to assert beyond shape
        assert len(null_sample) == config.n and len(batches[0].points) == config.m

    @pytest.mark.parametrize("mu1", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_mu1_rejected(self, mu1):
        with pytest.raises(ConfigurationError):
            _config(mu1=mu1)

    @pytest.mark.parametrize("k0", [-1, 2])
    def test_split_k0_out_of_range_rejected(self, k0):
        with pytest.raises(ConfigurationError):
            _config(pi_rule="split", k0=k0, pi0=0.1, pi1=0.5, pi_values=None)

    @pytest.mark.parametrize(
        "rule",
        [
            dict(pi_rule="split", k0=0, pi0=0.1, pi1=1.5),
            dict(pi_rule="split", k0=1, pi0=-0.1, pi1=0.5),
            dict(pi_rule="fixed", pi_values=(0.2, 1.01)),
        ],
    )
    def test_factor_outside_unit_interval_rejected(self, rule):
        rule = {"pi_values": None, **rule}
        with pytest.raises(ConfigurationError, match=r"\b(pi0|pi1|values)\b"):
            _config(k=2, **rule)
        with pytest.raises(ConfigurationError, match=r"\b(pi0|pi1|values)\b"):
            GaussianSource(n=20, m=10, k=2, seed=8, **rule)

    def test_null_mask_rules(self):
        config = _config(k=4, pi_rule="split", k0=2, pi0=0.1, pi1=0.5, pi_th=0.2)
        assert list(null_agent_mask(config)) == [True, True, False, False]
        with pytest.raises(ConfigurationError):
            null_agent_mask(_config(pi_rule="uniform", pi_values=None))


class TestMcPower:
    def test_max_signal_power_one(self):
        config = _config(pi_values=(1.0,), pi_th=0.0, m=30, replicates=100)
        report = mc_power(config, "storey")
        assert report.estimates["storey"]["power"]["value"] >= 0.99

    def test_null_scenario_respects_level(self):
        config = _config(pi_values=(0.1,), pi_th=0.1, n=60, m=20, replicates=400)
        report = mc_power(config, ["storey", "sum"])
        for fam in ("storey", "sum"):
            cell = report.estimates[fam]["power"]
            assert cell["value"] <= config.alpha + 3 * max(cell["se"], 1e-3) + 0.02

    def test_estimates_well_formed(self):
        config = _config(replicates=40)
        report = mc_power(config, ["quantile", "fisher"])
        assert report.replicates == 40
        assert len(report.rows) == 80
        for fam in ("quantile", "fisher"):
            cell = report.estimates[fam]["power"]
            assert 0.0 <= cell["value"] <= 1.0
            assert cell["se"] == pytest.approx(
                math.sqrt(cell["value"] * (1 - cell["value"]) / 40)
            )

    def test_parallel_matches_serial(self):
        config = _config(replicates=60)
        serial = mc_power(config, "storey")
        parallel = mc_power(config, "storey", threads=2)
        assert serial.estimates == parallel.estimates
        assert serial.rows == parallel.rows

    def test_requires_single_agent(self):
        with pytest.raises(ConfigurationError):
            mc_power(_config(k=2, pi_values=(0.1, 0.2)), "storey")


class TestMcFdrTdr:
    def test_storey_bh_controls_fdr_with_interior_nulls(self):
        # Storey-BH has no guarantee at boundary nulls under dependence;
        # with contamination factors inside the null it is comfortably
        # conservative
        config = _config(
            k=10, pi_rule="split", k0=5, pi0=0.02, pi1=0.6,
            pi_th=0.1, n=80, m=40, mu1=4.0, replicates=150, gamma=0.5,
        )
        report = mc_fdr_tdr(config, ["storey", "quantile"], procedure="storey_bh")
        for fam in ("storey", "quantile"):
            fdr = report.estimates[fam]["fdr"]
            tdr = report.estimates[fam]["tdr"]
            assert fdr["value"] <= config.alpha + 3 * max(fdr["se"], 0.01)
            assert tdr["value"] >= 0.5

    def test_plain_bh_controls_fdr_at_boundary(self):
        # the PRDS-backed guarantee: BH on Storey p-values at level q*
        config = _config(
            k=10, pi_rule="split", k0=5, pi0=0.1, pi1=0.6,
            pi_th=0.1, n=80, m=40, mu1=4.0, replicates=200, gamma=0.5,
        )
        report = mc_fdr_tdr(config, "storey", procedure="bh")
        fdr = report.estimates["storey"]["fdr"]
        assert fdr["value"] <= config.alpha + 3 * max(fdr["se"], 0.01)

    def test_all_null_is_safe(self):
        config = _config(
            k=3, pi_rule="split", k0=3, pi0=0.05, pi1=0.5, pi_th=0.1,
            replicates=60,
        )
        report = mc_fdr_tdr(config, "storey", procedure="bh")
        assert report.estimates["storey"]["tdr"]["value"] == 0.0
        assert report.estimates["storey"]["fdr"]["value"] <= 0.1

    def test_needs_multiple_agents(self):
        with pytest.raises(ConfigurationError):
            mc_fdr_tdr(_config(k=1), "storey")

    def test_parallel_matches_serial(self):
        config = _config(
            k=4, pi_rule="split", k0=2, pi0=0.1, pi1=0.5, pi_th=0.1, replicates=40
        )
        serial = mc_fdr_tdr(config, "sum")
        parallel = mc_fdr_tdr(config, "sum", threads=3)
        assert serial.estimates == parallel.estimates


def _rebuilt_rows(config, families, procedure=None):
    """Study rows rebuilt one datapoint list and one agent at a time."""
    rows = []
    null_mask = null_agent_mask(config) if procedure else None
    for idx in range(config.replicates):
        null, batches, _ = gen_scenario(config, idx)
        cal = split_fit(null, config.ell, trainer_from_tag(config.score))
        pvs = [conformal_pvalues(cal, b.points) for b in batches]
        for fam in families:
            spec = ContamTestSpec(
                family=fam, pi_th=config.pi_th, lam=config.lam, i0=config.i0,
                fisher_formula=config.fisher_formula,
            )
            results = [run_contam_test(pv, spec, cal.n_cal) for pv in pvs]
            if procedure is None:
                res = results[0]
                rows.append({
                    "replicate": idx, "family": fam, "statistic": res.statistic,
                    "p_value": res.p_value, "reject": int(res.p_value <= config.alpha),
                })
                continue
            ids = [b.agent_id for b in batches]
            pvec = PValueVector.make([r.p_value for r in results], ids)
            if procedure == "bh":
                outcome = bh(pvec, config.alpha)
            else:
                outcome = storey_bh(pvec, config.alpha, config.gamma)
            r = len(outcome.rejected)
            v = sum(1 for a, null in zip(ids, null_mask) if null and a in outcome.rejected)
            rows.append({
                "replicate": idx, "family": fam, "V": v, "S": r - v, "R": r,
                "fdp": v / max(1, r), "tdp": (r - v) / max(1, config.k - int(null_mask.sum())),
            })
    return rows


class TestStudyRowsMatchPerAgentPath:
    """The array study path gives the rows of the per-agent Datapoint path."""

    FAMILIES = ["storey", "quantile", "fisher", "sum"]

    @pytest.mark.parametrize("count_rule", ["per_batch", "per_2m"])
    @pytest.mark.parametrize(
        "score, ell, procedure",
        [("negnorm", 0, "storey_bh"), ("knn", 12, "bh"), ("knn", 7, "storey_bh")],
    )
    def test_fdr_rows(self, count_rule, score, ell, procedure):
        config = _config(
            n=60, m=23, k=6, ell=ell, dim=3, score=score, count_rule=count_rule,
            pi_rule="fixed", pi_values=(0.0, 0.05, 0.1, 0.3, 0.6, 1.0), pi_th=0.1,
            mu1=2.0, alpha=0.2, replicates=4,
        )
        report = mc_fdr_tdr(config, self.FAMILIES, procedure=procedure)
        assert report.rows == _rebuilt_rows(config, self.FAMILIES, procedure)

    @pytest.mark.parametrize("count_rule", ["per_batch", "per_2m"])
    @pytest.mark.parametrize("score, ell, formula", [("negnorm", 0, "printed"), ("knn", 9, "derived")])
    def test_power_rows(self, count_rule, score, ell, formula):
        config = _config(
            n=45, m=14, ell=ell, score=score, count_rule=count_rule, pi_values=(0.4,),
            pi_th=0.0 if formula == "printed" else 0.2, fisher_formula=formula, mu1=1.5,
            replicates=5,
        )
        report = mc_power(config, self.FAMILIES)
        assert report.rows == _rebuilt_rows(config, self.FAMILIES)


class TestInlierPvalueLaw:
    def test_dkw_band_around_discrete_uniform(self):
        # one inlier p-value per replicate; the marginal law is uniform on
        # the grid {1..n+1}/(n+1); check the ECDF within the 99% DKW band
        config = _config(pi_values=(0.0,), m=1, n=30, replicates=4000)
        pvals = np.array(
            [r["p_value"] for r in []]  # filled below
        )
        samples = []
        rng_free = []
        for i in range(config.replicates):
            null_sample, batches, _ = gen_scenario(config, i)
            cal_scores = -np.linalg.norm(stack_features(null_sample), axis=1)
            test_scores = -np.linalg.norm(stack_features(batches[0].points), axis=1)
            samples.append(conformal_pvalues_from_scores(cal_scores, test_scores)[0])
        samples = np.sort(np.asarray(samples))
        n_grid = config.n + 1
        band = math.sqrt(math.log(2 / 0.01) / (2 * config.replicates))
        for t in range(1, n_grid + 1):
            empirical = np.searchsorted(samples, t / n_grid + 1e-12) / config.replicates
            assert abs(empirical - t / n_grid) <= band


class TestOracleNhgEnumeration:
    def test_uniform_case(self):
        cdf = oracle_nhg_enumeration(NhgParams(5, 4, 1))
        assert [float(f) for f in cdf] == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])

    def test_three_sequences(self):
        cdf = oracle_nhg_enumeration(NhgParams(3, 2, 1))
        assert [f.numerator for f in cdf] == [1, 2, 1]
        assert [f.denominator for f in cdf] == [3, 3, 1]

    def test_zero_failures_point_mass(self):
        cdf = oracle_nhg_enumeration(NhgParams(4, 3, 0))
        assert [float(f) for f in cdf] == [0.0, 0.0, 0.0, 1.0]

    def test_refuses_large_population(self):
        with pytest.raises(ValueError):
            oracle_nhg_enumeration(NhgParams(11, 5, 2))


class TestGaussianSource:
    def test_batches_depend_only_on_seed_agent_round(self):
        a = GaussianSource(n=20, m=10, k=3, seed=5)
        b = GaussianSource(n=20, m=10, k=3, seed=5)
        # query in different orders
        b.batch("agent002", 2)
        for aid in a.agent_ids():
            for rnd in (1, 2, 3):
                fa = stack_features(a.batch(aid, rnd).points)
                fb = stack_features(b.batch(aid, rnd).points)
                assert np.array_equal(fa, fb)

    def test_rounds_one_two_share_pool(self):
        src = GaussianSource(n=20, m=10, k=1, seed=8)
        r1 = stack_features(src.batch("agent000", 1).points)
        r2 = stack_features(src.batch("agent000", 2).points)
        assert not np.array_equal(r1, r2)
        assert len(r1) == len(r2) == 10

    @pytest.mark.parametrize("mu1", [float("nan"), float("inf")])
    def test_non_finite_mu1_rejected(self, mu1):
        with pytest.raises(ConfigurationError):
            GaussianSource(n=20, m=10, k=1, seed=8, mu1=mu1)

    @pytest.mark.parametrize("k0", [-1, 3])
    def test_split_k0_out_of_range_rejected(self, k0):
        with pytest.raises(ConfigurationError):
            GaussianSource(n=20, m=10, k=2, seed=8, pi_rule="split", k0=k0, pi0=0.0, pi1=0.5)

    @pytest.mark.parametrize("bad", [{"m": 0}, {"k": 0}, {"dim": 0}, {"seed": -1}])
    def test_scenario_values_checked_like_scenario_config(self, bad):
        args = {"n": 20, "m": 10, "k": 2, "seed": 8, **bad}
        with pytest.raises(ConfigurationError):
            GaussianSource(**args)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(**args, pi_rule="fixed", pi_values=(0.1,) * args["k"])

    def test_unknown_agent(self):
        src = GaussianSource(n=20, m=10, k=1, seed=8)
        with pytest.raises(ValueError):
            src.batch("agent999", 1)

    def test_labeled_mode_labels_everything(self):
        src = GaussianSource(n=20, m=10, k=2, seed=8, labeled=True, pi_rule="fixed", pi_values=[0.5, 0.0])
        assert all(p.label in (0, 1) for p in src.local_sample())
        assert all(p.label in (0, 1) for p in src.batch("agent000", 1).points)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _point_arrays(points) -> list:
    labels = [-1 if p.label is None else p.label for p in points]
    return [stack_features(points), np.asarray(labels, dtype="<i8")]


class TestStreamPins:
    """Exact sampler outputs, pinned as sha256 of the feature and mask bytes.

    Any change to how a stream is seeded or consumed (draw order, draw
    sizes, which generator feeds which draw) changes these digests.
    """

    RULES = {
        "fixed": dict(pi_rule="fixed", pi_values=(0.0, 0.4, 1.0)),
        "split": dict(pi_rule="split", k0=1, pi0=0.1, pi1=0.7),
        "uniform": dict(pi_rule="uniform"),
    }

    @pytest.mark.parametrize(
        "count_rule, rule, expected",
        [
            ("per_batch", "fixed", "320784c865a87f70b83a0af9a6a07d9f80ce49e9b8e69dae1e956db10cc31f9a"),
            ("per_batch", "split", "223d2a5a1c09bcec64c1395f43c1c38a4f9a603019c6181c2636e527ec9c5e5d"),
            ("per_batch", "uniform", "5dc563a2aa795530271e28215163a18e7bbfb4fcf917a5e3dace98a67f9316ed"),
            ("per_2m", "fixed", "452b407c45d79e1eddd3adf74f8344c8564ed675f526a306daabe0559dea8308"),
            ("per_2m", "split", "a247b2c50ceaec30169dfad7ebe85859684d44eed8be9cc5c4789335fde791a5"),
            ("per_2m", "uniform", "fdda8e3fb5f4e099a95364f4203e810190030dcc79866cc05d3ede5cd5306d78"),
        ],
    )
    def test_gen_scenario(self, count_rule, rule, expected):
        config = ScenarioConfig(
            n=11, m=7, k=3, mu1=4.0, count_rule=count_rule, seed=13, **self.RULES[rule]
        )
        arrays = []
        for idx in (0, 5):
            null, batches, masks = gen_scenario(config, idx)
            arrays.append(stack_features(null))
            for batch, mask in zip(batches, masks):
                arrays += [stack_features(batch.points), mask]
        assert _digest(arrays) == expected

    @pytest.mark.parametrize(
        "labeled, expected",
        [
            (False, "d15d52d782f04df3d20234df4cda1df81350f9c3bfbe4b04524628537f24269a"),
            (True, "6553b46603cbe6e782361584c7274664616585cb032ab52bbeeb4558e9b73248"),
        ],
    )
    def test_gaussian_source(self, labeled, expected):
        src = GaussianSource(n=9, m=6, k=3, seed=11, labeled=labeled)
        arrays = [src.pis] + _point_arrays(src.local_sample())
        for aid in src.agent_ids():
            for rnd in (1, 2, 3):
                arrays += _point_arrays(src.batch(aid, rnd).points)
        assert _digest(arrays) == expected
