"""Protocol layer: assessment, selection rules, full runs, budget search."""

import json

import numpy as np
import pytest

from confcontam.conformal import ConformalCalibration, Datapoint, negative_norm_trainer
from confcontam.contamtest import ContamTestSpec
from confcontam.errors import ConfigurationError, ProtocolRunError, SourceExhausted
from confcontam.harness import GaussianSource
from confcontam.protocol import (
    AgentAssessment,
    AgentBatch,
    ProtocolConfig,
    assess_round1,
    budget_by_validation,
    run_procedure,
    select_fixed_budget,
    select_threshold,
)
from confcontam.statdist import NhgParams, nhg_cdf


def _assessments(stats, pvals, ids=None):
    ids = ids or [f"a{i}" for i in range(len(stats))]
    return [
        AgentAssessment(agent_id=i, statistic=float(t), p_value=float(u))
        for i, t, u in zip(ids, stats, pvals)
    ]


class TestAssessRound1:
    def _calibration(self, n_cal=20):
        # calibration scores 1..n_cal from an explicit score function
        points = [Datapoint(np.array([0.0])) for _ in range(n_cal)]
        cal = ConformalCalibration(
            score=negative_norm_trainer([]), cal_scores=np.arange(1.0, n_cal + 1.0)
        )
        return cal

    def test_empty_agent_list(self):
        cal = self._calibration()
        spec = ContamTestSpec(family="sum", pi_th=0.1)
        assert assess_round1(cal, [], spec) == []

    def test_empty_batch_recorded_not_raised(self):
        cal = self._calibration()
        spec = ContamTestSpec(family="sum", pi_th=0.1)
        out = assess_round1(cal, [AgentBatch("empty", [])], spec)
        assert out[0].error == "empty batch"
        assert not out[0].ok

    def test_extreme_outlier_batch_hits_single_nhg_term(self):
        # every batch point scores below all calibration scores, so every
        # conformal p-value is minimal, T=0, and with pi_th=0 the Storey
        # p-value collapses to one NHG CDF evaluation
        n_cal, m = 20, 6
        cal = self._calibration(n_cal)
        lam = 3 / (n_cal + 1)
        spec = ContamTestSpec(family="storey", pi_th=0.0, lam=lam)
        batch = AgentBatch("out", [Datapoint(np.array([5.0])) for _ in range(m)])
        # negnorm score of [5.0] is -5, below every calibration score
        res = assess_round1(cal, [batch], spec)[0]
        assert res.statistic == 0.0
        expected = nhg_cdf(2, NhgParams(n_cal + m, n_cal, m))
        assert res.p_value == pytest.approx(expected, abs=1e-12)
        assert res.p_value < 0.05


class TestSelectFixedBudget:
    def test_argsort_by_statistic(self):
        dec = select_fixed_budget(_assessments([5, 3, 9], [0.5, 0.3, 0.9]), 2)
        assert dec.selected == ["a2", "a0"]
        assert dec.mode == "budget"

    def test_budget_equals_k(self):
        dec = select_fixed_budget(_assessments([5, 3, 9], [0.5, 0.3, 0.9]), 3)
        assert set(dec.selected) == {"a0", "a1", "a2"}
        assert dec.fdr_estimate is None  # nobody excluded

    def test_tie_broken_by_smaller_pvalue(self):
        dec = select_fixed_budget(_assessments([5, 5], [0.4, 0.2], ["x", "y"]), 1)
        assert dec.selected == ["y"]

    def test_tie_broken_by_agent_id_last(self):
        dec = select_fixed_budget(_assessments([5, 5], [0.2, 0.2], ["b", "a"]), 1)
        assert dec.selected == ["a"]

    def test_overbudget_selects_all_with_warning(self):
        dec = select_fixed_budget(_assessments([1, 2], [0.1, 0.2]), 5)
        assert set(dec.selected) == {"a0", "a1"}
        assert dec.warning is not None

    def test_fdr_estimate_uses_max_unselected_pvalue(self):
        # delta = 0.9 (largest unselected), gamma=0.5:
        # #{p > 0.5} = 2, #{p <= 0.9} = 4 -> 0.9*2/(0.5*4)
        stats = [9, 7, 5, 3]
        pvals = [0.1, 0.4, 0.7, 0.9]
        dec = select_fixed_budget(_assessments(stats, pvals), 2, gamma=0.5)
        assert dec.fdr_estimate == pytest.approx(0.9 * 2 / (0.5 * 4))

    def test_fdr_estimate_delta_override(self):
        dec = select_fixed_budget(
            _assessments([9, 7, 5, 3], [0.1, 0.4, 0.7, 0.9]), 2, gamma=0.5, delta=0.7
        )
        assert dec.fdr_estimate == pytest.approx(0.7 * 2 / (0.5 * 3))

    def test_errored_agents_excluded(self):
        mixed = _assessments([5, 9], [0.5, 0.9]) + [
            AgentAssessment(agent_id="bad", error="empty batch")
        ]
        dec = select_fixed_budget(mixed, 2)
        assert "bad" not in dec.selected

    def test_invalid_budget(self):
        with pytest.raises(ConfigurationError):
            select_fixed_budget(_assessments([1], [0.5]), 0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        stats = rng.normal(size=8)
        pvals = rng.uniform(size=8)
        base = select_fixed_budget(_assessments(stats, pvals), 3)
        perm = rng.permutation(8)
        shuffled = _assessments(
            stats[perm], pvals[perm], [f"a{i}" for i in perm]
        )
        assert select_fixed_budget(shuffled, 3).selected == base.selected


class TestSelectThreshold:
    def test_manual_example(self):
        dec = select_threshold(
            _assessments([1, 2], [0.001, 0.9], ["agent1", "agent2"]), 0.05, 0.5
        )
        assert dec.selected == ["agent2"]
        assert dec.mht_outcome.rejected == {"agent1"}

    def test_all_ones_keeps_everyone(self):
        dec = select_threshold(_assessments([1, 2, 3], [1.0, 1.0, 1.0]), 0.05, 0.5)
        assert len(dec.selected) == 3

    def test_all_zeros_keeps_nobody(self):
        dec = select_threshold(_assessments([1, 2, 3], [0.0, 0.0, 0.0]), 0.05, 0.5)
        assert dec.selected == []

    def test_partition_with_rejection_set(self):
        rng = np.random.default_rng(1)
        assessments = _assessments(rng.normal(size=10), rng.uniform(size=10))
        dec = select_threshold(assessments, 0.1, 0.5)
        all_ids = {a.agent_id for a in assessments}
        assert set(dec.selected) | set(dec.mht_outcome.rejected) == all_ids
        assert set(dec.selected) & set(dec.mht_outcome.rejected) == set()


def _budget_config(**overrides):
    base = dict(
        ell=0,
        n=50,
        m=20,
        score="negnorm",
        test="storey",
        mode="budget",
        pi_th=0.2,
        k_budget=3,
        rounds=2,
        seed=11,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


class TestRunProcedure:
    def test_budget_equal_k_acquires_everything(self):
        k = 5
        config = _budget_config(k_budget=k)
        source = GaussianSource(n=config.n, m=config.m, k=k, seed=config.seed)
        report = run_procedure(config, source)
        assert len(report.decision.selected) == k
        # round 1 from everyone plus round 2 from everyone
        assert report.total_training_points == config.n + 2 * config.m * k
        assert report.acquired_count == 2 * config.m * k

    def test_threshold_rejecting_all_acquires_nothing(self):
        # heavily contaminated agents, pi_th=0 and an easy score: all rejected
        config = ProtocolConfig(
            ell=0,
            n=100,
            m=30,
            score="negnorm",
            test="storey",
            mode="threshold",
            pi_th=0.0,
            alpha=0.05,
            gamma=0.5,
            seed=3,
        )
        source = GaussianSource(
            n=config.n, m=config.m, k=4, seed=7, mu1=6.0,
            pi_rule="fixed", pi_values=[1.0, 1.0, 1.0, 1.0],
        )
        report = run_procedure(config, source)
        assert report.decision.selected == []
        assert report.acquired_count == 0
        assert report.total_training_points == config.n

    def test_round2_provenance(self):
        config = _budget_config()
        source = GaussianSource(n=config.n, m=config.m, k=6, seed=config.seed)
        report = run_procedure(config, source)
        selected = set(report.decision.selected)
        later = [a for a in report.acquisitions if a["round"] >= 2]
        assert later and all(a["agent_id"] in selected for a in later)

    def test_seeded_run_is_byte_identical(self):
        config = _budget_config()
        source_a = GaussianSource(n=config.n, m=config.m, k=6, seed=config.seed)
        source_b = GaussianSource(n=config.n, m=config.m, k=6, seed=config.seed)
        doc_a = json.dumps(run_procedure(config, source_a).to_json_dict())
        doc_b = json.dumps(run_procedure(config, source_b).to_json_dict())
        assert doc_a == doc_b

    def test_extra_rounds(self):
        config = _budget_config(rounds=4, k_budget=2)
        source = GaussianSource(n=config.n, m=config.m, k=4, seed=1)
        report = run_procedure(config, source)
        rounds_seen = {a["round"] for a in report.acquisitions}
        assert rounds_seen == {1, 2, 3, 4}
        assert report.acquired_count == (1 + 3) * config.m * 2

    def test_source_exhaustion_yields_partial_report(self):
        config = _budget_config(k_budget=2, rounds=3)

        class FiniteSource:
            def __init__(self, inner):
                self.inner = inner

            def agent_ids(self):
                return self.inner.agent_ids()

            def local_sample(self):
                return self.inner.local_sample()

            def batch(self, agent_id, round_index):
                if round_index >= 3:
                    raise SourceExhausted(f"no round-{round_index} data")
                return self.inner.batch(agent_id, round_index)

        source = FiniteSource(GaussianSource(n=config.n, m=config.m, k=4, seed=5))
        with pytest.raises(ProtocolRunError) as excinfo:
            run_procedure(config, source)
        report = excinfo.value.report
        assert report.partial
        assert report.decision is not None
        assert "round 3" in report.error

    def test_subset_selector_hook(self):
        config = _budget_config(k_budget=2)
        source = GaussianSource(n=config.n, m=config.m, k=4, seed=9)
        report = run_procedure(config, source, subset_selector=lambda pts: pts[:10])
        assert report.acquired_count == 10
        assert report.total_training_points == config.n + 10

    def test_local_size_mismatch(self):
        config = _budget_config()
        source = GaussianSource(n=config.n + 1, m=config.m, k=3, seed=2)
        with pytest.raises(ConfigurationError):
            run_procedure(config, source)


class TestProtocolConfig:
    def test_json_roundtrip(self):
        config = _budget_config()
        doc = config.to_json_dict()
        assert list(doc) == [
            "ell", "n", "m", "score", "test", "mode",
            "k_budget", "alpha", "gamma", "pi_th", "rounds", "seed",
        ]
        assert ProtocolConfig.from_json_dict(doc) == config

    def test_missing_and_unknown_keys(self):
        doc = _budget_config().to_json_dict()
        doc.pop("rounds")
        with pytest.raises(ConfigurationError):
            ProtocolConfig.from_json_dict(doc)
        doc2 = _budget_config().to_json_dict()
        doc2["typo"] = 1
        with pytest.raises(ConfigurationError):
            ProtocolConfig.from_json_dict(doc2)

    def test_null_is_default_and_values_pass_through(self):
        doc = _budget_config().to_json_dict()
        doc.update(rounds=None, seed=None, pi_th=0, k_nn=None)
        config = ProtocolConfig.from_json_dict(doc)
        assert (config.rounds, config.seed, config.k_nn) == (2, 0, 5)
        assert json.dumps(config.to_json_dict()["pi_th"]) == "0"

    def test_mode_requirements(self):
        with pytest.raises(ConfigurationError):
            _budget_config(k_budget=None)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(
                ell=0, n=10, m=5, score="negnorm", test="sum",
                mode="threshold", pi_th=0.1, alpha=None, gamma=0.5,
            )


class TestBudgetByValidation:
    def _config(self, k):
        return ProtocolConfig(
            ell=40,
            n=100,
            m=25,
            score="negnorm",
            test="storey",
            mode="budget",
            pi_th=0.2,
            k_budget=1,
            seed=17,
        )

    def test_constant_evaluator_takes_smallest(self):
        config = self._config(4)
        source = GaussianSource(n=config.n, m=config.m, k=4, seed=1, labeled=True)
        got = budget_by_validation(config, source, [3, 1, 2], evaluator=lambda tr, va: 1.0)
        assert got == 1

    def test_synthetic_argmax(self):
        config = self._config(5)
        source = GaussianSource(n=config.n, m=config.m, k=5, seed=2, labeled=True)

        def evaluator(train, validation):
            k_budget = (len(train) - config.ell) / config.m
            return -abs(k_budget - 3)

        assert budget_by_validation(config, source, [1, 2, 3, 4, 5], evaluator) == 3

    def test_empty_grid(self):
        config = self._config(3)
        source = GaussianSource(n=config.n, m=config.m, k=3, seed=3, labeled=True)
        with pytest.raises(ConfigurationError):
            budget_by_validation(config, source, [])

    def test_gaussian_two_class_sanity(self):
        # clean agents help a nearest-centroid model, junk-labeled
        # contaminated agents hurt it; the argmax should not reach past the
        # clean agents
        config = ProtocolConfig(
            ell=60,
            n=140,
            m=30,
            score="negnorm",
            test="storey",
            mode="budget",
            pi_th=0.2,
            k_budget=1,
            seed=0,
        )
        n_clean = 3
        for seed in (5, 6, 7):
            source = GaussianSource(
                n=config.n,
                m=config.m,
                k=6,
                seed=seed,
                mu1=6.0,
                labeled=True,
                class_shift=4.0,
                pi_rule="split",
                k0=n_clean,
                pi0=0.0,
                pi1=0.9,
            )
            chosen = budget_by_validation(config, source, [1, 2, 3, 4, 5, 6])
            assert chosen <= n_clean
