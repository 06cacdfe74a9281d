"""The names and return shapes that the benchmark under bench/ relies on.

bench/tracing.py wraps package functions at the module attributes their
callers look up, and bench/run.py regenerates fdr_study inputs through
``gen_scenario``.  A refactor that unbinds one of those names, or changes
what they return, fails here instead of only in ``bench/run.py --smoke``.
The bench files are read, never edited.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from confcontam import harness, protocol
from confcontam.protocol import AgentBatch

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


@pytest.fixture
def tracer(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_tracer_installs_and_restores(tracing):
    sites = [(importlib.import_module(mod), attr) for mod, attr, _ in tracing.SPAN_SITES]
    sites += [(importlib.import_module(mod), "run_contam_test") for mod in tracing.TEST_SITES]
    sites += [(harness.GaussianSource, attr) for attr in tracing.SOURCE_METHODS]
    originals = [getattr(owner, attr) for owner, attr in sites]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in sites] == originals


def test_traced_scenario_and_source(tracer):
    # the keyword fields bench/run.py passes to ScenarioConfig
    config = harness.ScenarioConfig(
        n=12, m=5, k=3, ell=0, dim=2, mu1=4.0, pi_rule="split", k0=1, pi0=0.0,
        pi1=0.6, pi_th=0.1, alpha=0.1, gamma=0.5, lam=None, i0=None,
        replicates=1, seed=3,
    )
    null, batches, masks = harness.gen_scenario(config, 0)
    assert np.stack([d.features for d in null]).shape == (12, 2)
    assert [np.stack([d.features for d in b.points]).shape for b in batches] == [(5, 2)] * 3
    assert len(masks) == 3
    assert tracer.counts["points_generated"] == 12 + 3 * 5

    source = harness.GaussianSource(n=8, m=4, k=2, seed=1)
    assert isinstance(source.local_sample(), list)
    assert isinstance(source.batch("agent000", 1), AgentBatch)
    assert tracer.calls["harness.source"] == 2

    cal = protocol.split_fit(null, 0, protocol.trainer_from_tag("negnorm"))
    harness.conformal_pvalues(cal, batches[0].points)
    assert tracer.calls["conformal.split_fit"] == 1
    assert tracer.calls["conformal.pvalues"] == 1


@pytest.mark.parametrize("count_rule", ["per_batch", "per_2m"])
def test_array_draw_is_gen_scenario(count_rule):
    # bench/run.py regenerates fdr_study inputs through gen_scenario, while
    # the studies run on draw_scenario's arrays: the two must not drift apart
    config = harness.ScenarioConfig(
        n=12, m=5, k=3, dim=2, pi_rule="split", k0=1, pi0=0.2, pi1=0.7,
        count_rule=count_rule, seed=3,
    )
    for idx in (0, 4):
        null_feats, feats, masks = harness.draw_scenario(config, idx)
        null, batches, batch_masks = harness.gen_scenario(config, idx)
        assert np.array_equal(np.stack([d.features for d in null]), null_feats)
        for a, batch in enumerate(batches):
            assert np.array_equal(np.stack([d.features for d in batch.points]), feats[a])
            assert np.array_equal(batch_masks[a], masks[a])
