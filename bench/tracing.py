"""Spans and counters for the traced pass, from wrappers the bench owns.

The package has no tracing of its own, so the bench wraps public functions
at the names their callers look up: ``harness`` and ``protocol`` import
``run_contam_test``, ``conformal_pvalues`` and friends with ``from ...
import``, so patching ``confcontam.contamtest`` alone would miss their
calls.  Each wrapper opens a span; a span's self time is its duration minus
the time of the spans opened inside it.  Aggregates stay in memory and are
returned when the pass ends; every span of the pass runs in one process,
because the traced pass runs serially.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module, attribute, span name); a module is patched only where its
# callers look the name up
SPAN_SITES = [
    ("confcontam.contamtest", "nhg_cdf", "statdist.nhg_cdf"),
    ("confcontam.contamtest", "nhg_cdf_table", "statdist.nhg_cdf"),
    ("confcontam.contamtest", "gsum_cdf", "statdist.gsum_cdf"),
    ("confcontam.contamtest", "binom_pmf_inliers_vector", "statdist.binom_pmf"),
    ("confcontam.harness", "split_fit", "conformal.split_fit"),
    ("confcontam.protocol", "split_fit", "conformal.split_fit"),
    ("confcontam.harness", "conformal_pvalues", "conformal.pvalues"),
    ("confcontam.protocol", "conformal_pvalues", "conformal.pvalues"),
    ("confcontam.harness", "gen_scenario", "harness.gen_scenario"),
    ("confcontam.cli", "mc_fdr_tdr", "harness.study"),
    ("confcontam.harness", "bh", "mht"),
    ("confcontam.harness", "storey_bh", "mht"),
    ("confcontam.protocol", "storey_bh", "mht"),
    ("confcontam.protocol", "storey_fdr_estimate", "mht"),
    ("confcontam.cli", "run_procedure", "protocol.run"),
    ("confcontam.protocol", "assess_round1", "protocol.assess"),
    ("confcontam.protocol", "select_fixed_budget", "protocol.select"),
    ("confcontam.protocol", "select_threshold", "protocol.select"),
    ("confcontam.cli", "main", "cli"),
]
# run_contam_test: the span is named after the family of its spec
TEST_SITES = ["confcontam.contamtest", "confcontam.harness", "confcontam.protocol"]
SOURCE_METHODS = ["local_sample", "batch"]
EXACT_FAMILIES = ("storey", "quantile")


class Tracer:
    """Self time and call count per span name, plus named counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        # child time of each open span; the bottom entry collects the time
        # of top-level spans
        self._child = [0.0]
        self._seen_tables: set = set()
        self._restore: list = []

    def _enter(self) -> float:
        self._child.append(0.0)
        return time.perf_counter()

    def _leave(self, name: str, t0: float) -> float:
        dt = time.perf_counter() - t0
        inner = self._child.pop()
        self.self_s[name] += dt - inner
        self._child[-1] += dt
        self.calls[name] += 1
        return dt

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(args, kwargs, result)`` may bump counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, t0)
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def wrap_test(self, fn):
        """run_contam_test, with first-seen exact-table configurations counted."""

        @functools.wraps(fn)
        def wrapper(pvalues, spec, n_cal):
            family = spec.family
            t0 = self._enter()
            try:
                result = fn(pvalues, spec, n_cal)
            finally:
                dt = self._leave(f"contamtest.test.{family}", t0)
            if family in EXACT_FAMILIES:
                r = result.spec
                key = (family, result.m, n_cal, r.lam if family == "storey" else r.i0, r.pi_th)
                if key in self._seen_tables:
                    self.counts["table_hits"] += 1
                else:
                    self._seen_tables.add(key)
                    self.counts["table_builds"] += 1
                    self.counts["table_build_s"] += dt
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import importlib

        from confcontam import harness

        counters = {
            "conformal.split_fit": lambda a, k, r: self._bump(
                "points_scored", r.n_cal
            ),
            "conformal.pvalues": lambda a, k, r: self._bump("points_scored", len(a[1])),
            "harness.gen_scenario": lambda a, k, r: self._bump(
                "points_generated", len(r[0]) + sum(len(b.points) for b in r[1])
            ),
            "protocol.assess": lambda a, k, r: self._bump("agents_assessed", len(r)),
            "protocol.select": lambda a, k, r: (
                self._bump("agents_selected", len(r.selected)),
                self._bump("agents_offered", sum(1 for x in a[0] if x.ok)),
            ),
        }
        for module, attr, name in SPAN_SITES:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), counters.get(name)))
        for module in TEST_SITES:
            owner = importlib.import_module(module)
            self._patch(owner, "run_contam_test", self.wrap_test(owner.run_contam_test))
        source = harness.GaussianSource
        for method in SOURCE_METHODS:
            self._patch(
                source,
                method,
                self.wrap(
                    "harness.source",
                    getattr(source, method),
                    lambda a, k, r: self._bump(
                        "points_generated", len(r) if isinstance(r, list) else len(r.points)
                    ),
                ),
            )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _bump(self, counter: str, amount: float) -> None:
        self.counts[counter] += amount

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "top_level_s": self._child[0],
        }
