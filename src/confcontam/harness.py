"""Gaussian simulation scenarios and Monte Carlo studies.

Inliers are N(0, I_dim), outliers N(mu1 * 1, I_dim); an agent batch mixes
the two with a binomial outlier count driven by its contamination factor.
Replicate r of a study draws everything from an RNG stream seeded by
(seed, r), so parallel and serial execution aggregate identically and any
single replicate can be regenerated in isolation.

Also here: the exact enumeration oracle validating the negative
hypergeometric numerics, and the deterministic Gaussian agent-data source
that backs protocol runs.
"""

from __future__ import annotations

import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Sequence

import numpy as np

from .conformal import Datapoint, conformal_pvalues, split_fit
# run_contam_test stays bound for bench/tracing.py, which patches it here
from .contamtest import ContamTestSpec, resolve_spec, run_contam_test, run_contam_tests  # noqa: F401
from .errors import ConfigurationError
from .mht import PValueVector, bh, storey_bh
from .protocol import AgentBatch, trainer_from_tag
from .statdist import NhgParams

__all__ = [
    "GaussianSource",
    "McReport",
    "ScenarioConfig",
    "draw_scenario",
    "gen_scenario",
    "mc_fdr_tdr",
    "mc_power",
    "null_agent_mask",
    "oracle_nhg_enumeration",
    "outlier_mask",
    "resolve_pis",
]

TEST_FAMILIES = ("storey", "quantile", "fisher", "sum")


def resolve_pis(
    pi_rule: str,
    k: int,
    rng: np.random.Generator | None,
    pi_values: Sequence[float] | None = None,
    k0: int | None = None,
    pi0: float | None = None,
    pi1: float | None = None,
) -> np.ndarray:
    """Contamination factors of k agents under ``pi_rule``.

    "fixed" takes ``pi_values`` verbatim, "split" gives the first k0 agents
    pi0 and the rest pi1, and "uniform" draws k iid standard uniforms from
    ``rng``, the only rule that consumes it.  Without an rng the "uniform"
    rule has no factors to give, so it raises.  A given factor outside
    [0, 1] raises, naming its key.
    """
    if pi_rule == "fixed":
        if pi_values is None or len(pi_values) != k:
            raise ConfigurationError("pi_rule='fixed' needs pi_values of length k")
        if not all(0.0 <= v <= 1.0 for v in pi_values):
            raise ConfigurationError(
                f"pi_rule='fixed' needs values in [0, 1], got {list(pi_values)!r}"
            )
        return np.asarray(pi_values, dtype=float)
    if pi_rule == "split":
        if k0 is None or pi0 is None or pi1 is None:
            raise ConfigurationError("pi_rule='split' needs k0, pi0, pi1")
        if not (isinstance(k0, numbers.Integral) and 0 <= k0 <= k):
            raise ConfigurationError(f"k0 must be an integer in [0, {k}], got {k0!r}")
        for key, value in (("pi0", pi0), ("pi1", pi1)):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{key} must lie in [0, 1], got {value!r}")
        pis = np.full(k, float(pi1))
        pis[:k0] = float(pi0)
        return pis
    if pi_rule != "uniform":
        raise ConfigurationError(f"unknown pi_rule {pi_rule!r}")
    if rng is None:
        raise ConfigurationError("pi_rule='uniform' has no static factors without an rng")
    return rng.uniform(size=k)


def _check_scenario(m: int, k: int, dim: int, seed: int, mu1: float) -> None:
    """The value checks that ScenarioConfig and GaussianSource share."""
    if m < 1 or k < 1 or dim < 1:
        raise ConfigurationError(f"m, k, dim must all be >= 1, got m={m}, k={k}, dim={dim}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    if not math.isfinite(mu1):
        raise ConfigurationError(f"mu1 must be finite, got {mu1}")


def agent_ids(k: int) -> list[str]:
    """The ids of k simulated agents, in agent order."""
    return [f"agent{a:03d}" for a in range(k)]


def outlier_mask(rng: np.random.Generator, size: int, pi: float) -> np.ndarray:
    """Outlier flags of ``size`` points: Binomial(size, pi) True ones, shuffled."""
    mask = np.zeros(size, dtype=bool)
    mask[: rng.binomial(size, pi)] = True
    rng.shuffle(mask)
    return mask


@dataclass(frozen=True)
class ScenarioConfig:
    """One Gaussian simulation cell.

    Contamination factors follow ``pi_rule`` as :func:`resolve_pis` reads
    it; the "uniform" rule redraws them each replicate.  ``count_rule``
    picks how many points of a batch are outliers: "per_batch" draws
    Binomial(m, pi) per batch, "per_2m" draws Binomial(2m, pi) over an
    agent's two-round pool and slices the first m.
    """

    n: int
    m: int
    k: int = 1
    ell: int = 0
    dim: int = 2
    mu1: float = 4.0
    pi_rule: str = "fixed"
    pi_values: tuple[float, ...] | None = None
    k0: int | None = None
    pi0: float | None = None
    pi1: float | None = None
    pi_th: float = 0.0
    alpha: float = 0.05
    gamma: float = 0.5
    lam: float | None = None
    i0: int | None = None
    fisher_formula: str = "derived"
    replicates: int = 1000
    seed: int = 0
    count_rule: str = "per_batch"
    score: str = "negnorm"

    def __post_init__(self) -> None:
        if self.ell < 0 or self.n <= self.ell:
            raise ConfigurationError(f"need 0 <= ell < n, got ell={self.ell}, n={self.n}")
        _check_scenario(self.m, self.k, self.dim, self.seed, self.mu1)
        if self.replicates < 1:
            raise ConfigurationError(f"replicates must be >= 1, got {self.replicates}")
        if self.count_rule not in ("per_batch", "per_2m"):
            raise ConfigurationError(f"unknown count_rule {self.count_rule!r}")
        self.resolve_pis(np.random.default_rng(0))  # raises on an invalid pi rule

    @property
    def n_cal(self) -> int:
        return self.n - self.ell

    def resolve_pis(self, rng: np.random.Generator | None) -> np.ndarray:
        return resolve_pis(
            self.pi_rule, self.k, rng, self.pi_values, self.k0, self.pi0, self.pi1
        )


def null_agent_mask(config: ScenarioConfig) -> np.ndarray:
    """True where the agent's contamination factor is at or below pi_th.

    Only static rules have a fixed ground truth; the "uniform" rule redraws
    factors each replicate and has no per-study mask.
    """
    return config.resolve_pis(None) <= config.pi_th


def draw_scenario(
    config: ScenarioConfig, replicate_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Null features (n, dim), agent features (k, m, dim) and outlier masks (k, m).

    Draws from the replicate's (seed, replicate_index) stream: the factors
    (uniform rule only), the null sample, then per agent its outlier mask
    and its m feature rows.
    """
    rng = np.random.default_rng([config.seed, int(replicate_index)])
    pis = config.resolve_pis(rng)
    null_feats = rng.standard_normal((config.n, config.dim))
    pool = 2 * config.m if config.count_rule == "per_2m" else config.m
    feats = np.empty((config.k, config.m, config.dim))
    masks = np.empty((config.k, config.m), dtype=bool)
    for a in range(config.k):
        masks[a] = outlier_mask(rng, pool, pis[a])[: config.m]
        feats[a] = rng.standard_normal((config.m, config.dim))
    feats[masks] += config.mu1
    return null_feats, feats, masks


def gen_scenario(
    config: ScenarioConfig, replicate_index: int
) -> tuple[list[Datapoint], list[AgentBatch], list[np.ndarray]]:
    """:func:`draw_scenario` as datapoints: null sample, round-1 batches, masks."""
    null_feats, feats, masks = draw_scenario(config, replicate_index)
    batches = [
        AgentBatch(agent_id=aid, points=[Datapoint(f) for f in feats[a]])
        for a, aid in enumerate(agent_ids(config.k))
    ]
    return [Datapoint(f) for f in null_feats], batches, list(masks)


def _resolved_specs(config: ScenarioConfig, families) -> tuple[ContamTestSpec, ...]:
    """One checked spec per family, defaults filled in for the config's m and n_cal."""
    return tuple(
        resolve_spec(
            ContamTestSpec(
                family=family,
                pi_th=config.pi_th,
                lam=config.lam,
                i0=config.i0,
                fisher_formula=config.fisher_formula,
            ),
            config.m,
            config.n_cal,
        )
        for family in families
    )


@dataclass
class McReport:
    """Point estimates with standard errors plus the raw per-replicate rows."""

    study: str
    families: tuple[str, ...]
    procedure: str | None
    estimates: dict
    replicates: int
    runtime_seconds: float
    rows: list[dict] = field(default_factory=list, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "study": self.study,
            "families": list(self.families),
            "procedure": self.procedure,
            "estimates": self.estimates,
            "replicates": self.replicates,
            "runtime_seconds": self.runtime_seconds,
        }


def _binom_se(p_hat: float, r: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / r)


def _as_families(families) -> tuple[str, ...]:
    fams = (families,) if isinstance(families, str) else families
    if not isinstance(fams, (list, tuple)) or not fams:
        raise ConfigurationError(f"family must be a name or a nonempty list, got {families!r}")
    for f in fams:
        if f not in TEST_FAMILIES:
            raise ConfigurationError(f"unknown family {f!r}; expected {TEST_FAMILIES}")
    return tuple(fams)


def _replicate_pvalues(config: ScenarioConfig, idx: int) -> tuple[np.ndarray, int]:
    """The (k, m) conformal p-values of replicate idx, and its n_cal."""
    null_feats, feats, _ = draw_scenario(config, idx)
    cal = split_fit(null_feats, config.ell, trainer_from_tag(config.score))
    pv = conformal_pvalues(cal, feats.reshape(-1, config.dim))
    return pv.reshape(config.k, config.m), cal.n_cal


def _power_replicate(config: ScenarioConfig, specs, idx: int) -> list[dict]:
    pv, n_cal = _replicate_pvalues(config, idx)
    rows = []
    for spec in specs:
        stats, us = run_contam_tests(pv, spec, n_cal)
        rows.append(
            {
                "replicate": idx,
                "family": spec.family,
                "statistic": float(stats[0]),
                "p_value": float(us[0]),
                "reject": int(us[0] <= config.alpha),
            }
        )
    return rows


def _fdr_replicate(
    config: ScenarioConfig, specs, procedure: str, null_mask: np.ndarray, idx: int
) -> list[dict]:
    pv, n_cal = _replicate_pvalues(config, idx)
    ids = agent_ids(config.k)
    k0 = int(null_mask.sum())
    rows = []
    for spec in specs:
        _, us = run_contam_tests(pv, spec, n_cal)
        pvec = PValueVector.make(us, ids)
        if procedure == "bh":
            outcome = bh(pvec, config.alpha)
        else:
            outcome = storey_bh(pvec, config.alpha, config.gamma)
        v = sum(1 for aid, is_null in zip(ids, null_mask) if is_null and aid in outcome.rejected)
        s = len(outcome.rejected) - v
        rows.append(
            {
                "replicate": idx,
                "family": spec.family,
                "V": v,
                "S": s,
                "R": len(outcome.rejected),
                "fdp": v / max(1, len(outcome.rejected)),
                "tdp": s / max(1, config.k - k0),
            }
        )
    return rows


def _chunk(replicate, static_args: tuple, start: int, stop: int) -> list[dict]:
    out = []
    for idx in range(start, stop):
        out.extend(replicate(*static_args, idx))
    return out


def _run_chunked(replicate, static_args: tuple, replicates: int, threads: int) -> list[dict]:
    """Rows of ``replicate(*static_args, idx)`` for idx = 0..replicates-1, in order."""
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    workers = min(threads, replicates)  # a forking pool starts every worker up front
    if workers == 1:
        return _chunk(replicate, static_args, 0, replicates)
    bounds = np.linspace(0, replicates, workers + 1).astype(int).tolist()
    worker = partial(_chunk, replicate, static_args)
    rows: list[dict] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(worker, bounds[:-1], bounds[1:]):
            rows.extend(part)
    return rows


def mc_power(config: ScenarioConfig, families, threads: int = 1) -> McReport:
    """Single-hypothesis power study: fraction of replicates with u <= alpha."""
    if config.k != 1:
        raise ConfigurationError("power study runs with a single agent (k=1)")
    families = _as_families(families)
    specs = _resolved_specs(config, families)
    start = time.perf_counter()
    rows = _run_chunked(_power_replicate, (config, specs), config.replicates, threads)
    estimates = {}
    for fam in families:
        rejects = [r["reject"] for r in rows if r["family"] == fam]
        p_hat = float(np.mean(rejects))
        estimates[fam] = {
            "power": {"value": p_hat, "se": _binom_se(p_hat, config.replicates)}
        }
    return McReport(
        study="power",
        families=families,
        procedure=None,
        estimates=estimates,
        replicates=config.replicates,
        runtime_seconds=time.perf_counter() - start,
        rows=rows,
    )


def mc_fdr_tdr(
    config: ScenarioConfig, families, procedure: str = "storey_bh", threads: int = 1
) -> McReport:
    """Multiple-testing study: empirical FDR and TDR against ground truth."""
    if config.k < 2:
        raise ConfigurationError("FDR/TDR study needs at least two agents")
    if procedure not in ("bh", "storey_bh"):
        raise ConfigurationError(f"unknown procedure {procedure!r}")
    null_mask = null_agent_mask(config)  # raises if ground truth is undefined
    families = _as_families(families)
    specs = _resolved_specs(config, families)
    start = time.perf_counter()
    rows = _run_chunked(
        _fdr_replicate, (config, specs, procedure, null_mask), config.replicates, threads
    )
    estimates = {}
    for fam in families:
        fdps = [r["fdp"] for r in rows if r["family"] == fam]
        tdps = [r["tdp"] for r in rows if r["family"] == fam]
        fdr_hat, tdr_hat = float(np.mean(fdps)), float(np.mean(tdps))
        estimates[fam] = {
            "fdr": {"value": fdr_hat, "se": _binom_se(fdr_hat, config.replicates)},
            "tdr": {"value": tdr_hat, "se": _binom_se(tdr_hat, config.replicates)},
        }
    return McReport(
        study="fdr_tdr",
        families=families,
        procedure=procedure,
        estimates=estimates,
        replicates=config.replicates,
        runtime_seconds=time.perf_counter() - start,
        rows=rows,
    )


# -- validation oracle ------------------------------------------------------


def oracle_nhg_enumeration(params: NhgParams) -> list[Fraction]:
    """Exact rational CDF of the negative hypergeometric by enumeration.

    Walks every arrangement of failure positions among the
    population_size draw slots (all equally likely), counts successes
    before the r-th failure, and accumulates exact fractions.  Refuses
    populations above 10 - the count of arrangements explodes.
    """
    big_n, ks, r = params.population_size, params.success_states, params.failures
    if big_n > 10:
        raise ValueError("enumeration oracle refuses population_size > 10")
    counts = [0] * (ks + 1)
    if r == 0:
        counts[ks] = 1
        total = 1
    else:
        fail_positions = list(combinations(range(big_n), big_n - ks))
        total = len(fail_positions)
        for positions in fail_positions:
            stop = positions[r - 1]  # 0-based slot of the r-th failure
            counts[stop - (r - 1)] += 1
    cdf, acc = [], Fraction(0)
    for c in counts:
        acc += Fraction(c, total)
        cdf.append(acc)
    return cdf


# -- protocol data source ---------------------------------------------------


class GaussianSource:
    """Deterministic Gaussian agent-data source for protocol runs.

    Rounds 1 and 2 for an agent slice one pre-drawn pool of 2m points whose
    outlier count is Binomial(2m, pi_k); rounds beyond 2 draw fresh batches
    with per-batch Binomial(m, pi_k) counts.  Batches depend only on
    (seed, agent index, round), never on call order.

    With ``labeled=True`` the inlier distribution becomes an equal two-class
    mixture (class 1 shifted by class_shift along the first axis) and
    outliers are systematically mislabeled as class 0, so contaminated data
    sneaking into training drags that class centroid away and costs the
    nearest-centroid evaluator real accuracy.
    """

    def __init__(
        self,
        n: int,
        m: int,
        k: int,
        seed: int,
        dim: int = 2,
        mu1: float = 4.0,
        pi_rule: str = "uniform",
        pi_values: Sequence[float] | None = None,
        k0: int | None = None,
        pi0: float | None = None,
        pi1: float | None = None,
        labeled: bool = False,
        class_shift: float = 3.0,
    ) -> None:
        _check_scenario(m, k, dim, seed, mu1)
        self.n, self.m, self.k = n, m, k
        self.seed, self.dim, self.mu1 = seed, dim, mu1
        self.labeled, self.class_shift = labeled, class_shift
        self.pis = resolve_pis(
            pi_rule, k, np.random.default_rng([seed, 0]), pi_values, k0, pi0, pi1
        )
        self._ids = agent_ids(k)
        self._pools: dict[int, list[Datapoint]] = {}

    def agent_ids(self) -> list[str]:
        return list(self._ids)

    def _inliers(self, rng: np.random.Generator, count: int) -> list[Datapoint]:
        feats = rng.standard_normal((count, self.dim))
        if not self.labeled:
            return [Datapoint(f) for f in feats]
        labels = rng.integers(0, 2, size=count)
        feats[:, 0] += self.class_shift * labels
        return [Datapoint(f, label=int(lab)) for f, lab in zip(feats, labels)]

    def local_sample(self) -> list[Datapoint]:
        return self._inliers(np.random.default_rng([self.seed, 1]), self.n)

    def _draw(self, rng: np.random.Generator, size: int, pi: float) -> list[Datapoint]:
        mask = outlier_mask(rng, size, pi)
        points = self._inliers(rng, size)
        out_feats = rng.standard_normal((int(mask.sum()), self.dim)) + self.mu1
        for slot, feat in zip(np.nonzero(mask)[0], out_feats):
            points[slot] = Datapoint(feat, label=0 if self.labeled else None)
        return points

    def _pool(self, idx: int) -> list[Datapoint]:
        if idx not in self._pools:
            rng = np.random.default_rng([self.seed, 2, idx])
            self._pools[idx] = self._draw(rng, 2 * self.m, self.pis[idx])
        return self._pools[idx]

    def batch(self, agent_id: str, round_index: int) -> AgentBatch:
        if agent_id not in self._ids:
            raise ValueError(f"unknown agent {agent_id!r}")
        if round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {round_index}")
        idx = self._ids.index(agent_id)
        if round_index <= 2:
            pool = self._pool(idx)
            points = pool[: self.m] if round_index == 1 else pool[self.m :]
            return AgentBatch(agent_id=agent_id, points=list(points))
        rng = np.random.default_rng([self.seed, 3, idx, round_index])
        return AgentBatch(agent_id=agent_id, points=self._draw(rng, self.m, self.pis[idx]))
