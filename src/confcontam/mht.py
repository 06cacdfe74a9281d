"""Multiple-testing procedures over per-agent contamination p-values.

Implements the Benjamini-Hochberg step-up rule, Storey's adaptive variant
(with the real-valued null-count estimate K0_hat = #{p_j > gamma}/(1-gamma),
kept unrounded), and Storey's direct FDR estimate for a rejection region
[0, delta].  Contamination p-values are discrete with few atoms, so
requested levels may be unreachable; procedures act on the given values
with no randomized tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "MultipleTestOutcome",
    "PValueVector",
    "bh",
    "storey_bh",
    "storey_fdr_estimate",
]


@dataclass(frozen=True)
class PValueVector:
    values: tuple[float, ...]
    agent_ids: tuple[str, ...]

    def __post_init__(self):
        if len(self.values) != len(self.agent_ids):
            raise ConfigurationError(
                f"{len(self.values)} p-values but {len(self.agent_ids)} agent ids"
            )
        for v in self.values:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"p-value {v} outside [0, 1]")

    @classmethod
    def make(cls, values, agent_ids=None) -> "PValueVector":
        values = tuple(float(v) for v in values)
        if agent_ids is None:
            agent_ids = tuple(str(i + 1) for i in range(len(values)))
        return cls(values=values, agent_ids=tuple(str(a) for a in agent_ids))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class MultipleTestOutcome:
    """Rejection set, cutoff index kappa, and the adaptive estimates.

    kappa is 0 when nothing is rejected; k0_hat is None for plain BH.
    """

    rejected: frozenset[str]
    kappa: int
    k0_hat: float | None = None


def _threshold_reject(p: PValueVector, thresholds: np.ndarray) -> tuple[frozenset, int]:
    # step-up: kappa = max{j : p_(j) <= thresholds[j]}, reject p <= p_(kappa)
    values = np.asarray(p.values)
    order = np.sort(values)
    hits = np.nonzero(order <= thresholds)[0]
    if hits.size == 0:
        return frozenset(), 0
    kappa = int(hits[-1]) + 1
    cut = order[kappa - 1]
    rejected = frozenset(a for a, v in zip(p.agent_ids, p.values) if v <= cut)
    return rejected, kappa


def bh(p: PValueVector, q_star: float) -> MultipleTestOutcome:
    """Benjamini-Hochberg at level q_star."""
    if len(p) == 0:
        raise ConfigurationError("empty p-value vector")
    if not 0.0 < q_star < 1.0:
        raise ValueError(f"q_star must lie in (0, 1), got {q_star}")
    big_k = len(p)
    thresholds = q_star * np.arange(1, big_k + 1) / big_k
    rejected, kappa = _threshold_reject(p, thresholds)
    return MultipleTestOutcome(rejected=rejected, kappa=kappa)


def storey_bh(p: PValueVector, alpha: float, gamma: float) -> MultipleTestOutcome:
    """Storey's adaptive BH: thresholds alpha j / K0_hat.

    K0_hat = #{p_j > gamma}/(1-gamma), real-valued.  K0_hat = 0 (every
    p-value at or below gamma) makes the threshold infinite, so everything
    is rejected - the stated convention for that degenerate case.
    """
    if len(p) == 0:
        raise ConfigurationError("empty p-value vector")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    values = np.asarray(p.values)
    big_k = len(p)
    k0_hat = float(np.sum(values > gamma)) / (1.0 - gamma)
    if k0_hat == 0.0:
        return MultipleTestOutcome(
            rejected=frozenset(p.agent_ids), kappa=big_k, k0_hat=0.0
        )
    thresholds = alpha * np.arange(1, big_k + 1) / k0_hat
    rejected, kappa = _threshold_reject(p, thresholds)
    return MultipleTestOutcome(rejected=rejected, kappa=kappa, k0_hat=k0_hat)


def storey_fdr_estimate(p: PValueVector, delta: float, gamma: float) -> float:
    """Direct FDR estimate for the rejection region [0, delta]:

        min{1, delta #{p_j > gamma} / ((1-gamma) #{p_j <= delta})}

    An empty rejection region returns 1 (max-conservative convention, and
    it takes precedence when the numerator is also zero); a zero numerator
    with a nonempty region returns 0.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    values = np.asarray(p.values)
    n_rejected = int(np.sum(values <= delta))
    if n_rejected == 0:
        return 1.0
    n_above = int(np.sum(values > gamma))
    if n_above == 0:
        return 0.0
    return min(1.0, delta * n_above / ((1.0 - gamma) * n_rejected))
