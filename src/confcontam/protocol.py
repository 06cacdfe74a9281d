"""Multi-round collaborative data-sharing procedure.

One requester holds a local null sample.  In round 1 every agent sends a
batch of m points; the requester fits a conformal score on its own fit
split, turns each batch into conformal p-values and a contamination test
result, then selects collaborators either by fixed budget (largest
non-contamination statistics) or by contamination threshold (complement of
the Storey-BH rejection set over the per-agent p-values).  Later rounds
acquire data only from the selected set; a data-subset-selection hook and a
pluggable evaluator close the loop before model training.

Selection never observes the true contamination factors; those live only
in the simulation harness.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .conformal import (
    ConformalCalibration,
    Datapoint,
    ScoreSplit,
    ScoreTrainer,
    conformal_pvalues,
    knn_distance_trainer,
    negative_norm_trainer,
    split_fit,
    split_sample,
    stack_features,
)
from .contamtest import ContamTestSpec, run_contam_test
from .errors import ConfigurationError, ProtocolRunError, SourceExhausted
from .mht import MultipleTestOutcome, PValueVector, storey_bh, storey_fdr_estimate

__all__ = [
    "AgentAssessment",
    "AgentBatch",
    "AgentDataSource",
    "ProtocolConfig",
    "ProtocolReport",
    "SelectionDecision",
    "assess_round1",
    "budget_by_validation",
    "json_kwargs",
    "nearest_centroid_evaluator",
    "run_procedure",
    "select_fixed_budget",
    "select_threshold",
    "trainer_from_tag",
]

PROTOCOL_CONFIG_FIELDS = (
    "ell",
    "n",
    "m",
    "score",
    "test",
    "mode",
    "k_budget",
    "alpha",
    "gamma",
    "pi_th",
    "rounds",
    "seed",
)


@dataclass
class AgentBatch:
    agent_id: str
    points: list[Datapoint]


@dataclass
class AgentAssessment:
    """Round-1 verdict on one agent; ``error`` marks an unusable batch."""

    agent_id: str
    statistic: float | None = None
    p_value: float | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SelectionDecision:
    """Agents kept for later rounds, in selection order."""

    selected: list[str]
    mode: str  # "budget" | "threshold"
    fdr_estimate: float | None = None
    mht_outcome: MultipleTestOutcome | None = None
    warning: str | None = None

    def to_json_dict(self) -> dict:
        outcome = self.mht_outcome
        return {
            "selected": list(self.selected),
            "mode": self.mode,
            "fdr_estimate": self.fdr_estimate,
            "warning": self.warning,
            "mht": None
            if outcome is None
            else {
                "rejected": sorted(outcome.rejected),
                "kappa": outcome.kappa,
                "k0_hat": outcome.k0_hat,
            },
        }


def trainer_from_tag(tag: str, k_nn: int = 5) -> ScoreTrainer:
    if tag == "negnorm":
        return negative_norm_trainer
    if tag == "knn":
        return knn_distance_trainer(k_nn)
    raise ConfigurationError(f"unknown score tag {tag!r}; expected negnorm or knn")


def assess_round1(
    cal: ConformalCalibration,
    batches: Sequence[AgentBatch],
    spec: ContamTestSpec,
) -> list[AgentAssessment]:
    """Score every round-1 batch independently (no cross-agent pooling).

    An empty batch is recorded as a per-agent error and takes no further
    part in selection.
    """
    out = []
    for batch in batches:
        if len(batch.points) == 0:
            out.append(AgentAssessment(agent_id=batch.agent_id, error="empty batch"))
            continue
        pv = conformal_pvalues(cal, batch.points)
        result = run_contam_test(pv, spec, cal.n_cal)
        out.append(
            AgentAssessment(
                agent_id=batch.agent_id,
                statistic=result.statistic,
                p_value=result.p_value,
            )
        )
    return out


def _selection_order(assessments: Sequence[AgentAssessment]) -> list[AgentAssessment]:
    # total order: statistic desc, then p-value asc, then agent id asc
    return sorted(
        (a for a in assessments if a.ok),
        key=lambda a: (-a.statistic, a.p_value, a.agent_id),
    )


def select_fixed_budget(
    assessments: Sequence[AgentAssessment],
    k_budget: int,
    gamma: float = 0.5,
    delta: float | None = None,
) -> SelectionDecision:
    """Keep the k_budget agents with the largest non-contamination statistics.

    Ties break by smaller contamination p-value, then agent id.  The
    decision carries the direct FDR estimate for the implied rejection set
    (the non-selected agents): delta defaults to the largest p-value among
    them, and the estimate is omitted when nobody is left out.
    """
    if k_budget < 1:
        raise ConfigurationError(f"k_budget must be >= 1, got {k_budget}")
    order = _selection_order(assessments)
    warning = None
    if k_budget > len(order):
        warning = (
            f"k_budget={k_budget} exceeds the {len(order)} assessable agents; "
            "selecting all"
        )
    selected = order[:k_budget]
    unselected = order[k_budget:]
    fdr_estimate = None
    if unselected:
        if delta is None:
            delta = max(a.p_value for a in unselected)
        pvec = PValueVector.make(
            [a.p_value for a in order], [a.agent_id for a in order]
        )
        fdr_estimate = storey_fdr_estimate(pvec, delta, gamma)
    return SelectionDecision(
        selected=[a.agent_id for a in selected],
        mode="budget",
        fdr_estimate=fdr_estimate,
        warning=warning,
    )


def select_threshold(
    assessments: Sequence[AgentAssessment], alpha: float, gamma: float
) -> SelectionDecision:
    """Keep the complement of the Storey-BH rejection set over the p-values."""
    ok = [a for a in assessments if a.ok]
    if not ok:
        return SelectionDecision(selected=[], mode="threshold")
    pvec = PValueVector.make([a.p_value for a in ok], [a.agent_id for a in ok])
    outcome = storey_bh(pvec, alpha, gamma)
    selected = [a.agent_id for a in ok if a.agent_id not in outcome.rejected]
    return SelectionDecision(selected=selected, mode="threshold", mht_outcome=outcome)


class AgentDataSource(Protocol):
    """Deterministic provider of the local sample and per-round agent batches."""

    def agent_ids(self) -> list[str]: ...

    def local_sample(self) -> list[Datapoint]: ...

    def batch(self, agent_id: str, round_index: int) -> AgentBatch: ...


@dataclass
class ProtocolConfig:
    """Inputs of a full protocol run.

    ``rounds`` counts data-acquisition rounds including round 1; selection
    happens once, after round 1, and rounds 2..rounds acquire from the
    selected set only.
    """

    ell: int
    n: int
    m: int
    score: str
    test: str
    mode: str
    pi_th: float
    k_budget: int | None = None
    alpha: float | None = None
    gamma: float | None = None
    rounds: int = 2
    seed: int = 0
    lam: float | None = None
    i0: int | None = None
    k_nn: int = 5

    def __post_init__(self) -> None:
        if self.ell < 0 or self.n <= self.ell:
            raise ConfigurationError(
                f"need 0 <= ell < n, got ell={self.ell}, n={self.n}"
            )
        if self.m < 1:
            raise ConfigurationError(f"m must be >= 1, got {self.m}")
        if self.rounds < 2:
            raise ConfigurationError(f"rounds must be >= 2, got {self.rounds}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.mode == "budget":
            if self.k_budget is None or self.k_budget < 1:
                raise ConfigurationError("budget mode requires k_budget >= 1")
        elif self.mode == "threshold":
            if self.alpha is None or self.gamma is None:
                raise ConfigurationError("threshold mode requires alpha and gamma")
        else:
            raise ConfigurationError(
                f"mode must be 'budget' or 'threshold', got {self.mode!r}"
            )

    def test_spec(self) -> ContamTestSpec:
        return ContamTestSpec(
            family=self.test, pi_th=self.pi_th, lam=self.lam, i0=self.i0
        )

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key) for key in PROTOCOL_CONFIG_FIELDS}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ProtocolConfig":
        """The config of a protocol document; its ``scenario`` object is left to the caller."""
        missing = [k for k in PROTOCOL_CONFIG_FIELDS if k not in doc]
        if missing:
            raise ConfigurationError(f"missing protocol config keys: {missing}")
        doc = {k: v for k, v in doc.items() if k != "scenario"}
        return cls(**json_kwargs(cls, doc, "protocol config"))


# JSON spellings of parameter names: ``lambda`` is a Python keyword, and the
# pi-rule parameters sit inside a ``pi`` object that names them shortly.
_JSON_NAMES = {"lam": "lambda", "pi_rule": "rule", "pi_values": "values"}
_JSON_TYPES = {int: "an integer", float: "a finite number", str: "a string"}


@functools.cache  # get_type_hints takes ~0.2 ms, 20x reading a whole config
def _json_params(target) -> tuple[tuple[str, str, type, bool, bool], ...]:
    """(name, JSON key, scalar type, is a list, required) per parameter of target."""
    hints = get_type_hints(target.__init__ if isinstance(target, type) else target)
    params = []
    for p in inspect.signature(target).parameters.values():
        hint = hints[p.name]
        if type(None) in get_args(hint):  # X | None
            hint = get_args(hint)[0]
        is_list = get_origin(hint) is not None  # tuple[float, ...] or Sequence[float]
        kind = get_args(hint)[0] if is_list else hint
        key = _JSON_NAMES.get(p.name, p.name)
        params.append((p.name, key, kind, is_list, p.default is inspect.Parameter.empty))
    return tuple(params)


def _is_json(value, kind: type) -> bool:
    if isinstance(value, bool):  # a JSON bool is never a number
        return False
    if kind is float:  # finite and within float range; False for nan
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def json_kwargs(target: Callable, doc, where: str, skip: Sequence[str] = ()) -> dict:
    """Keyword arguments of ``target`` read from the JSON object ``doc``.

    The signature owns the keys, defaults and types: each parameter not in
    ``skip`` is read from the key of its name (spelled as in _JSON_NAMES).
    A missing or null key leaves it at its default; one without a default
    is required.  int takes a JSON integer, float a finite number, str a
    string, a tuple or sequence a list of those; a bool is never a number.
    Values pass through unconverted; a violation raises ConfigurationError.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {doc!r}")
    params = [p for p in _json_params(target) if p[0] not in skip]
    unknown = set(doc) - {key for _, key, *_ in params}
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {sorted(unknown)}")
    kwargs = {}
    for name, key, kind, is_list, required in params:
        value = doc.get(key)
        if value is None:
            if required:
                raise ConfigurationError(f"{where} needs a non-null {key!r}")
        elif is_list:
            if not (isinstance(value, list) and all(_is_json(v, kind) for v in value)):
                raise ConfigurationError(
                    f"{where} {key!r} must be a list, each {_JSON_TYPES[kind]}; got {value!r}"
                )
            kwargs[name] = tuple(value)
        elif _is_json(value, kind):
            kwargs[name] = value
        else:
            raise ConfigurationError(f"{where} {key!r} must be {_JSON_TYPES[kind]}, got {value!r}")
    return kwargs


@dataclass
class ProtocolReport:
    """Everything a run produced, JSON-serializable and seed-deterministic."""

    config: ProtocolConfig
    assessments: list[AgentAssessment]
    decision: SelectionDecision | None
    acquisitions: list[dict] = field(default_factory=list)
    local_count: int = 0
    acquired_count: int = 0
    total_training_points: int = 0
    evaluator_output: Any = None
    partial: bool = False
    error: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "assessments": [
                {
                    "agent_id": a.agent_id,
                    "statistic": a.statistic,
                    "p_value": a.p_value,
                    "error": a.error,
                }
                for a in self.assessments
            ],
            "decision": None if self.decision is None else self.decision.to_json_dict(),
            "acquisitions": list(self.acquisitions),
            "totals": {
                "local": self.local_count,
                "acquired": self.acquired_count,
                "training": self.total_training_points,
            },
            "evaluator_output": self.evaluator_output,
            "partial": self.partial,
            "error": self.error,
        }


def _fit_local(
    config: ProtocolConfig, source: AgentDataSource
) -> tuple[list[Datapoint], ScoreSplit, ConformalCalibration]:
    """The source's local sample, its fit/calibration split, and the fitted score."""
    local = source.local_sample()
    if len(local) != config.n:
        raise ConfigurationError(
            f"source yielded {len(local)} local points but config.n={config.n}"
        )
    trainer = trainer_from_tag(config.score, config.k_nn)
    return local, split_sample(local, config.ell), split_fit(local, config.ell, trainer)


def run_procedure(
    config: ProtocolConfig,
    source: AgentDataSource,
    evaluator: Callable[[list[Datapoint], list[Datapoint]], Any] | None = None,
    subset_selector: Callable[[list[Datapoint]], list[Datapoint]] | None = None,
) -> ProtocolReport:
    """Execute the full data-sharing procedure against a data source.

    Steps: fit the score on the local fit split, assess every agent's
    round-1 batch, select collaborators, acquire rounds 2..rounds from the
    selected set, pass the acquired pool through the subset-selection hook
    (identity by default), and hand the combined training data to the
    evaluator if one is given (it also receives the calibration split as
    validation data).  Source exhaustion mid-round raises ProtocolRunError
    carrying the partial report.
    """
    local, split, cal = _fit_local(config, source)
    spec = config.test_spec()

    report = ProtocolReport(
        config=config, assessments=[], decision=None, local_count=config.n
    )
    agent_ids = source.agent_ids()
    round1: list[AgentBatch] = []
    for aid in agent_ids:
        try:
            round1.append(source.batch(aid, 1))
        except SourceExhausted as exc:
            report.partial = True
            report.error = f"source exhausted in round 1 for {aid}: {exc}"
            raise ProtocolRunError(report.error, report=report) from exc
    report.acquisitions = [
        {"round": 1, "agent_id": b.agent_id, "count": len(b.points)} for b in round1
    ]
    report.assessments = assess_round1(cal, round1, spec)

    if config.mode == "budget":
        decision = select_fixed_budget(
            report.assessments,
            config.k_budget,
            gamma=config.gamma if config.gamma is not None else 0.5,
        )
    else:
        decision = select_threshold(report.assessments, config.alpha, config.gamma)
    report.decision = decision

    selected_round1 = [b for b in round1 if b.agent_id in set(decision.selected)]
    acquired: list[Datapoint] = [p for b in selected_round1 for p in b.points]
    for round_index in range(2, config.rounds + 1):
        for aid in decision.selected:
            try:
                batch = source.batch(aid, round_index)
            except SourceExhausted as exc:
                report.partial = True
                report.error = (
                    f"source exhausted in round {round_index} for {aid}: {exc}"
                )
                report.acquired_count = len(acquired)
                raise ProtocolRunError(report.error, report=report) from exc
            report.acquisitions.append(
                {"round": round_index, "agent_id": aid, "count": len(batch.points)}
            )
            acquired.extend(batch.points)

    if subset_selector is not None:
        acquired = subset_selector(acquired)
    report.acquired_count = len(acquired)
    training = list(local) + acquired
    report.total_training_points = len(training)
    if evaluator is not None:
        report.evaluator_output = evaluator(training, split.calibration_part)
    return report


def nearest_centroid_evaluator(
    train: Sequence[Datapoint], validation: Sequence[Datapoint]
) -> float:
    """Accuracy of a nearest-centroid classifier fit on ``train``.

    Only relative ordering across candidate training sets matters for
    budget selection, so the simplest consistent classifier does the job.
    """
    labeled = [p for p in train if p.label is not None]
    if not labeled:
        raise ConfigurationError("nearest-centroid evaluator needs labeled data")
    labels = sorted({p.label for p in labeled})
    centroids = np.stack(
        [
            stack_features([p for p in labeled if p.label == lab]).mean(axis=0)
            for lab in labels
        ]
    )
    val = [p for p in validation if p.label is not None]
    if not val:
        raise ConfigurationError("validation set has no labeled points")
    feats = stack_features(val)
    diffs = feats[:, None, :] - centroids[None, :, :]
    nearest = np.argmin(np.sum(diffs * diffs, axis=2), axis=1)
    predicted = np.array([labels[i] for i in nearest])
    truth = np.array([p.label for p in val])
    return float(np.mean(predicted == truth))


def budget_by_validation(
    config: ProtocolConfig,
    source: AgentDataSource,
    budget_grid: Sequence[int],
    evaluator: Callable[[Sequence[Datapoint], Sequence[Datapoint]], float] | None = None,
) -> int:
    """Pick k_budget by validation accuracy.

    For each candidate budget: take that many top-ordered agents, train the
    evaluator's model on the fit split plus their round-1 data, score it on
    the calibration split, and return the grid argmax (ties go to the
    smallest budget).  Round-1 batches are fetched once and reused across
    the grid.
    """
    if not budget_grid:
        raise ConfigurationError("budget_grid must be nonempty")
    if evaluator is None:
        evaluator = nearest_centroid_evaluator
    _, split, cal = _fit_local(config, source)
    round1 = {aid: source.batch(aid, 1) for aid in source.agent_ids()}
    assessments = assess_round1(cal, list(round1.values()), config.test_spec())
    order = [a.agent_id for a in _selection_order(assessments)]

    best_budget = None
    best_score = -np.inf
    for k_budget in sorted(set(int(b) for b in budget_grid)):
        if k_budget < 1:
            raise ConfigurationError(f"budgets must be >= 1, got {k_budget}")
        chosen = order[:k_budget]
        train = list(split.fit_part) + [
            p for aid in chosen for p in round1[aid].points
        ]
        score = evaluator(train, split.calibration_part)
        if score > best_score:
            best_score = score
            best_budget = k_budget
    return best_budget
