"""Command-line interface.

Five subcommands: ``contam-test`` (one contamination test from score
files), ``pvalues`` (conformal p-values from dataset CSVs), ``select``
(collaborator selection from an agent table), ``simulate`` (Monte Carlo
power or FDR/TDR study from a JSON config), and ``protocol`` (a full
data-sharing run against the built-in Gaussian source).

Exit codes: 0 success, 2 configuration error, 3 data/format error.
File formats are documented in the README.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .conformal import (
    conformal_pvalues,
    conformal_pvalues_from_scores,
    read_datapoints_csv,
    split_fit,
)
from .contamtest import ContamTestSpec, run_contam_test
from .errors import ConfigurationError, DataError, ProtocolRunError
from .harness import GaussianSource, ScenarioConfig, mc_fdr_tdr, mc_power, resolve_pis
from .protocol import (
    AgentAssessment,
    ProtocolConfig,
    json_kwargs,
    run_procedure,
    select_fixed_budget,
    select_threshold,
    trainer_from_tag,
)

# ScenarioConfig and GaussianSource parameters read from a config's "pi" object
PI_PARAMS = ("pi_rule", "pi_values", "k0", "pi0", "pi1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confcontam",
        description="Conformal data contamination tests and the data-sharing protocol",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ct = sub.add_parser(
        "contam-test", help="one contamination test from null/test score files"
    )
    ct.add_argument("--null-scores", required=True, help="calibration scores, one per line")
    ct.add_argument("--test-scores", required=True, help="test-batch scores, one per line")
    ct.add_argument(
        "--family", required=True, choices=["storey", "quantile", "fisher", "sum"]
    )
    ct.add_argument("--pi-th", dest="pi_th", type=float, required=True)
    ct.add_argument("--lambda", dest="lam", type=float, default=None)
    ct.add_argument("--i0", type=int, default=None)
    ct.add_argument(
        "--fisher-formula", choices=["derived", "printed"], default="derived"
    )
    ct.set_defaults(func=cmd_contam_test)

    pv = sub.add_parser("pvalues", help="conformal p-values from dataset CSVs")
    pv.add_argument("--null", required=True, help="null-sample dataset CSV")
    pv.add_argument("--test", required=True, help="test dataset CSV")
    pv.add_argument("--score", required=True, choices=["negnorm", "knn"])
    pv.add_argument("--ell", type=int, default=0, help="fit-split size (default 0)")
    pv.add_argument("--k-nn", dest="k_nn", type=int, default=5)
    pv.set_defaults(func=cmd_pvalues)

    sel = sub.add_parser("select", help="collaborator selection from an agent table")
    sel.add_argument(
        "--pvalues", required=True, help="CSV with header agent_id,statistic,p_value"
    )
    sel.add_argument("--mode", required=True, choices=["budget", "threshold"])
    sel.add_argument("--k-budget", dest="k_budget", type=int, default=None)
    sel.add_argument("--alpha", type=float, default=0.05)
    sel.add_argument("--gamma", type=float, default=0.5)
    sel.set_defaults(func=cmd_select)

    sim = sub.add_parser("simulate", help="Monte Carlo study from a JSON config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--replicates", type=int, default=None, help="override config")
    sim.add_argument("--seed", type=int, default=None, help="override config")
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument(
        "--per-replicate-csv",
        dest="per_replicate_csv",
        default=None,
        help="also write one CSV row per replicate (plot-ready)",
    )
    sim.set_defaults(func=cmd_simulate)

    pr = sub.add_parser("protocol", help="full protocol run (built-in Gaussian source)")
    pr.add_argument("--config", required=True)
    pr.set_defaults(func=cmd_protocol)
    return parser


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _read_scores(path) -> np.ndarray:
    values = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    values.append(float(line))
                except ValueError:
                    raise DataError(f"{path}:{lineno}: not a float: {line!r}") from None
                if not np.isfinite(values[-1]):
                    raise DataError(f"{path}:{lineno}: not a finite score: {line!r}")
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from None
    if not values:
        raise DataError(f"{path}: no scores found")
    return np.asarray(values)


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object")
    return doc


def cmd_contam_test(args) -> int:
    cal_scores = _read_scores(args.null_scores)
    test_scores = _read_scores(args.test_scores)
    pvalues = conformal_pvalues_from_scores(cal_scores, test_scores)
    spec = ContamTestSpec(
        family=args.family,
        pi_th=args.pi_th,
        lam=args.lam,
        i0=args.i0,
        fisher_formula=args.fisher_formula,
    )
    result = run_contam_test(pvalues, spec, n_cal=cal_scores.size)
    _emit({"statistic": result.statistic, "p_value": result.p_value})
    return 0


def cmd_pvalues(args) -> int:
    null_points = read_datapoints_csv(args.null)
    test_points = read_datapoints_csv(args.test)
    trainer = trainer_from_tag(args.score, args.k_nn)
    cal = split_fit(null_points, args.ell, trainer)
    pvalues = conformal_pvalues(cal, test_points)
    writer = csv.writer(sys.stdout)
    writer.writerow(["p_value"])
    for v in pvalues:
        writer.writerow([repr(float(v))])
    return 0


def _read_agent_table(path) -> list[AgentAssessment]:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            if header != ["agent_id", "statistic", "p_value"]:
                raise DataError(
                    f"{path}: expected header agent_id,statistic,p_value, got {header}"
                )
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise DataError(f"{path}:{lineno}: expected 3 fields")
                try:
                    rows.append(
                        AgentAssessment(
                            agent_id=row[0].strip(),
                            statistic=float(row[1]),
                            p_value=float(row[2]),
                        )
                    )
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                if not np.isfinite([rows[-1].statistic, rows[-1].p_value]).all():
                    raise DataError(f"{path}:{lineno}: non-finite value in {row}")
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no agents found")
    return rows


def cmd_select(args) -> int:
    assessments = _read_agent_table(args.pvalues)
    if args.mode == "budget":
        if args.k_budget is None:
            raise ConfigurationError("--mode budget requires --k-budget")
        decision = select_fixed_budget(assessments, args.k_budget, gamma=args.gamma)
    else:
        decision = select_threshold(assessments, args.alpha, args.gamma)
    _emit(decision.to_json_dict())
    return 0


def _pi_kwargs(pi, where: str) -> dict:
    """The pi-rule keywords of ScenarioConfig and GaussianSource from a pi object."""
    return json_kwargs(resolve_pis, pi, f"{where} pi", skip=("k", "rng"))


def cmd_simulate(args) -> int:
    doc = _load_json(args.config)
    study, families, procedure = doc.get("study"), doc.get("family"), doc.get("procedure")
    if study not in ("power", "fdr_tdr"):
        raise ConfigurationError("simulate config needs study: 'power' or 'fdr_tdr'")
    if procedure not in (None, "bh", "storey_bh"):
        raise ConfigurationError(
            f"simulate config 'procedure' must be 'bh' or 'storey_bh', got {procedure!r}"
        )
    rest = {k: v for k, v in doc.items() if k not in ("study", "family", "procedure", "pi")}
    kwargs = json_kwargs(ScenarioConfig, rest, "simulate config", skip=PI_PARAMS)
    kwargs.update(_pi_kwargs(doc.get("pi"), "simulate config"))
    overrides = {"replicates": args.replicates, "seed": args.seed}
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    config = ScenarioConfig(**kwargs)
    if study == "power":
        report = mc_power(config, families, threads=args.threads)
    else:
        procedure = "storey_bh" if procedure is None else procedure
        report = mc_fdr_tdr(config, families, procedure=procedure, threads=args.threads)
    if args.per_replicate_csv:
        fields = sorted({k for row in report.rows for k in row})
        with open(args.per_replicate_csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(report.rows)
    _emit(report.to_json_dict())
    return 0


def cmd_protocol(args) -> int:
    doc = _load_json(args.config)
    config = ProtocolConfig.from_json_dict(doc)
    scenario = doc.get("scenario", {})
    if not isinstance(scenario, dict):
        raise ConfigurationError("protocol config key 'scenario' must be an object")
    # n, m and seed come from the protocol config; k defaults to 10 agents
    rest = {"k": 10, **{k: v for k, v in scenario.items() if k != "pi" and v is not None}}
    skip = ("n", "m", "seed", "labeled", "class_shift") + PI_PARAMS
    kwargs = json_kwargs(GaussianSource, rest, "protocol scenario", skip=skip)
    if scenario.get("pi") is not None:
        kwargs.update(_pi_kwargs(scenario["pi"], "protocol scenario"))
    source = GaussianSource(n=config.n, m=config.m, seed=config.seed, **kwargs)
    report = run_procedure(config, source)
    _emit(report.to_json_dict())
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ProtocolRunError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
