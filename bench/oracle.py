"""Output oracles, independent of the package's numerics.

Every p-value is recomputed from the formulas the package documents, with
``scipy.stats`` distributions instead of the package's own kernels:

- Storey:   u = sum_{k>T} b_k F_NHG(lam_idx - 1; n+k, n, k-T) + sum_{k<=T} b_k
- Quantile: u = sum_{k>i0} b_k F_NHG(T - 1; n+k, n, k-i0) + sum_{k<=i0} b_k
- Fisher, Sum: u = pi_th^m + sum_{k>=1} b_k F_k((T + k (s_k - 1) I) / s_k),
  s_k = sqrt(1 + k/n); Fisher has I = 2 ln(n+1) - 2 and
  F_k(y) = 1 - chi2_{2k}(2k ln(n+1) - y); Sum has I = 1/2 and F_k the
  Irwin-Hall CDF for k <= 30, the normal N(k/2, k/12) beyond.

with b_k the Binomial(m, 1 - pi_th) mass of k inliers.  Each check returns
a list of mismatch descriptions, empty when the output is right.  Only the
fdr_study check touches the package, to regenerate its inputs through the
public ``gen_scenario``.
"""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache

import numpy as np
from scipy.stats import binom, chi2, irwinhall, nhypergeom, norm

# ROADMAP tolerance of the exact families against their oracles
EXACT_TOL = 1e-12
IRWIN_HALL_EXACT_MAX = 30
# fields a protocol report repeats from its config
ECHOED_KEYS = (
    "ell", "n", "m", "score", "test", "mode", "k_budget", "alpha", "gamma", "pi_th", "rounds", "seed",
)


def default_lambda_index(n_cal: int) -> int:
    """Grid index of the documented default lambda floor(n_cal/8)/(n_cal+1)."""
    return max(1, n_cal // 8)


def lambda_index(lam: float, n_cal: int) -> int:
    return int(round(lam * (n_cal + 1)))


@lru_cache(maxsize=None)
def _inlier_mass(m: int, pi_th: float) -> np.ndarray:
    return binom.pmf(np.arange(m + 1), m, 1.0 - pi_th)


@lru_cache(maxsize=None)
def storey_u(T: int, m: int, n_cal: int, lam_idx: int, pi_th: float) -> float:
    b = _inlier_mass(m, pi_th)
    k = np.arange(T + 1, m + 1)
    tail = np.sum(b[k] * nhypergeom.cdf(lam_idx - 1, n_cal + k, n_cal, k - T)) if k.size else 0.0
    return min(1.0, float(tail + np.sum(b[: T + 1])))


@lru_cache(maxsize=None)
def quantile_u(T: int, m: int, n_cal: int, i0: int, pi_th: float) -> float:
    b = _inlier_mass(m, pi_th)
    k = np.arange(i0 + 1, m + 1)
    tail = np.sum(b[k] * nhypergeom.cdf(T - 1, n_cal + k, n_cal, k - i0))
    return min(1.0, float(tail + np.sum(b[: i0 + 1])))


def _asymptotic_u(T: float, m: int, n_cal: int, pi_th: float, family: str) -> float:
    b = _inlier_mass(m, pi_th)
    k = np.arange(1, m + 1)
    s = np.sqrt(1.0 + k / n_cal)
    ln_np1 = math.log(n_cal + 1.0)
    if family == "fisher":
        y = (T + k * (s - 1.0) * (2.0 * ln_np1 - 2.0)) / s
        cdf = chi2.sf(2.0 * k * ln_np1 - y, 2 * k)
    else:
        y = (T + k * (s - 1.0) * 0.5) / s
        exact = k <= IRWIN_HALL_EXACT_MAX
        cdf = np.empty(m)
        cdf[exact] = irwinhall.cdf(y[exact], k[exact])
        cdf[~exact] = norm.cdf((y[~exact] - k[~exact] / 2.0) / np.sqrt(k[~exact] / 12.0))
    return min(1.0, float(pi_th**m + np.sum(b[1:] * cdf)))


def storey_bh(u, alpha: float, gamma: float) -> tuple[set, int, float]:
    """Storey's adaptive BH: (rejected indices, kappa, k0_hat)."""
    u = np.asarray(u, dtype=float)
    k0_hat = float(np.sum(u > gamma)) / (1.0 - gamma)
    if k0_hat == 0.0:
        return set(range(u.size)), int(u.size), 0.0
    order = np.sort(u)
    hits = [j for j in range(u.size) if order[j] <= alpha * (j + 1) / k0_hat]
    if not hits:
        return set(), 0, k0_hat
    kappa = hits[-1] + 1
    cut = order[kappa - 1]
    return {i for i in range(u.size) if u[i] <= cut}, kappa, k0_hat


def direct_fdr_estimate(u, delta: float, gamma: float) -> float:
    u = np.asarray(u, dtype=float)
    n_rejected = int(np.sum(u <= delta))
    if n_rejected == 0:
        return 1.0
    n_above = int(np.sum(u > gamma))
    if n_above == 0:
        return 0.0
    return min(1.0, delta * n_above / ((1.0 - gamma) * n_rejected))


def _close(a, b, tol: float = EXACT_TOL) -> bool:
    return a is not None and b is not None and abs(float(a) - float(b)) <= tol


# -- pi_scan -------------------------------------------------------------------


def check_pi_scan_test(op: dict, batch: dict, pi_th: float) -> list[str]:
    """Statistics and p-values of one batch's pi_scan test against the formulas."""
    m, n_cal = batch["m"], batch["n_cal"]
    ranks = np.sort(np.asarray(batch["ranks"]))
    lam_idx = default_lambda_index(n_cal)
    i0 = m // 3
    t_storey = int(np.sum(ranks > lam_idx))
    t_quantile = int(ranks[m - i0 - 1])
    problems = []
    if op["storey_T"] != t_storey:
        problems.append(f"storey T {op['storey_T']} != {t_storey}")
    elif not _close(op["storey_u"], storey_u(t_storey, m, n_cal, lam_idx, pi_th)):
        problems.append(
            f"storey u {op['storey_u']!r} != {storey_u(t_storey, m, n_cal, lam_idx, pi_th)!r}"
        )
    if op["quantile_T"] != t_quantile:
        problems.append(f"quantile T {op['quantile_T']} != {t_quantile}")
    elif not _close(op["quantile_u"], quantile_u(t_quantile, m, n_cal, i0, pi_th)):
        problems.append(
            f"quantile u {op['quantile_u']!r} != {quantile_u(t_quantile, m, n_cal, i0, pi_th)!r}"
        )
    return problems


# -- fdr_study -----------------------------------------------------------------


def _replicate_outcomes(params: dict, null_feats, batch_feats) -> dict:
    """(V, S, R) per family for one replicate, recomputed from its data."""
    n_cal = params["n"] - params["ell"]
    m, k = params["m"], params["k"]
    pi_th = params["pi_th"]
    cal = -np.sqrt(np.sum(null_feats[params["ell"] :] ** 2, axis=1))
    lam_idx = lambda_index(params["lambda"], n_cal)
    i0 = params["i0"]
    us = {f: [] for f in ("storey", "quantile", "fisher", "sum")}
    for feats in batch_feats:
        test = -np.sqrt(np.sum(feats**2, axis=1))
        ranks = 1 + np.sum(cal[None, :] <= test[:, None], axis=1)
        sorted_ranks = np.sort(ranks)
        us["storey"].append(storey_u(int(np.sum(ranks > lam_idx)), m, n_cal, lam_idx, pi_th))
        us["quantile"].append(quantile_u(int(sorted_ranks[m - i0 - 1]), m, n_cal, i0, pi_th))
        us["fisher"].append(_asymptotic_u(2.0 * float(np.sum(np.log(ranks))), m, n_cal, pi_th, "fisher"))
        us["sum"].append(_asymptotic_u(float(np.sum(ranks / (n_cal + 1.0))), m, n_cal, pi_th, "sum"))
    null = [_agent_pi(params["pi"], a) <= pi_th for a in range(k)]
    out = {}
    for family, u in us.items():
        rejected, _, _ = storey_bh(u, params["alpha"], params["gamma"])
        v = sum(1 for i in rejected if null[i])
        out[family] = (v, len(rejected) - v, len(rejected))
    return out


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_fdr_batch(op: dict, params: dict, scenario, sample: list[int]) -> dict[int, list[str]]:
    """Mismatches per replicate of one simulate batch (key -1: the whole batch).

    ``scenario(seed, index)`` regenerates a replicate's null features and
    per-agent batch features; ``sample`` lists the replicates recomputed.
    """
    if op.get("error") or op.get("rc") != 0:
        return {-1: [f"simulate failed: rc={op.get('rc')} {op.get('error')}"]}
    problems: dict[int, list[str]] = {}
    reps = params["replicates_per_batch"]
    families = ["storey", "quantile", "fisher", "sum"]
    try:
        rows = read_rows(op["rows_csv"])
        report = json.loads(op["stdout"])
    except (OSError, ValueError) as exc:
        return {-1: [f"unreadable output: {exc}"]}
    by_key = {(int(r["replicate"]), r["family"]): r for r in rows}
    if len(rows) != reps * len(families) or len(by_key) != len(rows):
        problems.setdefault(-1, []).append(f"{len(rows)} rows for {reps} replicates")
    if report.get("replicates") != reps or report.get("families") != families:
        problems.setdefault(-1, []).append("report header does not match the config")
    n_alt = params["k"] - sum(
        1 for a in range(params["k"]) if _agent_pi(params["pi"], a) <= params["pi_th"]
    )
    for family in families:
        fam_rows = [r for r in rows if r["family"] == family]
        fdp = float(np.mean([float(r["fdp"]) for r in fam_rows])) if fam_rows else float("nan")
        est = report.get("estimates", {}).get(family, {}).get("fdr", {}).get("value")
        if not _close(est, fdp):
            problems.setdefault(-1, []).append(f"{family} FDR estimate {est} != row mean {fdp}")
    for idx in range(reps):
        for family in families:
            row = by_key.get((idx, family))
            if row is None:
                continue
            v, s, r = int(row["V"]), int(row["S"]), int(row["R"])
            if not (
                v + s == r
                and _close(row["fdp"], v / max(1, r))
                and _close(row["tdp"], s / max(1, n_alt))
            ):
                problems.setdefault(idx, []).append(f"{family} row inconsistent: {row}")
    for idx in sample:
        null_feats, batch_feats = scenario(op["seed"], idx)
        expected = _replicate_outcomes(params, null_feats, batch_feats)
        for family, vsr in expected.items():
            row = by_key.get((idx, family))
            got = None if row is None else (int(row["V"]), int(row["S"]), int(row["R"]))
            if got != vsr:
                problems.setdefault(idx, []).append(f"{family} V/S/R {got} != {vsr}")
    return problems


def _agent_pi(pi: dict, agent: int) -> float:
    return pi["pi0"] if agent < pi["k0"] else pi["pi1"]


# -- protocol_sessions ---------------------------------------------------------


def check_session(op: dict, doc: dict, k: int) -> list[str]:
    """One protocol report against its config and recomputed selection."""
    if op.get("error") or op.get("rc") != 0:
        return [f"protocol failed: rc={op.get('rc')} {op.get('error')}"]
    try:
        report = json.loads(op["stdout"])
    except ValueError as exc:
        return [f"unparseable report: {exc}"]
    problems = []
    config = report.get("config", {})
    if any(config.get(key, "missing") != doc[key] for key in ECHOED_KEYS):
        problems.append("config echo differs from the config sent")
    m, n_cal = doc["m"], doc["n"] - doc["ell"]
    lam_idx = default_lambda_index(n_cal)
    assessments = report.get("assessments", [])
    ids = [a["agent_id"] for a in assessments]
    if ids != [f"agent{i:03d}" for i in range(k)]:
        return problems + [f"assessed agents {ids}"]
    stats, us = [], []
    for a in assessments:
        T = a["statistic"]
        if a["error"] is not None or T is None or T != int(T) or not 0 <= T <= m:
            return problems + [f"bad assessment {a}"]
        expected = storey_u(int(T), m, n_cal, lam_idx, doc["pi_th"])
        if not _close(a["p_value"], expected):
            problems.append(f"{a['agent_id']} p-value {a['p_value']!r} != {expected!r}")
        stats.append(T)
        us.append(a["p_value"])
    decision = report.get("decision") or {}
    if doc["mode"] == "budget":
        order = sorted(range(k), key=lambda i: (-stats[i], us[i], ids[i]))
        selected = [ids[i] for i in order[: doc["k_budget"]]]
        rest = order[doc["k_budget"] :]
        fdr = direct_fdr_estimate(us, max(us[i] for i in rest), 0.5) if rest else None
        if decision.get("mht") is not None or not (
            fdr == decision.get("fdr_estimate") or _close(fdr, decision.get("fdr_estimate"))
        ):
            problems.append(f"budget FDR estimate {decision.get('fdr_estimate')} != {fdr}")
    else:
        rejected, kappa, k0_hat = storey_bh(us, doc["alpha"], doc["gamma"])
        selected = [ids[i] for i in range(k) if i not in rejected]
        mht = decision.get("mht") or {}
        if (
            mht.get("rejected") != sorted(ids[i] for i in rejected)
            or mht.get("kappa") != kappa
            or not _close(mht.get("k0_hat"), k0_hat)
        ):
            problems.append(f"Storey-BH outcome {mht} != {sorted(rejected)}, {kappa}, {k0_hat}")
    if decision.get("selected") != selected or decision.get("mode") != doc["mode"]:
        problems.append(f"selected {decision.get('selected')} != {selected}")
    acquisitions = [{"round": 1, "agent_id": a, "count": m} for a in ids] + [
        {"round": r, "agent_id": a, "count": m}
        for r in range(2, doc["rounds"] + 1)
        for a in selected
    ]
    if report.get("acquisitions") != acquisitions:
        problems.append("acquisitions differ from the selection")
    acquired = len(selected) * m * doc["rounds"]
    totals = {"local": doc["n"], "acquired": acquired, "training": doc["n"] + acquired}
    if report.get("totals") != totals or report.get("partial") or report.get("error"):
        problems.append(f"totals {report.get('totals')} != {totals}")
    return problems
