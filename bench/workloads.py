"""The three benchmark workloads: their parameters, inputs and rounds.

A workload is split into rounds, each a fixed amount of work, so that a run
can measure for a given number of seconds while ``wall_s`` stays comparable
between commits.  Every input is derived from the run's seed; the package
only ever sees the generated inputs (p-values or a JSON config file).

Functions here run inside a worker process (``worker.py``) that has
``confcontam`` importable from the checkout's ``src`` directory.  Every op
and round carries its ``time.monotonic()`` start and end, which the parent
process uses to scale it by the machine's speed at the time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import numpy as np

FDR_FAMILIES = ["storey", "quantile", "fisher", "sum"]

# Full-size parameters.  ``SMOKE_PARAMS`` shrinks every size so the
# self-check runs all three workloads in a few seconds.
PARAMS = {
    "fdr_study": {
        # the shape of acceptance criterion 6 (FDR control)
        "n": 200,
        "ell": 0,
        "m": 100,
        "k": 20,
        "dim": 2,
        "mu1": 4.0,
        "pi": {"rule": "split", "k0": 10, "pi0": 0.2, "pi1": 0.3},
        "pi_th": 0.2,
        "alpha": 0.05,
        "gamma": 0.5,
        "lambda": (200 // 32) / 201,
        "i0": int(100 // 1.5),
        "replicates_per_batch": 200,
        "threads": 2,
        "oracle_replicates_per_batch": 3,
    },
    "pi_scan": {
        "sizes": [[100, 200], [200, 1000]],  # (m, n_cal)
        "batches_per_size": 4,
        "pi_th_range": [0.02, 0.5],
        "outlier_shift": 3.0,
        "batch_pi_range": [0.0, 0.5],
    },
    "protocol_sessions": {
        "n": 300,
        "ell": 100,
        "m": 100,
        "k": 40,
        "dim": 2,
        "mu1": 4.0,
        "k_nn": 5,
        "pi_th": 0.2,
        "rounds": 3,
        "k_budget": 10,
        "alpha": 0.1,
        "gamma": 0.5,
        "sessions_per_round": 10,
    },
}

SMOKE_PARAMS = {
    "fdr_study": {
        **PARAMS["fdr_study"],
        "n": 40,
        "m": 20,
        "k": 4,
        "pi": {"rule": "split", "k0": 2, "pi0": 0.2, "pi1": 0.3},
        "lambda": 2 / 41,
        "i0": 6,
        "replicates_per_batch": 6,
        "oracle_replicates_per_batch": 2,
    },
    "pi_scan": {**PARAMS["pi_scan"], "sizes": [[20, 40], [30, 60]], "batches_per_size": 2},
    "protocol_sessions": {
        **PARAMS["protocol_sessions"],
        "n": 60,
        "ell": 20,
        "m": 20,
        "k": 6,
        "k_budget": 2,
        "sessions_per_round": 4,
    },
}


def round_seed(seed: int, index: int) -> int:
    """Seed of round ``index`` of a run seeded with ``seed`` (never negative)."""
    return seed * 10_000 + index


# -- fdr_study ---------------------------------------------------------------


def fdr_config_doc(params: dict) -> dict:
    """The ``simulate`` config file; the per-round seed goes on the command line."""
    return {
        "study": "fdr_tdr",
        "family": FDR_FAMILIES,
        "procedure": "storey_bh",
        "n": params["n"],
        "ell": params["ell"],
        "m": params["m"],
        "k": params["k"],
        "dim": params["dim"],
        "mu1": params["mu1"],
        "pi": params["pi"],
        "pi_th": params["pi_th"],
        "alpha": params["alpha"],
        "gamma": params["gamma"],
        "lambda": params["lambda"],
        "i0": params["i0"],
        "replicates": params["replicates_per_batch"],
        "seed": 0,
    }


class FdrStudy:
    """Closed loop of ``simulate`` batches through ``confcontam.cli.main``.

    One round is one batch of ``replicates_per_batch`` replicates on a fresh
    process pool, so every batch pays the same per-worker table builds.
    """

    def __init__(self, params: dict, seed: int, workdir: str, threads: int | None = None):
        self.params, self.seed, self.workdir = params, seed, workdir
        self.threads = params["threads"] if threads is None else threads
        self.config_path = os.path.join(workdir, "fdr_config.json")
        with open(self.config_path, "w") as fh:
            json.dump(fdr_config_doc(params), fh)

    def run_round(self, index: int, tag: str) -> dict:
        from confcontam import cli

        seed = round_seed(self.seed, index)
        rows_path = os.path.join(self.workdir, f"fdr_rows_{tag}_{index}.csv")
        argv = [
            "simulate",
            "--config", self.config_path,
            "--seed", str(seed),
            "--threads", str(self.threads),
            "--per-replicate-csv", rows_path,
        ]
        buf = io.StringIO()
        error = None
        t0 = time.monotonic()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception as exc:  # recorded as a failed op, the loop goes on
            rc, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.monotonic()
        op = {
            "t0": t0,
            "t1": t1,
            "lat_ms": (t1 - t0) * 1000.0,
            "cold": True,
            "units": self.params["replicates_per_batch"],
            "seed": seed,
            "rc": rc,
            "error": error,
            "stdout": buf.getvalue(),
            "rows_csv": rows_path,
        }
        return {"index": index, "t0": t0, "t1": t1, "wall_s": t1 - t0, "ops": [op]}

    def cold_op(self, index: int) -> None:
        return None


# -- pi_scan -------------------------------------------------------------------


def pi_scan_batches(params: dict, seed: int) -> list[dict]:
    """Conformal p-value batches, stored as integer ranks c with p = c/(n_cal+1).

    Calibration scores are N(0, 1); a batch point is an inlier N(0, 1) or,
    with the batch's contamination factor, an outlier shifted down by
    ``outlier_shift`` (low scores are outlier-like).
    """
    rng = np.random.default_rng([seed, 1])
    lo, hi = params["batch_pi_range"]
    batches = []
    for size_index, (m, n_cal) in enumerate(params["sizes"]):
        for b in range(params["batches_per_size"]):
            cal = rng.standard_normal(n_cal)
            pi = float(rng.uniform(lo, hi))
            test = rng.standard_normal(m)
            test[rng.uniform(size=m) < pi] -= params["outlier_shift"]
            ranks = 1 + np.searchsorted(np.sort(cal), test, side="right")
            batches.append(
                {
                    "size_index": size_index,
                    "batch": b,
                    "m": m,
                    "n_cal": n_cal,
                    "pi": pi,
                    "ranks": [int(c) for c in ranks],
                }
            )
    return batches


def pi_scan_pi_th(params: dict, seed: int, index: int) -> float:
    """The pi_th of round ``index``.

    Drawn afresh every round, so each (m, n_cal, pi_th) is new to the process
    and misses the exact-table cache.
    """
    lo, hi = params["pi_th_range"]
    return float(np.random.default_rng([seed, 2, index]).uniform(lo, hi))


class PiScan:
    """Storey and Quantile p-values of every batch, both sizes, at a new pi_th.

    A round is one op: one point of the pi_th scan.  Every op is cold, since
    its first test at each size builds that size's exact tables, and its
    units are its tests (one batch through both exact families).
    """

    def __init__(self, params: dict, seed: int, workdir: str, threads: int | None = None):
        self.params, self.seed = params, seed
        self.batches = pi_scan_batches(params, seed)
        self.pvalues = [
            np.asarray(b["ranks"], dtype=float) / (b["n_cal"] + 1) for b in self.batches
        ]

    def run_round(self, index: int, tag: str) -> dict:
        from confcontam import contamtest

        spec = contamtest.ContamTestSpec
        pi_th = pi_scan_pi_th(self.params, self.seed, index)
        tests, error = [], None
        t0 = time.monotonic()
        try:
            for bi, (batch, pv) in enumerate(zip(self.batches, self.pvalues)):
                rs = contamtest.run_contam_test(pv, spec("storey", pi_th), batch["n_cal"])
                rq = contamtest.run_contam_test(pv, spec("quantile", pi_th), batch["n_cal"])
                tests.append(
                    {
                        "batch_index": bi,
                        "storey_T": rs.statistic,
                        "storey_u": rs.p_value,
                        "quantile_T": rq.statistic,
                        "quantile_u": rq.p_value,
                    }
                )
        except Exception as exc:  # recorded as a failed op
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.monotonic()
        op = {
            "pi_th": pi_th,
            "t0": t0,
            "t1": t1,
            "lat_ms": (t1 - t0) * 1000.0,
            "cold": True,
            "units": len(self.batches),
            "error": error,
            "tests": tests,
        }
        return {"index": index, "t0": t0, "t1": t1, "wall_s": t1 - t0, "ops": [op]}

    def cold_op(self, index: int) -> None:
        return None


# -- protocol_sessions ---------------------------------------------------------


def session_config_doc(params: dict, seed: int, index: int) -> dict:
    """Config of session ``index``: a fresh seed, budget and threshold alternating."""
    budget = index % 2 == 0
    return {
        "ell": params["ell"],
        "n": params["n"],
        "m": params["m"],
        "score": "knn",
        "test": "storey",
        "mode": "budget" if budget else "threshold",
        "k_budget": params["k_budget"] if budget else None,
        "alpha": None if budget else params["alpha"],
        "gamma": None if budget else params["gamma"],
        "pi_th": params["pi_th"],
        "rounds": params["rounds"],
        "seed": round_seed(seed, index),
        "k_nn": params["k_nn"],
        "scenario": {
            "k": params["k"],
            "dim": params["dim"],
            "mu1": params["mu1"],
            "pi": {"rule": "uniform"},
        },
    }


class ProtocolSessions:
    """Closed loop, one client: ``confcontam protocol`` sessions run in-process.

    A round is ``sessions_per_round`` consecutive sessions; session numbers
    run on across rounds, so every session has its own seed.
    """

    def __init__(self, params: dict, seed: int, workdir: str, threads: int | None = None):
        self.params, self.seed, self.workdir = params, seed, workdir

    def _session(self, number: int) -> dict:
        from confcontam import cli

        doc = session_config_doc(self.params, self.seed, number)
        path = os.path.join(self.workdir, f"session_{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        buf = io.StringIO()
        error = None
        t0 = time.monotonic()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["protocol", "--config", path])
        except Exception as exc:  # recorded as a failed op
            rc, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.monotonic()
        return {
            "session": number,
            "t0": t0,
            "t1": t1,
            "lat_ms": (t1 - t0) * 1000.0,
            "units": 1,
            "rc": rc,
            "error": error,
            "stdout": buf.getvalue(),
        }

    def run_round(self, index: int, tag: str) -> dict:
        per = self.params["sessions_per_round"]
        t0 = time.monotonic()
        ops = []
        for number in range(index * per, (index + 1) * per):
            op = self._session(number)
            op["cold"] = number == 0
            ops.append(op)
        t1 = time.monotonic()
        return {"index": index, "t0": t0, "t1": t1, "wall_s": t1 - t0, "ops": ops}

    def cold_op(self, index: int) -> dict:
        """The first session of a fresh process, the cost of one CLI invocation.

        Only budget-mode sessions (even numbers) are used, so that the
        median is not split between the two modes.
        """
        op = self._session(2 * index)
        op["cold"] = True
        return op


WORKLOADS = {
    "fdr_study": FdrStudy,
    "pi_scan": PiScan,
    "protocol_sessions": ProtocolSessions,
}
