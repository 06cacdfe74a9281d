"""Layer-by-layer benchmark of confcontam: one command, three workloads.

    python3 bench/run.py --workload {fdr_study,pi_scan,protocol_sessions}
                         --seed N --seconds S --trace {0,1} [--params FILE]
    python3 bench/run.py --smoke

Run from anywhere; the package is imported from ``src/`` next to this
directory, and the run fails (exit 2, no result) when that is missing.
Each measured pass runs in a fresh interpreter (``worker.py``).  Every
output is checked by ``oracle.py``; the last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.  A
result file with full provenance goes to ``bench/results/``.  See
``bench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

PROBES = 8  # extra fresh interpreters per untraced run, for setup_s
RUN_TIMEOUT_S = 170.0  # every process of a run ends before this
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
TRACED_ROUNDS = {"pi_scan": 3, "protocol_sessions": 5}  # fdr_study: one serial batch

sys.path.insert(0, str(BENCH_DIR))
from calibrate import SpeedSampler, pin  # noqa: E402
from workloads import PARAMS, SMOKE_PARAMS, WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    """A measured process failed; the run prints no result."""


# -- processes -----------------------------------------------------------------


def _tree_rss_bytes(pid: int) -> int:
    """Resident set of ``pid`` and all its descendants, from /proc."""
    page = os.sysconf("SC_PAGE_SIZE")
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * page
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue  # the process ended between listing and reading
    return total


class RssSampler(threading.Thread):
    """Peak resident set of a process tree, sampled every 20 ms."""

    def __init__(self, pid: int, cpu: int) -> None:
        super().__init__(daemon=True)
        self.pid, self.cpu, self.peak = pid, cpu, 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        pin(self.cpu)  # off the measured CPU where there is another
        while not self._stop_event.is_set():
            self.peak = max(self.peak, _tree_rss_bytes(self.pid))
            self._stop_event.wait(0.02)

    def stop(self) -> int:
        self._stop_event.set()
        self.join()
        return self.peak


class Run:
    """The processes and scratch files of one benchmark run."""

    def __init__(self, name: str, seed: int, seconds: float, params: dict) -> None:
        self.name, self.seed, self.seconds, self.params = name, seed, seconds, params
        self.speed = SpeedSampler()
        self.deadline = time.monotonic() + RUN_TIMEOUT_S
        self.workdir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._jobs = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def close(self) -> None:
        self.speed.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _popen(self, argv: list[str]) -> subprocess.Popen:
        return subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL
        )

    def _finish(self, proc: subprocess.Popen, what: str) -> bytes:
        """Drain stdout and wait, killing the process at the run's deadline."""
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()
        if proc.returncode != 0:
            raise BenchError(f"{what} exited with {proc.returncode}")
        return out

    def worker(self, mode: str, sample_rss: bool = False, **job) -> dict:
        """Run one worker process; returns its result plus ``setup_s``.

        A worker without a process pool is pinned to the last CPU.
        """
        self._jobs += 1
        threads = job.get("threads", self.params.get("threads", 1))
        pool = mode != "probe" and threads > 1
        job["cpu"] = None if pool else self.speed.cpus[-1]
        out = self.workdir / f"out_{self._jobs}.json"
        job.update(
            workload=self.name,
            seed=self.seed,
            seconds=self.seconds,
            params=self.params,
            mode=mode,
            root=str(ROOT),
            workdir=str(self.workdir),
            out=str(out),
            tag=f"{mode}{self._jobs}",
        )
        job_path = self.workdir / f"job_{self._jobs}.json"
        job_path.write_text(json.dumps(job))
        t_spawn = time.monotonic()
        proc = self._popen([sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)])
        sampler = RssSampler(proc.pid, self.speed.cpus[0]) if sample_rss else None
        if sampler is not None:
            sampler.start()
        try:
            first = proc.stdout.readline()
            t_ready = time.monotonic()
            self._finish(proc, f"{mode} worker")
        finally:
            peak = sampler.stop() if sampler is not None else 0
        if first.strip() != b"READY":
            raise BenchError(f"{mode} worker never became ready")
        result = json.loads(out.read_text())
        result.update(t0=t_spawn, t1=t_ready, setup_s=t_ready - t_spawn, peak_rss_bytes=peak)
        self._calibrate(result)
        return result

    def _calibrate(self, result: dict) -> None:
        """Scale every duration of a worker result to reference seconds.

        The raw value stays next to each scaled one, under a ``raw_`` key.
        """

        def scale(item: dict, key: str) -> None:
            item["raw_" + key] = item[key]
            item[key] *= self.speed.factor(item["t0"], item["t1"], result["cpu"])

        scale(result, "setup_s")
        for r in result["rounds"]:
            scale(r, "wall_s")
            for op in r["ops"]:
                scale(op, "lat_ms")
        for op in result["cold_ops"]:
            scale(op, "lat_ms")

    def cli_rerun(self, argv: list[str]) -> bytes:
        """The package CLI in a fresh interpreter; returns its stdout."""
        proc = self._popen([sys.executable, "-m", "confcontam"] + argv)
        return self._finish(proc, "confcontam " + " ".join(argv[:1]))


# -- correctness ---------------------------------------------------------------


class Checker:
    """Counts ops attempted and failed; keeps the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, units: int, failed_units: int, label: str, problems: list[str]) -> None:
        self.attempted += units
        self.failed += failed_units
        if problems and len(self.notes) < 20:
            self.notes.append(f"{label}: {'; '.join(problems)[:500]}")


def _import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import confcontam

    if not os.path.realpath(confcontam.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"confcontam imported from {confcontam.__file__}, not {SRC}")
    return confcontam


def check_ops(run: Run, ops: list[dict], checker: Checker, label: str) -> None:
    """Check every op of a pass against the oracle."""
    import oracle

    params, seed = run.params, run.seed
    if run.name == "pi_scan":
        from workloads import pi_scan_batches

        batches = pi_scan_batches(params, seed)
        for op in ops:
            problems = [f"raised {op['error']}"] if op["error"] else []
            failed = op["units"] - len(op["tests"])  # tests an exception cut off
            for test in op["tests"]:
                found = oracle.check_pi_scan_test(test, batches[test["batch_index"]], op["pi_th"])
                failed += bool(found)
                problems += found
            checker.record(op["units"], failed, f"{label} pi_th={op['pi_th']:.6f}", problems)
    elif run.name == "fdr_study":
        import numpy as np

        confcontam = _import_package()
        p = params

        def scenario(s: int, idx: int):
            config = confcontam.ScenarioConfig(
                n=p["n"], m=p["m"], k=p["k"], ell=p["ell"], dim=p["dim"], mu1=p["mu1"],
                pi_rule="split", k0=p["pi"]["k0"], pi0=p["pi"]["pi0"], pi1=p["pi"]["pi1"],
                pi_th=p["pi_th"], alpha=p["alpha"], gamma=p["gamma"], lam=p["lambda"],
                i0=p["i0"], replicates=p["replicates_per_batch"], seed=s,
            )
            null, batches, _ = confcontam.gen_scenario(config, idx)
            return (
                np.stack([d.features for d in null]),
                [np.stack([d.features for d in b.points]) for b in batches],
            )

        reps = p["replicates_per_batch"]
        sample = sorted(
            {int(round(x)) for x in np.linspace(0, reps - 1, p["oracle_replicates_per_batch"])}
        )
        for op in ops:
            problems = oracle.check_fdr_batch(op, p, scenario, sample)
            failed = reps if -1 in problems else len(problems)
            notes = [f"replicate {i}: {'; '.join(v)}" for i, v in sorted(problems.items())]
            checker.record(reps, failed, f"{label} batch seed={op['seed']}", notes)
    else:
        from workloads import session_config_doc

        for op in ops:
            doc = session_config_doc(params, seed, op["session"])
            problems = oracle.check_session(op, doc, params["k"])
            checker.record(1, int(bool(problems)), f"{label} session {op['session']}", problems)


def check_session_rerun(run: Run, ops: list[dict], checker: Checker) -> None:
    """A session rerun in a fresh interpreter must print the same bytes."""
    from workloads import session_config_doc

    op = ops[run.seed % len(ops)]
    path = run.workdir / "rerun.json"
    path.write_text(json.dumps(session_config_doc(run.params, run.seed, op["session"])))
    same = run.cli_rerun(["protocol", "--config", str(path)]) == op["stdout"].encode()
    problems = [] if same else ["rerun output is not byte-identical"]
    checker.record(1, int(not same), f"rerun of session {op['session']}", problems)


def check_fdr_threads(serial: dict, parallel: dict, checker: Checker) -> None:
    """The serial batch of the traced pass must match the parallel one row for row."""
    import oracle

    same = oracle.read_rows(serial["rows_csv"]) == oracle.read_rows(parallel["rows_csv"])
    problems = [] if same else ["rows differ between --threads 1 and the parallel run"]
    checker.record(serial["units"], 0 if same else serial["units"], "threads invariance", problems)


# -- metrics -------------------------------------------------------------------


def _ops(passes: list[dict]) -> list[dict]:
    return [op for p in passes for r in p["rounds"] for op in r["ops"]]


def tail_latency(lat_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with 10 samples beyond.

    Below 2 x 10 samples not even the median has 10 beyond it; then the
    median is reported, as percentile 50, and the result file says so.
    """
    s = sorted(lat_ms)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(s), 50.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(main: dict, probes: list[dict], raw: str = "") -> tuple[dict, dict]:
    """End-to-end metrics in reference seconds, or as timed with ``raw="raw_"``."""
    rounds = main["rounds"]
    ops = _ops([main])
    lat = [op[raw + "lat_ms"] for op in ops]
    cold = [op[raw + "lat_ms"] for op in ops if op["cold"]]
    cold += [op[raw + "lat_ms"] for p in probes for op in p["cold_ops"]]
    walls = [r[raw + "wall_s"] for r in rounds]
    setups = [main[raw + "setup_s"]] + [p[raw + "setup_s"] for p in probes]
    tail, pct, n = tail_latency(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (sum(op["units"] for op in ops) / sum(walls), "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (tail, "ms"),
        "cold_op_p50_ms": (statistics.median(cold), "ms"),
        "peak_rss_mb": (main["peak_rss_bytes"] / 2**20, "MB"),
    }
    extra = {
        "rounds": len(rounds),
        "round_walls_s": walls,
        "ops": len(ops),
        "tail_percentile": pct,
        "tail_samples": n,
        "cold_samples": len(cold),
        "setup_samples_s": setups,
    }
    return metrics, extra


def per_layer(trace: dict, traced_wall_s: float, overhead: float, efficiency: float) -> dict:
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]

    def ms(name: str) -> tuple[float, str]:
        return (self_s.get(name, 0.0) * 1000.0, "ms")

    def n(name: str) -> tuple[float, str]:
        return (float(calls.get(name, 0)), "count")

    def ratio(num: float, den: float) -> tuple[float, str]:
        return (num / den if den else 0.0, "ratio")

    hits, builds = counts.get("table_hits", 0.0), counts.get("table_builds", 0.0)
    metrics = {
        "statdist.nhg_cdf.calls": n("statdist.nhg_cdf"),
        "statdist.nhg_cdf.self_ms": ms("statdist.nhg_cdf"),
        "statdist.gsum_cdf.calls": n("statdist.gsum_cdf"),
        "statdist.gsum_cdf.self_ms": ms("statdist.gsum_cdf"),
        "statdist.binom_pmf.calls": n("statdist.binom_pmf"),
        "statdist.binom_pmf.self_ms": ms("statdist.binom_pmf"),
    }
    for family in ("storey", "quantile", "fisher", "sum"):
        metrics[f"contamtest.test.{family}.calls"] = n(f"contamtest.test.{family}")
        metrics[f"contamtest.test.{family}.self_ms"] = ms(f"contamtest.test.{family}")
    metrics.update(
        {
            "contamtest.table_builds": (builds, "count"),
            "contamtest.table_build_ms": (counts.get("table_build_s", 0.0) * 1000.0, "ms"),
            "contamtest.table_hit_ratio": ratio(hits, hits + builds),
            "conformal.split_fit.self_ms": ms("conformal.split_fit"),
            "conformal.pvalues.calls": n("conformal.pvalues"),
            "conformal.pvalues.self_ms": ms("conformal.pvalues"),
            "conformal.points_scored": (counts.get("points_scored", 0.0), "count"),
            "harness.gen_scenario.self_ms": ms("harness.gen_scenario"),
            "harness.source.self_ms": ms("harness.source"),
            "harness.points_generated": (counts.get("points_generated", 0.0), "count"),
            "harness.study.self_ms": ms("harness.study"),
            "harness.parallel_efficiency": (efficiency, "ratio"),
            "mht.calls": n("mht"),
            "mht.self_ms": ms("mht"),
            "protocol.run.self_ms": ms("protocol.run"),
            "protocol.assess.self_ms": ms("protocol.assess"),
            "protocol.select.self_ms": ms("protocol.select"),
            "protocol.agents_assessed": (counts.get("agents_assessed", 0.0), "count"),
            "protocol.selected_ratio": ratio(
                counts.get("agents_selected", 0.0), counts.get("agents_offered", 0.0)
            ),
            "cli.self_ms": ms("cli"),
            "trace.overhead_ratio": (overhead, "ratio"),
            "bench.unattributed_ms": ((traced_wall_s - trace["top_level_s"]) * 1000.0, "ms"),
        }
    )
    return metrics


# -- one run -------------------------------------------------------------------


def run_untraced(run: Run, checker: Checker, probes: int) -> tuple[dict, dict]:
    probe_results = [run.worker("probe", probe_index=i) for i in range(probes)]
    main = run.worker("timed", sample_rss=True)
    check_ops(run, _ops([main]), checker, "timed")
    check_ops(run, [op for p in probe_results for op in p["cold_ops"]], checker, "probe")
    if run.name == "protocol_sessions":
        check_session_rerun(run, _ops([main]), checker)
    metrics, extra = end_to_end(main, probe_results)
    raw, raw_extra = end_to_end(main, probe_results, raw="raw_")
    extra.update(
        raw_metrics={k: v for k, (v, _) in raw.items()},
        raw_round_walls_s=raw_extra["round_walls_s"],
        raw_setup_samples_s=raw_extra["setup_samples_s"],
        speed_factor=run.speed.factor(main["t0"], main["rounds"][-1]["t1"], main["cpu"]),
    )
    return metrics, extra


def run_traced(run: Run, checker: Checker) -> tuple[dict, dict]:
    main = run.worker("timed")
    check_ops(run, _ops([main]), checker, "timed")
    walls = [r["wall_s"] for r in main["rounds"]]
    efficiency = 0.0
    if run.name == "fdr_study":
        # serial untraced and serial traced batches, each in its own process
        # so both build the exact tables cold, like a pool worker does
        serial = run.worker("timed", rounds=[0], threads=1)
        traced = run.worker("traced", rounds=[0], threads=1)
        reference = serial["rounds"][0]["wall_s"]
        efficiency = reference / (run.params["threads"] * statistics.median(walls))
        check_ops(run, _ops([serial, traced]), checker, "serial")
        for p in (serial, traced):
            check_fdr_threads(p["rounds"][0]["ops"][0], main["rounds"][0]["ops"][0], checker)
    else:
        traced = run.worker("traced", rounds=list(range(TRACED_ROUNDS[run.name])))
        reference = statistics.median(walls)
        check_ops(run, _ops([traced]), checker, "traced")
    traced_walls = [r["wall_s"] for r in traced["rounds"]]
    overhead = statistics.median(traced_walls) / reference
    # span times are as timed, so the unattributed rest uses raw walls too
    raw_wall = sum(r["raw_wall_s"] for r in traced["rounds"])
    metrics = per_layer(traced["trace"], raw_wall, overhead, efficiency)
    extra = {
        "untraced_reference_wall_s": reference,
        "traced_walls_s": traced_walls,
        "trace_raw": traced["trace"],
    }
    return metrics, extra


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, params: dict) -> dict:
    import numpy
    import scipy

    rerun = [
        "python3", "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "rerun": rerun + ["--params", "<this file>"],
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure(name: str, seed: int, seconds: float, trace: int, params: dict, probes: int = PROBES):
    """One benchmark run; returns (result line, details)."""
    run = Run(name, seed, seconds, params)
    checker = Checker()
    try:
        if trace:
            metrics, extra = run_traced(run, checker)
        else:
            metrics, extra = run_untraced(run, checker, probes)
    finally:
        run.close()
    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = dict(extra, fail_ratio=checker.failed / max(1, checker.attempted), failures=checker.notes)
    return result, details


def load_params(name: str, path: str | None) -> dict:
    if path is None:
        return PARAMS[name]
    doc = json.loads(Path(path).read_text())
    return doc["provenance"]["params"] if "provenance" in doc else doc


# -- self-check ----------------------------------------------------------------


def smoke() -> int:
    """Tiny run of every workload and both passes, plus an oracle self-test."""
    import oracle

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, details = measure(name, 1, 1.0, trace, SMOKE_PARAMS[name], probes=1)
            got = result["metrics"]
            missing = [
                m["name"] for m in wanted
                if m["name"] not in got
                or got[m["name"]]["unit"] != m["unit"]
                or not math.isfinite(got[m["name"]]["value"])
            ]
            extra = sorted(set(got) - {m["name"] for m in wanted})
            good = result["correct"] and not missing and not extra
            ok &= good
            print(
                f"smoke {name} trace={trace}: {'ok' if good else 'FAIL'} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"missing={missing} unexpected={extra} {details['failures'][:2]}"
            )
    # the oracle must flag a p-value moved by far less than any real defect
    from workloads import pi_scan_batches

    params = SMOKE_PARAMS["pi_scan"]
    batch = pi_scan_batches(params, 1)[0]
    m, n_cal = batch["m"], batch["n_cal"]
    ranks = sorted(batch["ranks"])
    lam_idx, i0 = oracle.default_lambda_index(n_cal), m // 3
    t_s = sum(1 for c in ranks if c > lam_idx)
    test = {
        "storey_T": t_s,
        "storey_u": oracle.storey_u(t_s, m, n_cal, lam_idx, 0.2),
        "quantile_T": ranks[m - i0 - 1],
        "quantile_u": oracle.quantile_u(ranks[m - i0 - 1], m, n_cal, i0, 0.2),
    }
    clean = oracle.check_pi_scan_test(test, batch, 0.2)
    test["storey_u"] += 1e-9
    flagged = oracle.check_pi_scan_test(test, batch, 0.2)
    caught = not clean and bool(flagged)
    ok &= caught
    print(f"smoke oracle: clean op {'passes' if not clean else 'FAILS'}, "
          f"perturbed p-value (+1e-9) {'flagged' if flagged else 'NOT flagged'}: {flagged}")
    print("smoke:", "ok" if ok else "FAIL")
    return 0 if ok else 1


# -- entry ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--params", help="workload parameters as JSON, or a result file")
    parser.add_argument("--smoke", action="store_true", help="tiny self-check of the bench")
    args = parser.parse_args(argv)
    if not (SRC / "confcontam" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'confcontam'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed < 0:
        parser.error("--workload and a nonnegative --seed are required")
    params = load_params(args.workload, args.params)
    try:
        result, details = measure(args.workload, args.seed, args.seconds, args.trace, params)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(
        json.dumps({"provenance": provenance(args, params), "result": result, "details": details}, indent=1)
    )
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"result file: {out.relative_to(ROOT)}; fail_ratio = {details['fail_ratio']:.6g}")
    for note in details["failures"]:
        print("failure:", note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
