"""One measured process of a benchmark run.

Usage: ``python3 bench/worker.py JOB.json`` with ``confcontam`` importable
(``run.py`` puts the checkout's ``src`` on ``PYTHONPATH``).  The job names
the workload, its parameters and seed, the CPU to pin to (none for a
process pool), and what to do:

- ``timed``: after set-up print ``READY``, then run rounds until
  ``seconds`` have passed (or the listed ``rounds``), untraced.
- ``probe``: after set-up print ``READY``, run the workload's cold op if it
  has one, and stop.
- ``traced``: like ``timed`` with ``rounds`` listed, with the bench's
  wrappers installed around the package's layers.

Results go to the job's ``out`` file as JSON; stdout carries only
``READY``.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    from calibrate import pin

    pinned = pin(job.get("cpu"))
    import confcontam

    src = os.path.realpath(os.path.join(job["root"], "src"))
    if not os.path.realpath(confcontam.__file__).startswith(src + os.sep):
        print(f"confcontam imported from {confcontam.__file__}, not {src}", file=sys.stderr)
        return 2
    import confcontam.cli  # noqa: F401  (every layer the workloads reach)

    from workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]](
        job["params"], job["seed"], job["workdir"], threads=job.get("threads")
    )
    tracer = None
    if job["mode"] == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    print("READY", flush=True)

    result = {"mode": job["mode"], "cpu": pinned, "rounds": [], "cold_ops": []}
    if job["mode"] == "probe":
        op = workload.cold_op(job.get("probe_index", 0))
        if op is not None:
            result["cold_ops"].append(op)
    elif job.get("rounds") is not None:
        for index in job["rounds"]:
            result["rounds"].append(workload.run_round(index, job["tag"]))
    else:
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < job["seconds"]:
            result["rounds"].append(workload.run_round(index, job["tag"]))
            index += 1
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.snapshot()
    with open(job["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
