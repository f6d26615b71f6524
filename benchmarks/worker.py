"""Run one pass of a workload in this process and print its record as JSON.

    python3 benchmarks/worker.py --workload verify --seed 1 [--trace-out FILE]

Imports socone from the checkout's src/ only. Each job is timed on its own,
raw and scaled to nominal machine speed (speed.py), and the pass time is
the sum over the job list; outputs are checked against the oracles after
the pass, outside every timed region. With
--trace-out the tracer is installed before the pass and its spans are
written to FILE. run.py starts this script once per pass, with the pinned
environment, so no cache survives from one pass to the next.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from importlib import metadata
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_socone():
    sys.path.insert(0, str(SRC))
    import socone
    import socone.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(socone.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"socone was imported from {socone.__file__}, not {SRC}")
    return socone


def run_pass(sc, jobs, tracer=None) -> dict:
    """Run the jobs once; each is timed raw and scaled to nominal machine
    speed by the reference kernel runs before and after it."""
    outputs = {}
    records = []
    clock = time.perf_counter
    before = speed.kernel_seconds()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(index)
        start = clock()
        error = None
        try:
            output = job.run(sc)
        except Exception as exc:  # a crashed job is a failed job, not a crashed pass
            output, error = None, f"{type(exc).__name__}: {exc}"
        seconds = clock() - start
        after = speed.kernel_seconds()
        records.append(
            {
                "name": job.name,
                "raw_s": seconds,
                "kernel_s": (before + after) / 2,
                "seconds": speed.scaled(seconds, before, after),
                "error": error,
            }
        )
        outputs[job.name] = output
        before = after
    for job, record in zip(jobs, records):
        reason = record.pop("error")
        if reason is None:
            try:
                reason = job.check(outputs[job.name], outputs)
            except Exception as exc:  # malformed output fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
        record["ok"] = reason is None
        record["reason"] = reason
    return {
        "wall_s": sum(r["seconds"] for r in records),
        "raw_wall_s": sum(r["raw_s"] for r in records),
        "jobs": records,
    }


def os_threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return -1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    import workloads

    sc = import_socone()
    jobs = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer(sc)
        tracer.install()
    record = run_pass(sc, jobs, tracer)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        record["layers"] = tracer.metrics()
        tracer.write(args.trace_out, [job.name for job in jobs])
    record["env"] = {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "numpy_loaded_by_pass": "numpy" in sys.modules,
        "os_threads": os_threads(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
