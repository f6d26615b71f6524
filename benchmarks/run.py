"""socone benchmark: one workload, measured end to end or traced by layer.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; socone is imported from its src/ only.
The workloads are closed loops with one client, described in
workloads.py. The job list runs in passes, each pass in a fresh worker
process with a pinned environment, one after another, until --seconds
have passed (at least three passes). Before each pass, three fresh
interpreters time `import socone`; set-up time is their median. Every
time is scaled to nominal machine speed by a reference kernel run around
it (speed.py), since machine speed drifts in phases longer than a run.
Outputs are checked against oracles that do not come from socone
(oracles.py).

--trace 0 reports the end-to-end metrics. --trace 1 runs the untraced
passes as a baseline, then one pass with the layer tracer installed, and
reports the per-layer metrics, including the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a
readable summary. A full record, with the environment, goes to
benchmarks/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads
from tracer import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
SETUP_PER_PASS = 3
RUN_LIMIT_S = 170.0

# One thread per process, and a fixed string hash so set and dict orders,
# and with them the traced call counts, repeat exactly.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """The caller's environment without SOCONE_* defaults, plus the pins."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("SOCONE_") and k not in ("PYTHONPATH", "PYTHONSTARTUP")
    }
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env, count) -> list:
    """(scaled, raw) seconds from spawning an interpreter to `import socone`
    done and exit, each sample bracketed by reference kernel runs."""
    samples = []
    before = speed.kernel_seconds()
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import socone"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
        raw = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"import socone failed: {proc.stderr.strip()[-300:]}")
        after = speed.kernel_seconds()
        samples.append((speed.scaled(raw, before, after), raw))
        before = after
    return samples


def run_worker(workload, seed, env, timeout, trace_out=None):
    """One pass in a fresh process; returns (record, None) or (None, problem)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"pass did not finish within {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, "worker printed no record"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "socone").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def end_to_end(passes, setup) -> dict:
    job_times = [j["seconds"] for p in passes for j in p["jobs"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "job_p50_s": statistics.median(job_times),
        "job_p90_s": statistics.quantiles(job_times, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(scaled for scaled, _ in setup),
    }


def summary(args, passes, setup, metrics, attempted, failed, env) -> list:
    samples = sum(len(p["jobs"]) for p in passes)
    lines = [
        f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {len(passes)}  jobs/pass {len(passes[0]['jobs'])}",
        f"# fail_ratio {failed}/{attempted} = {failed / attempted:.6g}",
        "# times are scaled to nominal machine speed (speed.py); raw in brackets",
        "# pass wall_s: " + ", ".join(f"{p['wall_s']:.3f} [{p['raw_wall_s']:.3f}]" for p in passes),
        f"# setup_s: median of {len(setup)}: "
        + ", ".join(f"{scaled:.4f} [{raw:.4f}]" for scaled, raw in setup),
        f"# job_p50_s and job_p90_s over {samples} job samples",
    ]
    for name, value in metrics.items():
        unit = END_TO_END_UNITS.get(name) or LAYER_UNITS.get(name, "")
        lines.append(f"# {name:40s} {value!r} {unit}")
    by_job = {}
    for p in passes:
        for j in p["jobs"]:
            by_job.setdefault(j["name"], []).append((j["seconds"], j["raw_s"]))
    for name, times in by_job.items():
        scaled = statistics.median(t for t, _ in times)
        raw = statistics.median(r for _, r in times)
        lines.append(f"# job {name:48s} median {scaled:.4f} s [{raw:.4f}]")
    for p in passes:
        for j in p["jobs"]:
            if not j["ok"]:
                lines.append(f"# FAILED {j['name']}: {j['reason']}")
    lines.append("# env " + json.dumps(env, sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "socone" / "__init__.py").is_file():
        print(f"run.py: no socone sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    env = child_env()
    jobs_per_pass = len(workloads.build(args.workload, args.seed))
    setup, passes, problems, pass_times = [], [], [], []
    min_passes = 1 if args.trace else MIN_PASSES
    measure_start = time.perf_counter()
    try:
        measure_setup(env, 1)  # the first start may compile bytecode
        while True:
            # set-up samples are spread over the run, as machine speed drifts
            setup += measure_setup(env, SETUP_PER_PASS)
            left = RUN_LIMIT_S - (time.perf_counter() - started)
            start = time.perf_counter()
            record, problem = run_worker(args.workload, args.seed, env, left)
            pass_times.append(time.perf_counter() - start)
            if record is None:
                problems.append(problem)
                break
            passes.append(record)
            elapsed = time.perf_counter() - measure_start
            if len(passes) >= min_passes and elapsed + statistics.median(pass_times) > args.seconds:
                break
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    traced = None
    if args.trace and passes:
        left = RUN_LIMIT_S - (time.perf_counter() - started)
        trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        traced, problem = run_worker(args.workload, args.seed, env, left, trace_out)
        if traced is None:
            problems.append(problem)
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    if not passes or (args.trace and traced is None):
        return 1

    records = passes + ([traced] if traced else [])
    attempted = sum(len(r["jobs"]) for r in records) + jobs_per_pass * len(problems)
    failed = sum(not j["ok"] for r in records for j in r["jobs"]) + jobs_per_pass * len(problems)
    if args.trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["wall_s"] / statistics.median(
            p["wall_s"] for p in passes
        )
        units = LAYER_UNITS
    else:
        metrics = end_to_end(passes, setup)
        units = END_TO_END_UNITS
    env_record = dict(passes[0]["env"])
    env_record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        commit=git_commit(),
        src_sha256=source_digest(),
        pinned_env=PINNED_ENV,
        speed_nominal_s=speed.NOMINAL_S,
    )
    for line in summary(args, passes, setup, metrics, attempted, failed, env_record):
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    full = dict(result, env=env_record, setup_samples=setup, passes=passes, traced=traced)
    out_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
