"""The benchmark's workloads: fixed job lists drawn from a seed.

A job is one call into socone's public API, timed on its own; one pass runs
a workload's whole job list once. Jobs look socone up at call time, so a
traced pass goes through the tracer's wrappers. Building a job list does
not import socone.

verify         the five `socone verify` suites at (n=2, D=4) and (n=3, D=5),
               through socone.cli.main, with the benchmark seed as --seed.
               Scalar and dense-matrix arithmetic dominate; per-n structures
               are rebuilt many times.
series-tables  the symbolic table commands at sizes whose output runs to
               thousands of terms, each in text and json, plus numeric-weight
               variants whose --tau the seed picks from a fixed pool.
               Polynomial series and encoding dominate; the dense-matrix
               layer is idle.
weight-probes  rational weights on both sides of the Wallach boundary, each
               sent to positivity_probe and moment_positivity_probe at a
               fixed size. Many jobs share one (n, D), so a per-(n, D) cache
               of the Gram table would show here.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

WORKLOADS = ("verify", "series-tables", "weight-probes")

VERIFY_SIZES = ((2, 4), (3, 5))
SUITES = ("lie", "coherent", "fock", "berezin", "observables")

# (command, n, size): size is --kmax for basis-poly, --degree otherwise
SYMBOLIC_TABLES = (
    ("leibniz", 3, 7),
    ("gram", 3, 6),
    ("gram", 2, 10),
    ("transform", 3, 14),
    ("moments", 3, 10),
    ("basis-poly", 1, 16),
    ("basis-poly", 2, 6),
    ("gram", 1, 12),
    ("moments", 1, 12),
)
NUMERIC_TABLES = (
    ("gram", 2, 10),
    ("moments", 3, 10),
    ("gram", 1, 12),
    ("moments", 1, 12),
)
# numeric weights come from this pool so every output has a recorded digest
TAU_POOL = tuple(
    Fraction(p, q)
    for p, q in (
        (1, 2), (3, 2), (5, 2), (7, 2), (1, 3), (2, 3), (4, 3), (5, 3),
        (7, 3), (8, 3), (3, 4), (5, 4), (7, 4), (9, 4), (11, 5), (13, 5),
    )
)
FORMATS = ("text", "json")

# (n, Gram truncation D, moment-matrix degree d)
PROBE_SIZES = ((2, 6, 4), (3, 5, 3), (4, 4, 2))
PROBES_PER_SIDE = 3
# offsets from the boundary: p/q with q <= 4 and 0 < p/q <= 3
PROBE_OFFSETS = tuple(
    sorted({Fraction(p, q) for q in range(1, 5) for p in range(1, 3 * q + 1)})
)


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Job:
    """run(socone) -> output; check(output, outputs by job name) -> reason or None."""

    name: str
    run: Callable
    check: Callable


def run_cli(sc, argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sc.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_job(name, argv, check) -> Job:
    return Job(name, lambda sc: run_cli(sc, argv), check)


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


# -- verify -----------------------------------------------------------------------


def verify_jobs(seed: int) -> list:
    jobs = []
    for n, d in VERIFY_SIZES:
        for suite in SUITES:
            argv = ["verify", f"--{suite}", "--n", str(n), "--degree", str(d), "--seed", str(seed)]
            jobs.append(
                _cli_job(f"verify.{suite}.n{n}D{d}", argv, lambda out, _: oracles.check_verify(out))
            )
    return jobs


# -- series-tables ----------------------------------------------------------------


def table_argv(command, n, size, fmt, tau=None) -> list:
    flag = "--kmax" if command == "basis-poly" else "--degree"
    argv = [command, "--n", str(n), flag, str(size)]
    if tau is not None:
        argv += ["--tau", str(tau)]
    return argv + ["--format", fmt]


def table_name(command, n, size, fmt, tau=None) -> str:
    weight = "symbolic" if tau is None else f"tau={tau}"
    return f"table.{command}.n{n}.{size}.{weight}.{fmt}"


def all_table_argvs() -> list:
    """Every table invocation any seed can produce, for recording digests."""
    argvs = [table_argv(c, n, s, f) for c, n, s in SYMBOLIC_TABLES for f in FORMATS]
    for c, n, s in NUMERIC_TABLES:
        for tau in TAU_POOL:
            argvs += [table_argv(c, n, s, f, tau) for f in FORMATS]
    return argvs


def _n1_closed_form(command, tau):
    """The closed-form check of an n=1 json table."""
    if command == "gram":
        return lambda out, _: oracles.check_gram_n1(out, tau)
    if command == "moments":
        return lambda out, _: oracles.check_moments_n1(out, tau)
    return lambda out, _: oracles.check_basis_n1(out)


def _numeric_json_check(twin, tau):
    return lambda out, outputs: oracles.check_numeric_json(out, outputs.get(twin), tau)


def _numeric_text_check(json_name):
    return lambda out, outputs: oracles.check_numeric_text(out, outputs.get(json_name))


def series_table_jobs(seed: int, digests: dict) -> list:
    """Every table output must match its recorded digest; n=1 json tables
    also match closed forms, and numeric tables match their symbolic twin
    (json) or their json twin (text)."""
    rng = random.Random(seed)
    jobs = []

    def add(command, n, size, fmt, tau, extra):
        argv = table_argv(command, n, size, fmt, tau)
        digest = digests.get(" ".join(argv))

        def check(out, outputs):
            return oracles.check_digest(out, digest) or (extra and extra(out, outputs))

        jobs.append(_cli_job(table_name(command, n, size, fmt, tau), argv, check))

    for command, n, size in SYMBOLIC_TABLES:
        add(command, n, size, "text", None, None)
        add(command, n, size, "json", None, _n1_closed_form(command, None) if n == 1 else None)
    for command, n, size in NUMERIC_TABLES:
        tau = rng.choice(TAU_POOL)
        if n == 1:
            json_check = _n1_closed_form(command, tau)
        else:
            json_check = _numeric_json_check(table_name(command, n, size, "json"), tau)
        add(command, n, size, "text", tau, _numeric_text_check(table_name(command, n, size, "json", tau)))
        add(command, n, size, "json", tau, json_check)
    return jobs


# -- weight-probes ------------------------------------------------------------------


def probe_weights(seed: int) -> list:
    """(n, D, d, t) per job: PROBES_PER_SIDE weights on each side of the
    boundary max(n-2, 0) for every size, plus the boundary itself."""
    rng = random.Random(seed)
    out = []
    for n, d_gram, d_moment in PROBE_SIZES:
        boundary = Fraction(max(n - 2, 0))
        below = rng.sample(PROBE_OFFSETS, PROBES_PER_SIDE)
        above = rng.sample(PROBE_OFFSETS, PROBES_PER_SIDE)
        weights = [boundary - x for x in below] + [boundary] + [boundary + x for x in above]
        out += [(n, d_gram, d_moment, t) for t in weights]
    return out


def _probe(n, d_gram, d_moment, t):
    def run(sc):
        gram = sc.fock.positivity_probe(n, d_gram, t)
        moment = sc.spectral.moment_positivity_probe(n, t, d_moment)
        return gram.positive_definite, moment.positive_definite

    def check(out, _):
        want = oracles.wallach_positive(n, t)
        if out != (want, want):
            return f"verdicts {out} at t={t}, expected {want} for both"
        return None

    return Job(f"probe.n{n}.t={t}", run, check)


def weight_probe_jobs(seed: int) -> list:
    return [_probe(*spec) for spec in probe_weights(seed)]


def build(workload: str, seed: int, digests: dict | None = None) -> list:
    if workload == "verify":
        return verify_jobs(seed)
    if workload == "series-tables":
        return series_table_jobs(seed, load_digests() if digests is None else digests)
    if workload == "weight-probes":
        return weight_probe_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")
