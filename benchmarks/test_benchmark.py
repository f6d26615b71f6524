"""Tests of the benchmark itself: each oracle must catch a wrong answer.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import workloads
from run import END_TO_END_UNITS
from tracer import LAYER_UNITS
from worker import import_socone, run_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sc = import_socone()


def failures(record) -> int:
    return sum(not job["ok"] for job in record["jobs"])


def cheap_table_jobs(digests, seed=5):
    return [
        job
        for job in workloads.series_table_jobs(seed, digests)
        if ".n1." in job.name and "basis-poly" not in job.name
    ]


# -- weight-probes ----------------------------------------------------------------


def small_probe_jobs(seed=5):
    return [job for job in workloads.weight_probe_jobs(seed) if job.name.startswith("probe.n2.")]


def test_probe_jobs_pass_and_a_flipped_verdict_fails(monkeypatch):
    jobs = small_probe_jobs()
    assert failures(run_pass(sc, jobs)) == 0
    rule = oracles.wallach_positive
    monkeypatch.setattr(oracles, "wallach_positive", lambda n, t: not rule(n, t))
    assert failures(run_pass(sc, jobs)) == len(jobs)


def test_probe_weights_straddle_the_boundary():
    for seed in range(20):
        specs = workloads.probe_weights(seed)
        assert specs == workloads.probe_weights(seed)
        for n, _, _ in workloads.PROBE_SIZES:
            verdicts = {oracles.wallach_positive(n, t) for m, _, _, t in specs if m == n}
            assert verdicts == {True, False}


def test_wallach_rule_on_boundary_points():
    assert not oracles.wallach_positive(1, Fraction(0))
    assert oracles.wallach_positive(1, Fraction(1, 4))
    assert not oracles.wallach_positive(4, Fraction(2))
    assert oracles.wallach_positive(4, Fraction(9, 4))


# -- series-tables -------------------------------------------------------------------


def test_every_table_invocation_has_a_digest():
    digests = workloads.load_digests()
    assert {" ".join(a) for a in workloads.all_table_argvs()} == set(digests)


def test_table_jobs_pass_and_an_altered_digest_fails():
    digests = workloads.load_digests()
    jobs = cheap_table_jobs(digests)
    assert failures(run_pass(sc, jobs)) == 0
    key = "gram --n 1 --degree 12 --format json"
    altered = dict(digests, **{key: "0" * 64})
    record = run_pass(sc, cheap_table_jobs(altered))
    assert [j["name"] for j in record["jobs"] if not j["ok"]] == [
        "table.gram.n1.12.symbolic.json"
    ]


def run_one(argv):
    result = workloads.run_cli(sc, argv)
    assert result.code == 0
    return result


def tamper(result, old, new):
    assert old in result.stdout
    return replace(result, stdout=result.stdout.replace(old, new, 1))


def test_n1_closed_forms_accept_the_output_and_catch_an_altered_entry():
    gram = run_one(workloads.table_argv("gram", 1, 6, "json"))
    assert oracles.check_gram_n1(gram, None) is None
    # the (2,2) entry is 2 t^2 + 2 t; make it 2 t^2 + 3 t
    assert oracles.check_gram_n1(tamper(gram, '"re": "2"', '"re": "3"'), None)

    moments = run_one(workloads.table_argv("moments", 1, 6, "json", Fraction(7, 3)))
    assert oracles.check_moments_n1(moments, Fraction(7, 3)) is None
    assert oracles.check_moments_n1(moments, Fraction(5, 3))

    basis = run_one(workloads.table_argv("basis-poly", 1, 6, "json"))
    assert oracles.check_basis_n1(basis) is None
    assert oracles.check_basis_n1(tamper(basis, '"re": "-1"', '"re": "-2"'))


def test_laguerre_recurrence_matches_the_readme_example():
    # README: basis-poly --n 1 --kmax 1 gives ["1", "x1 - t"]
    p0, p1 = oracles.laguerre_monic(1)
    assert p0 == {(0, 0): 1}
    assert p1 == {(1, 0): 1, (0, 1): -1}


def test_numeric_tables_match_their_symbolic_twin():
    tau = Fraction(5, 2)
    symbolic = run_one(workloads.table_argv("gram", 2, 4, "json"))
    numeric = run_one(workloads.table_argv("gram", 2, 4, "json", tau))
    text = run_one(workloads.table_argv("gram", 2, 4, "text", tau))
    assert oracles.check_numeric_json(numeric, symbolic, tau) is None
    assert oracles.check_numeric_json(numeric, symbolic, Fraction(3, 2))
    assert oracles.check_numeric_text(text, numeric) is None
    assert oracles.check_numeric_text(tamper(text, "  5/2", "  5/3"), numeric)


# -- verify --------------------------------------------------------------------------


def test_verify_oracle_needs_exit_zero_and_only_pass_rows():
    job = workloads.verify_jobs(3)[0]
    assert job.name == "verify.lie.n2D4"
    result = job.run(sc)
    assert job.check(result, {}) is None
    assert job.check(tamper(result, "PASS  ", "FAIL  "), {})
    assert job.check(replace(result, code=1), {})
    assert job.check(replace(result, stdout=""), {})


def test_a_crashing_job_fails():
    def boom(_):
        raise ZeroDivisionError("boom")

    job = workloads.Job("crash", boom, lambda out, _: None)
    record = run_pass(sc, [job])
    assert failures(record) == 1
    assert "ZeroDivisionError" in record["jobs"][0]["reason"]


# -- tracer and runner ---------------------------------------------------------------

TRACE_SNIPPET = """
import json, sys
sys.path[:0] = [{bench!r}]
from worker import import_socone
from tracer import Tracer
sc = import_socone()
tracer = Tracer(sc)
tracer.install()
assert sc.spectral.exact_ldl is sc.matrices.exact_ldl
assert sc.states.exp_nilpotent.__wrapped__ is not None
assert sc.berezin.group_of is sc.poly.group_of
sc.fock.positivity_probe(2, 3, 1)
sc.spectral.moment_positivity_probe(2, 1, 2)
sc.states.coherent_state([1, 2])
print(json.dumps(tracer.metrics()))
"""


def traced_metrics():
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", TRACE_SNIPPET.format(bench=str(HERE))],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_tracer_counts_calls_through_rebound_names_and_repeats_exactly():
    first, second = traced_metrics(), traced_metrics()
    assert first["fock.gram_matrix_calls"] == 1
    assert first["matrices.exact_ldl_calls"] == 5  # four degree blocks, one moment matrix
    assert first["states.coherent_state_calls"] == 1
    assert first["matrices.exp_nilpotent_calls"] == 1
    assert first["states.vacuum_calls"] == 1
    assert first["scalars.mul_calls"] > 0 and first["poly.name_parse_calls"] > 0
    exact = [k for k in first if not k.endswith("_s")]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_benchmark_json_lists_every_metric_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in spec["per_layer"]} == set(LAYER_UNITS)
    assert {m["name"] for m in spec["end_to_end"]} == set(END_TO_END_UNITS)
    assert spec["paths"] == ["benchmarks"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_are_fixed_by_the_seed(workload):
    names = [job.name for job in workloads.build(workload, 7)]
    assert names == [job.name for job in workloads.build(workload, 7)]
    assert len(names) == len(set(names))
