"""Tests of the benchmark harness itself.

Run with: python3 -m pytest perfbench/tests -q
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import sulmin.cli as cli  # noqa: E402
import sulmin.graded_algebra as graded_algebra  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import check_all, run_loop  # noqa: E402


@pytest.fixture
def small_pools(monkeypatch):
    monkeypatch.setattr(workloads, "CERTIFY_PER_SIZE", 1)
    monkeypatch.setattr(workloads, "MODULE_SIZES", (20, 40, 60))
    monkeypatch.setattr(workloads, "MODULE_MAX_GENS", 60)


def write_jobs(tmp_path, jobs):
    for job in jobs:
        (tmp_path / job.file).write_text(job.text, encoding="utf-8")
    return [cli.RunConfig(command=j.command, input_path=str(tmp_path / j.file),
                          max_degree=j.max_degree) for j in jobs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_seed_generates_identical_inputs(name, small_pools):
    build = workloads.WORKLOADS[name].build
    first = [(j.file, j.text, j.spec()) for j in build(7)]
    assert first == [(j.file, j.text, j.spec()) for j in build(7)]
    assert [t for _, t, _ in first] != [j.text for j in build(8)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_written_inputs_parse_back_to_the_generated_ones(name, small_pools, monkeypatch):
    from sulmin.dsl import parse
    made = []
    for writer in ("algebra_text", "module_text"):
        original = getattr(workloads, writer)

        def keep(obj, original=original):
            made.append(obj)
            return original(obj)
        monkeypatch.setattr(workloads, writer, keep)
    jobs = workloads.WORKLOADS[name].build(7)
    assert len(made) == len(jobs)
    for obj, job in zip(made, jobs):
        assert parse(job.text).diff == obj.diff


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_real_outputs_pass_and_corrupted_outputs_fail(name, small_pools, tmp_path):
    jobs = workloads.WORKLOADS[name].build(3)
    loop = run_loop(cli, write_jobs(tmp_path, jobs), 0.0)
    specs = [j.spec() for j in jobs]
    assert all(o["check"] is None for o in check_all(specs, tmp_path, loop))

    def corrupt(out: str) -> str:
        if specs[0]["command"] == "verify":
            return out.replace("identity f g = id: pass", "identity f g = id: FAIL at g0")
        first_line, rest = out.split("\n", 1)
        classes = [c for c in first_line[len("H = {"):-1].split(", ") if c]
        return "H = {" + ", ".join(classes[1:] if classes else ["m0"]) + "}\n" + rest

    code, out, error = loop["first"][0]
    loop["first"][0] = (code, corrupt(out), error)
    outcome = check_all(specs, tmp_path, loop)[0]
    assert outcome["check"] is not None
    assert outcome["failed"]


def test_an_escaped_exception_is_a_failed_job_and_the_run_goes_on(tmp_path):
    class Deep:
        RunConfig = cli.RunConfig

        @staticmethod
        def run(config):
            if config.input_path.endswith("deep.sul"):
                raise RecursionError("maximum recursion depth exceeded")
            return cli.run(config)

    text = "mode module\ngen m0:2\ngen m1:1\nd m1 = m0\n"
    jobs = [workloads.Job("at-model", name, text) for name in ("deep.sul", "ok.sul")]
    loop = run_loop(Deep, write_jobs(tmp_path, jobs), 0.0)
    deep, fine = check_all([j.spec() for j in jobs], tmp_path, loop)
    assert deep["error"] == "RecursionError" and deep["failed"]
    assert fine["exit"] == 0 and not fine["failed"]


def test_a_run_shorter_than_the_pool_still_runs_every_job(small_pools, tmp_path):
    jobs = workloads.build_modules(3)
    loop = run_loop(cli, write_jobs(tmp_path, jobs), 1e-9)
    assert len(loop["samples"]) == len(jobs)
    outcomes = check_all([j.spec() for j in jobs], tmp_path, loop)
    assert [o["file"] for o in outcomes] == [j.file for j in jobs]
    assert not any(o["failed"] for o in outcomes)


def test_the_tail_is_over_input_medians():
    import statistics
    from run import timings
    # 20 inputs, three passes; input 0 is slow once on its last run
    samples = [float(k + 1) for _ in range(3) for k in range(20)]
    samples[40] = 100.0
    got, how = timings(samples, 20)
    assert got["job_s.tail"] == 10.0   # ten input medians above it
    assert got["job_s.p50"] == statistics.median(samples)
    assert got["jobs_per_s"] == 60 / sum(samples)
    assert "p50.00 of the medians of 20 inputs" in how


def test_each_job_time_is_scaled_by_the_kernel_readings_around_it():
    import hostspeed
    ref = hostspeed.REFERENCE_S
    kernel = [ref, ref, 2 * ref, 4 * ref]
    assert hostspeed.scaled([1.0, 3.0, 6.0], kernel) == [1.0, 2.0, 2.0]


def test_self_times_of_a_traced_job_sum_to_its_root(tmp_path, small_pools):
    original = graded_algebra.elem_mul
    jobs = workloads.build_certify(5)[:1]
    config = write_jobs(tmp_path, jobs)[0]
    tracer = Tracer()
    tracer.install()
    try:
        assert graded_algebra.elem_mul is not original
        tracer.job = 0
        code, _, _ = cli.run(config)
    finally:
        tracer.uninstall()
    assert graded_algebra.elem_mul is original
    assert code in (0, 3)

    spans = list(tracer.spans(job=0))
    roots = [s for s in spans if s[2] == -1]
    assert [r[1] for r in roots] == ["cli.run"]
    root_duration = roots[0][5] - roots[0][4]
    covered = sum(s[6] for s in spans) + tracer.leaf_seconds["graded_algebra.elem_add"]
    assert len(spans) > 100
    assert math.isclose(covered, root_duration, rel_tol=1e-9, abs_tol=1e-9)
    ids = {s[0] for s in spans}
    assert all(s[2] in ids for s in spans if s[2] != -1)


def test_benchmark_json_declares_what_the_harness_reports():
    import json
    from run import END_TO_END, PER_LAYER
    declared = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in declared["workloads"])
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(PER_LAYER)
