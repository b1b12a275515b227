"""One workload in one fresh interpreter: the timed job loop, then the checks.

Usage: worker.py SPEC_JSON (written by run.py).

The loop is closed with one client: each job is one ``sulmin.cli.run`` call on
one generated file, and the next starts when it returns.  The pool runs
over and over, in its seeded order, until the run has lasted the requested
seconds and every job has run at least once.  With tracing on, the first
``TRACED_JOBS`` jobs run once more under the tracer after the untimed
peak-memory reading, and the checks run under a second tracer.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from hostspeed import kernel_seconds
from tracer import Tracer, layer_metrics
from workloads import check_output

# the traced pass runs the first jobs of the seeded order, a random sample
# of the pool that keeps a traced run within a few tens of seconds
TRACED_JOBS = 128


def run_loop(cli, configs: List, seconds: float, tracer: Optional[Tracer] = None) -> Dict:
    """Run the jobs in order, starting over at the end of the pool, until
    ``seconds`` have passed and every job has run at least once; with
    ``seconds`` 0, run each job once.  Outputs of each job's first run are
    kept for the checks; a later run whose output differs marks the job as
    not deterministic.  The reference kernel is timed before the first job
    and after every job, outside the job's sample."""
    samples: List[float] = []
    kernel = [kernel_seconds()]
    first: List = [None] * len(configs)
    differs = [False] * len(configs)
    start = perf_counter()
    while len(samples) < len(configs) or perf_counter() - start < seconds:
        k = len(samples) % len(configs)
        if tracer is not None:
            tracer.job = len(samples)
        t0 = perf_counter()
        try:
            code, out, _ = cli.run(configs[k])
            error = None
        except Exception as exc:  # a job that raises is a failed job; the run goes on
            code, out, error = None, "", type(exc).__name__
        samples.append(perf_counter() - t0)
        kernel.append(kernel_seconds())
        if len(samples) <= len(configs):
            first[k] = (code, out, error)
        elif first[k] != (code, out, error):
            differs[k] = True
    return {"samples": samples, "kernel": kernel, "first": first, "differs": differs}


def check_all(jobs: List[Dict], run_dir: Path, loop: Dict) -> List[Dict]:
    """The outcome of every job of the pool."""
    outcomes = []
    for k, job in enumerate(jobs):
        code, out, error = loop["first"][k]
        if error is not None:
            reason = f"raised {error}"
        else:
            reason = check_output(job, (run_dir / job["file"]).read_text(encoding="utf-8"), code, out)
        if reason is None and loop["differs"][k]:
            reason = "output differs between runs"
        outcomes.append({"file": job["file"], "exit": code, "error": error, "check": reason,
                         "failed": reason is not None or code != 0})
    return outcomes


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import sulmin.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "sulmin").resolve():
        print(f"sulmin imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    run_dir = Path(spec["run_dir"])
    jobs = spec["jobs"]
    configs = [cli.RunConfig(command=j["command"], input_path=str(run_dir / j["file"]),
                             max_degree=j["max_degree"])
               for j in jobs]

    loop = run_loop(cli, configs, spec["seconds"])
    result = {"samples": loop["samples"], "kernel": loop["kernel"],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(cli, configs[:TRACED_JOBS], 0.0, tracer)
        finally:
            tracer.uninstall()
        for k, output in enumerate(traced["first"]):
            if output != loop["first"][k]:
                loop["differs"][k] = True
        checker = Tracer()
        checker.install()
        try:
            outcomes = check_all(jobs, run_dir, loop)
        finally:
            checker.uninstall()
        tracer.write_spans(spec["spans"])
        result["traced_samples"] = traced["samples"]
        result["traced_kernel"] = traced["kernel"]
        result["spans"] = len(tracer.span_id)
        result["traced_jobs"] = len(traced["samples"])
        result["layers"] = layer_metrics(tracer, len(traced["samples"]), checker, len(configs))
    else:
        outcomes = check_all(jobs, run_dir, loop)
    result["outcomes"] = outcomes
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
