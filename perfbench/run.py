#!/usr/bin/env python3
"""The sulmin benchmark: seeded CLI workloads, end to end and layer by layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` of the checkout that
holds this file.  Per workload it

1. builds the seeded input pool and writes it as ``.sul`` files under
   ``.perfbench_runs/<workload>/`` (never timed);
2. times fresh interpreter launches of ``import sulmin.cli`` (``setup_s``),
   under ``-X importtime`` for the import's own share;
3. runs the pool in a fresh interpreter (``worker.py``) for the given seconds,
   and at least once through, then checks every job's output there, outside
   the timed region.  ``attempted`` and ``failed`` in the JSON count the
   pool's jobs, so a seed fixes them.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the worker also runs one traced pass
and the JSON carries the per-layer metrics instead.  End-to-end numbers always
come from the untraced loop.  The lines before it list every job's check and
every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_LAUNCHES = 16
WORKER_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_s.p50", "s"),
    ("job_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = tuple((name, unit) for name, unit, _ in LAYER_METRICS) + (
    ("setup.import_s", "s"),
    ("failed_ratio", "ratio"),
    ("trace.overhead", "ratio"),
)


class HarnessError(RuntimeError):
    pass


def launch_imports(root: Path, launches: int) -> List[Tuple[float, float]]:
    """(wall seconds, import seconds) of fresh ``import sulmin.cli`` launches:
    the wall time from outside, the import time of ``sulmin`` and
    ``sulmin.cli`` as ``-X importtime`` reports it on the same launch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-X", "importtime", "-c", "import sulmin.cli"]
    out = []
    for _ in range(launches):
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=60)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise HarnessError(f"import sulmin.cli failed:\n{proc.stderr[-2000:]}")
        micros = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("sulmin", "sulmin.cli"):
                micros += int(parts[1])
        out.append((wall, micros / 1e6))
    return out


def timings(samples: List[float], pool: int) -> Tuple[Dict[str, float], str]:
    """End-to-end timing metrics of the job runs ``samples`` (the loop went
    through a pool of ``pool`` inputs in order).  The tail is taken over each
    input's median run time: a workload whose pool is small runs every input
    many times, and the slowest single runs would then be the jitter of one
    or two inputs.  It is the time with exactly ten inputs beyond it, the
    highest percentile that has at least ten."""
    per_input = sorted(statistics.median(samples[k::pool]) for k in range(min(pool, len(samples))))
    inputs = len(per_input)
    if inputs > 10:
        tail, label = per_input[-11], f"p{100 * (inputs - 10) / inputs:.2f}"
    else:
        tail, label = per_input[-1], "max"
    return ({"jobs_per_s": len(samples) / sum(samples),
             "job_s.p50": statistics.median(samples),
             "job_s.tail": tail},
            f"tail = {label} of the medians of {inputs} inputs")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    workload = WORKLOADS[name]
    run_dir = ROOT / ".perfbench_runs" / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    jobs = workload.build(seed)
    for job in jobs:
        (run_dir / job.file).write_text(job.text, encoding="utf-8")
    spec = {"root": str(ROOT), "run_dir": str(run_dir), "seconds": seconds, "trace": trace,
            "jobs": [job.spec() for job in jobs],
            "result": str(run_dir / "result.json"), "spans": str(run_dir / "spans.tsv.gz")}
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    # half the launches before the job loop and half after it, so that one
    # slow spell of the machine cannot move their median; one launch first
    # fills the bytecode cache
    launch_imports(ROOT, 1)
    launches = launch_imports(ROOT, SETUP_LAUNCHES // 2)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{name}: worker did not finish in {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"{name}: worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    launches += launch_imports(ROOT, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
    setup_s = statistics.median(wall for wall, _ in launches)
    import_s = statistics.median(imp for _, imp in launches)

    samples = result["samples"]
    outcomes = result["outcomes"]
    # every job of the pool ran at least once, so both counts are fixed by
    # the seed and do not depend on how many runs fitted in the time
    attempted = len(outcomes)
    failed = sum(o["failed"] for o in outcomes)
    at_reference = hostspeed.scaled(samples, result["kernel"])
    timed, how = timings(at_reference, len(jobs))
    measured, _ = timings(samples, len(jobs))
    metrics = {"setup_s": setup_s, **timed, "peak_rss_mb": result["peak_rss_mb"]}
    layers = {}
    if trace:
        layers = dict(result["layers"])
        layers["setup.import_s"] = import_s
        layers["failed_ratio"] = failed / attempted
        # the traced pass against the untraced runs of the same jobs, both at
        # the reference speed, each untraced job at the median of its runs
        untraced = sum(statistics.median(at_reference[k::len(jobs)])
                       for k in range(result["traced_jobs"]))
        traced = sum(hostspeed.scaled(result["traced_samples"], result["traced_kernel"]))
        layers["trace.overhead"] = 1.0 - untraced / traced
    return {
        "correct": all(o["check"] is None for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
        "outcomes": outcomes,
        "notes": f"{len(samples)} job runs on {len(jobs)} inputs in {sum(samples):.2f} s; "
                 f"{how}; failed {failed}/{attempted} inputs; unscaled "
                 + ", ".join(f"{m} {v:.6g}" for m, v in measured.items())
                 + (f"; traced pass of {result['traced_jobs']} jobs {sum(result['traced_samples']):.2f} s, "
                    f"{result['spans']} spans"
                    if trace else ""),
    }


def report(name: str, res: Dict, trace: bool) -> None:
    for o in res["outcomes"]:
        verdict = "ok" if o["check"] is None else f"WRONG: {o['check']}"
        status = f"exit {o['exit']}" if o["error"] is None else f"raised {o['error']}"
        print(f"{name}  {o['file']}  {status}  {verdict}{'  (failed job)' if o['failed'] else ''}")
    print()
    rows = list(END_TO_END) + (list(PER_LAYER) if trace else [])
    width = max(len(m) for m, _ in rows)
    for metric, unit in rows:
        value = res["metrics"].get(metric, res["layers"].get(metric))
        print(f"{metric:<{width}}  {name}  {value:>14.6g}  {unit}")
    print(f"# {name}: {res['notes']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sulmin" / "cli.py").is_file():
        print(f"no sulmin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(exc, file=sys.stderr)
        return 1
    report(args.workload, res, bool(args.trace))

    source = res["layers"] if args.trace else res["metrics"]
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m: {"value": source[m], "unit": unit}
                    for m, unit in (PER_LAYER if args.trace else END_TO_END)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
