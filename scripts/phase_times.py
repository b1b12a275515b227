#!/usr/bin/env python3
"""Time the phases of one benchmark workload's jobs, summed over its pool.

Usage: phase_times.py WORKLOAD SEED [OTHER_SRC]

Builds the seeded pool of WORKLOAD through ``perfbench/workloads.py``, writes
it to a temporary directory and runs every job through ``sulmin.cli.run``
from this checkout's ``src``, five times over.  The functions of each phase
are wrapped where ``cli`` (or, for ``validate_module``, ``at_model``) calls
them, and each wrapper adds its call's process time, less that of the
wrapped calls inside it, to its phase.  The script prints, per phase, the
best of the five sums in seconds, then that of ``cli.run`` as a whole, which
also holds reading the file and what no phase covers:

- ``contract-modules`` (``at-model``): ``parse``, ``validate_module``,
  ``compute_at_model`` (the sweep, without its validation) and ``emit``
  (``_cmd_at_model`` less the contraction)
- ``certify-random`` (``verify``): ``parse``, ``sweep``
  (``compute_minimal_model``), ``check_contraction`` and ``oracle``
  (``verify_algebra`` less the sweep and the checker: the oracle's two
  ``cohomology_dims`` calls, their comparison and the minimality test)

With OTHER_SRC, the ``src`` directory of another checkout, both trees are
imported into one process as two packages of distinct names, and each job
runs five times on each tree, the tree that goes first alternating from run
to run, so that a drift of the host's speed falls on both alike.  Each
phase then sums, over the jobs, each job's best of five per tree, and the
script prints per phase this tree's sum, the other's and their ratio, then
how many jobs' ``(exit code, stdout, stderr)`` differ between the trees, and
last the median and quartiles over the jobs of the ratio of this tree's
best ``cli.run`` time to the other's, over all jobs and then over the jobs
that exit 0 and those that exit 3 on this tree, each group apart.  A ratio
of sums leans on the largest jobs, and so does the benchmark's
``jobs_per_s``, the count of jobs run over their summed time: it tracks the
ratio of sums, not the per-job median.  The median is the steadier figure
of the two, but a change that speeds up only the largest jobs moves the
sums and hardly the median (the oracle's greatest-key pivot, alone, read
0.974 on the sum of ``cli.run`` and 0.997 on the median).  The split by
exit code shows where a change's gain lands when it lands on one group.
"""

import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sulmin import at_model, cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (module, attribute, phase), per workload
PHASES = {
    "contract-modules": (("cli", "parse", "parse"),
                         ("at_model", "validate_module", "validate_module"),
                         ("cli", "compute_at_model", "compute_at_model"),
                         ("cli", "_cmd_at_model", "emit")),
    "certify-random": (("cli", "parse", "parse"),
                       ("cli", "compute_minimal_model", "sweep"),
                       ("cli", "check_contraction", "check_contraction"),
                       ("cli", "verify_algebra", "oracle")),
}
ROUNDS = 5


def _wrap(fn, phase, totals, stack):
    """``fn``, adding the process time of each call less that of the wrapped
    calls inside it to ``totals[phase]``."""
    def wrapper(*args, **kwargs):
        stack.append(0.0)
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = time.process_time() - start
            totals[phase] += spent - stack.pop()
            if stack:
                stack[-1] += spent
    return wrapper


def _load(name: str, src: Path) -> dict:
    """The package ``sulmin`` under ``src``, imported as ``name``: its
    ``cli`` and ``at_model`` modules, keyed as in ``PHASES``.  The package's
    own imports are relative, so it never reaches another tree's modules."""
    init = src / "sulmin" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {"cli": importlib.import_module(f"{name}.cli"),
            "at_model": importlib.import_module(f"{name}.at_model")}


def _run(modules: dict, phases, configs):
    """Run every config once through ``modules``' ``cli.run``; returns the
    phase times with that of ``cli.run`` as a whole, and the outputs."""
    totals = dict.fromkeys([phase for _, _, phase in phases] + ["cli.run"], 0.0)
    stack = []
    originals = [(modules[name], attr, getattr(modules[name], attr))
                 for name, attr, _ in phases]
    for (module, attr, fn), (_, _, phase) in zip(originals, phases):
        setattr(module, attr, _wrap(fn, phase, totals, stack))
    run = modules["cli"].run
    try:
        start = time.process_time()
        outputs = [run(config) for config in configs]
        totals["cli.run"] = time.process_time() - start
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)
    return totals, outputs


def _best(runs):
    """The least time of each phase over ``runs``, dicts of phase times."""
    return {phase: min(run[phase] for run in runs) for phase in runs[0]}


def _compare(phases, jobs, other_src: Path) -> None:
    """Print both trees' per-phase sums of per-job bests, their ratio and
    the count of jobs whose outputs differ."""
    trees = [_load("sulmin_this", ROOT / "src"), _load("sulmin_other", other_src)]
    sums = [dict.fromkeys([phase for _, _, phase in phases] + ["cli.run"], 0.0)
            for _ in trees]
    differ = 0
    ratios, codes = [], []
    for k, kwargs in enumerate(jobs):
        configs = [[tree["cli"].RunConfig(**kwargs)] for tree in trees]
        runs = [[], []]
        outputs = [None, None]
        for r in range(ROUNDS):
            for t in (0, 1) if (k + r) % 2 == 0 else (1, 0):
                totals, (outputs[t],) = _run(trees[t], phases, configs[t])
                runs[t].append(totals)
        differ += outputs[0] != outputs[1]
        bests = [_best(runs[t]) for t in (0, 1)]
        for t in (0, 1):
            for phase, seconds in bests[t].items():
                sums[t][phase] += seconds
        ratios.append(bests[0]["cli.run"] / bests[1]["cli.run"])
        codes.append(outputs[0][0])
    print(f"{'phase':<18} {'this':>9} {'other':>9} this/other")
    for phase in sums[0]:
        this, other = sums[0][phase], sums[1][phase]
        print(f"{phase:<18} {this:7.3f} s {other:7.3f} s {this / other:.3f}")
    print(f"{'outputs differ':<18} {differ}/{len(jobs)}")
    _print_spread("cli.run per job", ratios)
    for code in (0, 3):
        group = [ratio for ratio, c in zip(ratios, codes) if c == code]
        if len(group) > 1:
            _print_spread(f"  exit {code} ({len(group)})", group)


def _print_spread(label: str, ratios) -> None:
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"{label:<18} this/other median {median:.4f}, quartiles {q1:.4f} {q3:.4f}")


def main(argv) -> int:
    if len(argv) not in (3, 4) or argv[1] not in WORKLOADS or not argv[2].isdecimal():
        print(f"usage: {argv[0]} {{{','.join(WORKLOADS)}}} SEED [OTHER_SRC]", file=sys.stderr)
        return 2
    phases = PHASES[argv[1]]
    # the pool is built before any tree is loaded: workloads imports
    # sulmin inside its functions
    jobs = WORKLOADS[argv[1]].build(int(argv[2]))
    with tempfile.TemporaryDirectory() as tmp:
        kwargs = []
        for job in jobs:
            path = Path(tmp) / job.file
            path.write_text(job.text, encoding="utf-8")
            kwargs.append(dict(command=job.command, input_path=str(path),
                               max_degree=job.max_degree))
        if len(argv) == 4:
            _compare(phases, kwargs, Path(argv[3]).resolve())
            return 0
        tree = {"cli": cli, "at_model": at_model}
        configs = [cli.RunConfig(**k) for k in kwargs]
        best = _best([_run(tree, phases, configs)[0] for _ in range(ROUNDS)])
    for phase, seconds in best.items():
        print(f"{phase:<18} {seconds:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
