#!/usr/bin/env python3
"""Time the phases of one benchmark workload's jobs, summed over its pool.

Usage: phase_times.py WORKLOAD SEED

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
  (``compare_cohomology``)
"""

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
    "contract-modules": ((cli, "parse", "parse"),
                         (at_model, "validate_module", "validate_module"),
                         (cli, "compute_at_model", "compute_at_model"),
                         (cli, "_cmd_at_model", "emit")),
    "certify-random": ((cli, "parse", "parse"),
                       (cli, "compute_minimal_model", "sweep"),
                       (cli, "check_contraction", "check_contraction"),
                       (cli, "compare_cohomology", "oracle")),
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


def main(argv) -> int:
    if len(argv) != 3 or argv[1] not in WORKLOADS or not argv[2].isdecimal():
        print(f"usage: {argv[0]} {{{','.join(WORKLOADS)}}} SEED", file=sys.stderr)
        return 2
    phases = PHASES[argv[1]]
    jobs = WORKLOADS[argv[1]].build(int(argv[2]))
    best = dict.fromkeys([phase for _, _, phase in phases] + ["cli.run"], float("inf"))
    with tempfile.TemporaryDirectory() as tmp:
        configs = []
        for job in jobs:
            path = Path(tmp) / job.file
            path.write_text(job.text, encoding="utf-8")
            configs.append(cli.RunConfig(command=job.command, input_path=str(path),
                                         max_degree=job.max_degree))
        for _ in range(ROUNDS):
            totals = dict.fromkeys(best, 0.0)
            stack = []
            originals = [(module, attr, getattr(module, attr)) for module, attr, _ in phases]
            for (module, attr, fn), (_, _, phase) in zip(originals, phases):
                setattr(module, attr, _wrap(fn, phase, totals, stack))
            try:
                start = time.process_time()
                for config in configs:
                    cli.run(config)
                totals["cli.run"] = time.process_time() - start
            finally:
                for module, attr, fn in originals:
                    setattr(module, attr, fn)
            best = {phase: min(best[phase], totals[phase]) for phase in best}
    for phase, seconds in best.items():
        print(f"{phase:<18} {seconds:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
