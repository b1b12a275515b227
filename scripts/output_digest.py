#!/usr/bin/env python3
"""Digest every output of one benchmark workload, to show that a change keeps them.

Usage: output_digest.py WORKLOAD SEED

Builds the seeded pool of WORKLOAD through ``perfbench/workloads.py``, writes
it to a temporary directory and runs every job once through
``sulmin.cli.run`` from this checkout's ``src``.  Prints three lines: a
SHA-256 digest of the pool (file names, commands, degree caps and texts), a
SHA-256 digest of every job's exit code, stdout and stderr (with the
temporary directory replaced by a fixed name), and failed/attempted, where a
job fails when it exits nonzero or raises.  Two checkouts that print the same
lines for a pool produce the same outputs on it.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sulmin.cli import RunConfig, run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    if len(argv) != 3 or argv[1] not in WORKLOADS or not argv[2].isdecimal():
        print(f"usage: {argv[0]} {{{','.join(WORKLOADS)}}} SEED", file=sys.stderr)
        return 2
    jobs = WORKLOADS[argv[1]].build(int(argv[2]))
    pool = hashlib.sha256()
    outputs = hashlib.sha256()
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for job in jobs:
            (Path(tmp) / job.file).write_text(job.text, encoding="utf-8")
            pool.update(f"{job.file}\0{job.command}\0{job.max_degree}\0{job.text}\0".encode())
        for job in jobs:
            config = RunConfig(command=job.command, input_path=str(Path(tmp) / job.file),
                               max_degree=job.max_degree)
            try:
                code, out, err = run(config)
            except Exception as exc:  # a job that raises is a failed job; the pass goes on
                code, out, err = None, "", f"raised {type(exc).__name__}: {exc}"
            failed += code != 0
            outputs.update(f"{job.file}\0{code}\0{out}\0{err}\0".replace(tmp, "TMP").encode())
    print(f"pool    {pool.hexdigest()}")
    print(f"outputs {outputs.hexdigest()}")
    print(f"failed  {failed}/{len(jobs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
