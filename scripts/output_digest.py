#!/usr/bin/env python3
"""Digest every output of one benchmark workload, to show that a change keeps them.

Usage: output_digest.py WORKLOAD SEED

Builds the seeded pool of WORKLOAD through ``perfbench/workloads.py``, writes
it to a temporary directory and runs every job once through
``sulmin.cli.run`` from this checkout's ``src``.  Prints four lines: a
SHA-256 digest of the pool (file names, commands, degree caps and texts), a
SHA-256 digest of every job's exit code, stdout and stderr (with the
temporary directory replaced by a fixed name), failed/attempted, where a
job fails when it exits nonzero or raises, and a SHA-256 digest of the
bundled inputs' outputs: every file in ``inputs/`` through ``validate``,
``minimize`` (report and machine), ``at-model``, ``homology`` and ``verify``,
and ``homology X --against Y`` over every ordered pair of files, each with its
exit code, stdout and stderr (with the ``inputs/`` directory replaced by a
fixed name).  Two checkouts that print the same lines produce the same
outputs on the pool and on the bundled inputs.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sulmin.cli import RunConfig, run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _outcome(config: RunConfig):
    try:
        return run(config)
    except Exception as exc:  # a job that raises is a failed job; the pass goes on
        return None, "", f"raised {type(exc).__name__}: {exc}"


def bundled_digest() -> str:
    inputs = ROOT / "inputs"
    files = sorted(str(p) for p in inputs.glob("*.sul"))
    configs = []
    for path in files:
        configs += [RunConfig(command="validate", input_path=path),
                    RunConfig(command="minimize", input_path=path),
                    RunConfig(command="minimize", input_path=path, output_format="machine"),
                    RunConfig(command="at-model", input_path=path),
                    RunConfig(command="homology", input_path=path),
                    RunConfig(command="verify", input_path=path)]
    configs += [RunConfig(command="homology", input_path=x, against_path=y)
                for x in files for y in files]
    digest = hashlib.sha256()
    for config in configs:
        code, out, err = _outcome(config)
        record = (f"{config.command}\0{config.input_path}\0{config.output_format}\0"
                  f"{config.against_path}\0{code}\0{out}\0{err}\0")
        digest.update(record.replace(str(inputs), "INPUTS").encode())
    return digest.hexdigest()


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
            code, out, err = _outcome(config)
            failed += code != 0
            outputs.update(f"{job.file}\0{code}\0{out}\0{err}\0".replace(tmp, "TMP").encode())
    print(f"pool    {pool.hexdigest()}")
    print(f"outputs {outputs.hexdigest()}")
    print(f"failed  {failed}/{len(jobs)}")
    print(f"bundled {bundled_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
