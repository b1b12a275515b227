#!/usr/bin/env python3
"""Digest every output of one benchmark workload, to show that a change keeps them.

Usage: output_digest.py WORKLOAD SEED

Builds the seeded pool of WORKLOAD through ``perfbench/workloads.py``, writes
it to a temporary directory and runs every job once through
``sulmin.cli.run`` from this checkout's ``src``.  Prints six lines: a
SHA-256 digest of the pool (file names, commands, degree caps and texts), a
SHA-256 digest of every job's exit code, stdout and stderr (with the
temporary directory replaced by a fixed name), failed/attempted, where a
job fails when it exits nonzero or raises, a SHA-256 digest of the same
record of ``minimize --format machine`` on every pool document, which shows
the ``f``, ``g``, ``phi`` and ``dW`` tables that no ``verify`` line prints
(a module document exits 2 there), a SHA-256 digest of the
bundled inputs' outputs: every file in ``inputs/`` through ``validate``,
``minimize`` (report and machine), ``at-model``, ``homology`` and ``verify``,
and ``homology X --against Y`` over every ordered pair of files, each with its
exit code, stdout and stderr (with the ``inputs/`` directory replaced by a
fixed name), and a SHA-256 digest of the error path: every command on each
of ``INVALID``, documents that fail the degree, order and d-squared checks
of either input kind, with the same record and the temporary directory
replaced by a fixed name.  Two checkouts that print the same lines produce
the same outputs on the pool, on the bundled inputs and on the invalid
documents.
"""

import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sulmin.cli import RunConfig, run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COMMANDS = ("validate", "minimize", "at-model", "homology", "verify")
# the failing documents of tests/test_cli.py, by the check that each fails
INVALID = {
    "degree": "gen a1:1\ngen b2:2\nd b2 = a1\n",
    "order": "gen a1:1\ngen v2:2\nd a1 = v2\n",
    "d-squared": "gen x3:3\ngen y2:2\nd y2 = x3\ngen z5:5\nd z5 = y2^3\n",
    "module-degree": "mode module\ngen a:0\ngen b:0\nd b = a\n",
    "module-order": "mode module\ngen a:1\ngen b:0\nd a = b\n",
    "module-d-squared": "mode module\ngen a:2\ngen b:1\ngen c:0\nd b = a\nd c = b\n",
}


def _outcome(config: RunConfig):
    try:
        return run(config)
    except Exception as exc:  # a job that raises is a failed job; the pass goes on
        return None, "", f"raised {type(exc).__name__}: {exc}"


def _digest(configs, directory: str) -> str:
    """Every config's record, with ``directory`` replaced by a fixed name."""
    digest = hashlib.sha256()
    for config in configs:
        code, out, err = _outcome(config)
        record = (f"{config.command}\0{config.input_path}\0{config.output_format}\0"
                  f"{config.against_path}\0{code}\0{out}\0{err}\0")
        digest.update(record.replace(directory, "INPUTS").encode())
    return digest.hexdigest()


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
    return _digest(configs, str(inputs))


def invalid_digest() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        configs = []
        for name, text in INVALID.items():
            path = Path(tmp) / f"{name}.sul"
            path.write_text(text, encoding="utf-8")
            configs += [RunConfig(command=c, input_path=str(path)) for c in COMMANDS]
        return _digest(configs, tmp)


def main(argv) -> int:
    if len(argv) != 3 or argv[1] not in WORKLOADS or not argv[2].isdecimal():
        print(f"usage: {argv[0]} {{{','.join(WORKLOADS)}}} SEED", file=sys.stderr)
        return 2
    jobs = WORKLOADS[argv[1]].build(int(argv[2]))
    pool = hashlib.sha256()
    outputs = hashlib.sha256()
    minimize = hashlib.sha256()
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
            code, out, err = _outcome(replace(config, command="minimize", output_format="machine"))
            minimize.update(f"{job.file}\0{code}\0{out}\0{err}\0".replace(tmp, "TMP").encode())
    print(f"pool    {pool.hexdigest()}")
    print(f"outputs {outputs.hexdigest()}")
    print(f"failed  {failed}/{len(jobs)}")
    print(f"minimize {minimize.hexdigest()}")
    print(f"bundled {bundled_digest()}")
    print(f"invalid {invalid_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
