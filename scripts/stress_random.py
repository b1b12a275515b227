#!/usr/bin/env python3
"""Stress the minimizer on seeded random inputs and tally identity outcomes.

Usage: stress_random.py [count] [seed]

Stdout holds only the tallies, so the output of two checkouts compares with
plain ``diff``; the elapsed time goes to stderr.
"""

import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from sulmin.cli import verify_algebra
from sulmin.random_inputs import random_sullivan_algebra


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20260810
    rng = random.Random(seed)
    tallies = {}
    cohomology_ok = 0
    t0 = time.time()
    for k in range(count):
        verification = verify_algebra(random_sullivan_algebra(rng), 10)
        for check in verification.report.checks:
            ok_count, total = tallies.get(check.name, (0, 0))
            tallies[check.name] = (ok_count + check.ok, total + 1)
        cohomology_ok += verification.comparison.equal
    elapsed = time.time() - t0
    print(f"{count} random inputs, seed {seed}")
    print(f"{elapsed:.1f}s", file=sys.stderr)
    print(f"cohomology equal: {cohomology_ok}/{count}")
    for name, (ok_count, total) in tallies.items():
        print(f"{name}: {ok_count}/{total}")


if __name__ == "__main__":
    main()
