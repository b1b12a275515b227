#!/usr/bin/env python3
"""Time the minimization sweep on the collapse ladder, one line per size.

Usage: collapse_ladder.py [RUNGS ...]    (default: 30 60 120 150 240)

The ladder with ``m`` rungs has ``4m + 1`` generators: closed ``x_j:2`` and
``t_j:2`` (``t`` runs to ``m + 1``), ``w_j:3`` with
``d w_j = t_j*x_j + t_{j+1}*x_j`` and ``u_j:1`` with ``d u_j = t_j``, declared
degree by degree.  Every ``u_j`` kills ``t_j``, and each collapse rewrites
the derivatives of the survivors ``w_{j-1}`` and ``w_j``, which mention its
target.  For each size the script prints the generator count, the best of
three in-process process times of ``compute_minimal_model`` (parsing not
included), the survivors, the pairs, a SHA-256 digest of the machine
document and the time over the previous size's time (``-`` for the first
size), so two checkouts compare with plain ``diff`` once the time and ratio
columns are cut away (``cut -d' ' -f1,3-5``).
"""

import hashlib
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from sulmin.dsl import emit_machine, parse
from sulmin.minimal_model import compute_minimal_model


def ladder_text(rungs: int) -> str:
    lines = []
    for j in range(1, rungs + 1):
        lines += [f"gen x{j}:2", f"gen t{j}:2"]
    lines.append(f"gen t{rungs + 1}:2")
    for j in range(1, rungs + 1):
        lines += [f"gen w{j}:3", f"d w{j} = t{j}*x{j} + t{j + 1}*x{j}"]
    for j in range(1, rungs + 1):
        lines += [f"gen u{j}:1", f"d u{j} = t{j}"]
    return "\n".join(lines) + "\n"


def main():
    sizes = [int(a) for a in sys.argv[1:]] or [30, 60, 120, 150, 240]
    print("generators seconds survivors pairs machine_sha256 over_previous")
    previous = None
    for rungs in sizes:
        dga = parse(ladder_text(rungs))
        best = float("inf")
        for _ in range(3):
            t0 = time.process_time()
            c = compute_minimal_model(dga)
            best = min(best, time.process_time() - t0)
        digest = hashlib.sha256(emit_machine(c).encode()).hexdigest()
        ratio = "-" if previous is None else f"{best / previous:.2f}"
        previous = best
        print(f"{len(dga.sig)} {best:.4f} {len(c.W)} {len(c.pairs)} {digest} {ratio}")


if __name__ == "__main__":
    main()
