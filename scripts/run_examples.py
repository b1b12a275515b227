#!/usr/bin/env python3
"""Print the result of every bundled input: the minimization report of an
algebra-mode input, the AT-model and its identity checks of a module-mode one."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from sulmin import compute_minimal_model, parse
from sulmin.at_model import DGModule, check_at_model, compute_at_model
from sulmin.cli import RunConfig, run
from sulmin.dsl import emit_report
from sulmin.morphisms import check_contraction

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"


def main():
    for path in sorted(INPUTS.glob("*.sul")):
        text = path.read_text()
        parsed = parse(text)
        print(f"== {path.name} ==")
        if isinstance(parsed, DGModule):
            print(run(RunConfig(command="at-model", input_path=str(path)))[1])
            for check in check_at_model(parsed, compute_at_model(parsed)):
                print(f"identity {check}")
            print()
            continue
        contraction = compute_minimal_model(parsed)
        print(emit_report(contraction))
        report = check_contraction(contraction, 8)
        bad = [c for c in report.checks if not c.ok]
        if bad:
            print("unsatisfied identities (see README, known limits):")
            for c in bad:
                print(f"  {c}")
        print()


if __name__ == "__main__":
    main()
