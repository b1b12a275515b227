"""Batch command-line front end.

Exit codes: 0 success, 2 user error (unreadable input, parse or validation
failure, failed comparison requested by the user), 3 internal invariant
breach (a result that the algorithm guarantees failed to hold).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

from .at_model import DGModule, ModuleValidationError, compute_at_model, validate_module
from .differential import DGAlgebra, WordTooLongError, validate_sullivan
from .dsl import DslError, emit_machine, emit_report, format_linear, parse
from .graded_algebra import in_lambda_geq2
from .homology_oracle import (
    ComparisonReport, NotClosedError, cohomology_dims, compare_dims,
    module_homology_dims)
from .minimal_model import InternalInvariantError, SullivanValidationError, compute_minimal_model
from .morphisms import ContractionReport, FullContraction, check_contraction

EXIT_OK = 0
EXIT_USER = 2
EXIT_INTERNAL = 3


@dataclass(frozen=True)
class RunConfig:
    command: str                 # validate | minimize | at-model | homology | verify
    input_path: str
    max_degree: int = 10
    output_format: str = "report"   # report | machine
    output_path: Optional[str] = None
    against_path: Optional[str] = None


class _LoadError(Exception):
    """An input file that cannot be read or parsed; the message names it."""


def _load(path: str):
    """Read and parse one input file, the command's input or ``--against``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _LoadError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise _LoadError(f"cannot read {path}: not UTF-8 text at byte {exc.start}") from None
    try:
        return parse(text)
    except DslError as exc:
        raise _LoadError(f"{path}: {exc}") from None
    except RecursionError:
        raise _LoadError(f"{path}: input nests too deeply to parse") from None


def run(config: RunConfig) -> Tuple[int, str, str]:
    """Execute one command; returns (exit status, stdout text, stderr text)."""
    # only homology and verify read the cap
    if config.command in ("homology", "verify") and config.max_degree < 1:
        return EXIT_USER, "", "max-degree must be >= 1\n"
    try:
        parsed = _load(config.input_path)
        if config.command == "validate":
            return _cmd_validate(parsed, config)
        if config.command == "minimize":
            return _cmd_minimize(parsed, config)
        if config.command == "at-model":
            return _cmd_at_model(parsed, config)
        if config.command == "homology":
            return _cmd_homology(parsed, config)
        if config.command == "verify":
            return _cmd_verify(parsed, config)
    except _LoadError as exc:
        return EXIT_USER, "", f"{exc}\n"
    except SullivanValidationError as exc:
        return EXIT_USER, "", f"{config.input_path}: invalid input:\n{exc}\n"
    except ModuleValidationError as exc:
        return _problems(exc.problems)
    except InternalInvariantError as exc:
        return EXIT_INTERNAL, "", f"internal invariant breach: {exc}\n"
    except NotClosedError as exc:
        return EXIT_USER, "", f"{config.input_path}: {exc}\n"
    except WordTooLongError:
        return EXIT_USER, "", f"{config.input_path}: input exceeds the evaluator's word depth\n"
    return EXIT_USER, "", f"unknown command {config.command!r}\n"


def _problems(problems) -> Tuple[int, str, str]:
    return EXIT_USER, "", "".join(p + "\n" for p in problems)


def _cmd_validate(parsed, config: RunConfig) -> Tuple[int, str, str]:
    validate = validate_module if isinstance(parsed, DGModule) else validate_sullivan
    problems = validate(parsed)
    if problems:
        return _problems(problems)
    return EXIT_OK, "valid\n", ""


def _require(parsed, kind, what: str):
    """Report an input of the wrong mode for the command ``what`` as an
    invalid input: ``kind`` is ``DGAlgebra`` or ``DGModule``."""
    if not isinstance(parsed, kind):
        mode = "an algebra" if kind is DGAlgebra else "a module"
        raise SullivanValidationError([f"{what} needs {mode}-mode input"])


def _cmd_minimize(parsed, config: RunConfig) -> Tuple[int, str, str]:
    _require(parsed, DGAlgebra, "minimize")
    contraction = compute_minimal_model(parsed)
    out = emit_machine(contraction) if config.output_format == "machine" \
        else emit_report(contraction)
    return EXIT_OK, out, ""


def _cmd_at_model(parsed, config: RunConfig) -> Tuple[int, str, str]:
    _require(parsed, DGModule, "at-model")
    model = compute_at_model(parsed)
    names = [name for name, _ in parsed.generators]
    lines = ["H = {" + ", ".join([names[h] for h in model.H]) + "}"]
    for kind, table, keys in (("f", model.f, range(len(names))), ("g", model.g, model.H),
                              ("phi", model.phi, range(len(names)))):
        for i in keys:
            den, x = table[i]
            # format_linear writes "0" too; most rows are empty, so skip the call
            lines.append(f"{kind} {names[i]} = {format_linear(parsed, x, den) if x else '0'}")
    for i, j in model.pairs:
        lines.append(f"pair {names[i]} {names[j]}")
    return EXIT_OK, "\n".join(lines) + "\n", ""


def _dims_of(parsed, config: RunConfig):
    if isinstance(parsed, DGModule):
        return module_homology_dims(parsed, config.max_degree)
    return cohomology_dims(parsed, None, config.max_degree)


def _cmd_homology(parsed, config: RunConfig) -> Tuple[int, str, str]:
    # the oracle assumes a valid input; report an invalid one as validate does
    checked = _cmd_validate(parsed, config)
    if checked[0] != EXIT_OK:
        return checked
    dims = _dims_of(parsed, config)
    if config.against_path is None:
        out = "".join(f"H^{p}: {d}\n" for p, d in dims)
        return EXIT_OK, out, ""
    other = _load(config.against_path)
    checked = _cmd_validate(other, config)
    if checked[0] != EXIT_OK:
        return checked
    comparison = compare_dims(dims, _dims_of(other, config))
    return EXIT_OK if comparison.equal else EXIT_USER, str(comparison) + "\n", ""


@dataclass(frozen=True)
class Verification:
    """One ``verify`` job: the contraction, its identity report, whether its
    induced derivative is minimal, and the oracle's cohomology comparison."""
    contraction: FullContraction
    report: ContractionReport
    minimal: bool
    comparison: ComparisonReport

    @property
    def ok(self) -> bool:
        return self.report.ok and self.minimal and self.comparison.equal


def verify_algebra(dga: DGAlgebra, max_degree: int) -> Verification:
    """Minimize ``dga``, then check the contraction identities, minimality and
    the cohomology of the model up to ``max_degree``.  The sweep, the checker
    and the oracle's source side read ``d`` through ``dga.ev``; the sweep's
    square check, the checker and the oracle's survivor side read ``dW``
    through ``c.model.ev``; and the checker and the oracle read the
    signature's memoised bases."""
    c = compute_minimal_model(dga)
    report = check_contraction(c, max_degree)
    minimal = in_lambda_geq2(c.sig, {m: 1 for dw in c.dW.values() for m in dw}, c.W)
    comparison = compare_dims(cohomology_dims(dga, None, max_degree),
                              cohomology_dims(c.model, c.W, max_degree))
    return Verification(c, report, minimal, comparison)


def _cmd_verify(parsed, config: RunConfig) -> Tuple[int, str, str]:
    _require(parsed, DGAlgebra, "verify")
    v = verify_algebra(parsed, config.max_degree)
    lines = [f"minimize: ok ({len(v.contraction.W)} surviving generators, "
             f"{len(v.contraction.pairs)} pairs)"]
    lines += [f"identity {check}" for check in v.report.checks]
    lines.append(f"minimality: {'pass' if v.minimal else 'FAIL'}")
    lines.append(f"cohomology match (degree <= {config.max_degree}): "
                 f"{'pass' if v.comparison.equal else 'FAIL'}")
    if not v.comparison.equal:
        lines.append(str(v.comparison))
    out = "\n".join(lines) + "\n"
    if v.ok:
        return EXIT_OK, out, ""
    return EXIT_INTERNAL, out, "verification failed\n"


def _write_output(config: RunConfig, out: str) -> Optional[str]:
    if config.output_path is None or not out:
        return None
    try:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(out)
    except OSError as exc:
        return f"cannot write {config.output_path}: {exc.strerror}\n"
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sulmin",
        description="Minimal models of free graded-commutative DG-algebras "
                    "with certifying contractions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("validate", "check the ordered-input contract"),
        ("minimize", "compute the minimal model and contraction"),
        ("at-model", "contract a module-mode input onto its homology"),
        ("homology", "degreewise cohomology dimensions"),
        ("verify", "minimize, then check every certificate identity"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("input", help="source file")
        if name in ("homology", "verify"):
            p.add_argument("--max-degree", type=int, default=10, metavar="N",
                           help="degree cap for checks and homology (default 10)")
        p.add_argument("--output", metavar="PATH", help="write stdout text to a file")
        if name == "minimize":
            p.add_argument("--format", choices=["report", "machine"],
                           default="report", help="output flavor")
        if name == "homology":
            p.add_argument("--against", metavar="FILE",
                           help="compare against a second input")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        input_path=args.input,
        max_degree=getattr(args, "max_degree", 10),
        output_format=getattr(args, "format", "report"),
        output_path=args.output,
        against_path=getattr(args, "against", None),
    )
    code, out, err = run(config)
    write_err = _write_output(config, out)
    if config.output_path is None:
        sys.stdout.write(out)
    if write_err:
        err += write_err
        code = code or EXIT_USER
    sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
