import gc
import subprocess
import sys
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sulmin.cli import RunConfig, build_parser, run, verify_algebra
from sulmin.dsl import parse

from conftest import EXAMPLE_FILES, INPUTS


def invoke(command, path, **kw):
    return run(RunConfig(command=command, input_path=str(path), **kw))


def test_minimize_report_exit_zero():
    code, out, err = invoke("minimize", EXAMPLE_FILES["ex1"])
    assert code == 0 and err == ""
    assert "-v2*a1 + u3" in out
    assert "(a1, v2)" in out


def test_minimize_machine_format():
    code, out, err = invoke("minimize", EXAMPLE_FILES["ex1"], output_format="machine")
    assert code == 0
    assert "pair a1 v2" in out.splitlines()
    assert out.startswith("W = {b1, c1, u3}\n")


def test_outputs_are_byte_identical_across_runs():
    first = invoke("minimize", EXAMPLE_FILES["ex3"], output_format="machine")
    second = invoke("minimize", EXAMPLE_FILES["ex3"], output_format="machine")
    assert first == second


def test_nothing_outlives_a_verify_job():
    # every memo of the monomial layer hangs off the signature, so once a
    # job's values are dropped its signature goes too: no cache outside it
    # carries anything from one job to the next
    dga = parse(EXAMPLE_FILES["ex4"].read_text())
    v = verify_algebra(dga, 8)
    assert v.report.checks
    sig = weakref.ref(dga.sig)
    del dga, v
    gc.collect()
    assert sig() is None


def test_validate_ok_and_violation(tmp_path):
    code, out, _ = invoke("validate", EXAMPLE_FILES["ex3"])
    assert code == 0 and out == "valid\n"
    bad = tmp_path / "forward.sul"
    bad.write_text("gen a1:1\ngen v2:2\nd a1 = v2\n")
    code, out, err = invoke("validate", bad)
    assert code == 2
    assert "order" in err and "a1" in err


def test_parse_error_exits_two(tmp_path):
    bad = tmp_path / "broken.sul"
    bad.write_text("gen a1:\n")
    code, out, err = invoke("validate", bad)
    assert code == 2
    assert "line 1, column 8" in err


def test_missing_file_exits_two():
    code, _, err = invoke("minimize", "no/such/file.sul")
    assert code == 2 and "cannot read" in err


def test_at_model_command():
    code, out, err = invoke("at-model", EXAMPLE_FILES["module1"])
    assert code == 0, err
    lines = out.splitlines()
    assert "H = {v0}" in lines
    assert "pair e v1" in lines
    assert "f v1 = v0" in lines
    assert "phi v1 = e" in lines


def test_at_model_rejects_algebra_input():
    code, _, err = invoke("at-model", EXAMPLE_FILES["ex1"])
    assert code == 2 and "module-mode" in err


@pytest.mark.parametrize("command, name, mode", [
    ("minimize", "module1", "an algebra"),
    ("verify", "module1", "an algebra"),
    ("at-model", "ex1", "a module"),
])
def test_an_input_of_the_wrong_mode_is_an_invalid_input(command, name, mode):
    path = EXAMPLE_FILES[name]
    assert invoke(command, path) == (
        2, "", f"{path}: invalid input:\n{command} needs {mode}-mode input\n")


def test_homology_listing():
    code, out, _ = invoke("homology", EXAMPLE_FILES["ex1"], max_degree=3)
    assert code == 0
    assert out == "H^0: 1\nH^1: 2\nH^2: 1\nH^3: 1\n"


def test_homology_comparison_equal():
    code, out, _ = invoke("homology", EXAMPLE_FILES["ex1"],
                          against_path=str(EXAMPLE_FILES["ex2"]), max_degree=8)
    assert code == 0
    assert out == (
        "H^0: 1 vs 1\nH^1: 2 vs 2\nH^2: 1 vs 1\nH^3: 1 vs 1\nH^4: 2 vs 2\n"
        "H^5: 1 vs 1\nH^6: 0 vs 0\nH^7: 0 vs 0\nH^8: 0 vs 0\nequal\n")


def test_homology_comparison_mismatch():
    code, out, _ = invoke("homology", EXAMPLE_FILES["ex1"],
                          against_path=str(EXAMPLE_FILES["minimal"]), max_degree=6)
    assert code == 2
    assert out == (
        "H^0: 1 vs 1\nH^1: 2 vs 2\nH^2: 1 vs 2   <- mismatch\n"
        "H^3: 1 vs 2   <- mismatch\nH^4: 2 vs 2\nH^5: 1 vs 2   <- mismatch\n"
        "H^6: 0 vs 1   <- mismatch\nfirst mismatch at degree 2\n")


def test_verify_passes_on_single_pair_inputs():
    for name in ("ex1", "ex2", "ex3", "minimal"):
        code, out, err = invoke("verify", EXAMPLE_FILES[name])
        assert code == 0, (name, out, err)
        assert "cohomology match" in out


@pytest.mark.parametrize("text", [
    "gen a1:1\ngen b2:2\nd b2 = a1\n",
    "mode module\ngen a:0\ngen b:1\nd b = a\n",
    "gen a1:1\ngen v2:2\nd a1 = v2\n",
    "gen x3:3\ngen y2:2\nd y2 = x3\ngen z5:5\nd z5 = y2^3\n",
], ids=["degree", "module-degree", "order", "d-squared"])
def test_homology_rejects_invalid_input_as_validate_does(tmp_path, text):
    # the oracle must never run on an input that fails validation, given
    # directly or through --against
    bad = tmp_path / "bad.sul"
    bad.write_text(text)
    code, out, report = invoke("validate", bad)
    assert code == 2 and out == "" and report
    assert invoke("homology", bad) == (2, "", report)
    assert invoke("homology", EXAMPLE_FILES["ex1"], against_path=str(bad)) == (2, "", report)
    if not text.startswith("mode module"):
        # the sweep's commands print the same lines, after the input's name
        for command in ("minimize", "verify"):
            assert invoke(command, bad) == (2, "", f"{bad}: invalid input:\n" + report)


def test_verify_reports_homotopy_extension_limit_on_even_ladder():
    # interacting pairs leave the two homotopy-extension identities
    # unsatisfiable, so verify reports the breach through exit code 3
    code, out, err = invoke("verify", EXAMPLE_FILES["ex4"])
    assert code == 3
    assert "identity id - gf = phi d + d phi: FAIL" in out
    assert "cohomology match (degree <= 10): pass" in out


def test_word_of_two_thousand_factors_is_evaluated(tmp_path):
    # d u = v2^2000 needs a 2000-factor word, past the interpreter's recursion
    # limit; the evaluators walk words in a loop, so it is an ordinary input
    src = tmp_path / "deep.sul"
    src.write_text("gen v2:2\ngen u3999:3999\nd u3999 = v2^2000\n")
    code, out, err = invoke("homology", src)
    assert (code, err) == (0, "")
    assert out == "".join(f"H^{p}: {1 - p % 2}\n" for p in range(11))
    code, out, err = invoke("minimize", src, output_format="machine")
    assert (code, err) == (0, "")
    assert "dW u3999 = v2^2000\n" in out


def test_more_generators_than_the_recursion_limit_enumerate(tmp_path):
    # the degree basis enumeration walks generators on an explicit stack, so
    # 1200 of them, past the interpreter's recursion limit, are an ordinary input
    src = tmp_path / "many.sul"
    src.write_text("".join(f"gen v{i}:2\n" for i in range(1200)))
    code, out, err = invoke("homology", src, max_degree=2)
    assert (code, err) == (0, "")
    assert out == "H^0: 1\nH^1: 0\nH^2: 1200\n"


def test_huge_exponent_exits_two_at_once(tmp_path):
    # the parser squares v2 (square and multiply) and refuses the first
    # power past the exponent field, a dozen products in
    src = tmp_path / "huge.sul"
    src.write_text("gen v2:2\ngen u:19999999999\nd u = v2^10000000000\n")
    start = time.perf_counter()
    code, out, err = invoke("minimize", src)
    assert (code, out) == (2, "")
    assert err == f"{src}: input exceeds the evaluator's word depth\n"
    assert time.perf_counter() - start < 2

@pytest.mark.parametrize("command", ["validate", "minimize", "verify"])
def test_exponent_past_the_field_exits_two(tmp_path, command):
    # v2^40000 does not fit the 15-bit exponent field of v2: the product
    # that would carry into the next field raises instead, and the command
    # exits 2 as for any word too long to evaluate
    src = tmp_path / "past.sul"
    src.write_text("gen v2:2\ngen u:79999\nd u = v2^40000\n")
    code, out, err = invoke(command, src)
    assert (code, out) == (2, "")
    assert err == f"{src}: input exceeds the evaluator's word depth\n"
    proc = subprocess.run([sys.executable, "-m", "sulmin.cli", command, str(src)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_parentheses_deeper_than_the_parser_exit_two(tmp_path):
    src = tmp_path / "parens.sul"
    src.write_text("gen v2:2\ngen u3:3\nd u3 = " + "(" * 3000 + "v2" + ")" * 3000 + "*v2\n")
    code, out, err = invoke("validate", src)
    assert (code, out) == (2, "")
    assert err == f"{src}: input nests too deeply to parse\n"


def test_against_nested_past_the_parser_names_the_against_file(tmp_path):
    src = tmp_path / "parens.sul"
    src.write_text("gen v2:2\ngen u3:3\nd u3 = " + "(" * 3000 + "v2" + ")" * 3000 + "*v2\n")
    code, out, err = invoke("homology", EXAMPLE_FILES["ex1"], against_path=str(src))
    assert (code, out) == (2, "")
    assert err == f"{src}: input nests too deeply to parse\n"


def test_against_unreadable_names_the_against_file(tmp_path):
    missing = tmp_path / "missing.sul"
    code, out, err = invoke("homology", EXAMPLE_FILES["ex1"], against_path=str(missing))
    assert (code, out) == (2, "")
    assert err == f"cannot read {missing}: No such file or directory\n"


_NOT_UTF8 = b"gen a:1\n\xff\xfe\n"


def test_input_not_utf8_exits_two_and_names_the_file(tmp_path):
    bad = tmp_path / "bad.sul"
    bad.write_bytes(_NOT_UTF8)
    assert invoke("validate", bad) == (2, "", f"cannot read {bad}: not UTF-8 text at byte 8\n")
    proc = subprocess.run([sys.executable, "-m", "sulmin.cli", "validate", str(bad)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"cannot read {bad}: not UTF-8 text at byte 8\n"


def test_against_not_utf8_names_the_against_file(tmp_path):
    bad = tmp_path / "bad.sul"
    bad.write_bytes(_NOT_UTF8)
    code, out, err = invoke("homology", EXAMPLE_FILES["ex1"], against_path=str(bad))
    assert (code, out) == (2, "")
    assert err == f"cannot read {bad}: not UTF-8 text at byte 8\n"


def test_against_parse_error_names_the_against_file(tmp_path):
    bad = tmp_path / "broken.sul"
    bad.write_text("gen a1:1\ngen b1:\n")
    code, out, err = invoke("homology", EXAMPLE_FILES["ex1"], against_path=str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"{bad}: line 2, column 8: ") and err.endswith("\n")
    # the same bytes as the message for the primary input
    assert err == invoke("validate", bad)[2]


@pytest.mark.parametrize("text", [
    "mode module\ngen a:0\ngen b:0\nd b = a\n",
    "mode module\ngen a:1\ngen b:0\nd a = b\n",
    "mode module\ngen a:2\ngen b:1\ngen c:0\nd b = a\nd c = b\n",
], ids=["degree", "order", "d-squared"])
def test_at_model_rejects_invalid_module_as_validate_does(tmp_path, text):
    bad = tmp_path / "bad.sul"
    bad.write_text(text)
    code, out, report = invoke("validate", bad)
    assert code == 2 and out == "" and report
    assert invoke("at-model", bad) == (2, "", report)


@pytest.mark.parametrize("text,where", [
    ("gen x:\u00b2\n", "line 1, column 7: unexpected character '\u00b2'"),
    ("gen x:" + "9" * 5000 + "\n", "line 1, column 7: integer literal too long"),
], ids=["superscript", "overlong"])
def test_integer_literals_int_rejects_exit_two(tmp_path, text, where):
    src = tmp_path / "literal.sul"
    src.write_text(text, encoding="utf-8")
    code, out, err = invoke("validate", src)
    assert (code, out) == (2, "")
    assert err == f"{src}: {where}\n"


def test_max_degree_must_be_positive():
    code, _, err = invoke("homology", EXAMPLE_FILES["ex1"], max_degree=0)
    assert code == 2 and "max-degree" in err


@pytest.mark.parametrize("command", ["validate", "minimize", "at-model"])
def test_the_commands_that_never_read_the_cap_ignore_it(command):
    assert invoke(command, EXAMPLE_FILES["ex1"], max_degree=0) == invoke(command, EXAMPLE_FILES["ex1"])


@pytest.mark.parametrize("command", ["homology", "verify"])
def test_the_cap_is_refused_before_the_input_is_read(tmp_path, command):
    code, out, err = invoke(command, tmp_path / "missing.sul", max_degree=0)
    assert (code, out, err) == (2, "", "max-degree must be >= 1\n")


@pytest.mark.parametrize("command", ["homology", "verify"])
def test_the_commands_that_read_the_cap_take_max_degree(command):
    args = build_parser().parse_args([command, "in.sul", "--max-degree", "3"])
    assert (args.command, args.max_degree) == (command, 3)
    assert build_parser().parse_args([command, "in.sul"]).max_degree == 10


@pytest.mark.parametrize("command", ["validate", "minimize", "at-model"])
def test_the_commands_that_never_read_the_cap_reject_max_degree(command, capsys):
    build_parser().parse_args([command, "in.sul"])
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "in.sul", "--max-degree", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-degree 3" in capsys.readouterr().err


def test_output_flag_writes_file(tmp_path):
    target = tmp_path / "result.txt"
    config = RunConfig(command="minimize", input_path=str(EXAMPLE_FILES["ex1"]),
                       output_format="machine", output_path=str(target))
    code, out, err = run(config)
    assert code == 0
    # run() only produces text; main() handles the redirect
    from sulmin.cli import _write_output
    assert _write_output(config, out) is None
    assert target.read_text() == out


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sulmin.cli", "minimize",
         str(EXAMPLE_FILES["ex1"]), "--format", "machine"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "pair a1 v2" in proc.stdout


# -- the exit-code contract on fuzzed text ------------------------------------

_NAMES = ("a1", "b1", "v2", "w2", "x3", "e")
_HUGE = ("123456789012345678901234567890", "9" * 5000)
_TOKENS = _NAMES + _HUGE + (
    "gen", "d", "mode", "algebra", "module", "zz", ":", "=", "+", "-", "*", "^",
    "/", "(", ")", ",", "#", "\n", " ", "0", "1", "2", "3", "1/2", "3999",
    "2000", "\u00b2", "@")

_factors = st.one_of(
    st.sampled_from(_NAMES + _HUGE + ("0", "1", "1/2", "0/1", "1/0")),
    st.builds("{}^{}".format, st.sampled_from(_NAMES),
              st.sampled_from(("0", "1", "2", "3", "2000", "4000"))))
# a power applies to a generator or to one group of plain factors, never to a
# nested power, so no drawn text expands past a few thousand terms
_groups = st.builds(
    lambda xs, depth, power: "(" * depth + " + ".join(xs) + ")" * depth + power,
    st.lists(_factors, min_size=1, max_size=3), st.sampled_from((1, 2, 600)),
    st.sampled_from(("", "^2", "^3")))
_expressions = st.recursive(
    st.one_of(_factors, _groups),
    lambda inner: st.builds("{} {} {}".format, inner, st.sampled_from("+-*"), inner),
    max_leaves=6)
_declarations = st.lists(
    st.sampled_from(("1", "2", "3", "4", "1", "2", "3", "0", "3999", _HUGE[0])),
    min_size=len(_NAMES), max_size=len(_NAMES))
_junk = st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join)
# every name is declared, in a drawn order, so that most documents get past
# the parser; one document in four also carries a line of random tokens
_documents = st.builds(
    lambda header, names, degrees, diffs, junk: header + "".join(
        f"gen {n}:{k}\n" for n, k in zip(names, degrees)) + "".join(diffs) + junk,
    st.sampled_from(("", "mode algebra\n", "mode module\n")),
    st.permutations(_NAMES), _declarations,
    st.lists(st.builds("d {} = {}\n".format, st.sampled_from(_NAMES), _expressions),
             max_size=4),
    st.one_of(st.just(""), st.just(""), st.just(""), _junk.map(lambda line: line + "\n")))


@given(text=_documents, max_degree=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_every_command_exits_zero_two_or_three_on_fuzzed_text(tmp_path_factory, text, max_degree):
    # the CLI contract: any input text, including huge literals, exponents
    # past the evaluators' word depth and parentheses past the parser's
    # recursion, ends in exit 0, 2 or 3 and never raises
    src = tmp_path_factory.mktemp("fuzz") / "input.sul"
    src.write_text(text, encoding="utf-8")
    for command in ("validate", "minimize", "homology", "verify", "at-model"):
        code, _, _ = invoke(command, src, max_degree=max_degree)
        assert code in (0, 2, 3), (command, code)
