import contextlib
import json
from pathlib import Path

import pytest

from helpers import (
    D,
    braces_coin_derivation,
    cbv_fixture_corpus,
    church_two_cbv_derivation,
    coin_derivation,
    cut_proof,
    half_id_proof,
    identity_derivation,
    int_identity,
    mixed_copies_proof,
)
from lampe.cli import _json_pieces, run
from lampe.proofs import proof_to_json
from lampe.terms import Choice, Lam, Name, Nu, Var, alpha_eq, parse_term
from lampe.typesys import apply_mu_star, derivation_to_json


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mu(capsys):
    code, out, _ = invoke(capsys, "mu", "a.0 & b.0")
    assert code == 0 and out.strip() == "1/4"


def test_mu_syntax_error(capsys):
    code, _, err = invoke(capsys, "mu", "a.0 &")
    assert code == 1 and "E_SYNTAX" in err


def test_entails(capsys):
    code, out, _ = invoke(capsys, "entails", "a.0 & a.1", "a.0")
    assert code == 0 and out.strip() == "true"
    code, out, _ = invoke(capsys, "entails", "a.0", "F")
    assert out.strip() == "false"


@pytest.mark.parametrize("text", ["{a} {b} c", "f {b}"])
def test_braced_argument_is_a_syntax_error(capsys, text):
    code, out, err = invoke(capsys, "parse", text)
    position = text.index("{", 1)
    assert (code, out) == (1, "")
    assert err == (
        f"E_SYNTAX: braced CbV function cannot be an argument (at position {position})\n"
    )


def test_parse_roundtrip(capsys):
    code, out, _ = invoke(capsys, "parse", r"\x.\y. x (+a.0) y")
    assert code == 0 and out.strip() == r"\x. \y. x (+a.0) y"


def test_pnf(capsys):
    code, out, _ = invoke(capsys, "pnf", r"nu a. \x. (u (+a.0) v)")
    assert code == 0
    assert out.strip() == r"nu a. (\x. u) (+a.0) (\x. v)"


def test_reduce_with_trace(capsys):
    code, out, _ = invoke(
        capsys, "reduce", "--fuel", "5", "--trace", r"(\x.x) y"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "y"
    assert any("beta" in line for line in lines[:-1])


def test_dist(capsys):
    code, out, _ = invoke(capsys, "dist", "nu a. I (+a.0) OMEGA")
    assert code == 0
    lines = sorted(out.strip().splitlines())
    assert any(line.startswith("1/2") for line in lines)
    assert len(lines) == 2


def test_hnv_worked_example(capsys):
    code, out, _ = invoke(
        capsys,
        "hnv",
        "--fuel",
        "1000",
        r"nu a. (\x.\y.(y (+a.0) I) x) (nu b. I (+b.0) OMEGA)",
    )
    assert code == 0 and out.strip() == "3/4"


def test_nf_worked_example(capsys):
    code, out, _ = invoke(
        capsys,
        "nf",
        "--fuel",
        "1000",
        r"nu a. (\x.\y.(y (+a.0) I) x) (nu b. I (+b.0) OMEGA)",
    )
    assert code == 0 and out.strip() == "1/2"


def test_nf_honours_mode(capsys):
    code, out, err = invoke(
        capsys, "nf", "--mode", "pe-braces", "--fuel", "100", "nu a. I (+a.0) OMEGA"
    )
    assert code == 1 and out == ""
    assert err == "E_MODE_VIOLATION: normal-form mass is only defined for plain PE terms\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("hnv", "--fuel", "3", r"nu a. (I (+a.0) \u.\v.u) (I (+a.1) OMEGA)"),
        ("nf", "--fuel", "3", r"(\x. x x x) (\x. x x x)"),
    ],
)
def test_bounds_say_when_the_fuel_ran_out(capsys, argv):
    assert invoke(capsys, *argv) == (0, "0/1\n", "lower bound (fuel exhausted)\n")


def test_check_cbv(capsys, tmp_path):
    path = tmp_path / "church_two_cbv.json"
    path.write_text(json.dumps(derivation_to_json(church_two_cbv_derivation())))
    code, out, _ = invoke(capsys, "check", "--system", "cbv", str(path))
    assert code == 0
    assert "C[1/2] (C[1/2] (o => o) => (o => o))" in out


def test_check_wrong_system(capsys, tmp_path):
    path = tmp_path / "church_two_cbv.json"
    path.write_text(json.dumps(derivation_to_json(church_two_cbv_derivation())))
    code, _, err = invoke(capsys, "check", "--system", "cn", str(path))
    assert code == 1 and "E_" in err


def test_mu_star_cli(capsys, tmp_path):
    from test_typesys import _two_name_premise

    path = tmp_path / "premise.json"
    path.write_text(json.dumps(derivation_to_json(_two_name_premise())))
    code, out, _ = invoke(capsys, "mu-star", str(path))
    assert code == 0 and "C[3/8]" in out


class _Tally:
    """A stdout that keeps only the size, the ends and the `mu-sigma` rule
    values of what is written to it."""

    def __init__(self):
        self.size, self.head, self.tail, self.mu_sigma = 0, "", "", 0

    def write(self, text):
        self.size += len(text)
        self.head = (self.head + text)[:200] if len(self.head) < 200 else self.head
        self.tail = (self.tail + text)[-200:]
        self.mu_sigma += text == '"mu-sigma"'

    def writelines(self, pieces):
        for text in pieces:
            self.write(text)


def test_mu_star_cli_discharges_1000_names(capsys, tmp_path):
    """The row fold keeps its own stack, so the CLI prints the judgement of a
    1,000-name premise, and the JSON writer keeps one too, so `--json`
    prints its derivation.  That text is 1.4 GB, as each line is indented
    to its depth, so a tally reads it in place of a capture."""
    premise = int_identity(names={Name(f"a{i}") for i in range(1000)})
    path = tmp_path / "premise.json"
    path.write_text(json.dumps(derivation_to_json(premise)))
    code, out, err = invoke(capsys, "mu-star", str(path))
    assert (code, err) == (0, "")
    assert out == apply_mu_star(premise).judgement.format() + "\n"
    tally = _Tally()
    with contextlib.redirect_stdout(tally):
        code = run(["mu-star", "--json", str(path)])
    assert (code, capsys.readouterr().err) == (0, "")
    assert tally.head.startswith('{\n  "rule": "mu-sigma",\n  "judgement": {\n')
    assert tally.tail.endswith("\n      ]\n    }\n  ]\n}\n")
    assert tally.mu_sigma == 1000 and tally.size > 10**9


def test_json_writer_matches_json_dumps(capsys, tmp_path):
    """The CLI's JSON writer prints what `json.dumps(obj, indent=2)` returns:
    on every `--json` output of both golden files, on a 100-name `mu-star
    --json`, and on empty and nested containers and escaped text."""
    outputs = []
    for file_name in ("derivation_cli.json", "proof_cli.json"):
        golden = json.loads((Path(__file__).parent / "golden" / file_name).read_text())
        for record in golden["records"]:
            if "--json" in record["argv"] and record["exit"] == 0:
                outputs.append(record["stdout"])
    assert len(outputs) == 256
    premise = int_identity(names={Name(f"a{i}") for i in range(100)})
    path = tmp_path / "premise.json"
    path.write_text(json.dumps(derivation_to_json(premise)))
    code, out, err = invoke(capsys, "mu-star", "--json", str(path))
    assert (code, err) == (0, "")
    star = derivation_to_json(apply_mu_star(premise))
    assert out == json.dumps(star, indent=2) + "\n"
    outputs.append(out)
    for text in outputs:
        obj = json.loads(text)
        assert "".join(_json_pieces(obj)) == json.dumps(obj, indent=2) == text[:-1]
    for obj in ({}, [], {"a": [{}, [[]], ""]}, ["\u00e9\n\"", None, True, 0.5, -3]):
        assert "".join(_json_pieces(obj)) == json.dumps(obj, indent=2)


def test_transport_cli(capsys, tmp_path):
    deriv, _ = cbv_fixture_corpus()[1]  # the coin
    path = tmp_path / "coin.json"
    path.write_text(json.dumps(derivation_to_json(deriv)))
    code, out, _ = invoke(
        capsys, "transport", "--mode", "pe-braces", "--step-index", "0", str(path)
    )
    assert code == 0 and "C[1/2]" in out


def test_transport_cli_defaults_to_the_library_mode(capsys, tmp_path):
    """Without --mode, transport runs the step list of PE_BRACES, the default
    of transport_subject_reduction, whose rules the CbV system covers."""
    differs = 0
    for k, (deriv, _) in enumerate(cbv_fixture_corpus()):
        path = tmp_path / f"deriv-{k}.json"
        path.write_text(json.dumps(derivation_to_json(deriv)))
        for index in ("0", "1", "2"):
            for extra in ((), ("--json",)):
                argv = ("transport", *extra, "--step-index", index, str(path))
                plain = invoke(capsys, *argv)
                assert plain == invoke(capsys, *argv[:1], "--mode", "pe-braces", *argv[1:])
                differs += plain[0] == 0 and plain != invoke(
                    capsys, *argv[:1], "--mode", "pe", *argv[1:]
                )
    # the CbV fixtures that PE rejects before any step
    assert differs >= 4


def test_check_proof_cli(capsys, tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps(proof_to_json(half_id_proof())))
    code, out, _ = invoke(capsys, "check-proof", str(path))
    assert code == 0 and "C[1/2] (A -> A)" in out


def test_check_proof_reports_an_unknown_rule(capsys, tmp_path):
    blob = proof_to_json(half_id_proof())
    blob["rule"] = "foo"
    path = tmp_path / "foo.json"
    path.write_text(json.dumps(blob))
    code, out, err = invoke(capsys, "check-proof", str(path))
    assert (code, out, err) == (1, "", "E_RULE_SHAPE: unknown proof rule foo\n")


def test_normalize_proof_cli(capsys, tmp_path):
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(proof_to_json(cut_proof())))
    code, out, err = invoke(capsys, "normalize-proof", str(path))
    assert code == 0
    assert "A -> C[1/2] C[1/2] A" in out
    assert "6 steps" in err


def test_translate_cli(capsys, tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps(proof_to_json(half_id_proof())))
    code, out, _ = invoke(capsys, "translate", str(path))
    assert code == 0
    assert "nu a." in out and "#c" in out


def test_simulate_cli(capsys, tmp_path):
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(proof_to_json(cut_proof())))
    code, out, _ = invoke(capsys, "simulate", "--fuel", "1000", str(path))
    assert code == 0
    assert "0 failures" in out


def test_simulate_cli_reports_a_failed_witness(capsys, tmp_path, monkeypatch):
    """A witness that takes no step leaves the proof term unreduced: the
    entry reports both terms and the command exits with an error."""
    from lampe import proofs

    monkeypatch.setitem(proofs._WITNESS_STEPS, "m-imp-e-fun", ())
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(proof_to_json(cut_proof())))
    code, out, err = invoke(capsys, "simulate", "--fuel", "1000", str(path))
    assert code == 1
    assert err.strip() == "E_INTERNAL: simulation failures"
    (failed,) = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed.startswith("FAIL m-imp-e-fun (0 steps) reached ")
    assert ", expected " in failed
    assert out.splitlines()[-1].endswith(" steps, 1 failures")


def test_sample_and_estimate(capsys):
    code, out, _ = invoke(
        capsys, "sample", "--seed", "1", "--fuel", "50", "nu a. I (+a.0) OMEGA"
    )
    assert code == 0 and out.startswith(("HEAD_NORMAL", "EXHAUSTED"))
    code, out, _ = invoke(
        capsys,
        "estimate",
        "--seed",
        "3",
        "--samples",
        "400",
        "--fuel",
        "50",
        "nu a. I (+a.0) OMEGA",
    )
    assert code == 0
    est, err = out.split()
    num, den = est.split("/")
    assert 0.3 < int(num) / int(den) < 0.7


def test_sample_prints_head_normal_or_exhausted(capsys):
    term = "nu a. I (+a.0) OMEGA"
    code, out, _ = invoke(capsys, "sample", "--seed", "0", "--fuel", "400", term)
    assert (code, out) == (0, "HEAD_NORMAL \\x. x\n")
    code, out, _ = invoke(capsys, "sample", "--seed", "1", "--fuel", "400", term)
    assert (code, out) == (0, "EXHAUSTED\n")


def test_hnv_round_cut_short_prints_the_exhausted_line(capsys):
    term = "nu a. OMEGA (+a.0) (I I)"
    code, out, err = invoke(capsys, "hnv", "--fuel", "1", term)
    assert (code, out, err) == (0, "0/1\n", "lower bound (fuel exhausted)\n")
    code, out, err = invoke(capsys, "hnv", "--fuel", "3", term)
    assert (code, out, err) == (0, "1/2\n", "")


def test_usage_error_exit_code(capsys):
    assert run(["no-such-command"]) == 2


def test_deterministic_outputs(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = invoke(
            capsys, "estimate", "--seed", "9", "--samples", "100",
            "--fuel", "40", "nu a. I (+a.0) OMEGA",
        )
        outs.add(out)
    assert len(outs) == 1


README_EXAMPLES = [
    (["mu", "a.0 & b.0"], "1/4\n"),
    (["entails", "a.0 & a.1", "a.0"], "true\n"),
    (["pnf", r"nu a. \x. (u (+a.0) v)"], "nu a. (\\x. u) (+a.0) (\\x. v)\n"),
    (
        ["dist", "nu a. I (+a.0) OMEGA"],
        "1/2  (\\x. x x) (\\x. x x)\n1/2  \\x. x\n",
    ),
    (
        ["hnv", "--fuel", "1000",
         r"nu a. (\x.\y.(y (+a.0) I) x) (nu b. I (+b.0) OMEGA)"],
        "3/4\n",
    ),
    (
        ["nf", "--fuel", "1000",
         r"nu a. (\x.\y.(y (+a.0) I) x) (nu b. I (+b.0) OMEGA)"],
        "1/2\n",
    ),
    (
        ["estimate", "--seed", "3", "--samples", "10000", "--fuel", "400",
         "nu a. I (+a.0) OMEGA"],
        "999/2000 1/200\n",
    ),
]


def test_readme_examples_byte_compared(capsys):
    for argv, expected in README_EXAMPLES:
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 0 and out == expected, (argv, out)


def replay_golden(capsys, tmp_path, monkeypatch, file_name):
    """Replay every record of a golden file written by one of the
    tests/make_*_golden.py scripts."""
    golden = json.loads((Path(__file__).parent / "golden" / file_name).read_text())
    for name, blob in golden["inputs"].items():
        (tmp_path / name).write_text(json.dumps(blob))
    monkeypatch.chdir(tmp_path)
    for record in golden["records"]:
        code, out, err = invoke(capsys, *record["argv"])
        assert (code, out, err) == (record["exit"], record["stdout"], record["stderr"]), (
            record["argv"]
        )


def test_proof_cli_golden(capsys, tmp_path, monkeypatch):
    # the proof subcommands' records from tests/make_proof_golden.py; a
    # refactor of the proof kernel keeps them
    replay_golden(capsys, tmp_path, monkeypatch, "proof_cli.json")


def test_derivation_cli_golden(capsys, tmp_path, monkeypatch):
    # the derivation and term subcommands' records from
    # tests/make_derivation_golden.py; a refactor of the checkers, transport
    # or the term core keeps them
    replay_golden(capsys, tmp_path, monkeypatch, "derivation_cli.json")


def test_malformed_json_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = invoke(capsys, "check", "--system", "cbv", str(path))
    assert code == 1 and "E_INPUT" in err
    path.write_text('{"rule": "id"}')
    code, _, err = invoke(capsys, "check", "--system", "cbv", str(path))
    assert code == 1 and "E_SCHEMA" in err


def test_numeric_proof_side_value_is_a_schema_error(capsys, tmp_path):
    blob = proof_to_json(half_id_proof())
    blob["side"]["q"] = 5
    path = tmp_path / "p.json"
    path.write_text(json.dumps(blob))
    code, _, err = invoke(capsys, "check-proof", str(path))
    assert code == 1 and err.startswith("E_SCHEMA") and "Traceback" not in err


def test_numeric_derivation_side_value_is_a_schema_error(capsys, tmp_path):
    blob = derivation_to_json(braces_coin_derivation())
    blob["side"]["scale"] = 1
    path = tmp_path / "d.json"
    path.write_text(json.dumps(blob))
    code, _, err = invoke(capsys, "check", "--system", "cbv", str(path))
    assert code == 1 and err.startswith("E_SCHEMA") and "Traceback" not in err


def _first_node_with_context(blob):
    stack = [blob]
    while stack:
        node = stack.pop()
        if node["judgement"]["ctx"]:
            return node
        stack.extend(node["premises"])
    raise AssertionError("no node has a context")


@pytest.mark.parametrize(
    "bad, expected",
    [
        ("C[1/2 o", "E_SYNTAX: unterminated 'C[' (at position 0)\n"),
        ("(o => o", "E_SYNTAX: expected ')' (at position 7)\n"),
        (
            "C[1/0] o",
            "E_SYNTAX: expected n or n/d with d > 0 in 'C[1/0]' (at position 0)\n",
        ),
        (
            "C[-1/2] o",
            "E_SYNTAX: expected n or n/d with d > 0 in 'C[-1/2]' (at position 0)\n",
        ),
    ],
    ids=["unterminated-count", "unclosed-arrow", "zero-denominator", "signed-count"],
)
def test_malformed_context_type_is_a_syntax_error(capsys, tmp_path, bad, expected):
    blob = derivation_to_json(church_two_cbv_derivation())
    ctx = _first_node_with_context(blob)["judgement"]["ctx"]
    ctx[0] = [ctx[0][0], bad]
    path = tmp_path / "d.json"
    path.write_text(json.dumps(blob))
    code, out, err = invoke(capsys, "check", "--system", "cbv", str(path))
    assert (code, out, err) == (1, "", expected)


def _set_rule(blob, value):
    blob["rule"] = value


def _set_premises(blob, value):
    blob["premises"] = value


def _set_names(blob, value):
    blob["premises"][0]["judgement"]["names"] = value


def _set_context_variable(blob, value):
    ctx = _first_node_with_context(blob)["judgement"]["ctx"]
    ctx[0] = [value, ctx[0][1]]


def _set_declaration(blob, value):
    _first_node_with_context(blob)["judgement"]["ctx"][0] = value


def _set_hypotheses(blob, value):
    blob["premises"][0]["premises"][0]["premises"][0]["sequent"]["ctx"] = value


def _set_names_over_a_bad_premise(blob, value):
    # a node's conclusion is read before its premises
    blob["judgement"]["names"] = value
    blob["premises"][0]["rule"] = []


def _set_side_over_a_bad_premise(blob, value):
    # a node's side data is read after its premises
    blob["side"] = value
    blob["premises"][0]["rule"] = []


# Without the decoders' field checks each of these decoded: the rule `[]`
# reached the checker and failed with `E_INTERNAL: TypeError: unhashable type:
# 'list'`, the names "a" and the hypotheses "A" read a string as a list of
# one-letter texts and passed the check, the declaration "fo" read as `f: o`,
# and the other values failed as some rule's shape error.
@pytest.mark.parametrize(
    "command, fixture, edit, value, message",
    [
        ("check", coin_derivation, _set_rule, [], "the rule as a string, got list"),
        ("check", coin_derivation, _set_names, "a", "the names as a list, got str"),
        ("check", coin_derivation, _set_names, [1], "each name as a string, got int"),
        (
            "check",
            church_two_cbv_derivation,
            _set_context_variable,
            1,
            "a context variable as a string, got int",
        ),
        (
            "check",
            church_two_cbv_derivation,
            _set_declaration,
            "fo",
            "each declaration as a [variable, type] list, got str",
        ),
        ("check", coin_derivation, _set_premises, {}, "the premises as a list, got dict"),
        ("check-proof", half_id_proof, _set_rule, [], "the rule as a string, got list"),
        (
            "check-proof",
            half_id_proof,
            _set_premises,
            {},
            "the premises as a list, got dict",
        ),
        (
            "check-proof",
            half_id_proof,
            _set_hypotheses,
            "A",
            "the hypotheses as a list, got str",
        ),
        (
            "check",
            coin_derivation,
            _set_names_over_a_bad_premise,
            "a",
            "the names as a list, got str",
        ),
        (
            "check-proof",
            half_id_proof,
            _set_side_over_a_bad_premise,
            {"d": 7},
            "the rule as a string, got list",
        ),
    ],
    ids=[
        "rule-list",
        "names-string",
        "name-int",
        "context-variable-int",
        "declaration-string",
        "premises-object",
        "proof-rule-list",
        "proof-premises-object",
        "proof-hypotheses-string",
        "names-before-premises",
        "side-after-premises",
    ],
)
def test_field_of_the_wrong_type_is_a_schema_error(
    capsys, tmp_path, command, fixture, edit, value, message
):
    to_json = proof_to_json if command == "check-proof" else derivation_to_json
    blob = to_json(fixture())
    edit(blob, value)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(blob))
    argv = (command, str(path)) if command == "check-proof" else (
        command, "--system", "cbv", str(path)
    )
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (1, "", f"E_SCHEMA: malformed input (expected {message})\n")


def test_non_text_formula_keeps_its_schema_message(capsys, tmp_path):
    # a value that is not text goes straight to its parser, past the decode
    # memo, and reads as it always has
    blob = proof_to_json(half_id_proof())
    blob["sequent"]["formula"] = []
    path = tmp_path / "p.json"
    path.write_text(json.dumps(blob))
    code, out, err = invoke(capsys, "check-proof", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "E_SCHEMA: malformed input (expected string or bytes-like object, got 'list')\n"
    )


def test_unterminated_count_in_a_proof_is_a_syntax_error(capsys, tmp_path):
    blob = proof_to_json(half_id_proof())
    blob["sequent"]["formula"] = "C[1/2 A"
    path = tmp_path / "p.json"
    path.write_text(json.dumps(blob))
    code, out, err = invoke(capsys, "check-proof", str(path))
    assert (code, out, err) == (1, "", "E_SYNTAX: unterminated 'C[' (at position 0)\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("parse", "--fuel", "5", "I"),
        ("hnv", "--json", "--fuel", "10", "I"),
        ("check-proof", "--json", "PROOF"),
    ],
    ids=["parse-fuel", "hnv-json", "check-proof-json"],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, tmp_path, argv):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(proof_to_json(half_id_proof())))
    argv = [str(path) if arg == "PROOF" else arg for arg in argv]
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


def test_missing_file_exits_one(capsys):
    code, _, err = invoke(capsys, "check-proof", "/nonexistent/p.json")
    assert code == 1 and "E_INPUT" in err


def test_reduced_output_reparses(capsys):
    # copy-variant names in reducts stay within the concrete syntax
    code, out, _ = invoke(
        capsys, "reduce", "--fuel", "1", r"(\x. x x) (nu a. u (+a.0) v)"
    )
    assert code == 0 and "~2" in out
    code2, out2, _ = invoke(capsys, "parse", out.strip())
    assert code2 == 0 and out2 == out


def test_deep_input_reports_depth(capsys, tmp_path):
    """A file 6,000 `or` nodes deep is too deep for `json.loads` on every
    supported Python, and `json.loads` stops first: the decoders keep their
    own stack (see test_the_decoders_add_no_depth_limit_of_their_own).  Each
    node nests two JSON levels, an object and its premise list.  At
    recursion limit 1,000, `json.loads` reads about 500 such nodes on 3.10
    and 3.11.7 and about 750 on 3.12.1.  On 3.13 it counts levels against a
    C recursion limit of 10,000, so it reads about 5,000, and a 3,000-node
    file checks there.  The recursive decoder and its `_one_decode` wrapper
    took two interpreter frames per node and stopped near 500 nodes on
    every version."""
    base = identity_derivation()
    node = derivation_to_json(D("or", base.judgement, (base,)))
    head, _, tail = json.dumps({**node, "premises": [None]}).partition("null")
    path = tmp_path / "deep.json"
    path.write_text(head * 6000 + json.dumps(node["premises"][0]) + tail * 6000)
    code, out, err = invoke(capsys, "check", "--system", "cbv", str(path))
    assert code == 1 and err.startswith("E_DEPTH")
    assert "Traceback" not in out + err


def test_m_idem_compares_a_301_deep_proof_file(capsys, tmp_path):
    """The root of the file mixes two equal, separately decoded copies of a
    300-deep chain; `m-idem` compares them node by node on a stack, where
    the generated `==` took about four interpreter frames per level."""
    path = tmp_path / "copies.json"
    path.write_text(json.dumps(proof_to_json(mixed_copies_proof(300))))
    code, out, err = invoke(capsys, "check-proof", str(path))
    assert (code, out, err) == (0, "A, A |- T ~> A\n", "")
    code, out, err = invoke(capsys, "normalize-proof", str(path))
    assert (code, out, err) == (0, "A, A |- T ~> A\n", "1 steps\n")


def test_proof_commands_on_a_3000_link_formula(capsys, tmp_path):
    """A one-node proof over a 3,000-link arrow chain checks, normalizes,
    translates and prints: the proof-formula and type printers keep a stack,
    and the `id` rule's check compares two interned 3,000-deep types by
    identity."""
    chain = "A -> " * 3000 + "A"
    blob = {
        "rule": "id",
        "sequent": {"ctx": [chain], "constraint": "T", "formula": chain},
        "side": {"index": 0},
        "premises": [],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(blob))
    code, out, err = invoke(capsys, "check-proof", str(path))
    assert (code, out, err) == (0, f"{chain} |- T ~> {chain}\n", "")
    code, out, err = invoke(capsys, "normalize-proof", "--json", str(path))
    assert (code, out, err) == (0, json.dumps(blob, indent=2) + "\n", "0 steps\n")
    code, out, err = invoke(capsys, "translate", str(path))
    typ = "(o => " * 3000 + "o" + ")" * 3000
    assert (code, out, err) == (0, f"x0\nx0: {typ} |-{{}} x0 : T ~> {typ}\n", "")


def test_deep_pnf_prints_its_normal_form(capsys):
    """The printer keeps an explicit stack, so 3,000 binders print.  The
    normal form, worked out by hand: the choice moves above the lambdas,
    each branch keeping all of them."""
    binders = "".join(f"\\x{i}. " for i in range(3000))
    code, out, err = invoke(capsys, "pnf", f"nu a. {binders}u (+a.0) v")
    assert code == 0 and err == ""
    left, right = Var("u"), Var("v")
    for i in reversed(range(3000)):
        left, right = Lam(f"x{i}", left), Lam(f"x{i}", right)
    assert alpha_eq(parse_term(out), Nu(Name("a"), Choice(left, right, Name("a"), 0)))


def test_dist_keeps_no_trace(capsys):
    """`dist` normalizes without a trace, so its peak traced memory grows
    linearly with the binders, as `pnf_count`'s does (see
    test_counting_pnf_keeps_no_trace); the collector stays off in the
    window."""
    import gc
    import tracemalloc

    def peak(depth):
        binders = "".join(f"\\x{i}. " for i in range(depth))
        term = f"nu a. {binders}u (+a.0) v"
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            code = run(["dist", term])
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        out = capsys.readouterr().out.splitlines()
        assert code == 0 and [line.split()[0] for line in out] == ["1/2", "1/2"]
        return top

    assert peak(800) / peak(400) < 2.5


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "--samples", "0", "I"),
        ("hnv", "--fuel", "-5", "I"),
        ("nf", "--fuel", "-5", "I"),
        ("sample", "--fuel", "-1", "I"),
        ("estimate", "--fuel", "-1", "I"),
        ("reduce", "--fuel", "-1", r"(\x.x) y"),
        ("normalize-proof", "--fuel", "-1", "CUT"),
        ("simulate", "--fuel", "-1", "CUT"),
    ],
    ids=[
        "estimate-samples",
        "hnv-fuel",
        "nf-fuel",
        "sample-fuel",
        "estimate-fuel",
        "reduce-fuel",
        "normalize-proof-fuel",
        "simulate-fuel",
    ],
)
def test_bad_budget_is_a_precondition_error(capsys, tmp_path, argv):
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(proof_to_json(cut_proof())))
    argv = [str(path) if arg == "CUT" else arg for arg in argv]
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("E_PRECONDITION: ")
    assert "Traceback" not in err


def _write_with_side(tmp_path, blob, rule, key, value):
    """Set one side value on the first node with the given rule."""
    stack = [blob]
    while stack:
        node = stack.pop()
        if node["rule"] == rule:
            node["side"][key] = value
            break
        stack.extend(node["premises"])
    path = tmp_path / "input.json"
    path.write_text(json.dumps(blob))
    return str(path)


@pytest.mark.parametrize(
    "rule, key, value",
    [
        ("id", "index", "0"),
        ("id", "index", 0.0),
        ("m", "pivot", ["a", 0]),
        ("ci", "q", "1/0"),
    ],
    ids=["string-index", "float-index", "list-pivot", "zero-denominator"],
)
def test_other_side_forms_are_schema_errors(capsys, tmp_path, rule, key, value):
    path = _write_with_side(tmp_path, proof_to_json(half_id_proof()), rule, key, value)
    for argv in (("check-proof", path), ("normalize-proof", "--json", path)):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("E_SCHEMA: malformed input (") and "Traceback" not in err


@pytest.mark.parametrize(
    "pivot, error",
    [
        ("A.0", "E_SYNTAX: unexpected character 'A' in formula (at position 0)"),
        ("a .0", "E_SYNTAX: unexpected character 'a' in formula (at position 0)"),
        ("a.-1", "E_SYNTAX: unexpected character 'a' in formula (at position 0)"),
        ("a.0.1", "E_SYNTAX: trailing input in formula (at position 3)"),
        ("!a.0", "E_SCHEMA: malformed input (expected one atom as the pivot, got '!a.0')"),
        ("T", "E_SCHEMA: malformed input (expected one atom as the pivot, got 'T')"),
    ],
    ids=["upper-name", "inner-space", "negative-index", "two-dots", "negation", "top"],
)
def test_pivot_is_read_as_one_atom(capsys, tmp_path, pivot, error):
    # the pivot is read by the formula parser, as the `d` side formula is
    path = _write_with_side(tmp_path, proof_to_json(half_id_proof()), "m", "pivot", pivot)
    for argv in (("check-proof", path), ("normalize-proof", "--json", path)):
        assert invoke(capsys, *argv) == (1, "", error + "\n")


def test_library_fault_is_internal_not_schema(capsys, monkeypatch):
    import lampe.cli

    def fault(args):
        raise KeyError("lost")

    monkeypatch.setitem(lampe.cli._COMMANDS, "mu", fault)
    code, out, err = invoke(capsys, "mu", "a.0")
    assert code == 1 and out == ""
    assert err == "E_INTERNAL: KeyError: 'lost'\n"


def test_undecodable_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"rule": "\xe9"}')
    code, _, err = invoke(capsys, "check-proof", str(path))
    assert code == 1 and err.startswith("E_INPUT: ") and "Traceback" not in err


def test_step_index_out_of_range_is_a_precondition_error(capsys, tmp_path):
    path = tmp_path / "coin.json"
    path.write_text(json.dumps(derivation_to_json(braces_coin_derivation())))
    code, _, err = invoke(
        capsys, "transport", "--mode", "pe-braces", "--step-index", "9", str(path)
    )
    assert code == 1
    assert err == "E_PRECONDITION: step index 9 out of range (2 steps)\n"
