"""Each of the four parsers against its reference in `helpers`, the parser as
it read `(kind, text, position)` tokens from `finditer`: the same value, or
the same `(message, position)` error, on the README examples, on every text
of both golden corpora, on texts built from the grammar's tokens, whitespace
and stray characters, and on printed random values, each also with a token
or a stray put in.  Values are compared by their printed form, since `==`
on a deep term recurses."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    random_formula,
    random_proof_formula,
    random_term,
    reference_parse_formula,
    reference_parse_proof_formula,
    reference_parse_term,
    reference_parse_type,
)
from lampe.errors import ParseError
from lampe.formulas import Atom, parse_formula, print_formula
from lampe.proofs import formula_type, parse_proof_formula, print_proof_formula
from lampe.terms import Name, parse_term, print_term
from lampe.typesys import parse_type, print_type
from test_cli import README_EXAMPLES

GOLDEN = Path(__file__).parent / "golden"

# grammar -> (parser, reference, printer, token texts)
GRAMMARS = {
    "term": (
        parse_term,
        reference_parse_term,
        print_term,
        ["\\", ".", "(", ")", "{", "}", "#c", "nu", "x", "y", "a", "z'", "zeta",
         "nux", "I", "OMEGA", "2", "FOO", "Z9", "(+a.0)", "(+z.12)"],
    ),
    "formula": (
        parse_formula,
        reference_parse_formula,
        print_formula,
        ["(", ")", "!", "&", "|", "T", "F", "a.0", "b.1", "zz.2", "a.x", "Tx", "F1"],
    ),
    "type": (
        parse_type,
        reference_parse_type,
        print_type,
        ["C[1/2]", "C[1]", "C[0/1]", "C[1/0]", "hn", "n", "o", "hnv", "=>", "(",
         ")", "[", "]", ","],
    ),
    "proof-formula": (
        parse_proof_formula,
        reference_parse_proof_formula,
        print_proof_formula,
        ["C[1/2]", "C[1]", "C[1/0]", "A", "B", "C", "Cx", "Z", "a_1", "zz", "->", "(",
         ")"],
    ),
}

STRAYS = ["#", "é", "3", "(+", "C["]
SPACES = ["", " ", "  ", "\t", "\n"]


def _strings(blob):
    """Every string in a decoded JSON value."""
    out, stack = [], [blob]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
    return out


CORPUS = sorted(
    {text for argv, _ in README_EXAMPLES for text in argv}
    | {
        text
        for name in ("derivation_cli.json", "proof_cli.json")
        for text in _strings(json.loads((GOLDEN / name).read_text())["inputs"])
    }
)


def outcome(parse, show, text):
    """The printed value of `parse(text)`, or the error it raises."""
    try:
        return "value", show(parse(text))
    except ParseError as exc:
        return "error", exc.message, exc.position
    except TypeError as exc:
        return "type", str(exc)


def assert_matches_reference(grammar, text):
    parse, reference, show, _ = GRAMMARS[grammar]
    assert outcome(parse, show, text) == outcome(reference, show, text), text


@pytest.mark.parametrize("grammar", GRAMMARS)
def test_parser_differential_on_the_corpora(grammar):
    # every string of the README examples and of both golden corpora, in
    # every grammar, and values that are not text
    for text in CORPUS + [5, None, [], b"x"]:
        assert_matches_reference(grammar, text)


def _printed(grammar):
    """The printed form of a random value of the grammar."""
    a, b = Name("a"), Name("b")
    build = {
        "term": lambda rng: print_term(
            random_term(rng, rng.randint(1, 12), [a, b], [], allow_cbv=True)
        ),
        "formula": lambda rng: print_formula(
            random_formula(rng, [Atom(a, 0), Atom(b, 1)], 4)
        ),
        "type": lambda rng: print_type(formula_type(random_proof_formula(rng, 4))),
        "proof-formula": lambda rng: print_proof_formula(random_proof_formula(rng, 4)),
    }[grammar]
    return st.randoms(use_true_random=False).map(build)


def _texts(grammar):
    """Texts built from the grammar's tokens, stray characters and
    whitespace; printed values; and corpus texts.  Some of them have a token
    or a stray put in at some position."""
    pieces = GRAMMARS[grammar][3] + STRAYS
    soup = st.lists(
        st.tuples(st.sampled_from(pieces), st.sampled_from(SPACES)), max_size=14
    ).map(lambda parts: "".join(piece + space for piece, space in parts))
    base = st.one_of(soup, _printed(grammar), st.sampled_from(CORPUS))
    spliced = st.tuples(base, st.integers(0, 60), st.sampled_from(pieces)).map(
        lambda x: x[0][: x[1]] + x[2] + x[0][x[1]:]
    )
    return st.one_of(base, spliced)


@pytest.mark.parametrize("grammar", GRAMMARS)
@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=st.data())
def test_parser_differential_on_generated_texts(grammar, data):
    assert_matches_reference(grammar, data.draw(_texts(grammar)))
