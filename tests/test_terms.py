import gc
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    reference_alpha_eq,
    reference_bound_names,
    reference_canonical_str,
    reference_contains_cbv,
    reference_count_free_occurrences,
    reference_free_names,
    reference_free_vars,
    reference_print_term,
    reference_project,
    reference_rename_names,
    reference_shape_hash,
    reference_substitute,
    reference_substitute_indexed,
    reference_variant_copy,
    stored_shape_hash,
)
from lampe.cli import run
from lampe.errors import ParseError, UndefinedBitError
from lampe.formulas import parse_formula
from lampe.proofs import parse_proof_formula
from lampe.rewrite import pnf
from lampe.terms import (
    App,
    CbvApp,
    Choice,
    CONST,
    Lam,
    Name,
    Nu,
    Var,
    alpha_eq,
    canonical_str,
    children,
    contains_cbv,
    bound_names,
    copy_variant_name,
    count_free_occurrences,
    free_names,
    free_vars,
    parse_term,
    print_term,
    project,
    rename_bound_name,
    rename_names,
    substitute,
    substitute_indexed,
    variant_copy,
)
from lampe.typesys import parse_type

a = Name("a")
b = Name("b")


def test_parse_half_function():
    t = parse_term(r"\x.\y. x (+a.0) y")
    assert t == Lam("x", Lam("y", Choice(Var("x"), Var("y"), a, 0)))


def test_parse_const():
    assert parse_term("#c") == CONST


def test_parse_cbv_tree():
    t = parse_term(r"nu a. {(\f.f)} ((\x.x) (+a.1) ((\x.x x)(\x.x x)))")
    assert isinstance(t, Nu)
    assert isinstance(t.body, CbvApp)
    assert isinstance(t.body.arg, Choice)
    assert t.body.arg.index == 1


def test_parse_errors_have_positions():
    with pytest.raises(ParseError):
        parse_term("(\\x. x")
    with pytest.raises(ParseError):
        parse_term("{\\x.x}")  # unapplied CbV function


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("(\\x. x", "expected rpar, found eof", 6),
        ("{\\x.x}", "braced CbV function must be applied", 6),
        ("{f} (+a.0) g", "braced CbV function must be applied", 4),
        ("{a} {b} c", "braced CbV function cannot be an argument", 4),
        ("f {b}", "braced CbV function cannot be an argument", 2),
        ("{f} x {g} y", "braced CbV function cannot be an argument", 6),
        ("\\x x", "expected dot, found ident", 3),
        ("\\. x", "expected ident, found dot", 1),
        ("nu nu. x", "expected ident, found nu", 3),
        ("x )", "trailing input at rpar", 2),
        ("x (+a.0)", "unexpected token eof", 8),
        ("", "unexpected token eof", 0),
        ("FOO", "unknown abbreviation FOO", 0),
        ("x (+a.b) y", "malformed choice operator", 2),
        ("x 3", "unexpected character '3'", 2),
        # a character outside the grammar is reported before the bad ')'
        (") $", "unexpected character '$'", 2),
        # "nu" is a binder only when no identifier character follows it
        ("nux. x", "trailing input at dot", 3),
        ("#x", "unexpected character '#'", 0),
        ("\\x. \u00e9", "unexpected character '\u00e9'", 4),
    ],
)
def test_term_parse_error_table(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_term(text)
    assert (info.value.message, info.value.position) == (message, position)


def _nesting_depth(node):
    """Length of the longest chain of dataclass fields below `node`,
    measured without recursion."""
    depth, frontier = 0, [node]
    while frontier:
        depth += 1
        frontier = [
            child
            for parent in frontier
            for child in (getattr(parent, f.name) for f in fields(parent))
            if hasattr(child, "__dataclass_fields__")
        ]
    return depth


@pytest.mark.parametrize(
    "parse, text, depth",
    [
        (parse_term, "\\x. " * 900 + "x", 901),
        (parse_term, "nu a. " * 900 + "x", 901),
        (parse_term, "(" * 240 + "x y" + ")" * 240, 2),
        (parse_formula, "(" * 240 + "a.0 & b.0" + ")" * 240, 2),
        (parse_type, "(o => " * 480 + "o" + ")" * 480, 481),
        (parse_proof_formula, "A -> " * 900 + "A", 901),
    ],
    ids=[
        "lambdas",
        "nu-binders",
        "term-parentheses",
        "formula-parentheses",
        "type-arrows",
        "proof-arrows",
    ],
)
def test_parsers_survive_deep_nesting(parse, text, depth):
    assert _nesting_depth(parse(text)) == depth


def test_abbreviations():
    assert print_term(parse_term("I")) == "\\x. x"
    assert alpha_eq(parse_term("2"), parse_term(r"\f.\x. f (f x)"))


def test_substitute_direct_hit():
    assert substitute(Var("x"), "x", CONST) == CONST


def test_substitute_shadowing():
    t = Lam("x", Var("x"))
    assert substitute(t, "x", CONST) == t


def test_substitute_capture_avoidance():
    t = Lam("y", App(Var("x"), Var("y")))
    out = substitute(t, "x", Var("y"))
    assert isinstance(out, Lam)
    assert out.var != "y"
    assert out.body == App(Var("y"), Var(out.var))


def test_substitute_nu_capture_avoidance():
    # a free choice name in the payload must not be captured by a nu binder
    t = Nu(a, App(Var("x"), Choice(Var("u"), Var("v"), a, 0)))
    out = substitute(t, "x", Choice(Var("p"), Var("q"), a, 1))
    assert out.name is not a
    assert Choice(Var("p"), Var("q"), a, 1) in _subterms(out)


def test_substitute_duplicated_scopes_get_variants():
    body = App(Var("x"), Var("x"))
    payload = Nu(a, Choice(Var("u"), Var("v"), a, 0))
    out = substitute(body, "x", payload)
    assert out.fun.name is a
    assert out.arg.name is Name("a~2")


def test_rename_bound_name_keeps_untouched_subtrees():
    # a subtree without the old name and an inner binder that shadows it
    # come back as the same objects; the choices on the old name are renamed
    plain = parse_term(r"\x. x x")
    shadow = Nu(a, Choice(Var("u"), Var("v"), a, 1))
    t = Nu(a, App(Choice(plain, Var("w"), a, 0), shadow))
    out = rename_bound_name(t, b)
    assert out == Nu(b, App(Choice(plain, Var("w"), b, 0), shadow))
    assert out.body.fun.left is plain and out.body.arg is shadow
    assert rename_bound_name(Nu(a, plain), b).body is plain


def _subterms(t):
    out = [t]
    for c in children(t):
        out.extend(_subterms(c))
    return out


def test_alpha_eq_lambda():
    assert alpha_eq(parse_term(r"\x.x"), parse_term(r"\y.y"))
    assert not alpha_eq(parse_term(r"\x.x"), parse_term(r"\x.\y.x"))


def test_alpha_eq_names_rigid():
    t = parse_term("nu a. x (+a.0) y")
    u = parse_term("nu b. x (+b.0) y")
    assert not alpha_eq(t, u)
    assert alpha_eq(t, parse_term("nu a. x (+a.0) y"))


def test_project_resolves_bit_one():
    t = parse_term("x (+a.0) y")
    assert project(t, {a}, {(a, 0): 1}) == Var("x")
    assert project(t, {a}, {(a, 0): 0}) == Var("y")


def test_project_leaves_other_names():
    t = parse_term("x (+a.0) y")
    assert project(t, {b}, {}) == t


def test_project_under_nu():
    t = parse_term("nu b. (x (+a.0) y) (+b.0) z")
    out = project(t, {a}, {(a, 0): 0})
    assert out == parse_term("nu b. y (+b.0) z")


def test_project_missing_bit():
    with pytest.raises(UndefinedBitError):
        project(parse_term("x (+a.0) y"), {a}, {})


def test_project_idempotent_and_name_shrinking():
    t = parse_term("nu b. (x (+a.0) y) (+b.0) (z (+a.1) w)")
    omega = {(a, 0): 1, (a, 1): 0}
    once = project(t, {a}, omega)
    assert project(once, {a}, omega) == once
    assert a not in free_names(once)


# ---------------------------------------------------------------------------
# Round-trip property


@st.composite
def terms(
    draw, depth=4, scope=(), cbv=False, variables=("x", "y", "z"), names=("a", "b", "c")
):
    kind = draw(
        st.sampled_from(
            ["var", "lam", "app", "choice", "nu", "const"] + ["cbv"] * cbv
            if depth > 0
            else ["var", "const"]
        )
    )
    if kind == "var":
        if scope and draw(st.booleans()):
            return Var(draw(st.sampled_from(list(scope))))
        return Var(draw(st.sampled_from(variables)))
    if kind == "const":
        return CONST
    if kind == "lam":
        v = draw(st.sampled_from(variables))
        return Lam(v, draw(terms(depth - 1, scope + (v,), cbv, variables, names)))
    if kind in ("app", "cbv"):
        return (App if kind == "app" else CbvApp)(
            draw(terms(depth - 1, scope, cbv, variables, names)),
            draw(terms(depth - 1, scope, cbv, variables, names)),
        )
    if kind == "choice":
        return Choice(
            draw(terms(depth - 1, scope, cbv, variables, names)),
            draw(terms(depth - 1, scope, cbv, variables, names)),
            Name(draw(st.sampled_from(names))),
            draw(st.integers(min_value=0, max_value=2)),
        )
    return Nu(
        Name(draw(st.sampled_from(names))),
        draw(terms(depth - 1, scope, cbv, variables, names)),
    )


@given(terms())
@settings(max_examples=200, deadline=None)
def test_parse_print_roundtrip(t):
    assert alpha_eq(parse_term(print_term(t)), t)


@given(terms())
@settings(max_examples=100, deadline=None)
def test_substitute_respects_alpha(t):
    u = Lam("q", Var("q"))
    renamed = parse_term(print_term(t))  # alpha-equal copy
    assert alpha_eq(substitute(t, "x", u), substitute(renamed, "x", u))


@given(terms())
@settings(max_examples=200, deadline=None)
def test_free_vars_is_a_stored_fact(t):
    # the first call stores the fact record on t and its inner nodes; the
    # second reads it back, at the root and at every subterm
    assert free_vars(t) == reference_free_vars(t)
    for u in _subterms(t):
        assert free_vars(u) == reference_free_vars(u)
        assert isinstance(free_vars(u), frozenset)
    if not isinstance(t, (Var, type(CONST))):
        assert t.__dict__["_facts"][0] is free_vars(t)


def test_free_vars_cannot_be_mutated():
    t = parse_term(r"\y. x y z")
    with pytest.raises(AttributeError):
        free_vars(t).add("w")
    assert free_vars(t) == {"x", "z"}


def test_free_vars_shares_a_child_set():
    t = parse_term(r"\y. (x z) x")
    # the lambda binds nothing free below it, and the right child adds nothing
    assert free_vars(t) is free_vars(t.body) is free_vars(t.body.fun)
    # a variable leaf keeps no entry
    leaf = t.body.arg
    free_vars(leaf)
    assert "_facts" not in leaf.__dict__


@given(terms(cbv=True))
@settings(max_examples=200, deadline=None)
def test_fact_record_matches_recursive_references(t):
    # `shared` reaches t through both children, so the pass meets t twice
    shared = App(t, t)
    for u in [shared] + _subterms(t):
        assert free_vars(u) == reference_free_vars(u)
        assert free_names(u) == reference_free_names(u)
        assert contains_cbv(u) == reference_contains_cbv(u)
        assert stored_shape_hash(u) == reference_shape_hash(u)
    if not isinstance(t, (Var, type(CONST))):
        assert free_vars(shared) is free_vars(t)
        assert free_names(shared) is free_names(t)


@given(terms(), terms())
@settings(max_examples=300, deadline=None)
def test_alpha_eq_matches_a_recursive_reference(t, u):
    renamed = parse_term(print_term(t))
    pairs = [
        (t, u), (t, renamed), (Lam("x", t), Lam("y", renamed)),
        (Lam("x", Lam("y", t)), Lam("y", Lam("x", renamed))),
        (App(t, Lam("z", u)), App(renamed, Lam("x", u))),
    ]
    for left, right in pairs:
        assert alpha_eq(left, right) == reference_alpha_eq(left, right)


def _chain(var, depth, body):
    """`\\var_1. ... \\var_depth. body`, built from the inside out."""
    for i in reversed(range(1, depth + 1)):
        body = Lam(f"{var}_{i}", body)
    return body


def test_term_core_survives_10000_nested_lambdas():
    """The fact record pass, the redex scan, `alpha_eq` and every walk that
    rebuilds or prints a term keep explicit stacks, so 10,000 nested lambdas
    and a 10,000-deep application spine fit in the default recursion limit.
    Each expected value is built by hand from the definitions, and compared
    through its printed form, since dataclass `==` recurses."""
    depth = 10_000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        spine = _chain("x", depth, Var("x_1"))
        t = Nu(a, spine)
        assert free_vars(t) == set() and free_names(t) == set()
        assert not contains_cbv(t)
        h = hash(("v",))
        for _ in range(depth):
            h = hash(("l", h))
        assert stored_shape_hash(t) == hash(("n", "a", h))
        result, trace = pnf(Nu(a, _chain("x", depth, Var("x_1"))))
        assert [s.rule for s in trace] == ["not-nu"] and alpha_eq(result, spine)
        left, right = _chain("x", depth, Var("x_1")), _chain("y", depth, Var("y_1"))
        assert alpha_eq(left, right)
        assert not alpha_eq(left, _chain("y", depth, Var("y_2")))
        result, trace = pnf(Nu(a, Choice(left, right, a, 0)))
        assert [s.rule for s in trace] == ["i", "not-nu"] and result is left

        # w occurs twice under the lambdas, once inside a generator on b
        nested = Nu(a, _chain("x", depth, parse_term("w (x_1 (+a.0) (nu b. w))")))
        binders = "".join(f"\\x_{i}. " for i in range(1, depth + 1))
        assert print_term(nested) == f"nu a. {binders}w (x_1 (+a.0) (nu b. w))"
        opened = "".join(f"(\\${i}. " for i in range(depth))
        assert canonical_str(nested) == (
            f"(nu a. {opened}(w ($0 (+a.0) (nu b. w)))" + ")" * depth + ")"
        )
        assert bound_names(nested) == {a, b}
        assert count_free_occurrences(nested, "w") == 2
        assert count_free_occurrences(nested, "x_1") == 0
        # a payload with a generator lands twice, so the second copy is a variant
        u = parse_term("nu b. y (+b.0) z")
        assert print_term(substitute(nested, "w", u)) == (
            f"nu a. {binders}(nu b. y (+b.0) z) "
            "(x_1 (+a.0) (nu b. nu b~2. y (+b~2.0) z))"
        )
        # x_5 would be captured by the fifth binder, which becomes x_5'
        captured = substitute(nested.body, "w", Var("x_5"))
        assert print_term(captured) == binders.replace("x_5.", "x_5'.") + (
            "x_5 (x_1 (+a.0) (nu b. x_5))"
        )
        assert print_term(variant_copy(nested, 3)) == (
            f"nu a~3. {binders}w (x_1 (+a~3.0) (nu b~3. w))"
        )
        assert rename_names(nested, {}, lambda n: n) is nested
        # the outer nu shields its scope from the bits on a
        assert project(nested, {a}, {(a, 0): 1}) is nested
        assert print_term(project(nested.body, {a}, {(a, 0): 1})) == f"{binders}w x_1"

        app = Var("w")
        for _ in range(depth):
            app = App(app, Choice(Var("x"), Var("y"), a, 0))
        assert print_term(app) == "w" + " (x (+a.0) y)" * depth
        assert canonical_str(app) == "(" * depth + "w" + " (x (+a.0) y))" * depth
        assert bound_names(app) == set() and variant_copy(app, 2) is app
        assert count_free_occurrences(app, "x") == depth
        for bit, side in ((1, "z"), (0, "y")):
            picked = project(substitute(app, "x", Var("z")), {a}, {(a, 0): bit})
            assert print_term(picked) == "w" + f" {side}" * depth
    finally:
        sys.setrecursionlimit(limit)


@given(terms())
@settings(max_examples=100, deadline=None)
def test_substitute_without_a_free_hit_returns_the_term(t):
    for x in ("x", "y", "z", "w"):
        if x not in reference_free_vars(t):
            assert substitute(t, x, Lam("q", Var("q"))) is t


@given(terms())
@settings(max_examples=200, deadline=None)
def test_count_free_occurrences_matches_a_full_walk(t):
    # the count skips subterms whose stored free variables lack x, and stays
    # exact: transport reads it to number the copies of a duplicated payload
    for x in ("x", "y", "z", "w"):
        assert count_free_occurrences(t, x) == reference_count_free_occurrences(t, x)


# Each walk against its recursive reference in `helpers`, compared with `==`:
# every fresh variable, fresh name and copy-variant name must come out the same

_PRIMED = ("x", "y", "y'", "y''", "z")
_SUFFIXED = ("a", "a_1", "a_2", "b")


@given(terms(cbv=True))
@settings(max_examples=300, deadline=None)
def test_printers_match_their_references(t):
    assert print_term(t) == reference_print_term(t)
    assert canonical_str(t) == reference_canonical_str(t)
    assert bound_names(t) == reference_bound_names(t)


@given(
    terms(cbv=True, variables=_PRIMED, names=_SUFFIXED),
    terms(depth=3, cbv=True, variables=_PRIMED, names=_SUFFIXED),
)
@settings(max_examples=300, deadline=None)
def test_substitute_matches_its_reference(t, u):
    # primed variables and suffixed names make the fresh-variable and
    # fresh-name loops collide; a payload with binders is copied under
    # variant names when it lands more than once
    for x in ("x", "y", "y'"):
        assert substitute(t, x, u) == reference_substitute(t, x, u)
        for start, duplicating in ((0, True), (2, True), (1, False)):
            assert substitute_indexed(t, x, u, start, duplicating) == (
                reference_substitute_indexed(t, x, u, start, duplicating)
            )


@pytest.mark.parametrize(
    "body, x, payload",
    [
        # an inner binder is named like the fresh variable of an outer one
        (r"\y. \y'. x y y'", "x", "y"),
        (r"\y. \y'. \y''. x y y' y''", "x", "y y'"),
        (r"\y''. \y. \y'. x y y' y''", "x", "y y'''"),
        (r"\y. nu a. \y'. x y (y' (+a.0) y)", "x", "y (u (+a.0) v)"),
        # duplicating substitutions whose payload holds generators
        (r"x (\y. x y) (nu a. x (+a.0) x)", "x", r"nu a. \y. y (+a.0) z"),
        (r"nu a. x (+a.0) (nu a_1. x (+a_1.0) x)", "x", "nu a. (u (+a.0) v) (+a_1.0) w"),
    ],
)
def test_substitute_capture_chains_match_the_reference(body, x, payload):
    t, u = parse_term(body), parse_term(payload)
    out = substitute(t, x, u)
    assert out == reference_substitute(t, x, u)
    assert alpha_eq(parse_term(print_term(out)), out)


_NAMES = st.sampled_from([a, b, Name("c")])
_BITS = st.dictionaries(st.tuples(_NAMES, st.integers(0, 2)), st.integers(0, 1))


@given(terms(cbv=True), _BITS, st.sets(_NAMES))
@settings(max_examples=300, deadline=None)
def test_project_matches_its_reference(t, bits, names):
    # a nu that rebinds a projected name shields its scope; a missing bit
    # raises in both, on the same choice
    try:
        expected = reference_project(t, names, bits)
    except UndefinedBitError as error:
        with pytest.raises(UndefinedBitError, match=re.escape(str(error))):
            project(t, names, bits)
    else:
        assert project(t, names, bits) == expected


def test_project_under_a_shadowing_nu():
    t = parse_term("nu b. (x (+a.0) y) (+b.0) (nu a. z (+a.0) w)")
    out = project(t, {a}, {(a, 0): 1})
    assert out == reference_project(t, {a}, {(a, 0): 1})
    assert print_term(out) == "nu b. x (+b.0) (nu a. z (+a.0) w)"


@given(terms(cbv=True, names=_SUFFIXED), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_renaming_walks_match_their_references(t, k):
    a1 = Name("a_1")
    assert variant_copy(t, k) == reference_variant_copy(t, k)
    env = {a: a1, b: a}

    def rebind(n):
        return copy_variant_name(n, k) if n is a else n

    assert rename_names(t, env, rebind) == reference_rename_names(t, env, rebind)
    if isinstance(t, Nu) and a1 not in reference_bound_names(t):
        assert rename_bound_name(t, a1) == Nu(
            a1, reference_rename_names(t.body, {t.name: a1}, lambda n: n)
        )


# Edges of the term core, with values worked out by hand from the definitions


def test_fresh_name_skips_a_taken_candidate(capsys):
    # nu-fun lifts the generator over an argument that uses a and a_1 freely,
    # so the binder must avoid both: the first free candidate is a_2
    code = run(["reduce", "--fuel", "1", r"(nu a. \z. z) (\w. w (+a.0) w (+a_1.0) w)"])
    assert code == 0
    out = capsys.readouterr().out
    assert out == "nu a_2. (\\z. z) (\\w. (w (+a.0) w) (+a_1.0) w)\n"


def test_fresh_var_skips_a_taken_candidate():
    # y would capture the payload's y, and y' is free in the body and in the
    # payload, so the binder becomes y''
    out = substitute(parse_term(r"\y. x y'"), "x", parse_term("y y'"))
    assert print_term(out) == "\\y''. y y' y'"


def test_canonical_str_of_the_constant(capsys):
    # the fair choice splits the mass between #c and a lambda over #c, whose
    # binder is renamed positionally to $0
    assert run(["dist", "--json", r"nu a. #c (+a.0) (\x. #c)"]) == 0
    assert json.loads(capsys.readouterr().out) == {"#c": "1/2", "(\\$0. #c)": "1/2"}


def test_variant_names_reparse():
    body = App(Var("x"), Var("x"))
    payload = parse_term("nu a. u (+a.0) v")
    out = substitute(body, "x", payload)
    assert alpha_eq(parse_term(print_term(out)), out)


FACT_TEXT = r"nu c. (\x. {x} (y (+c.0) z)) (+d.1) w"


def _query_facts(t):
    free_names(t)
    stored_shape_hash(t)
    canonical_str(t)
    contains_cbv(t)


def test_term_facts_die_with_the_term():
    t = parse_term(FACT_TEXT)
    inner = t.body.left.body
    _query_facts(t)
    _query_facts(inner)
    refs = [weakref.ref(t), weakref.ref(inner)]
    del t, inner
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_term_facts_leave_identity_unchanged():
    t = parse_term(FACT_TEXT)
    _query_facts(t)
    fresh = parse_term(FACT_TEXT)
    assert t == fresh
    assert hash(t) == hash(fresh)
    assert repr(t) == repr(fresh)
    assert free_names(t) == {Name("d")}
    assert contains_cbv(t)
    assert not contains_cbv(t.body.right)


# Each probe process first interns names in its own order, then prints the
# results that used to depend on that order: the plus-plus tie between free
# names, the fresh name of a nu-binder in substitution, a distribution, and
# mu-star's default name order.
_PROBE = """
import json, sys
from lampe.formulas import parse_formula
from lampe.terms import Name
{history}
sys.path.insert(0, sys.argv[1])
from helpers import int_identity
from lampe.distribution import distribution
from lampe.formulas import And, Atom
from lampe.rewrite import pnf
from lampe.terms import parse_term, print_term, substitute
from lampe.typesys import apply_mu_star, derivation_to_json

a, b = Name("a"), Name("b")
normal, _ = pnf(parse_term("nu b. nu a. (x (+a.0) y) (+b.0) (z (+a.1) w)"))
star = apply_mu_star(int_identity({{a, b}}, And(Atom(a, 0), Atom(b, 0))))
out = {{
    "pnf": print_term(pnf(parse_term("(x (+a.0) y) (+b.0) z"))[0]),
    "substitute": print_term(
        substitute(parse_term("nu a. x (+a.0) y"), "x", parse_term("u (+a.0) v"))
    ),
    "distribution": [[print_term(t), str(w)] for t, w in distribution(normal).items()],
    "mu-star": derivation_to_json(star),
}}
print(json.dumps(out, sort_keys=True))
"""

_HISTORIES = [
    "",
    "parse_formula('a.0 & b.0')",
    "parse_formula('b.0 & a.0')",
    "Name('a_1'); Name('b_1')",
]


def test_output_does_not_depend_on_interning_history():
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(here), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    outputs = []
    for history in _HISTORIES:
        done = subprocess.run(
            [sys.executable, "-c", _PROBE.format(history=history), here],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout))
    assert outputs[0]["pnf"] == "(x (+b.0) z) (+a.0) (y (+b.0) z)"
    assert outputs[0]["substitute"] == "nu a_1. (u (+a.0) v) (+a_1.0) y"
    for out in outputs[1:]:
        assert out == outputs[0]
