import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lampe.formulas as fm
from lampe.errors import (
    ParseError,
    SideConditionError,
    TooManyAtomsError,
    UndefinedBitError,
)
from lampe.formulas import (
    And,
    Atom,
    BOT,
    Not,
    Or,
    TOP,
    _one_manager,
    atoms,
    conj,
    disj,
    entails,
    equivalent,
    eval_formula,
    measure,
    parse_formula,
    print_formula,
    rename_formula_names,
    satisfiable,
)
from lampe.terms import Name

a = Name("a")
b = Name("b")


def truth_table(*fs):
    """Reference oracle: every valuation of the atoms occurring in fs."""
    keys = sorted(set().union(*map(atoms, fs)), key=lambda ni: (ni[0].text, ni[1]))
    for bits in itertools.product((0, 1), repeat=len(keys)):
        yield dict(zip(keys, bits))


def test_eval_basic():
    f = And(Atom(a, 0), Not(Atom(a, 1)))
    assert eval_formula(f, {(a, 0): 1, (a, 1): 0}) is True
    assert eval_formula(BOT, {}) is False
    g = Or(And(Atom(a, 0), Atom(b, 0)), Not(Atom(a, 0)))
    assert eval_formula(g, {(a, 0): 0, (b, 0): 1}) is True


def test_eval_missing_bit():
    with pytest.raises(UndefinedBitError):
        eval_formula(Atom(a, 0), {})


def test_measure_fixed_points():
    assert measure(parse_formula("a.0")) == Fraction(1, 2)
    assert measure(parse_formula("a.0 & b.0")) == Fraction(1, 4)
    assert measure(parse_formula("a.0 | b.0")) == Fraction(3, 4)
    assert measure(TOP) == 1
    assert measure(BOT) == 0


def test_measure_cap():
    edge = [Atom(a, i) for i in range(24)]
    assert measure(conj(edge)) == Fraction(1, 2**24)
    assert measure(disj(edge)) == 1 - Fraction(1, 2**24)
    for n in (25, 30):
        with pytest.raises(TooManyAtomsError):
            measure(conj(Atom(a, i) for i in range(n)))


def test_entails_cap_counts_union():
    left = conj(Atom(a, i) for i in range(13))
    right = conj(Atom(b, i) for i in range(13))
    with pytest.raises(TooManyAtomsError):
        entails(left, right)


def test_entails_examples():
    assert entails(parse_formula("a.0 & a.1"), parse_formula("a.0"))
    assert not entails(parse_formula("a.0"), BOT)
    assert entails(
        parse_formula("a.0"), parse_formula("(a.0 & a.0) | (!a.0 & F)")
    )


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("a.0 &", "unexpected end of formula", 5),
        ("", "unexpected end of formula", 0),
        ("(a.0 | b.1", "expected ')'", 10),
        ("a.0 b.0", "trailing input in formula", 4),
        ("T.0", "trailing input in formula", 1),
        ("Tx", "unexpected character 'T' in formula", 0),
        ("a.x", "unexpected character 'a' in formula", 0),
        ("!)", "unexpected character ')' in formula", 1),
        ("a.0 & | b.0", "unexpected character '|' in formula", 6),
    ],
)
def test_formula_parse_error_table(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_formula(text)
    assert (info.value.message, info.value.position) == (message, position)


def test_formula_roundtrip():
    for text in ["T", "F", "a.0", "!a.0 & (b.1 | a.0)", "a.0 & b.0 & !c.2"]:
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f


_KINDS = ("top", "bot", "atom", "not", "and", "or")


@st.composite
def formulas(draw, depth=3, names=("a", "b", "c"), kinds=_KINDS):
    if depth == 0:
        kind = draw(st.sampled_from(["top", "bot", "atom"]))
    else:
        kind = draw(st.sampled_from(kinds))
    if kind == "top":
        return TOP
    if kind == "bot":
        return BOT
    if kind == "atom":
        return Atom(
            Name(draw(st.sampled_from(names))),
            draw(st.integers(min_value=0, max_value=2)),
        )
    if kind == "not":
        return Not(draw(formulas(depth - 1, names, kinds)))
    left = draw(formulas(depth - 1, names, kinds))
    right = draw(formulas(depth - 1, names, kinds))
    return And(left, right) if kind == "and" else Or(left, right)


# up to 4 names x 3 indices, depth 5: the reference stays at <= 4096 rows
wide_formulas = formulas(depth=5, names=("a", "b", "c", "d"))


@given(formulas())
@settings(max_examples=150, deadline=None)
def test_negation_measure(f):
    assert measure(Not(f)) == 1 - measure(f)


@given(formulas(), formulas())
@settings(max_examples=150, deadline=None)
def test_inclusion_exclusion(f, g):
    assert measure(Or(f, g)) + measure(And(f, g)) == measure(f) + measure(g)


@given(formulas(), formulas())
@settings(max_examples=100, deadline=None)
def test_independent_names_multiply(f, g):
    f_names = {n for n, _ in atoms(f)}
    g_names = {n for n, _ in atoms(g)}
    if f_names & g_names:
        return
    assert measure(And(f, g)) == measure(f) * measure(g)


@given(wide_formulas, wide_formulas)
@settings(max_examples=150, deadline=None)
def test_equivalence_matches_truth_tables(f, g):
    agree = all(eval_formula(f, v) == eval_formula(g, v) for v in truth_table(f, g))
    assert equivalent(f, g) == agree
    assert (entails(f, g) and entails(g, f)) == agree


@given(wide_formulas, wide_formulas)
@settings(max_examples=150, deadline=None)
def test_oracle_matches_truth_tables(f, g):
    rows = [(eval_formula(f, v), eval_formula(g, v)) for v in truth_table(f, g)]
    assert measure(f) == Fraction(sum(x for x, _ in rows), len(rows))
    assert satisfiable(f) == any(x for x, _ in rows)
    assert entails(f, g) == all(y for x, y in rows if x)


# mostly `Or` and `Not`, which compile through `disj` and `neg`; three names,
# so that a partner with one name renamed stays within 4 x 3 atoms
or_not_formulas = formulas(
    depth=5, names=("a", "b", "c"), kinds=("atom", "not", "or", "or", "and")
)


@given(or_not_formulas, or_not_formulas)
@settings(max_examples=150, deadline=None)
def test_oracle_or_not_heavy_formulas_match_truth_tables(f, g):
    assert _answers(f, g) == _table_answers(f, g)
    # h has atoms that f lacks
    h = rename_formula_names(g, {Name("c"): Name("z")})
    assert _answers(f, h) == _table_answers(f, h)
    assert _answers(h, f) == _table_answers(h, f)


def test_oracle_entails_finds_the_counterexample_down_either_edge():
    # a.0 comes first by name and by first appearance, so in the first two
    # queries it is the top atom whichever order a manager uses
    a0, b0 = Atom(a, 0), Atom(b, 0)
    assert not entails(Or(a0, b0), a0)  # a.0 = 0, b.0 = 1: low edge of a.0
    assert not entails(Or(a0, b0), b0)  # a.0 = 1, b.0 = 0: high edge of a.0
    assert not entails(Or(b0, a0), And(a0, Or(Not(a0), b0)))
    assert entails(And(a0, b0), Or(a0, Atom(Name("z"), 3)))
    assert not entails(a0, Atom(Name("z"), 3))
    assert not entails(a0, And(a0, Atom(Name("z"), 3)))
    assert entails(And(a0, Atom(Name("z"), 3)), Atom(Name("z"), 3))


@given(wide_formulas)
@settings(max_examples=100, deadline=None)
def test_oracle_entails_edges(f):
    sat = satisfiable(f)
    assert entails(f, BOT) == (not sat)
    assert entails(TOP, f) == (measure(f) == 1)
    assert entails(f, f)
    assert entails(BOT, f)
    assert entails(f, TOP)


def _mirror(f):
    """f with the operands of every `And` and `Or` swapped, so that a
    left-to-right walk meets its atoms in reverse order."""
    if isinstance(f, Not):
        return Not(_mirror(f.arg))
    if isinstance(f, (And, Or)):
        return type(f)(_mirror(f.right), _mirror(f.left))
    return f


@given(wide_formulas, wide_formulas)
@settings(max_examples=100, deadline=None)
def test_oracle_answers_do_not_depend_on_atom_order(f, g):
    expected = _answers(f, g)
    assert _answers(_mirror(f), _mirror(g)) == expected
    assert _one_manager(_answers)(f, g) == expected
    assert _one_manager(_answers)(_mirror(f), _mirror(g)) == expected
    ent, back = entails(f, g), entails(g, f)
    assert _answers(g, f)[2:] == (back, ent and back)


def test_rename_formula_names_goes_through_every_connective():
    f = parse_formula("!(a.0 & b.1) | a.2 & !(c.0 | b.0)")
    out = rename_formula_names(f, {a: Name("x"), Name("c"): Name("y")})
    assert out == parse_formula("!(x.0 & b.1) | x.2 & !(y.0 | b.0)")
    assert rename_formula_names(f, {}) == f
    assert rename_formula_names(TOP, {a: b}) is TOP


@given(formulas())
@settings(max_examples=100, deadline=None)
def test_measure_superset_independence(f):
    # adding an unused atom does not change the measure
    padded = Or(And(f, Atom(Name("zpad"), 0)), And(f, Not(Atom(Name("zpad"), 0))))
    assert measure(padded) == measure(f)


def _answers(f, g):
    return measure(f), satisfiable(f), entails(f, g), equivalent(f, g)


def _table_answers(f, g):
    rows = [(eval_formula(f, v), eval_formula(g, v)) for v in truth_table(f, g)]
    agree = all(x == y for x, y in rows)
    return (
        Fraction(sum(x for x, _ in rows), len(rows)),
        any(x for x, _ in rows),
        all(y for x, y in rows if x),
        agree,
    )


_TEMPORARIES = (
    lambda f, g: And(f, g),
    lambda f, g: Or(f, g),
    lambda f, g: And(f, Not(g)),
    lambda f, g: Not(And(g, f)),
)


def _pair_queries(pairs, answers):
    # each temporary is dropped right after its queries, so that its id is
    # free for the next one
    out = []
    for f, g in pairs:
        out.append(answers(f, g))
        for make in _TEMPORARIES:
            out.append(answers(make(f, g), g))
    return out


@given(st.lists(wide_formulas, min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_shared_manager_matches_standalone_queries(fs):
    pairs = list(zip(fs, fs[1:]))
    expected = _pair_queries(pairs, _table_answers)
    assert _pair_queries(pairs, _answers) == expected

    @_one_manager
    def shared():
        assert isinstance(fm._OPEN.get(), fm._SharedBDD)
        # the second round reads formulas and nodes the first one left
        return _pair_queries(pairs, _answers), _pair_queries(pairs, _answers)

    assert shared() == (expected, expected)
    assert fm._OPEN.get() is None


def test_shared_manager_caps_each_query_not_the_total():
    @_one_manager
    def queries():
        left = conj(Atom(a, i) for i in range(20))
        right = conj(Atom(b, i) for i in range(20))
        assert measure(left) == Fraction(1, 2**20)
        assert entails(right, Atom(b, 19))
        assert len(fm._OPEN.get()._var_level) == 40
        with pytest.raises(TooManyAtomsError):
            measure(conj(Atom(Name("c"), i) for i in range(25)))
        with pytest.raises(TooManyAtomsError):
            entails(left, right)
        return measure(right)

    assert queries() == Fraction(1, 2**20)
    assert fm._OPEN.get() is None


def test_no_manager_stays_open_after_a_raise():
    from helpers import D, J
    from lampe.terms import parse_term
    from lampe.typesys import CBV, Arrow, O, check_derivation

    bad = D("or", J((), {a}, parse_term("OMEGA"), parse_formula("a.0"), Arrow(O, O)))
    with pytest.raises(SideConditionError):
        check_derivation(bad, CBV)
    assert fm._OPEN.get() is None

    @_one_manager
    def fails():
        opened = fm._OPEN.get()
        assert opened is not None
        inner = _one_manager(fm._OPEN.get)()  # a nested call joins
        assert inner is opened
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        fails()
    assert fm._OPEN.get() is None
