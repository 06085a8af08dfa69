import itertools
import operator
import random
import sys
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
    disjoint,
    entails,
    equivalent,
    eval_formula,
    format_rational,
    measure,
    parse_formula,
    print_formula,
    rename_formula_names,
    satisfiable,
)
from lampe.terms import Name
from helpers import (
    random_formula,
    reference_disjoint,
    reference_print_formula,
    reference_walk_atoms,
)

a = Name("a")
b = Name("b")


def truth_table(*fs):
    """Reference oracle: every valuation of the atoms occurring in fs."""
    keys = sorted(reference_walk_atoms(*fs), key=lambda ni: (ni[0].text, ni[1]))
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
        # T and F are constants only when no word character follows them
        ("Tx.1", "unexpected character 'T' in formula", 0),
        ("a.0 & F1", "unexpected character 'F' in formula", 6),
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


@given(formulas(depth=6))
@settings(max_examples=300, deadline=None)
def test_print_formula_matches_its_reference(f):
    assert print_formula(f) == reference_print_formula(f)
    assert parse_formula(print_formula(f)) is f


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


# ---------------------------------------------------------------------------
# The manager retained between standalone queries


def _retained():
    return fm._RETAINED.get()


def _subformulas(*fs):
    """Every subformula of fs, once per occurrence."""
    out, stack = [], list(fs)
    while stack:
        h = stack.pop()
        out.append(h)
        if isinstance(h, Not):
            stack.append(h.arg)
        elif isinstance(h, (And, Or)):
            stack += (h.left, h.right)
    return out


def test_oracle_pair_queries_compile_each_operand_once(monkeypatch):
    f = parse_formula("(a.0 | !b.1) & (c.2 | a.1) & !(b.0 & c.0)")
    g = parse_formula("(a.0 | b.1 | c.2) & (!a.1 | b.0)")
    mu, _, ent, equiv = _table_answers(f, g)
    filled, compiled = [], []
    fill, init = fm._fill_atoms, fm._SharedBDD.__init__

    class Recording(dict):
        def __setitem__(self, key, value):
            compiled.append(value[0])
            super().__setitem__(key, value)

    def spy_fill(root):
        filled.append(root)
        return fill(root)

    def spy_init(bdd):
        init(bdd)
        bdd._built = Recording()

    monkeypatch.setattr(fm, "_fill_atoms", spy_fill)
    monkeypatch.setattr(fm._SharedBDD, "__init__", spy_init)
    answers = measure(f), entails(f, g), equivalent(f, g)
    manager = _retained()
    assert answers == (mu, ent, equiv)
    # each operand's atoms are found once, and then read from its fact
    assert filled == [f, g]
    assert f._atoms == set(reference_walk_atoms(f))
    assert g._atoms == set(reference_walk_atoms(g))
    # each distinct node of f and g is compiled once, also one that several
    # parents ask for: equal subformulas, such as a repeated atom, are one
    # node
    occurrences = _subformulas(f, g)
    assert len(compiled) == len({id(h) for h in compiled})
    assert {id(h) for h in compiled} == {id(h) for h in occurrences}
    assert len(compiled) < len(occurrences)
    # one manager answered all three, with levels in first-met order
    assert list(manager._var_level) == list(reference_walk_atoms(f, g))
    assert manager._built[id(f)][0] is f and manager._built[id(g)][0] is g


def test_oracle_new_first_operand_opens_a_new_manager():
    f, g, h = (parse_formula(t) for t in ("a.0 & b.0", "a.0 | c.1", "a.0 & b.0"))
    # equal texts parse to one node
    assert h is f
    measure(f)
    first = _retained()
    assert entails(f, g) and _retained() is first
    # g was met as an operand, so a query led by it joins too
    assert not entails(g, f) and _retained() is first
    assert measure(h) == Fraction(1, 4) and _retained() is first
    # an equivalent formula of another structure is another node, which
    # the manager has not met
    h = parse_formula("b.0 & a.0")
    assert measure(h) == Fraction(1, 4)
    second = _retained()
    assert second is not first and list(second._var_level) == [(b, 0), (a, 0)]


def test_oracle_run_of_queries_past_the_cap_stays_exact_and_capped():
    # each formula reads four atoms of its own and one of the one before, so
    # every query's atoms fit the cap while the run's atoms do not
    def chain_formula(i):
        p = [Atom(Name(f"n{i}"), k) for k in range(4)]
        prev = Atom(Name(f"n{i - 1}"), 3)
        return Or(And(p[0], Not(p[1])), And(Or(p[2], prev), Not(And(p[3], p[0]))))

    chain = [chain_formula(i) for i in range(12)]
    managers = []
    for f, g in zip(chain, chain[1:]):
        got = []
        for query, operands in (
            (measure, (f,)),
            (satisfiable, (f,)),
            (entails, (f, g)),
            (equivalent, (f, g)),
        ):
            got.append(query(*operands))
            assert len(_retained()._var_level) <= fm.ATOM_CAP
            managers.append(_retained())
        assert tuple(got) == _table_answers(f, g)
        # measure(f) and satisfiable(f) share a manager, and so do the two
        # queries over (f, g), even when the first of them opened a new one
        assert managers[-4] is managers[-3] and managers[-2] is managers[-1]
    assert len(set().union(*map(atoms, chain))) > fm.ATOM_CAP
    # the run reused a manager and also had to replace one
    assert len(set(map(id, managers))) not in (1, len(managers))


def test_oracle_raising_query_drops_the_retained_manager(monkeypatch):
    f = parse_formula("a.0 | b.1")
    wide = conj(Atom(Name("w"), i) for i in range(fm.ATOM_CAP + 1))
    for query in (lambda: measure(wide), lambda: entails(f, wide)):
        # an earlier test may have measured f, whose measure is then read
        # from its fact without a manager, and identity settles entails(f, f)
        # without one: satisfiable reaches one
        assert satisfiable(f) and _retained() is not None
        with pytest.raises(TooManyAtomsError):
            query()
        assert _retained() is None

    # an error inside `build`, after `_node` has grown the node lists but
    # before it has written the unique table
    g = parse_formula("(a.0 & c.0) | !b.1")
    assert satisfiable(f)
    half_updated = _retained()
    assert half_updated is not None

    def broken(bdd, level, low, high):
        bdd._level.append(level)
        raise RuntimeError("interrupted")

    with monkeypatch.context() as patch:
        patch.setattr(fm._SharedBDD, "_node", broken)
        with pytest.raises(RuntimeError, match="interrupted"):
            entails(f, g)
    assert _retained() is None
    assert entails(f, g) == _table_answers(f, g)[2]
    assert satisfiable(f) and _retained() is not half_updated


def test_oracle_raising_query_drops_the_manager_in_a_copied_context(monkeypatch):
    import contextvars

    # a manager retained by an earlier query may have compiled g already,
    # and then the patched `_node` below would never be reached
    fm._RETAINED.set(None)
    f = parse_formula("a.0 | b.1")
    g = parse_formula("(a.0 & c.0) | !b.1")
    assert satisfiable(f)
    half_updated = _retained()
    assert half_updated is not None
    # a copy of this context, run in this thread, holds the same manager
    copied = contextvars.copy_context()

    def broken(bdd, level, low, high):
        bdd._level.append(level)
        raise RuntimeError("interrupted")

    with monkeypatch.context() as patch:
        patch.setattr(fm._SharedBDD, "_node", broken)
        with pytest.raises(RuntimeError, match="interrupted"):
            entails(f, g)

    def in_copy():
        assert _retained() is half_updated
        answer = entails(f, g)
        assert _retained() is not half_updated
        return answer

    assert copied.run(in_copy) == _table_answers(f, g)[2]


def test_oracle_run_led_by_one_operand_keeps_one_pair():
    # fresh second operands behind one first operand: the retained manager
    # holds at most the current pair, so neither its operands nor its nodes
    # pile up over the run
    x = parse_formula("(a.0 | b.0) & (c.0 | !a.1)")
    sizes = []
    for i in range(200):
        y = Or(And(Atom(a, i % 6), Not(Atom(b, i % 5))), Atom(Name("c"), i % 4))
        assert entails(x, y) == _table_answers(x, y)[2]
        manager = _retained()
        assert len(manager._walked) <= 2
        assert len(manager._var_level) <= len(atoms(x) | atoms(y))
        sizes.append(len(manager._level))
    assert max(sizes) <= 2 + 2 ** (len(atoms(x)) + 3)


def test_oracle_other_thread_gets_its_own_manager():
    import contextvars
    import threading

    f = parse_formula("a.0 & !b.0")
    assert measure(f) == Fraction(1, 4)
    mine = _retained()

    def other(seen):
        seen["before"] = _retained()
        seen["answer"] = measure(f), entails(f, Atom(a, 0))
        seen["after"] = _retained()

    # a new thread starts with no manager; one that runs a copy of this
    # context starts with this thread's, and must not build in it
    copied = contextvars.copy_context()
    for run, before in ((other, None), (lambda seen: copied.run(other, seen), mine)):
        seen = {}
        thread = threading.Thread(target=run, args=(seen,))
        thread.start()
        thread.join()
        assert seen["before"] is before
        assert seen["answer"] == (Fraction(1, 4), True)
        assert seen["after"] is not None and seen["after"] is not mine
        assert _retained() is mine


# ---------------------------------------------------------------------------
# Interned formula nodes


def test_oracle_intern_equal_texts_parse_to_one_node():
    text = "(a.0 & !b.1) | (a.0 & !b.1) | !!c.2"
    f = parse_formula(text)
    assert parse_formula(text) is f
    assert parse_formula(print_formula(f)) is f
    # equal subformulas of one formula are one node too
    assert f.left.left is f.left.right
    assert Not(Not(Atom(Name("c"), 2))) is f.right
    assert Atom(a, 0) is f.left.left.left


def test_oracle_intern_renaming_that_touches_nothing_returns_the_node():
    f = parse_formula("(a.0 | !b.1) & !(a.2 & b.0)")
    assert rename_formula_names(f, {}) is f
    assert rename_formula_names(f, {Name("zz"): Name("yy")}) is f
    there = rename_formula_names(f, {a: Name("x")})
    assert there is not f and rename_formula_names(there, {Name("x"): a}) is f


def test_oracle_intern_equal_conj_and_disj_results_are_one_node():
    texts = ("a.0 | b.1", "!c.2", "a.0 & b.0")
    for join, op in ((conj, "&"), (disj, "|")):
        first = join(parse_formula(t) for t in texts)
        assert join(parse_formula(t) for t in texts) is first
        assert parse_formula(f" {op} ".join(f"({t})" for t in texts)) is first


def test_oracle_intern_table_entry_dies_with_its_node():
    import gc
    import weakref

    gc.collect()
    baseline = len(fm._INTERNED)
    # names no other formula uses, and no query, so nothing else holds it
    f = parse_formula("probe.0 & !(probe.1 | probe.0)")
    assert len(fm._INTERNED) == baseline + 5
    probe = weakref.ref(f)
    del f
    gc.collect()
    assert probe() is None and len(fm._INTERNED) == baseline


def test_oracle_intern_copies_and_replacements_are_the_node():
    import copy
    import dataclasses
    import pickle

    f = parse_formula("(a.0 | !b.1) & (c.2 | a.1)")
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(f, protocol)) is f
    assert dataclasses.replace(f) is f
    assert dataclasses.replace(f, right=f.right) is f
    g = dataclasses.replace(f, right=Atom(a, 1))
    assert g is parse_formula("(a.0 | !b.1) & a.1")
    assert dataclasses.replace(g, right=f.right) is f


def test_oracle_intern_threads_parsing_and_querying_get_truth_table_answers():
    """More threads than cores parse and query the same texts with a short
    switch interval, so they race to intern the same nodes: formulas, which
    die and are made again, and types and proof formulas, new in each round
    and kept by each worker, so every worker must get the one node of each."""
    import threading

    from lampe.proofs import formula_type, parse_proof_formula
    from lampe.typesys import parse_type

    texts = [
        f"(a.{i % 3} | !b.{i % 2}) & (c.{i % 4} | a.{(i + 1) % 3}) | !(b.{i % 3} & c.0)"
        for i in range(12)
    ]
    pairs = [(texts[i], texts[(i + 1) % len(texts)]) for i in range(len(texts))]
    expected = [
        _table_answers(parse_formula(s), parse_formula(t)) for s, t in pairs
    ]
    rounds, workers = 20, 4
    kept_texts = [
        (
            f"C[1/{r + 2}] (C[{i % 3 + 1}/7] o => ([C[1/{r + 2}] o] => C[1/{r + 3}] o))",
            f"C[1/{r + 2}] (A{i % 3} -> C[2/{r + 3}] B) -> A{i % 3}",
        )
        for r in range(rounds)
        for i in range(6)
    ]
    start = threading.Barrier(workers)
    seen = [[] for _ in range(workers)]
    kept = [[] for _ in range(workers)]

    def worker(out, keep):
        start.wait()
        for r in range(rounds):
            for s, t in pairs:
                f, g = parse_formula(s), parse_formula(t)
                out.append((measure(f), satisfiable(f), entails(f, g), equivalent(f, g)))
            for ty, pf in kept_texts[6 * r : 6 * r + 6]:
                a = parse_proof_formula(pf)
                keep.append((parse_type(ty), a, formula_type(a)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=pair) for pair in zip(seen, kept)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for out in seen:
        assert out == expected * rounds
    first = list(itertools.chain(*kept[0]))
    for keep in kept[1:]:
        nodes = list(itertools.chain(*keep))
        assert len(nodes) == len(first) and all(map(operator.is_, nodes, first))
    for (ty, pf), (t, a, ft) in zip(kept_texts, kept[0]):
        assert (t, a, ft) == (parse_type(ty), parse_proof_formula(pf), formula_type(a))


def test_oracle_flat_chains_and_not_runs_need_no_frame_per_link(capsys):
    """A left-nested run of one connective is compiled and its atoms found
    in a loop, so long flat chains pass at the default recursion limit."""
    from lampe import cli

    links = 10_000
    texts = {
        " & ".join(f"a.{i % 5}" for i in range(links)): Fraction(1, 32),
        " | ".join(f"a.{i % 5}" for i in range(links)): Fraction(31, 32),
        "!" * links + "a.0": Fraction(1, 2),
    }
    for text, mu in texts.items():
        x = parse_formula(text)
        expected = (mu, True, True)
        assert (measure(x), entails(x, x), satisfiable(x)) == expected
        # a fresh shared manager, which compiles the chain again
        shared = _one_manager(lambda: (measure(x), entails(x, x), satisfiable(x)))
        assert shared() == expected
        assert cli.run(["mu", text]) == 0
        assert cli.run(["entails", text, text]) == 0
        assert capsys.readouterr() == (f"{format_rational(mu)}\ntrue\n", "")


def test_flat_chains_and_not_runs_print_in_10000_links():
    """print_formula keeps an explicit stack, so a 10,000-link run of one
    connective prints at CPython's default recursion limit, and its text
    parses back to the same interned node."""
    links = 10_000
    texts = [
        " & ".join(f"a.{i}" for i in range(links)),
        " | ".join(f"a.{i}" for i in range(links)),
        "!" * links + "a.0",
    ]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        for text in texts:
            x = parse_formula(text)
            printed = print_formula(x)
            assert printed == text
            assert parse_formula(printed) is x
    finally:
        sys.setrecursionlimit(limit)


def test_eval_and_rename_walk_10000_link_chains():
    """eval_formula and rename_formula_names keep explicit stacks, so a
    10,000-deep `!` chain and 10,000-long `&` chains, nested to the left (as
    parsed) and to the right, evaluate and rename at CPython's default
    recursion limit."""
    links = 10_000
    x = Name("x")
    right = Atom(a, links - 1)
    for i in reversed(range(links - 1)):
        right = And(Atom(a, i), right)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        nots = parse_formula("!" * links + "a.0")
        left = parse_formula(" & ".join(f"a.{i}" for i in range(links)))
        ones = {(a, i): 1 for i in range(links)}
        assert eval_formula(nots, {(a, 0): 1}) is True
        assert eval_formula(nots, {(a, 0): 0}) is False
        for chain in (left, right):
            assert eval_formula(chain, ones) is True
            assert eval_formula(chain, {**ones, (a, links // 2): 0}) is False
        assert rename_formula_names(nots, {a: x}) is parse_formula("!" * links + "x.0")
        renamed = parse_formula(" & ".join(f"x.{i}" for i in range(links)))
        assert rename_formula_names(left, {a: x}) is renamed
        assert rename_formula_names(renamed, {x: a}) is left
        back = rename_formula_names(rename_formula_names(right, {a: x}), {x: a})
        assert back is right
        assert rename_formula_names(right, {b: x}) is right
    finally:
        sys.setrecursionlimit(limit)


def test_eval_reads_an_operand_only_when_it_decides():
    """`&` and `|` read their right operand only when the left one does not
    settle them, so a bit that the walk never reaches may be missing; a
    missing bit that it reaches raises with the atom in the text."""
    and_chain = parse_formula(" & ".join(f"a.{i}" for i in range(50)))
    or_chain = parse_formula(" | ".join(f"a.{i}" for i in range(50)))
    assert eval_formula(And(Atom(a, 0), Atom(b, 3)), {(a, 0): 0}) is False
    assert eval_formula(Or(Atom(a, 0), Atom(b, 3)), {(a, 0): 1}) is True
    assert eval_formula(Not(Or(Not(Atom(a, 0)), Atom(b, 3))), {(a, 0): 0}) is False
    # the left spine is walked first: a.0 settles the whole chain
    assert eval_formula(and_chain, {(a, 0): 0}) is False
    assert eval_formula(or_chain, {(a, 0): 1}) is True
    assert eval_formula(And(TOP, Or(BOT, Atom(a, 1))), {(a, 1): 1}) is True
    cases = [
        (And(Atom(a, 0), Atom(b, 3)), {(a, 0): 1}, "(b, 3)"),
        (Or(Atom(a, 0), Atom(b, 3)), {(a, 0): 0}, "(b, 3)"),
        (Not(And(Not(Atom(a, 0)), Atom(b, 3))), {(a, 0): 0}, "(b, 3)"),
        (and_chain, {(a, i): 1 for i in range(49)}, "(a, 49)"),
    ]
    for f, valuation, missing in cases:
        with pytest.raises(UndefinedBitError) as error:
            eval_formula(f, valuation)
        assert str(error.value) == f"E_UNDEFINED_BIT: no bit for {missing}"


# ---------------------------------------------------------------------------
# Node facts: atom sets and measures kept on the formula nodes


def _fresh_formulas(tag, seed, count=40):
    """Seeded random formulas over atoms whose names carry `tag`, so that
    no live node, and so no fact, is shared with another call."""
    rng = random.Random(seed)
    pool = [Atom(Name(f"{n}{tag}"), i) for n in "pq" for i in range(3)]
    return [random_formula(rng, pool, 5) for _ in range(count)]


def _reference_facts(f):
    found = set(reference_walk_atoms(f))
    rows = [eval_formula(f, v) for v in truth_table(f)]
    return found, {name for name, _ in found}, Fraction(sum(rows), len(rows))


@pytest.mark.parametrize("shared_first", [False, True])
@pytest.mark.parametrize("seed", [3, 17])
def test_oracle_facts_match_truth_tables_standalone_and_shared(seed, shared_first):
    fs = _fresh_formulas(f"s{seed}{int(shared_first)}", seed)
    expected = [_reference_facts(f) for f in fs]
    # a formula of constants alone may be a node made elsewhere
    fresh = [f for f, (found, _, _) in zip(fs, expected) if found]
    assert len(fresh) > len(fs) // 2
    assert all(f._atoms is None and f._measure is None for f in fresh)

    def facts():
        return [(atoms(f), fm.formula_names(f), measure(f)) for f in fs]

    runs = (_one_manager(facts), facts)
    got = [run() for run in (runs if shared_first else runs[::-1])]
    assert got[0] == got[1] == expected
    for f, (found, _, mu) in zip(fs, expected):
        assert f._atoms == found and type(f._atoms) is frozenset
        assert f._measure == mu


def test_oracle_facts_a_measure_past_the_cap_raises_every_time():
    wide = conj(Atom(Name("wide25"), i) for i in range(fm.ATOM_CAP + 1))
    message = "E_TOO_MANY_ATOMS: 25 atoms exceeds the cap of 24"
    for run in (measure, _one_manager(measure), measure):
        with pytest.raises(TooManyAtomsError) as err:
            run(wide)
        assert str(err.value) == message
        assert wide._measure is None
    # the atom set is a fact all the same
    assert len(wide._atoms) == fm.ATOM_CAP + 1


def test_oracle_facts_threads_measuring_fresh_nodes_agree():
    import sys
    import threading

    fs = _fresh_formulas("thr", 29, count=60)
    expected = [_reference_facts(f)[2] for f in fs]
    assert all(f._measure is None for f in fs if reference_walk_atoms(f))
    start = threading.Barrier(4)
    seen = [[] for _ in range(4)]

    def worker(out):
        start.wait()
        out.extend(measure(f) for f in fs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(out,)) for out in seen]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(out == expected for out in seen)
    assert [f._measure for f in fs] == expected


# ---------------------------------------------------------------------------
# Pairwise disjointness


@st.composite
def part_lists(draw):
    """One to six formulas, each drawn freely or carved out of the union of
    the ones before it, so that lists of both verdicts come up."""
    parts = []
    for f in draw(st.lists(formulas(names=("a", "b", "c")), min_size=1, max_size=6)):
        if parts and draw(st.booleans()):
            f = And(f, Not(disj(parts)))
        parts.append(f)
    return parts


@given(part_lists())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_disjoint_matches_the_entails_loop_and_truth_tables(parts):
    expected = all(
        sum(eval_formula(p, v) for p in parts) <= 1 for v in truth_table(*parts)
    )
    assert reference_disjoint(parts) == expected
    assert disjoint(parts) == expected

    @_one_manager
    def shared():
        # the open manager has met every part, in the other order, first
        for p in reversed(parts):
            satisfiable(p)
        return disjoint(parts)

    assert shared() == expected


def test_disjoint_of_fewer_than_two_parts_holds():
    wide = conj(Atom(Name("one30"), i) for i in range(30))
    assert disjoint([]) and disjoint([wide]) and reference_disjoint([wide])


def test_disjoint_checks_the_cap_where_the_entails_loop_did():
    x = Atom(Name("capx"), 0)
    first = And(x, conj(Atom(Name("capa"), i) for i in range(12)))
    second = And(Not(x), conj(Atom(Name("capb"), i) for i in range(11)))
    within = And(x, Not(x))  # no atom the two lack
    beyond = Atom(Name("capc"), 0)  # the 25th atom
    for run in (disjoint, reference_disjoint):
        # 24 atoms in all
        assert run([first, second, within])
        # an overlap met before the 25th atom decides first
        assert not run([first, x, second, beyond])
        # the 25th atom is met before the overlap
        for parts in ([first, second, beyond], [first, second, beyond, x]):
            with pytest.raises(TooManyAtomsError) as err:
                run(parts)
            assert str(err.value) == "E_TOO_MANY_ATOMS: 25 atoms exceeds the cap of 24"


def test_disjoint_leaves_the_retained_manager_as_it_found_it():
    f, g = parse_formula("a.0 & b.1"), parse_formula("a.0 | c.2")
    assert entails(f, g)
    kept = _retained()
    walked, levels, size = dict(kept._walked), dict(kept._var_level), len(kept._level)
    assert disjoint([f, Not(g)])
    assert not disjoint([g, f])
    with pytest.raises(TooManyAtomsError):
        disjoint([f, conj(Atom(Name("far"), i) for i in range(30))])
    assert fm._OPEN.get() is None and _retained() is kept and not kept._busy
    assert kept._walked == walked and kept._var_level == levels
    assert len(kept._level) == size
    # the next query on the pair still joins it
    assert satisfiable(f) and _retained() is kept
