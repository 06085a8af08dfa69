"""Questions that a shared object settles by identity.

Formulas, types and proof formulas are interned, and terms share subterms, so
the kernel answers some questions without a walk or a build: `formula_type`
keeps its type on the formula node, `entails` and `equivalent` answer a query
whose operands are one node (or a constant) without a manager, the derivation
checker compares equal context tuples before it builds maps, and `alpha_eq`
skips a shared subterm while both sides bind alike.  Each answer must be the
one a full walk gives, whatever the addresses and the hash order.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import cut_proof, random_term, reference_alpha_eq
from lampe import formulas as fm
from lampe import proofs
from lampe.errors import RuleShapeError, TooManyAtomsError
from lampe.formulas import BOT, TOP, Atom, Or, conj, entails, equivalent, parse_formula
from lampe.proofs import (
    Count,
    Implies,
    PropVar,
    formula_type,
    parse_proof_formula,
    translate,
)
from lampe.terms import (
    _EMPTY,
    App,
    Choice,
    Lam,
    Name,
    Nu,
    Var,
    alpha_eq,
    children,
    free_names,
    free_vars,
    parse_term,
    print_term,
)
from lampe.typesys import (
    _RULE_CHECKERS,
    CBV,
    O,
    Arrow,
    Counted,
    check_derivation,
    strip_prefix,
    wrap_prefix,
)

a, b = Name("a"), Name("b")


def _reference_formula_type(f):
    """formula_type by its definition, one frame per level."""
    if isinstance(f, PropVar):
        return O
    if isinstance(f, Count):
        return Counted(f.q, _reference_formula_type(f.body))
    qs, body = strip_prefix(_reference_formula_type(f.consequent))
    return wrap_prefix(qs, Arrow(_reference_formula_type(f.antecedent), body))


def test_identity_formula_type_of_equal_formulas_is_one_type_found_once(monkeypatch):
    text = "C[1/2] (Ida -> C[1/3] Idb) -> C[2/3] Ida -> Idb"
    f = parse_proof_formula(text)
    assert f._type is None
    joins = []
    strip = proofs.strip_prefix
    monkeypatch.setattr(proofs, "strip_prefix", lambda t: joins.append(t) or strip(t))
    t = formula_type(f)
    # one join per implication of the walk, and a fact on every inner node
    assert t is _reference_formula_type(f) and len(joins) == text.count("->")
    assert f.antecedent._type is formula_type(f.antecedent)
    # an equal formula is the same node, which keeps its type: no walk
    again = parse_proof_formula(text)
    assert again is f and formula_type(again) is t
    assert len(joins) == text.count("->")
    # a formula over f walks only its new nodes
    wider = Implies(Count(Fraction(1, 2), f), f)
    assert formula_type(wider) is _reference_formula_type(wider)
    assert len(joins) == text.count("->") + 1
    # a variable's type is its class's fact
    assert PropVar("Idc")._type is O and "_type" not in PropVar.__dataclass_fields__


WIDE = [Atom(Name("w"), i) for i in range(fm.ATOM_CAP + 1)]


@pytest.mark.parametrize(
    "query",
    [
        lambda w: entails(w, w),
        lambda w: equivalent(w, w),
        lambda w: entails(w, TOP),
        lambda w: entails(BOT, w),
    ],
    ids=["entails-self", "equivalent-self", "entails-top", "bot-entails"],
)
def test_identity_oracle_answers_check_the_cap_first(query):
    w = conj(WIDE)
    with pytest.raises(TooManyAtomsError) as caught:
        query(w)
    assert caught.value.code == "E_TOO_MANY_ATOMS"
    assert str(caught.value).endswith(
        f"{fm.ATOM_CAP + 1} atoms exceeds the cap of {fm.ATOM_CAP}"
    )
    # at the cap they answer
    edge = conj(WIDE[:-1])
    assert query(edge) is True


def test_identity_oracle_answers_open_and_keep_no_manager():
    f = parse_formula("(a.0 | b.1) & !c.2")
    g = parse_formula("a.0 | b.1")
    assert entails(f, g)
    kept = fm._RETAINED.get()
    assert kept is not None
    for answer in (entails(f, f), equivalent(g, g), entails(g, TOP), entails(BOT, f)):
        assert answer is True
    assert fm._RETAINED.get() is kept
    # inside a call that shares one manager, identity answers compile nothing
    seen = fm._one_manager(
        lambda: (entails(f, f), equivalent(f, f), len(fm._OPEN.get()._built))
    )()
    assert seen == (True, True, 0)
    # an equal formula made apart is the same node, and so settled alike
    assert equivalent(parse_formula("a.0 | b.1"), g) and entails(Or(g, f), Or(g, f))


def _alpha_corpus(seed):
    """Terms whose pairs share one body object under binders of the same
    and of other names: a shared body may be skipped only while every
    enclosing lambda pair binds one name."""
    rng = random.Random(seed)
    for _ in range(12):
        body = random_term(rng, rng.randrange(2, 12), [a, b], ["x", "y"])
        for shared in (body, App(Var("x"), Var("y")), App(body, Var("x"))):
            copy = parse_term(print_term(shared))
            yield [
                Lam("x", shared),
                Lam("y", shared),
                Lam("x", copy),
                Lam("x", Lam("y", shared)),
                Lam("y", Lam("x", shared)),
                Lam("x", Lam("x", shared)),
                Lam("y", Lam("x", copy)),
                App(Lam("x", shared), shared),
                App(Lam("y", shared), shared),
                Nu(a, Lam("x", Choice(shared, Lam("y", shared), a, 0))),
                Nu(a, Lam("x", Choice(shared, Lam("x", shared), a, 0))),
                Nu(a, Lam("y", Choice(shared, Lam("y", copy), a, 0))),
            ]


@pytest.mark.parametrize("seed", [5, 23])
def test_identity_alpha_eq_agrees_with_the_reference_on_shared_bodies(seed):
    checked = 0
    for group in _alpha_corpus(seed):
        for t, u in itertools.product(group, repeat=2):
            assert alpha_eq(t, u) == reference_alpha_eq(t, u), (
                print_term(t), print_term(u)
            )
            checked += 1
    assert checked == 12 * 3 * 144


def test_identity_alpha_eq_skips_only_while_binders_agree():
    shared = App(Var("x"), Var("y"))
    assert alpha_eq(Lam("x", shared), Lam("x", shared))
    assert not alpha_eq(Lam("x", shared), Lam("y", shared))
    # the inner pair binds one name, the outer pair two
    assert not alpha_eq(Lam("x", Lam("x", shared)), Lam("y", Lam("x", shared)))
    assert not alpha_eq(Lam("x", Lam("y", shared)), Lam("y", Lam("x", shared)))
    # the second occurrence of a shared body sits outside every binder
    assert not alpha_eq(App(Lam("x", shared), shared), App(Lam("y", shared), shared))
    assert alpha_eq(App(Lam("z", shared), shared), App(Lam("z", shared), shared))


def _nodes(t):
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        out.append(t)
        stack.extend(children(t))
    return out


@pytest.mark.parametrize("seed", [7, 31])
def test_identity_empty_term_facts_are_one_shared_set(seed):
    rng = random.Random(seed)
    empties = 0
    for _ in range(60):
        t = Nu(a, Nu(b, random_term(rng, rng.randrange(2, 20), [], [], allow_cbv=True)))
        t = parse_term(print_term(t))  # fresh nodes, no facts yet
        assert not free_vars(t)
        for node in _nodes(t):
            if type(node) is Var:
                continue
            for fact in (free_vars(node), free_names(node)):
                if not fact:
                    assert fact is _EMPTY
                    empties += 1
    assert empties > 100
    for text in (r"\x. x", "nu a. x (+a.0) x", r"nu a. \x. x (+a.0) x"):
        t = parse_term(text)
        closed = Nu(a, Lam("x", t))
        assert free_vars(closed) is _EMPTY and free_names(closed) is _EMPTY


def _with_premise(d, k, **fields):
    """d as a new node whose k-th premise is a new node with these judgement
    fields, so no check mark is reused."""
    premises = list(d.premises)
    q = premises[k]
    premises[k] = replace(q, judgement=replace(q.judgement, **fields))
    return replace(d, premises=tuple(premises))


def _find(d, rule, size):
    """The first node of `rule` whose context has `size` entries."""
    stack = [d]
    while stack:
        e = stack.pop()
        if e.rule == rule and len(e.judgement.ctx) == size:
            return e
        stack += e.premises
    raise AssertionError(f"no {rule} node with {size} declarations")


def test_identity_context_check_reads_declarations_not_their_order():
    _, d = translate(cut_proof())
    node = _find(d, "cbv", 2)
    # the argument premise lists its two declarations the other way round
    ctx = node.premises[1].judgement.ctx
    reordered = _with_premise(node, 1, ctx=ctx[::-1])
    assert reordered.premises[1].judgement.ctx != node.judgement.ctx
    assert check_derivation(reordered, CBV) == node.judgement
    # a declaration of another type is another context (the cbv rule's own
    # check, as the premise would fail its id check first)
    changed = _with_premise(node, 1, ctx=((ctx[0][0], O), ctx[1]))
    with pytest.raises(RuleShapeError, match="premise context differs"):
        _RULE_CHECKERS["cbv"](changed, CBV)


def test_identity_generator_premises_share_or_match_the_name_set():
    _, d = translate(cut_proof())
    mu = _find(d, "mu", 0)
    names = mu.premises[0].judgement.names
    # an equal name set made apart passes as the shared one does
    apart = frozenset(set(names))
    assert apart is not names
    assert check_derivation(_with_premise(mu, 0, names=apart), CBV) == mu.judgement
    # the mu rule's own check, as the premise would fail its or check first
    with pytest.raises(RuleShapeError, match="must add the generator name"):
        _RULE_CHECKERS["mu"](_with_premise(mu, 0, names=frozenset()), CBV)
