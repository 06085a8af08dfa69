import json
import random
import sys

import pytest

from helpers import (
    A_,
    C1O,
    D,
    J,
    cbv_fixture_corpus,
    choice_tree_derivation,
    clash_derivation,
    coin_derivation,
    identity_derivation,
    mixed_premise_proof,
    proof_kind_corpus,
    random_proof,
    renamed_lambda_derivation,
    record_rule_checks,
    tree_nodes,
)
from lampe.errors import UnsupportedStepError
from lampe.formulas import TOP
from lampe.proofs import translate
from lampe.rewrite import PE, PE_BRACES, step
from lampe.terms import alpha_eq, free_names, parse_term, print_term
from lampe.transport import ctx_weaken, names_weaken, transport_subject_reduction
from lampe.typesys import CBV, O, check_derivation, same_judgement


def expected_judgement(d, s):
    from lampe.typesys import Judgement

    j = d.judgement
    return Judgement(j.ctx, j.names, s.after, j.constraint, j.type)


def test_transport_all_fixture_steps():
    for d, _ in cbv_fixture_corpus():
        for s in step(d.judgement.term, PE_BRACES):
            out = transport_subject_reduction(d, s, PE_BRACES)
            assert same_judgement(out.judgement, expected_judgement(d, s))


def test_transport_descends_a_10000_deep_or_chain():
    """The walk down to the redex keeps its own stack, so at CPython's default
    recursion limit a step of the coin transports under 10,000 `or` nodes."""
    coin, _ = cbv_fixture_corpus()[1]
    s = step(coin.judgement.term, PE_BRACES)[0]
    d = coin
    for _ in range(10_000):
        d = D("or", d.judgement, (d,))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        out = transport_subject_reduction(d, s, PE_BRACES)
    finally:
        sys.setrecursionlimit(limit)
    assert same_judgement(out.judgement, expected_judgement(d, s))
    inner = out
    for _ in range(10_000):
        assert inner.rule == "or" and len(inner.premises) == 1
        inner = inner.premises[0]
    assert same_judgement(inner.judgement, expected_judgement(coin, s))


def test_transport_chains():
    """Transported derivations stay transportable along reduction chains."""
    for k, (d, _) in enumerate(cbv_fixture_corpus()):
        for _ in range(6):
            steps = step(d.judgement.term, PE_BRACES)
            if not steps:
                break
            nxt = None
            for i, s in enumerate(steps):
                out = transport_subject_reduction(d, s, PE_BRACES)
                assert same_judgement(out.judgement, expected_judgement(d, s))
                if i == k % len(steps):
                    nxt = out
            d = nxt


def test_a_transport_chase_checks_each_node_once(monkeypatch):
    """Each transport checks its input and its output; in a chase the input
    is the previous checked output, so no node is checked twice."""
    checked = record_rule_checks(monkeypatch)
    d, _ = cbv_fixture_corpus()[1]
    chain = [d]
    for _ in range(2):
        s = step(chain[-1].judgement.term, PE_BRACES)[0]
        chain.append(transport_subject_reduction(chain[-1], s, PE_BRACES))
    assert len(chain) == 3
    nodes = {id(n): n for deriv in chain for n in tree_nodes(deriv)}
    assert sorted(map(id, checked)) == sorted(nodes)


def test_transport_identity_redex():
    """A beta step on an identity redex keeps the judgement."""
    from lampe.formulas import TOP
    from lampe.terms import App, Lam, Var
    from lampe.typesys import Arrow, Counted, Judgement, O, TypingDerivation

    oo = Arrow(O, O)
    ctx = (("y", oo),)
    inner = TypingDerivation(
        "id", Judgement((("y", oo), ("x", oo)), frozenset(), Var("x"), TOP, oo)
    )
    lam = TypingDerivation(
        "lam",
        Judgement(ctx, frozenset(), Lam("x", Var("x")), TOP, Arrow(oo, oo)),
        (inner,),
    )
    arg = TypingDerivation("id", Judgement(ctx, frozenset(), Var("y"), TOP, oo))
    app = TypingDerivation(
        "app",
        Judgement(ctx, frozenset(), App(Lam("x", Var("x")), Var("y")), TOP, oo),
        (lam, arg),
    )
    s = step(app.judgement.term, PE_BRACES)[0]
    assert s.rule == "beta"
    out = transport_subject_reduction(app, s, PE_BRACES)
    assert alpha_eq(out.judgement.term, Var("y"))
    assert out.judgement.type == oo


def test_transport_translated_random_proofs():
    rng = random.Random(99)
    made = 0
    while made < 8:
        p = random_proof(rng, depth=rng.randrange(2, 5))
        if p is None:
            continue
        made += 1
        _, deriv = translate(p)
        for s in step(deriv.judgement.term, PE_BRACES)[:12]:
            out = transport_subject_reduction(deriv, s, PE_BRACES)
            assert same_judgement(out.judgement, expected_judgement(deriv, s))


def test_transport_translated_kind_proofs():
    """The translations of the small proofs that head the mix permutations
    reach cbv-plus-2, and m-ce-minor's after its plus-lam step reaches
    cbv-plus-1; no random proof reaches either."""
    derivations = [translate(p)[1] for p in proof_kind_corpus()]
    minor = translate(mixed_premise_proof("ce", 1))[1]
    (s,) = [s for s in step(minor.judgement.term, PE_BRACES) if s.rule == "plus-lam"]
    derivations.append(transport_subject_reduction(minor, s, PE_BRACES))
    rules = set()
    for deriv in derivations:
        for s in step(deriv.judgement.term, PE_BRACES):
            out = transport_subject_reduction(deriv, s, PE_BRACES)
            assert same_judgement(check_derivation(out, CBV), expected_judgement(deriv, s))
            rules.add(s.rule)
    assert {"cbv-plus-1", "cbv-plus-2"} <= rules

def test_transport_rejects_foreign_step():
    from lampe.rewrite import ReductionStep
    from lampe.terms import parse_term

    d, _ = cbv_fixture_corpus()[0]
    bogus = ReductionStep("beta", (), parse_term("x y"), parse_term("z"))
    with pytest.raises(UnsupportedStepError):
        transport_subject_reduction(d, bogus, PE_BRACES)


@pytest.mark.parametrize(
    "text, rule",
    [
        ("(x (+a.0) y) (+a.0) z", "c1"),
        ("x (+a.0) (y (+a.0) z)", "c2"),
        ("(x (+a.0) y) (+a.1) z", "plus-plus-1"),
        ("x (+a.1) (y (+a.0) z)", "plus-plus-2"),
    ],
    ids=["c1", "c2", "plus-plus-1", "plus-plus-2"],
)
def test_transport_root_choice_rules(text, rule):
    """The root choice rules that no fixture chase reaches."""
    t = parse_term(text)
    ctx = (("x", O), ("y", O), ("z", O))
    d = choice_tree_derivation(t, ctx, free_names(t), TOP)
    check_derivation(d, CBV)
    steps = step(t, PE_BRACES)
    assert [(s.rule, s.path) for s in steps] == [(rule, ())]
    out = transport_subject_reduction(d, steps[0], PE_BRACES)
    assert same_judgement(out.judgement, expected_judgement(d, steps[0]))


def test_transport_cbv_nu_on_a_json_decoded_derivation():
    from helpers import braces_coin_derivation
    from lampe.typesys import derivation_from_json, derivation_to_json

    text = json.dumps(derivation_to_json(braces_coin_derivation()))
    d = derivation_from_json(json.loads(text))
    (s,) = [s for s in step(d.judgement.term, PE_BRACES) if s.rule == "cbv-nu"]
    out = transport_subject_reduction(d, s, PE_BRACES)
    check_derivation(out, CBV)
    assert same_judgement(out.judgement, expected_judgement(d, s))


@pytest.mark.parametrize("mode", [PE, PE_BRACES])
def test_transport_renames_a_binder_that_the_plugged_context_adds(mode):
    """Beta on (\\x. \\y. x) (\\y. y): the argument is plugged under a
    context that declares y, so its own binder y is renamed apart."""
    d = clash_derivation()
    (s,) = step(d.judgement.term, mode)
    assert s.rule == "beta"
    out = transport_subject_reduction(d, s, mode)
    assert print_term(out.judgement.term) == r"\y. \y. y"
    assert same_judgement(out.judgement, expected_judgement(d, s))
    binders = {x for n in tree_nodes(out) for x, _ in n.judgement.ctx}
    assert binders == {"y", "y'"}


def test_transport_refuses_a_rule_that_does_not_apply():
    """A step of the derivation's own subject whose rule does not apply at
    its path is refused with the rewrite's message under one code."""
    from lampe.rewrite import ReductionStep

    d = coin_derivation()
    t = d.judgement.term
    with pytest.raises(UnsupportedStepError) as err:
        transport_subject_reduction(d, ReductionStep("plus-lam", (), t, t), PE_BRACES)
    assert str(err.value) == (
        "E_UNSUPPORTED_STEP: rule plus-lam does not apply at path ()"
    )


def test_transport_refuses_a_name_weakening_that_collides():
    """z: o, y: o |-{} (nu a. \\x. z) (nu a. y) : T ~> C[1/1] o.  The nu-fun
    step lifts the function's generator a over the argument, whose own
    generator binds a too."""
    from fractions import Fraction

    from lampe.terms import App, Lam, Nu, Var
    from lampe.typesys import Arrow, Counted

    ctx = (("z", O), ("y", O))
    one = Fraction(1)
    lam = Lam("x", Var("z"))
    body = D("id", J(ctx + (("x", C1O),), {A_}, Var("z"), TOP, O))
    fun = D(
        "mu",
        J(ctx, (), Nu(A_, lam), TOP, Counted(one, Arrow(C1O, O))),
        (D("lam", J(ctx, {A_}, lam, TOP, Arrow(C1O, O)), (body,)),),
        {"d": TOP, "q": one},
    )
    arg = D(
        "mu",
        J(ctx, (), Nu(A_, Var("y")), TOP, C1O),
        (D("id", J(ctx, {A_}, Var("y"), TOP, O)),),
        {"d": TOP, "q": one},
    )
    t = App(fun.judgement.term, arg.judgement.term)
    d = D("app", J(ctx, (), t, TOP, C1O), (fun, arg))
    assert d.judgement.format() == (
        r"z: o, y: o |-{} (nu a. \x. z) (nu a. y) : T ~> C[1/1] o"
    )
    check_derivation(d, CBV)
    (s,) = step(t, PE_BRACES)
    assert (s.rule, s.path) == ("nu-fun", ())
    with pytest.raises(UnsupportedStepError) as err:
        transport_subject_reduction(d, s, PE_BRACES)
    assert str(err.value) == (
        "E_UNSUPPORTED_STEP: name weakening collides with bound name a"
    )


def test_weakenings_reject_a_colliding_name():
    with pytest.raises(UnsupportedStepError, match="collides with bound name a"):
        names_weaken(coin_derivation(), {A_})
    with pytest.raises(UnsupportedStepError, match="context weakening collides with y"):
        ctx_weaken(identity_derivation(ctx=(("y", O),)), [("y", O)])


@pytest.mark.parametrize("mode", [PE, PE_BRACES])
def test_transport_keeps_a_renamed_lambda_premise(mode):
    """The lam premise of \\x. (\\z. z) x types (\\z. z) y under y: o, so the
    premise's reduct is y, not the x of the root reduct's child."""
    d = renamed_lambda_derivation()
    (s,) = step(d.judgement.term, mode)
    assert (s.rule, s.path) == ("beta", (0,))
    out = transport_subject_reduction(d, s, mode)
    assert print_term(out.judgement.term) == r"\x. x"
    assert print_term(out.premises[0].judgement.term) == "y"
    assert same_judgement(check_derivation(out, CBV), expected_judgement(d, s))
