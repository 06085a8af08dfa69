"""Shared builders, fixtures, and random generators for the test suite."""

import re
import sys
from fractions import Fraction
from pathlib import Path

from lampe.errors import ParseError, UndefinedBitError
from lampe.formulas import And, Atom, BOT, Bot, Not, Or, TOP, Top, measure
from lampe.proofs import (
    Count,
    Implies,
    ProofDerivation,
    PropVar,
    Sequent,
)
from lampe.rewrite import PE, PE_BRACES
from lampe.terms import (
    _ABBREVIATIONS,
    CONST,
    App,
    CbvApp,
    Choice,
    Const,
    Lam,
    Name,
    Nu,
    Var,
    _REBUILD,
    _BraceFun,
    _fill,
    alpha_eq,
    children,
    copy_variant_name,
    free_names,
    free_vars,
    fresh_name,
    fresh_var,
    parse_term,
    rename_bound_name,
    substitute,
)
from lampe.typesys import (
    _RULE_CHECKERS,
    Arrow,
    Counted,
    Ground,
    Judgement,
    O,
    TypingDerivation,
    mk_mset,
)

HALF = Fraction(1, 2)
A_ = Name("a")
B_ = Name("b")

I_TERM = Lam("z", Var("z"))
OMEGA = App(Lam("w", App(Var("w"), Var("w"))), Lam("w", App(Var("w"), Var("w"))))
TWO = Lam("y", Lam("x", App(Var("y"), App(Var("y"), Var("x")))))
TWO_CBN = Lam("y", Lam("x", CbvApp(Var("y"), App(Var("y"), Var("x")))))
OO = Arrow(O, O)


def J(ctx, names, term, constraint, ty):
    return Judgement(tuple(ctx), frozenset(names), term, constraint, ty)


def D(rule, judgement, premises=(), side=None):
    return TypingDerivation(rule, judgement, tuple(premises), side or {})


def S(ctx, constraint, formula):
    return Sequent(tuple(ctx), constraint, formula)


def P(rule, sequent, premises=(), side=None):
    return ProofDerivation(rule, sequent, tuple(premises), side or {})


def record_rule_checks(monkeypatch):
    """Wrap every typing-rule checker so that each call appends the node it
    checks to the returned list."""
    checked = []
    for rule, checker in list(_RULE_CHECKERS.items()):

        def counted(d, system, checker=checker):
            checked.append(d)
            return checker(d, system)

        monkeypatch.setitem(_RULE_CHECKERS, rule, counted)
    return checked


def tree_nodes(d):
    """The distinct node objects of a derivation or proof tree."""
    seen = {}
    stack = [d]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.premises)
    return list(seen.values())


# ---------------------------------------------------------------------------
# Hand-built CBV typing fixtures


def identity_derivation(ctx=(), names=(), constraint=TOP, arg_type=O):
    """lam z. z at C^[] (arg => arg)."""
    full = tuple(ctx) + (("z", arg_type),)
    body = D("id", J(full, names, Var("z"), constraint, arg_type))
    return D(
        "lam",
        J(tuple(ctx), names, Lam("z", Var("z")), constraint, Arrow(arg_type, arg_type)),
        (body,),
    )


def coin_derivation(name=A_, index=0, left=None, right_constraintless=True):
    """nu a. (I (+a.i) OMEGA) at C[1/2] (o => o)."""
    atom = Atom(name, index)
    ident = identity_derivation(names={name}, constraint=atom)
    term = Choice(I_TERM, OMEGA, name, index)
    branch = D(
        "plus-l",
        J((), {name}, term, atom, OO),
        (ident,),
    )
    return D(
        "mu",
        J((), (), Nu(name, term), TOP, Counted(HALF, OO)),
        (branch,),
        {"d": atom, "q": HALF},
    )


def fair_pick_derivation(name=A_, index=0):
    """nu a. (I (+a.i) I) at C[1] (o => o): both branches are typed."""
    atom = Atom(name, index)
    term = Choice(I_TERM, I_TERM, name, index)
    taut = Or(atom, Not(atom))
    left = D(
        "plus-l",
        J((), {name}, term, And(atom, TOP), OO),
        (identity_derivation(names={name}),),
    )
    right = D(
        "plus-r",
        J((), {name}, term, And(Not(atom), TOP), OO),
        (identity_derivation(names={name}),),
    )
    both = D("or", J((), {name}, term, And(TOP, taut), OO), (left, right))
    return D(
        "mu",
        J((), (), Nu(name, term), TOP, Counted(Fraction(1), OO)),
        (both,),
        {"d": taut, "q": Fraction(1)},
    )


def church_two_cbn_derivation(q=HALF):
    """The CbV-application Church numeral, typed with two stacked quantifiers."""
    cqoo = Counted(q, OO)
    ctx = (("y", cqoo), ("x", O))
    y, x = Var("y"), Var("x")
    dy1 = D("id", J(ctx, (), y, TOP, cqoo))
    dy2 = D("id", J(ctx, (), y, TOP, cqoo))
    dx = D("id", J(ctx, (), x, TOP, O))
    dyx = D("app", J(ctx, (), App(y, x), TOP, Counted(q, O)), (dy2, dx))
    dcbv = D(
        "cbv",
        J(ctx, (), CbvApp(y, App(y, x)), TOP, Counted(q, Counted(q, O))),
        (dy1, dyx),
    )
    dlamx = D(
        "lam",
        J(
            (("y", cqoo),),
            (),
            Lam("x", CbvApp(y, App(y, x))),
            TOP,
            Counted(q, Counted(q, OO)),
        ),
        (dcbv,),
    )
    return D(
        "lam",
        J((), (), TWO_CBN, TOP, Counted(q, Counted(q, Arrow(cqoo, OO)))),
        (dlamx,),
    )


def plain_two_derivation(ctx=(), names=(), constraint=TOP):
    """lam y. lam x. y (y x) at (o=>o) => (o=>o), no quantifiers."""
    base = tuple(ctx)
    full = base + (("y", OO), ("x", O))
    y, x = Var("y"), Var("x")
    dy1 = D("id", J(full, names, y, constraint, OO))
    dy2 = D("id", J(full, names, y, constraint, OO))
    dx = D("id", J(full, names, x, constraint, O))
    dyx = D("app", J(full, names, App(y, x), constraint, O), (dy2, dx))
    dyyx = D("app", J(full, names, App(y, App(y, x)), constraint, O), (dy1, dyx))
    dlamx = D(
        "lam",
        J(base + (("y", OO),), names, Lam("x", App(y, App(y, x))), constraint, OO),
        (dyyx,),
    )
    return D(
        "lam",
        J(base, names, TWO, constraint, Arrow(OO, OO)),
        (dlamx,),
    )


def church_two_cbv_derivation(q=HALF):
    """The CbV Church numeral lam f. {2} f, typed with one quantifier."""
    cqoo = Counted(q, OO)
    ctx = (("f", cqoo),)
    dtwo = plain_two_derivation(ctx=ctx)
    df = D("id", J(ctx, (), Var("f"), TOP, cqoo))
    dcbv = D(
        "cbv",
        J(ctx, (), CbvApp(TWO, Var("f")), TOP, Counted(q, OO)),
        (dtwo, df),
    )
    return D(
        "lam",
        J((), (), Lam("f", CbvApp(TWO, Var("f"))), TOP, Counted(q, Arrow(cqoo, OO))),
        (dcbv,),
    )


def cbn_applied_derivation(q=HALF):
    """(2^CbN)(nu a. I (+a.0) OMEGA) at C[q] C[q] (o => o)."""
    fun = church_two_cbn_derivation(q)
    arg = coin_derivation()
    term = App(TWO_CBN, arg.judgement.term)
    return D(
        "app",
        J((), (), term, TOP, Counted(q, Counted(q, OO))),
        (fun, arg),
    )


def cbv_arranged_derivation():
    """nu a. 2 (I (+a.0) OMEGA) at C[1/2] (o => o)."""
    atom = Atom(A_, 0)
    dtwo = plain_two_derivation(names={A_}, constraint=atom)
    iota = identity_derivation(names={A_}, constraint=atom)
    choice = Choice(I_TERM, OMEGA, A_, 0)
    dchoice = D("plus-l", J((), {A_}, choice, atom, OO), (iota,))
    dapp = D(
        "app",
        J((), {A_}, App(TWO, choice), And(TOP, atom), OO),
        (dtwo, dchoice),
    )
    return D(
        "mu",
        J((), (), Nu(A_, App(TWO, choice)), TOP, Counted(HALF, OO)),
        (dapp,),
        {"d": atom, "q": HALF},
    )


def braces_coin_derivation():
    """{I} (nu a. I (+a.0) OMEGA) at C[1/2] (o => o)."""
    fun = identity_derivation(arg_type=OO)
    arg = coin_derivation()
    term = CbvApp(fun.judgement.term, arg.judgement.term)
    return D(
        "cbv",
        J((), (), term, TOP, Counted(HALF, OO)),
        (fun, arg),
    )


def clash_derivation():
    """(\\x. \\y. x) (\\y. y) at (o => (o => o)), with \\y. y : (o => o).  The
    argument's binder is the variable that the beta step's context adds, so
    transporting the step renames it apart."""
    x, y = Var("x"), Var("y")
    arg = D(
        "lam",
        J((), (), Lam("y", y), TOP, OO),
        (D("id", J((("y", O),), (), y, TOP, O)),),
    )
    body = D("id", J((("x", OO), ("y", O)), (), x, TOP, OO))
    inner = D("lam", J((("x", OO),), (), Lam("y", x), TOP, Arrow(O, OO)), (body,))
    fun = D(
        "lam",
        J((), (), Lam("x", Lam("y", x)), TOP, Arrow(OO, Arrow(O, OO))),
        (inner,),
    )
    term = App(fun.judgement.term, arg.judgement.term)
    return D("app", J((), (), term, TOP, Arrow(O, OO)), (fun, arg))


def choice_tree_derivation(t, ctx, names, b):
    """Type a tree of choices over variables of one type by splitting the
    constraint b on every pivot."""
    if isinstance(t, Var):
        return D("id", J(ctx, names, t, b, dict(ctx)[t.var]))
    x = Atom(t.name, t.index)
    sides = []
    for rule, literal, branch in (("plus-l", x, t.left), ("plus-r", Not(x), t.right)):
        bv = And(b, literal)
        below = choice_tree_derivation(branch, ctx, names, bv)
        sides.append(D(rule, J(ctx, names, t, bv, below.judgement.type), (below,)))
    return D("or", J(ctx, names, t, b, sides[0].judgement.type), sides)


def generator_permutation_derivations():
    """Derivations headed by a nu-fun redex, (nu b. f (+b.0) g) z, and by a
    plus-nu redex, nu b. x (+a.0) y, each a generator over a choice tree."""
    b0 = Atom(B_, 0)

    def coin(body, ctx, names):
        below = choice_tree_derivation(body, ctx, set(names) | {B_}, b0)
        term = Nu(B_, body)
        ty = Counted(HALF, below.judgement.type)
        return D("mu", J(ctx, names, term, TOP, ty), (below,), {"d": b0, "q": HALF})

    fun_ctx = (("f", OO), ("g", OO), ("z", O))
    fun = coin(Choice(Var("f"), Var("g"), B_, 0), fun_ctx, ())
    arg = D("id", J(fun_ctx, (), Var("z"), TOP, O))
    term = App(fun.judgement.term, Var("z"))
    nu_fun = D("app", J(fun_ctx, (), term, TOP, Counted(HALF, O)), (fun, arg))
    plus_nu = coin(Choice(Var("x"), Var("y"), A_, 0), (("x", O), ("y", O)), {A_})
    return [nu_fun, plus_nu]


def renamed_lambda_derivation():
    """\\x. (\\z. z) x at o => o, whose lam premise types the alpha-variant
    (\\z. z) y under y: o."""
    ctx = (("y", O),)
    ident = D(
        "lam",
        J(ctx, (), I_TERM, TOP, OO),
        (D("id", J(ctx + (("z", O),), (), Var("z"), TOP, O)),),
    )
    arg = D("id", J(ctx, (), Var("y"), TOP, O))
    body = D("app", J(ctx, (), App(I_TERM, Var("y")), TOP, O), (ident, arg))
    return D("lam", J((), (), Lam("x", App(I_TERM, Var("x"))), TOP, OO), (body,))


def worked_example_derivation():
    """nu a. (lam x. lam y. (y (+a.0) I) x) (nu b. I (+b.0) OMEGA)."""
    atom = Atom(A_, 0)
    arg_s = Counted(HALF, OO)  # the coin's type
    iota_inner = Lam("z", Var("z"))  # typed at C[1/2](arg_s => o=>o)
    t_y = Counted(HALF, Arrow(arg_s, OO))
    ctx = (("x", arg_s), ("y", t_y))
    names = {A_}
    dz = D(
        "id",
        J(ctx + (("z", arg_s),), names, Var("z"), Not(atom), arg_s),
    )
    di = D(
        "lam",
        J(ctx, names, iota_inner, Not(atom), t_y),
        (dz,),
    )
    choice = Choice(Var("y"), iota_inner, A_, 0)
    dchoice = D(
        "plus-r",
        J(ctx, names, choice, And(Not(atom), Not(atom)), t_y),
        (di,),
    )
    dx = D("id", J(ctx, names, Var("x"), Not(atom), arg_s))
    dapp = D(
        "app",
        J(
            ctx,
            names,
            App(choice, Var("x")),
            And(And(Not(atom), Not(atom)), Not(atom)),
            Counted(HALF, OO),
        ),
        (dchoice, dx),
    )
    dlamy = D(
        "lam",
        J(
            (("x", arg_s),),
            names,
            Lam("y", App(choice, Var("x"))),
            And(And(Not(atom), Not(atom)), Not(atom)),
            Counted(HALF, Arrow(t_y, OO)),
        ),
        (dapp,),
    )
    dlamx = D(
        "lam",
        J(
            (),
            names,
            Lam("x", Lam("y", App(choice, Var("x")))),
            And(And(Not(atom), Not(atom)), Not(atom)),
            Counted(HALF, Arrow(arg_s, Arrow(t_y, OO))),
        ),
        (dlamy,),
    )
    coin = coin_derivation(B_, 0)
    coin = D(
        coin.rule,
        J((), {A_}, coin.judgement.term, TOP, coin.judgement.type),
        (
            D(
                "plus-l",
                J(
                    (),
                    {A_, B_},
                    coin.premises[0].judgement.term,
                    Atom(B_, 0),
                    OO,
                ),
                (identity_derivation(names={A_, B_}, constraint=Atom(B_, 0)),),
            ),
        ),
        coin.side,
    )
    body = App(dlamx.judgement.term, coin.judgement.term)
    dbody = D(
        "app",
        J(
            (),
            {A_},
            body,
            And(Not(atom), TOP),
            Counted(HALF, Arrow(t_y, OO)),
        ),
        (dlamx, coin),
    )
    return D(
        "mu",
        J((), (), Nu(A_, body), TOP, Counted(HALF, Counted(HALF, Arrow(t_y, OO)))),
        (dbody,),
        {"d": Not(atom), "q": HALF},
    )


def cbv_fixture_corpus():
    """Closed CBV fixtures: (derivation, reduction mode) pairs."""
    return [
        (identity_derivation(), PE),
        (coin_derivation(), PE),
        (fair_pick_derivation(), PE),
        (plain_two_derivation(), PE),
        (church_two_cbn_derivation(), PE_BRACES),
        (church_two_cbv_derivation(), PE_BRACES),
        (cbn_applied_derivation(), PE_BRACES),
        (cbv_arranged_derivation(), PE),
        (braces_coin_derivation(), PE_BRACES),
        (worked_example_derivation(), PE),
    ]


# ---------------------------------------------------------------------------
# CN fixtures (balanced types, for the normal-form bound)


C1O = Counted(Fraction(1), O)
CN_OO = Arrow(C1O, O)  # C[1] o => o


def cn_identity(ctx=(), names=(), constraint=TOP):
    full = tuple(ctx) + (("z", C1O),)
    body = D("id", J(full, names, Var("z"), constraint, C1O))
    return D(
        "lam",
        J(tuple(ctx), names, Lam("z", Var("z")), constraint, Counted(Fraction(1), CN_OO)),
        (body,),
    )


def cn_coin():
    """nu a. (I (+a.0) OMEGA) at C[1/2](C[1] o => o) in the CN system."""
    atom = Atom(A_, 0)
    branch = D(
        "plus-l",
        J((), {A_}, Choice(I_TERM, OMEGA, A_, 0), And(TOP, atom), Counted(Fraction(1), CN_OO)),
        (cn_identity(names={A_}, constraint=And(TOP, atom)),),
    )
    return D(
        "mu-prime",
        J((), (), Nu(A_, Choice(I_TERM, OMEGA, A_, 0)), TOP, Counted(HALF, CN_OO)),
        (branch,),
        {"d": atom, "q": HALF},
    )


def cn_fair_pick():
    atom = Atom(A_, 0)
    taut = Or(atom, Not(atom))
    term = Choice(I_TERM, I_TERM, A_, 0)
    ty = Counted(Fraction(1), CN_OO)
    left = D(
        "plus-l",
        J((), {A_}, term, And(atom, TOP), ty),
        (cn_identity(names={A_}),),
    )
    right = D(
        "plus-r",
        J((), {A_}, term, And(Not(atom), TOP), ty),
        (cn_identity(names={A_}),),
    )
    both = D("or", J((), {A_}, term, And(TOP, taut), ty), (left, right))
    return D(
        "mu-prime",
        J((), (), Nu(A_, term), TOP, ty),
        (both,),
        {"d": taut, "q": Fraction(1)},
    )


def cn_two():
    """Church 2 at C[1](C[1](C[1]o => o) => (C[1]o => o)) in CN."""
    one = Fraction(1)
    t_inner = Counted(one, CN_OO)  # C1(C1 o => o)
    ctx = (("y", t_inner), ("x", C1O))
    y, x = Var("y"), Var("x")
    dy1 = D("id", J(ctx, (), y, TOP, t_inner))
    dy2 = D("id", J(ctx, (), y, TOP, t_inner))
    dx = D("id", J(ctx, (), x, TOP, C1O))
    dyx = D("app", J(ctx, (), App(y, x), TOP, C1O), (dy2, dx))
    dyyx = D("app", J(ctx, (), App(y, App(y, x)), TOP, C1O), (dy1, dyx))
    dlamx = D(
        "lam",
        J((("y", t_inner),), (), Lam("x", App(y, App(y, x))), TOP, Counted(one, CN_OO)),
        (dyyx,),
    )
    return D(
        "lam",
        J((), (), TWO, TOP, Counted(one, Arrow(t_inner, CN_OO))),
        (dlamx,),
    )


def correlated_pick_term():
    """((I (+b.1) OMEGA) (+b.0) OMEGA) (+a.0) (OMEGA (+b.0) I)."""
    left = Choice(Choice(I_TERM, OMEGA, B_, 1), OMEGA, B_, 0)
    right = Choice(OMEGA, I_TERM, B_, 0)
    return Choice(left, right, A_, 0)


def two_name_quarter_bound_derivation():
    """The quarter bound for the two-name mixed pick via mu-prime and or."""
    one = Fraction(1)
    quarter = Fraction(1, 4)
    ty1 = Counted(one, CN_OO)
    a0 = Atom(A_, 0)
    b0, b1 = Atom(B_, 0), Atom(B_, 1)
    t = correlated_pick_term()
    names = {A_, B_}

    d1 = And(b0, b1)
    c1 = And(a0, d1)
    ident = cn_identity(names=names, constraint=c1)
    inner_l = D("plus-l", J((), names, t.left.left, c1, ty1), (ident,))
    mid_l = D("plus-l", J((), names, t.left, c1, ty1), (inner_l,))
    top_l = D("plus-l", J((), names, t, c1, ty1), (mid_l,))

    d2 = Not(b0)
    c2 = And(Not(a0), d2)
    ident2 = cn_identity(names=names, constraint=c2)
    inner_r = D("plus-r", J((), names, t.right, c2, ty1), (ident2,))
    top_r = D("plus-r", J((), names, t, c2, ty1), (inner_r,))

    nu_b_left = D(
        "mu-prime",
        J((), {A_}, Nu(B_, t), a0, Counted(quarter, CN_OO)),
        (top_l,),
        {"d": d1, "q": quarter},
    )
    nu_b_right = D(
        "mu-prime",
        J((), {A_}, Nu(B_, t), Not(a0), Counted(quarter, CN_OO)),
        (top_r,),
        {"d": d2, "q": quarter},
    )
    joined = D(
        "or",
        J((), {A_}, Nu(B_, t), And(TOP, Or(a0, Not(a0))), Counted(quarter, CN_OO)),
        (nu_b_left, nu_b_right),
    )
    return D(
        "mu-prime",
        J((), (), Nu(A_, Nu(B_, t)), TOP, Counted(quarter, CN_OO)),
        (joined,),
        {"d": Or(a0, Not(a0)), "q": one},
    )


INT_OO = Arrow(mk_mset([C1O]), O)  # [C[1] o] => o  in the intersection system


def int_identity(names=(), constraint=TOP):
    full = (("z", mk_mset([C1O])),)
    body = D("id-sub", J(full, names, Var("z"), constraint, C1O))
    return D(
        "lam",
        J((), names, Lam("z", Var("z")), constraint, Counted(Fraction(1), INT_OO)),
        (body,),
    )


def two_name_exact_bound_derivation():
    """The exact 3/8 bound via the summing counting rule."""
    one = Fraction(1)
    a0 = Atom(A_, 0)
    b0, b1 = Atom(B_, 0), Atom(B_, 1)
    t = correlated_pick_term()
    names = {A_, B_}
    ty1 = Counted(one, INT_OO)

    d1 = And(b0, b1)
    c1 = And(a0, d1)
    ident = int_identity(names=names, constraint=c1)
    inner_l = D("plus-l", J((), names, t.left.left, c1, ty1), (ident,))
    mid_l = D("plus-l", J((), names, t.left, c1, ty1), (inner_l,))
    top_l = D("plus-l", J((), names, t, c1, ty1), (mid_l,))

    d2 = Not(b0)
    c2 = And(Not(a0), d2)
    ident2 = int_identity(names=names, constraint=c2)
    inner_r = D("plus-r", J((), names, t.right, c2, ty1), (ident2,))
    top_r = D("plus-r", J((), names, t, c2, ty1), (inner_r,))

    nu_b_left = D(
        "mu-sigma",
        J((), {A_}, Nu(B_, t), a0, Counted(Fraction(1, 4), INT_OO)),
        (top_l,),
        {"cases": [(d1, Fraction(1, 4))]},
    )
    nu_b_right = D(
        "mu-sigma",
        J((), {A_}, Nu(B_, t), Not(a0), Counted(HALF, INT_OO)),
        (top_r,),
        {"cases": [(d2, HALF)]},
    )

    left_wrapped = D(
        "or",
        J((), {A_}, Nu(B_, t), And(TOP, a0), Counted(Fraction(1, 4), INT_OO)),
        (nu_b_left,),
    )
    right_wrapped = D(
        "or",
        J((), {A_}, Nu(B_, t), And(TOP, Not(a0)), Counted(HALF, INT_OO)),
        (nu_b_right,),
    )
    return D(
        "mu-sigma",
        J((), (), Nu(A_, Nu(B_, t)), TOP, Counted(Fraction(3, 8), INT_OO)),
        (left_wrapped, right_wrapped),
        {"cases": [(a0, HALF), (Not(a0), HALF)]},
    )


def cn_fixture_corpus():
    """CN fixtures with balanced quantified types."""
    return [
        cn_identity(),
        cn_coin(),
        cn_fair_pick(),
        cn_two(),
        two_name_quarter_bound_derivation(),
    ]


# ---------------------------------------------------------------------------
# Proof fixtures


def half_id_proof(prop="A"):
    """Mix an exact identity proof with a dummy one, then count."""
    A = PropVar(prop)
    a0 = Atom(A_, 0)
    arrow = Implies(A, A)
    exact = P(
        "imp-i",
        S((), a0, arrow),
        (P("id", S((A,), a0, A), (), {"index": 0}),),
    )
    dummy = P("bot", S((), BOT, arrow))
    mixed = P("m", S((), a0, arrow), (exact, dummy), {"pivot": a0})
    return P(
        "ci",
        S((), TOP, Count(HALF, arrow)),
        (mixed,),
        {"d": a0},
    )


def duplicator_proof(q=HALF, prop="A"):
    """|- C^q(A->A) -> A -> C^q C^q A, built from two counted eliminations."""
    A = PropVar(prop)
    arrow = Implies(A, A)
    carrow = Count(q, arrow)
    ctx0 = (carrow, A)

    def ce_block(ctx):
        major = P("id", S(ctx, TOP, carrow), (), {"index": 0})
        inner_ctx = ctx + (arrow,)
        fn = P("id", S(inner_ctx, TOP, arrow), (), {"index": len(inner_ctx) - 1})
        av = P("id", S(inner_ctx, TOP, A), (), {"index": 1})
        minor = P("imp-e", S(inner_ctx, TOP, A), (fn, av))
        return P("ce", S(ctx, TOP, Count(q, A)), (major, minor))

    first = ce_block(ctx0)
    second = ce_block(ctx0 + (A,))
    outer = P(
        "ce",
        S(ctx0, TOP, Count(q, Count(q, A))),
        (first, second),
    )
    inner_lam = P(
        "imp-i",
        S((carrow,), TOP, Implies(A, Count(q, Count(q, A)))),
        (outer,),
    )
    return P(
        "imp-i",
        S((), TOP, Implies(carrow, Implies(A, Count(q, Count(q, A))))),
        (inner_lam,),
    )


def cut_proof():
    """The duplicator proof cut against the half-identity: |- A -> C^1/2 C^1/2 A."""
    dup = duplicator_proof()
    half = half_id_proof()
    A = PropVar("A")
    return P(
        "imp-e",
        S((), TOP, Implies(A, Count(HALF, Count(HALF, A)))),
        (dup, half),
    )


def proof_fixture_corpus():
    return [half_id_proof(), duplicator_proof(), cut_proof()]


def mixed_chain_proof(depth, base=None):
    """A proof of A from the hypotheses A, A: `depth` nested `m` nodes over
    `base`, by default `id 0`, the i-th mixing the nodes below it with `id 1`
    on its own pivot a.i.  The chain adds no redex, so a chain over a normal
    base is normal."""
    A = PropVar("A")
    ctx = (A, A)
    p = base or P("id", S(ctx, TOP, A), (), {"index": 0})
    right = P("id", S(ctx, TOP, A), (), {"index": 1})
    for i in range(depth):
        p = P("m", S(ctx, TOP, A), (p, right), {"pivot": Atom(A_, i)})
    return p


def mixed_copies_proof(depth, base=None):
    """An `m` node mixing two equal, separately built copies of
    `mixed_chain_proof(depth, base)`, an `m-idem` redex at the root."""
    left, right = (mixed_chain_proof(depth, base) for _ in range(2))
    return P("m", left.sequent, (left, right), {"pivot": Atom(A_, depth)})


def mixed_premise_proof(rule, k):
    """An imp-e or ce node whose premise k is a mix on a.0 of two hypothesis
    proofs, and whose other premise is a hypothesis."""
    A = PropVar("A")
    a0 = Atom(A_, 0)
    if rule == "imp-e":
        ctx, formula, side = (Implies(A, A), A), A, {}
        shapes = ((ctx, Implies(A, A), 0), (ctx, A, 1))
    else:
        ctx, formula, side = (Count(HALF, A),), Count(HALF * HALF, A), {"scale": HALF}
        shapes = ((ctx, Count(HALF, A), 0), (ctx + (A,), A, 1))
    premises = []
    for j, (c, f, idx) in enumerate(shapes):
        if j == k:
            branches = tuple(
                P("id", S(c, b, f), (), {"index": idx}) for b in (a0, Not(a0))
            )
            premises.append(P("m", S(c, TOP, f), branches, {"pivot": a0}))
        else:
            premises.append(P("id", S(c, TOP, f), (), {"index": idx}))
    return P(rule, S(ctx, TOP, formula), tuple(premises), side)


def mix_redex_proofs():
    """Mixes that head m-idem, m-m-left and m-m-right, and an m-idem redex
    under a mix on another pivot."""
    A = PropVar("A")
    a0, b0 = Atom(A_, 0), Atom(B_, 0)

    def hyp(c):
        return P("id", S((A,), c, A), (), {"index": 0})

    def mix(left, right, pivot=a0):
        return P("m", S((A,), TOP, A), (left, right), {"pivot": pivot})

    inner = mix(hyp(a0), hyp(Not(a0)))
    idem = mix(hyp(TOP), hyp(TOP))
    return [idem, mix(inner, hyp(Not(a0))), mix(hyp(a0), inner), mix(idem, hyp(TOP), b0)]


def proof_kind_corpus():
    """Small proofs that head the mix permutations random proofs miss."""
    return [
        *(mixed_premise_proof(rule, k) for rule in ("imp-e", "ce") for k in (0, 1)),
        *mix_redex_proofs(),
    ]


# ---------------------------------------------------------------------------
# Random generators (plain seeded random; sizes stay tiny)


class _TermNames:
    """Per-term supply of generator names, so binders never shadow."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.counter = 0

    def fresh(self):
        self.counter += 1
        return Name(f"{self.prefix}{self.counter}")


def random_term(rng, size, names, vars_in_scope, allow_cbv=False, supply=None):
    """A random term of roughly the requested size; nu binders get distinct
    names."""
    supply = supply or _TermNames(f"n{rng.randrange(10**6)}_")
    if size <= 1:
        if vars_in_scope and rng.random() < 0.8:
            return Var(rng.choice(vars_in_scope))
        return Lam("v0", Var("v0"))
    kinds = ["lam", "app", "choice", "nu"]
    if names:
        kinds.append("choice")
    if allow_cbv:
        kinds.append("cbv")
    kind = rng.choice(kinds)
    if kind == "lam":
        v = f"v{len(vars_in_scope)}"
        return Lam(
            v,
            random_term(rng, size - 1, names, vars_in_scope + [v], allow_cbv, supply),
        )
    if kind == "app":
        left = size // 2
        return App(
            random_term(rng, left, names, vars_in_scope, allow_cbv, supply),
            random_term(rng, size - 1 - left, names, vars_in_scope, allow_cbv, supply),
        )
    if kind == "cbv":
        left = size // 2
        return CbvApp(
            random_term(rng, left, names, vars_in_scope, allow_cbv, supply),
            random_term(rng, size - 1 - left, names, vars_in_scope, allow_cbv, supply),
        )
    if kind == "choice" and names:
        name = rng.choice(names)
        left = size // 2
        return Choice(
            random_term(rng, left, names, vars_in_scope, allow_cbv, supply),
            random_term(rng, size - 1 - left, names, vars_in_scope, allow_cbv, supply),
            name,
            rng.randrange(3),
        )
    fresh = supply.fresh()
    return Nu(
        fresh,
        random_term(rng, size - 1, names + [fresh], vars_in_scope, allow_cbv, supply),
    )


def random_affine_term(rng, size, names, vars_in_scope, supply=None):
    """Random term whose lambda variables are used at most once (keeps full
    reduction terminating for the join tests)."""
    supply = supply or _TermNames(f"m{rng.randrange(10**6)}_")
    if size <= 1 or (vars_in_scope and rng.random() < 0.25):
        if vars_in_scope:
            v = rng.choice(vars_in_scope)
            vars_in_scope.remove(v)
            return Var(v)
        return Lam("u0", Var("u0"))
    kind = rng.choice(["lam", "app", "choice", "nu", "app"])
    if kind == "lam":
        v = f"u{rng.randrange(1000)}"
        vars_in_scope.append(v)
        return Lam(v, random_affine_term(rng, size - 1, names, vars_in_scope, supply))
    if kind == "app":
        left = size // 2
        return App(
            random_affine_term(rng, left, names, vars_in_scope, supply),
            random_affine_term(rng, size - 1 - left, names, vars_in_scope, supply),
        )
    if kind == "choice" and names:
        name = rng.choice(names)
        left = size // 2
        return Choice(
            random_affine_term(rng, left, names, vars_in_scope, supply),
            random_affine_term(rng, size - 1 - left, names, vars_in_scope, supply),
            name,
            rng.randrange(2),
        )
    fresh = supply.fresh()
    return Nu(
        fresh, random_affine_term(rng, size - 1, names + [fresh], vars_in_scope, supply)
    )


def random_formula(rng, atoms, depth):
    """A formula of depth at most `depth` over `atoms`, with `T` leaves."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(atoms) if rng.random() < 0.9 else TOP
    kind = rng.choice("nao")
    if kind == "n":
        return Not(random_formula(rng, atoms, depth - 1))
    op = And if kind == "a" else Or
    return op(*(random_formula(rng, atoms, depth - 1) for _ in range(2)))


def reference_print_formula(b):
    """print_formula as it recursed, one frame per level, before it kept an
    explicit stack."""

    def go(b, prec):
        if isinstance(b, Top):
            return "T"
        if isinstance(b, Bot):
            return "F"
        if isinstance(b, Atom):
            return f"{b.name}.{b.index}"
        if isinstance(b, Not):
            return "!" + go(b.arg, 3)
        if isinstance(b, And):
            s = f"{go(b.left, 2)} & {go(b.right, 3)}"
            return f"({s})" if prec > 2 else s
        if isinstance(b, Or):
            s = f"{go(b.left, 1)} | {go(b.right, 2)}"
            return f"({s})" if prec > 1 else s
        raise TypeError(b)

    return go(b, 0)


def reference_walk_atoms(*fs):
    """The atoms of `fs` in the order a left-to-right depth-first walk of
    them first meets each, as a dict from atom to its position in that
    order; reads no node fact."""
    order = {}
    stack = list(reversed(fs))
    while stack:
        b = stack.pop()
        if isinstance(b, Atom):
            order.setdefault((b.name, b.index), len(order))
        elif isinstance(b, Not):
            stack.append(b.arg)
        elif isinstance(b, (And, Or)):
            stack.append(b.right)
            stack.append(b.left)
    return order


_PROPS = [PropVar(p) for p in ("A", "B", "C")]


def random_proof_formula(rng, depth):
    if depth <= 0:
        return rng.choice(_PROPS)
    kind = rng.random()
    if kind < 0.4:
        return Implies(
            random_proof_formula(rng, depth - 1),
            random_proof_formula(rng, depth - 1),
        )
    if kind < 0.7:
        q = rng.choice([Fraction(1, 2), Fraction(1, 4), Fraction(1)])
        return Count(q, random_proof_formula(rng, depth - 1))
    return rng.choice(_PROPS)


class _NameSupply:
    def __init__(self):
        self.counter = 0

    def fresh(self):
        self.counter += 1
        return Name(f"g{self.counter}")


def _constraint_for(q, name):
    """A one-name formula with measure exactly q in {1, 1/2, 1/4}."""
    a0, a1 = Atom(name, 0), Atom(name, 1)
    if q == Fraction(1):
        return Or(a0, Not(a0))
    if q == Fraction(1, 2):
        return a0
    if q == Fraction(1, 4):
        return And(a0, a1)
    raise ValueError(q)


def random_proof(rng, depth, ctx=(), constraint=TOP, formula=None, supply=None):
    """A random checked proof of bounded depth, or None on a dead end."""
    supply = supply or _NameSupply()
    if formula is None:
        formula = random_proof_formula(rng, 2)
    for _ in range(24):
        p = _try_random_proof(rng, depth, ctx, constraint, formula, supply)
        if p is not None:
            return p
    return None


def _try_random_proof(rng, depth, ctx, constraint, formula, supply):
    choices = []
    hyp_indices = [i for i, a in enumerate(ctx) if a == formula]
    if hyp_indices:
        choices.append("id")
    if depth > 0:
        if isinstance(formula, Implies):
            choices.extend(["imp-i", "imp-i"])
        if isinstance(formula, Count):
            choices.extend(["ci", "ci"])
            if rng.random() < 0.4:
                choices.append("ce")
        choices.append("m")
        if rng.random() < 0.3:
            choices.append("imp-e")
    if not choices:
        return None
    rng.shuffle(choices)
    for rule in choices:
        built = _build_rule(rng, rule, depth, ctx, constraint, formula, supply)
        if built is not None:
            return built
    return None


def _build_rule(rng, rule, depth, ctx, constraint, formula, supply):
    if rule == "id":
        idx = rng.choice([i for i, a in enumerate(ctx) if a == formula])
        return P("id", S(ctx, constraint, formula), (), {"index": idx})
    if rule == "imp-i":
        body = _try_random_proof(
            rng, depth - 1, ctx + (formula.antecedent,), constraint,
            formula.consequent, supply,
        )
        if body is None:
            return None
        return P("imp-i", S(ctx, constraint, formula), (body,))
    if rule == "ci":
        name = supply.fresh()
        d = _constraint_for(formula.q, name)
        body = _try_random_proof(
            rng, depth - 1, ctx, And(constraint, d), formula.body, supply
        )
        if body is None:
            return None
        return P("ci", S(ctx, constraint, formula), (body,), {"d": d})
    if rule == "ce":
        inner = random_proof_formula(rng, 1)
        q = formula.q
        major = _try_random_proof(
            rng, depth - 1, ctx, constraint, Count(q, inner), supply
        )
        if major is None:
            return None
        minor = _try_random_proof(
            rng, depth - 1, ctx + (inner,), constraint, formula.body, supply
        )
        if minor is None:
            return None
        return P("ce", S(ctx, constraint, formula), (major, minor))
    if rule == "m":
        name = supply.fresh()
        pivot = Atom(name, 0)
        left_c = And(constraint, pivot)
        right_c = And(constraint, Not(pivot))
        left = _try_random_proof(rng, depth - 1, ctx, left_c, formula, supply)
        if left is None:
            return None
        right = _try_random_proof(rng, depth - 1, ctx, right_c, formula, supply)
        if right is None:
            return None
        return P("m", S(ctx, constraint, formula), (left, right), {"pivot": pivot})
    if rule == "imp-e":
        other = random_proof_formula(rng, 1)
        fun = _try_random_proof(
            rng, depth - 1, ctx, constraint, Implies(other, formula), supply
        )
        if fun is None:
            return None
        arg = _try_random_proof(rng, depth - 1, ctx, constraint, other, supply)
        if arg is None:
            return None
        return P("imp-e", S(ctx, constraint, formula), (fun, arg))
    return None


# ---------------------------------------------------------------------------
# Reference construction for the generalized counting rule


def reference_mu_star(d, order=None):
    """The row-enumeration construction of `apply_mu_star` that the fold
    replaced: every complete minterm row in product order is tested with the
    oracle, then the kept rows are regrouped level by level under their
    printed prefixes.  Each kept row is one `or` node over `d`, and each
    `mu-sigma` node takes its sub-derivations directly as premises, so the
    result's root is the outermost `mu-sigma` node.  Kept only to pin the
    fold's output."""
    import itertools

    from lampe.formulas import atoms, conj, entails, print_formula, satisfiable
    from lampe.typesys import INT, check_derivation

    j = check_derivation(d, INT)
    b = j.constraint
    names = list(order) if order is not None else sorted(j.names, key=lambda n: n.text)
    rows = [[]]
    for a in names:
        indices = sorted(i for (n, i) in atoms(b) if n is a)
        per_name = [
            conj(
                Atom(a, i) if bit == 1 else Not(Atom(a, i))
                for i, bit in zip(indices, bits)
            )
            for bits in itertools.product((0, 1), repeat=len(indices))
        ]
        rows = [row + [m] for row in rows for m in per_name]
    kept = []
    for row in rows:
        formula = conj(row)
        if satisfiable(And(formula, b)):
            assert entails(formula, b), "a complete row decides the constraint"
            kept.append(row)

    def weaken(deriv, constraint, names_set):
        jj = deriv.judgement
        return D("or", J(jj.ctx, names_set, jj.term, constraint, jj.type), (deriv,))

    level = [(row, weaken(d, conj(row), j.names)) for row in kept]
    current_names = set(j.names)
    for a in reversed(names):
        current_names = current_names - {a}
        groups = {}
        for row, deriv in level:
            prefix = tuple(print_formula(m) for m in row[:-1])
            groups.setdefault(prefix, []).append((row, deriv))
        new_level = []
        for group in groups.values():
            prefix_row = group[0][0][:-1]
            prefix_formula = conj(prefix_row)
            cases = []
            premises = []
            total = Fraction(0)
            for row, deriv in group:
                dloc = row[-1]
                s = measure(dloc)
                pj = deriv.judgement
                premises.append(deriv)
                cases.append((dloc, s))
                total += pj.type.q * s
            first = premises[0].judgement
            root_j = J(
                first.ctx,
                current_names,
                Nu(a, first.term),
                prefix_formula,
                Counted(total, first.type.body),
            )
            new_level.append((prefix_row, D("mu-sigma", root_j, premises, {"cases": cases})))
        level = new_level
    assert len(level) == 1
    return level[0][1]


def reference_disjoint(parts):
    """The pairwise-disjointness loop of the summing counting rule that
    `formulas.disjoint` replaced: each part after the first must entail F
    together with the running union of the parts before it.  Each
    `entails(And(union, part), F)` checks the atom cap on the atoms of the
    parts so far before it builds anything.  Kept only to pin `disjoint`'s
    answers and errors."""
    from lampe.formulas import entails

    union = parts[0]
    for part in parts[1:]:
        if not entails(And(union, part), BOT):
            return False
        union = Or(union, part)
    return True


def kernel_mu_star_premises(seed):
    """The `apply_mu_star` premises, as derivation JSON, of a 15 s `kernel`
    run of `bench/run.py` with this seed: one per item, 432 in all."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from workloads import Kernel

    kernel = Kernel(seed, Kernel.rounds_for(15))
    return [premise for _, _, premise, _, _ in kernel.inputs]


# ---------------------------------------------------------------------------
# Reference fuel loops for the segment driver


def _reference_nf_rec(t, budget):
    from lampe.distribution import _spine_args, _tree_leaves
    from lampe.rewrite import classify_pnf, head_step, is_hnv, pnf

    def spend(n):
        budget[0] += n
        return budget[0] <= budget[1]

    exact = True
    while True:
        t, trace = pnf(t)
        if not spend(len(trace)):
            return Fraction(0), False
        if isinstance(t, Nu):
            view = classify_pnf(t)
            total = Fraction(0)
            for leaf, depth in _tree_leaves(view.tree, view.name):
                sub, sub_exact = _reference_nf_rec(leaf, budget)
                exact = exact and sub_exact
                total += Fraction(1, 2**depth) * sub
            return total, exact
        if is_hnv(t):
            total = Fraction(1)
            for arg in _spine_args(t):
                sub, sub_exact = _reference_nf_rec(arg, budget)
                exact = exact and sub_exact
                total *= sub
            return total, exact
        s = head_step(t)
        if s is None:
            return Fraction(0), True
        if not spend(1):
            return Fraction(0), False
        if alpha_eq(s.after, t):
            return Fraction(0), True
        t = s.after


def reference_nf_mass(t, fuel):
    """The per-step fuel loop that `nf_mass` ran before the segment driver:
    pnf, then `is_hnv`, then `head_step`, then the self-loop check.  Returns
    (value, fuel_used, exact).  Kept only to pin the driver's output."""
    budget = [0, fuel]  # used, fuel
    value, exact = _reference_nf_rec(t, budget)
    return value, min(budget[0], fuel), exact


_REFERENCE_ADVANCE_CAP = 2000


def _reference_advance(t, cache):
    from lampe.rewrite import head_step, pnf
    from lampe.terms import canonical_str

    key = canonical_str(t)
    if key in cache:
        return cache[key]
    steps = 0
    result = None
    while steps <= _REFERENCE_ADVANCE_CAP:
        t, trace = pnf(t)
        steps += len(trace)
        if isinstance(t, Nu):
            result = ("gen", t, steps)
            break
        s = head_step(t)
        if s is None:
            result = ("hnv", t, steps)
            break
        if alpha_eq(s.after, t):
            result = ("diverged", t, steps)
            break
        t = s.after
        steps += 1
    if result is None:
        result = ("cap", t, steps)
    cache[key] = result
    return result


def _resolve_generator(t, rng):
    bits = {}
    node = t.body
    while isinstance(node, Choice) and node.name is t.name:
        bit = bits.setdefault(node.index, rng.getrandbits(1))
        node = node.left if bit == 1 else node.right
    return node


def _reference_sample_run_plain(t, rng, remaining):
    from lampe.rewrite import head_step, pnf

    while True:
        t, trace = pnf(t)
        remaining -= len(trace)
        if remaining < 0:
            return "exhausted", None
        if isinstance(t, Nu):
            t = _resolve_generator(t, rng)
            continue
        s = head_step(t)
        if s is None:
            return "head-normal", t
        remaining -= 1
        if remaining < 0:
            return "exhausted", None
        t = s.after


def reference_sample_run(t, seed, fuel, cache=None):
    """The sampled run before the segment driver: segments capped at 2000
    steps, and a step-by-step loop without the self-loop check once a
    segment passes the cap under a larger fuel.  Returns (kind, term)."""
    import random

    rng = random.Random(seed)
    cache = {} if cache is None else cache
    remaining = fuel
    while True:
        kind, cur, steps = _reference_advance(t, cache)
        if kind == "cap" and fuel > _REFERENCE_ADVANCE_CAP:
            return _reference_sample_run_plain(t, rng, remaining)
        if kind in ("diverged", "cap") or steps > remaining:
            return "exhausted", None
        remaining -= steps
        if kind == "hnv":
            return "head-normal", cur
        t = _resolve_generator(cur, rng)


def reference_estimate_hnv(t, samples, fuel, seed):
    """Head-normal hits of `estimate_hnv`'s runs, from the reference sampler
    with one segment cache across the samples."""
    cache = {}
    return sum(
        reference_sample_run(t, seed * 1_000_003 + k, fuel, cache)[0]
        == "head-normal"
        for k in range(samples)
    )


# ---------------------------------------------------------------------------
# Closed terms with closed-form masses


def _church(n):
    return "\\s.\\z. " + "s (" * n + "z" + ")" * n


def termination_terms(n):
    """The termination families at size n: coin iteration (mass 1/2^n) with
    its coin in both branch orders, a fair pick between I and it, and n
    rounds of "x or I" from OMEGA (mass 1 - 1/2^n) in both orders."""
    coin_iter = [
        f"({_church(n)}) (\\y. nu a. {keep} (+a.0) {drop}) I"
        for keep, drop in (("y", "OMEGA"), ("OMEGA", "y"))
    ]
    half_plus = f"nu b. I (+b.0) ({coin_iter[0]})"
    pick_arg = [
        f"({_church(n)}) (\\y. (\\x. nu a. {keep} (+a.0) {drop}) y) OMEGA"
        for keep, drop in (("x", "I"), ("I", "x"))
    ]
    return [parse_term(text) for text in coin_iter + [half_plus] + pick_arg]


# ---------------------------------------------------------------------------
# Reference rules: the generator that listed the rule applications at a node
# before the rule table, kept as it was so the table is compared against an
# independent copy


def reference_free_vars(t):
    if isinstance(t, Var):
        return {t.var}
    if isinstance(t, Lam):
        return reference_free_vars(t.body) - {t.var}
    return set().union(*map(reference_free_vars, children(t)))


def reference_free_names(t):
    if isinstance(t, Nu):
        return reference_free_names(t.body) - {t.name}
    out = set().union(*map(reference_free_names, children(t)))
    return out | {t.name} if isinstance(t, Choice) else out


def reference_contains_cbv(t):
    return isinstance(t, CbvApp) or any(map(reference_contains_cbv, children(t)))


def stored_shape_hash(t):
    """The shape hash kept in t's fact record, which the first read fills; a
    variable keeps no record, so it reads the variable hash."""
    if isinstance(t, Var):
        return hash(("v",))
    return (t._facts or _fill(t))[3]


def reference_shape_hash(t):
    """The alpha-invariant shape hash: variable names erased, names and
    indices kept."""
    if isinstance(t, Var):
        return hash(("v",))
    if isinstance(t, Const):
        return hash(("c",))
    if isinstance(t, Lam):
        return hash(("l", reference_shape_hash(t.body)))
    if isinstance(t, Nu):
        return hash(("n", t.name.text, reference_shape_hash(t.body)))
    first, second = map(reference_shape_hash, children(t))
    if isinstance(t, Choice):
        return hash(("p", t.name.text, t.index, first, second))
    return hash(("a" if isinstance(t, App) else "b", first, second))


def reference_alpha_eq(t, u, env_t=None, env_u=None, depth=0):
    """Alpha-equivalence by plain recursion: a bound variable is its
    binder's depth, a free one its name."""
    env_t, env_u = env_t or {}, env_u or {}
    if type(t) is not type(u):
        return False
    if isinstance(t, Var):
        return env_t.get(t.var, t.var) == env_u.get(u.var, u.var)
    if isinstance(t, Lam):
        return reference_alpha_eq(
            t.body, u.body, {**env_t, t.var: depth}, {**env_u, u.var: depth}, depth + 1
        )
    if isinstance(t, (Nu, Choice)) and t.name is not u.name:
        return False
    if isinstance(t, Choice) and t.index != u.index:
        return False
    return all(
        reference_alpha_eq(a, b, env_t, env_u, depth)
        for a, b in zip(children(t), children(u))
    )


# Reference term walks: the recursive substitution, renaming, projection and
# printers that the explicit-stack walks of `lampe.terms` replaced, each with
# its old case split (print_term's four helpers included), so each walk is
# compared against an independent copy.  canonical_str's memo is left out,
# and free occurrences are counted by plain scoping, not by the stored facts


def _reference_map_children(t, f):
    out = t
    for i, c in enumerate(children(t)):
        new = f(c)
        if new is not c:
            out = _REBUILD[type(out)](out, i, new)
    return out


def reference_bound_names(t):
    out = {t.name} if isinstance(t, Nu) else set()
    for c in children(t):
        out |= reference_bound_names(c)
    return out


def reference_count_free_occurrences(t, x):
    if isinstance(t, Var):
        return int(t.var == x)
    if isinstance(t, Lam) and t.var == x:
        return 0
    return sum(reference_count_free_occurrences(c, x) for c in children(t))


def reference_rename_names(t, env, rebind):
    if isinstance(t, Nu):
        name = rebind(t.name)
        body = reference_rename_names(t.body, {**env, t.name: name}, rebind)
        return t if name is t.name and body is t.body else Nu(name, body)
    out = _reference_map_children(t, lambda c: reference_rename_names(c, env, rebind))
    if isinstance(t, Choice) and env.get(t.name, t.name) is not t.name:
        return Choice(out.left, out.right, env[t.name], t.index)
    return out


def reference_variant_copy(u, k):
    return reference_rename_names(u, {}, lambda n: copy_variant_name(n, k))


def reference_substitute_indexed(t, x, u, start, duplicating):
    """Substitution by plain recursion: a capturing lambda binder is renamed
    by a nested substitution of its fresh variable, before the walk goes on
    into the renamed body."""
    u_fvars = free_vars(u)
    u_fnames = free_names(u)
    hits = [start]

    def payload():
        hits[0] += 1
        if duplicating and hits[0] > 1:
            return reference_variant_copy(u, hits[0])
        return u

    def go(t):
        if isinstance(t, Var):
            return payload() if t.var == x else t
        if isinstance(t, Lam):
            if t.var == x:
                return t
            if x not in free_vars(t.body):
                return t
            if t.var in u_fvars:
                y = fresh_var(t.var, u_fvars | free_vars(t.body))
                body = reference_substitute(t.body, t.var, Var(y))
                return Lam(y, go(body))
            return Lam(t.var, go(t.body))
        if isinstance(t, Nu):
            if x not in free_vars(t.body):
                return t
            if t.name in u_fnames:
                new = fresh_name(t.name, t, u)
                t = Nu(new, reference_rename_names(t.body, {t.name: new}, lambda n: n))
            return Nu(t.name, go(t.body))
        return _reference_map_children(t, go)

    return go(t)


def reference_substitute(t, x, u):
    if x not in free_vars(t):
        return t
    duplicating = bool(
        reference_count_free_occurrences(t, x) > 1 and reference_bound_names(u)
    )
    return reference_substitute_indexed(t, x, u, 0, duplicating)


def reference_project(t, names, valuation):
    def go(t, active):
        if isinstance(t, Choice) and t.name in active:
            key = (t.name, t.index)
            if key not in valuation:
                raise UndefinedBitError(f"no bit for ({t.name}, {t.index})")
            side = t.left if valuation[key] == 1 else t.right
            return go(side, active)
        if isinstance(t, Choice):
            return Choice(go(t.left, active), go(t.right, active), t.name, t.index)
        if isinstance(t, Nu):
            inner = active - {t.name} if t.name in active else active
            return Nu(t.name, go(t.body, inner))
        return _reference_map_children(t, lambda c: go(c, active))

    return go(t, frozenset(names))


def reference_canonical_str(t):
    env = {}

    def go(t, depth):
        if isinstance(t, Var):
            return env.get(t.var, t.var)
        if isinstance(t, Const):
            return "#c"
        if isinstance(t, Lam):
            outer = env.get(t.var)
            env[t.var] = f"${depth}"
            out = f"(\\${depth}. {go(t.body, depth + 1)})"
            if outer is None:
                del env[t.var]
            else:
                env[t.var] = outer
            return out
        if isinstance(t, Nu):
            return f"(nu {t.name}. {go(t.body, depth)})"
        if isinstance(t, App):
            return f"({go(t.fun, depth)} {go(t.arg, depth)})"
        if isinstance(t, CbvApp):
            return f"{{{go(t.fun, depth)}}} {go(t.arg, depth)}"
        return f"({go(t.left, depth)} (+{t.name}.{t.index}) {go(t.right, depth)})"

    return go(t, 0)


def reference_print_term(t):
    def atom(t):
        if isinstance(t, Var):
            return t.var
        if isinstance(t, Const):
            return "#c"
        return f"({go(t)})"

    def appish(t):
        if isinstance(t, (App, CbvApp, Var, Const)):
            return go(t)
        return atom(t)

    def go(t):
        if isinstance(t, Var):
            return t.var
        if isinstance(t, Const):
            return "#c"
        if isinstance(t, Lam):
            return f"\\{t.var}. {go(t.body)}"
        if isinstance(t, Nu):
            return f"nu {t.name}. {go(t.body)}"
        if isinstance(t, App):
            return f"{appish(t.fun)} {atom(t.arg)}"
        if isinstance(t, CbvApp):
            return f"{{{go(t.fun)}}} {atom(t.arg)}"
        if isinstance(t, Choice):
            left = atom(t.left) if isinstance(t.left, Choice) else appish_or_atom(t.left)
            right = appish_or_atom(t.right)
            return f"{left} (+{t.name}.{t.index}) {right}"
        raise TypeError(t)

    def appish_or_atom(t):
        if isinstance(t, (Lam, Nu, Choice)):
            return atom(t)
        return go(t)

    return go(t)


def _pair_before(a, i, b, j, env):
    """The ordering side condition of the plus-plus rules."""
    if a is b:
        return i < j
    da = env.get(a, -1)
    db = env.get(b, -1)
    if da != db:
        return da < db
    return a.text < b.text


def reference_local_results(t, env, mode, include_beta, ordered):
    """Rule applications available at the root of t.  Yields (rule, result).
    With `ordered` false the plus-plus rules skip their ordering guard."""
    braces = mode == PE_BRACES
    if isinstance(t, Choice):
        left, right, a, i = t.left, t.right, t.name, t.index
        if alpha_eq(left, right):
            yield "i", left
        if isinstance(left, Choice) and left.name is a and left.index == i:
            yield "c1", Choice(left.left, right, a, i)
        if isinstance(right, Choice) and right.name is a and right.index == i:
            yield "c2", Choice(left, right.right, a, i)
        if (
            isinstance(left, Choice)
            and (left.name, left.index) != (a, i)
            and (not ordered or _pair_before(left.name, left.index, a, i, env))
        ):
            b2, j2 = left.name, left.index
            yield "plus-plus-1", Choice(
                Choice(left.left, right, a, i),
                Choice(left.right, right, a, i),
                b2,
                j2,
            )
        if (
            isinstance(right, Choice)
            and (right.name, right.index) != (a, i)
            and (not ordered or _pair_before(right.name, right.index, a, i, env))
        ):
            b2, j2 = right.name, right.index
            yield "plus-plus-2", Choice(
                Choice(left, right.left, a, i),
                Choice(left, right.right, a, i),
                b2,
                j2,
            )
    elif isinstance(t, Lam):
        body = t.body
        if isinstance(body, Choice):
            yield "plus-lam", Choice(
                Lam(t.var, body.left), Lam(t.var, body.right),
                body.name, body.index,
            )
        if isinstance(body, Nu):
            yield "nu-lam", Nu(body.name, Lam(t.var, body.body))
    elif isinstance(t, App):
        fun, arg = t.fun, t.arg
        if isinstance(fun, Choice):
            yield "plus-fun", Choice(
                App(fun.left, arg), App(fun.right, arg), fun.name, fun.index
            )
        if isinstance(arg, Choice):
            yield "plus-arg", Choice(
                App(fun, arg.left), App(fun, arg.right), arg.name, arg.index
            )
        if isinstance(fun, Nu):
            nu = fun
            if nu.name in free_names(arg):
                nu = rename_bound_name(nu, fresh_name(nu.name, fun, arg))
            yield "nu-fun", Nu(nu.name, App(nu.body, arg))
        if include_beta and isinstance(fun, Lam):
            yield "beta", substitute(fun.body, fun.var, arg)
    elif isinstance(t, Nu):
        body = t.body
        if isinstance(body, Choice) and body.name is not t.name:
            yield "plus-nu", Choice(
                Nu(t.name, body.left), Nu(t.name, body.right),
                body.name, body.index,
            )
        if mode == PE and t.name not in free_names(body):
            yield "not-nu", body
    elif braces and isinstance(t, CbvApp):
        fun, arg = t.fun, t.arg
        if isinstance(arg, Nu):
            nu = arg
            if nu.name in free_names(fun):
                nu = rename_bound_name(nu, fresh_name(nu.name, fun, arg))
            yield "cbv-nu", Nu(nu.name, App(fun, nu.body))
        if isinstance(fun, Choice):
            yield "cbv-plus-1", Choice(
                CbvApp(fun.left, arg), CbvApp(fun.right, arg),
                fun.name, fun.index,
            )
        if isinstance(arg, Choice):
            yield "cbv-plus-2", Choice(
                CbvApp(fun, arg.left), CbvApp(fun, arg.right),
                arg.name, arg.index,
            )


# ---------------------------------------------------------------------------
# Reference leftmost-outermost loop for the resumed scan


def _reference_first_redex(t, mode, include_beta):
    from lampe.terms import children

    def go(t, path, env, depth):
        for rule, result in reference_local_results(t, env, mode, include_beta, True):
            return rule, path, result
        if isinstance(t, Nu):
            env = {**env, t.name: depth}
        for i, c in enumerate(children(t)):
            found = go(c, path + (i,), env, depth + 1)
            if found is not None:
                return found
        return None

    return go(t, (), {}, 0)


def reference_pnf(t, mode, include_beta=False, fuel=None):
    """The leftmost-outermost loop that `pnf` ran before the resumed scan:
    every step rescans the whole term from the root, and no node fact is
    read or written.  With `fuel`, stops after that many steps, as
    `reduce_term` does.  Returns (term, [(rule, path)], exhausted)."""
    from lampe.terms import replace_at

    trace = []
    while True:
        found = _reference_first_redex(t, mode, include_beta)
        if found is None:
            return t, trace, False
        if len(trace) == fuel:
            return t, trace, True
        rule, path, result = found
        trace.append((rule, path))
        t = replace_at(t, path, result)


# ---------------------------------------------------------------------------
# Reference head reduction: the recursive head-redex finder and the loop that
# restarts the permutative scan from the root at every step


def _reference_head_redex_in_value(t, path, mode):
    if isinstance(t, Lam):
        return _reference_head_redex_in_value(t.body, path + (0,), mode)
    if isinstance(t, App):
        if isinstance(t.fun, Lam):
            return ("beta", path, substitute(t.fun.body, t.fun.var, t.arg))
        return _reference_head_redex_in_value(t.fun, path + (0,), mode)
    if mode == PE_BRACES and isinstance(t, CbvApp):
        found = _reference_head_redex_in_value(t.fun, path + (0,), mode)
        if found is not None:
            return found
        return _reference_head_redex_in_value(t.arg, path + (1,), mode)
    return None


def _reference_head_redex(t, path, mode):
    if isinstance(t, Nu):
        return _reference_head_redex(t.body, path + (0,), mode)
    if isinstance(t, Choice):
        found = _reference_head_redex(t.left, path + (0,), mode)
        if found is not None:
            return found
        return _reference_head_redex(t.right, path + (1,), mode)
    return _reference_head_redex_in_value(t, path, mode)


def reference_head_steps(t, mode, fuel):
    """The loop that `reduce_term(strategy="head")` ran before the resumed
    head walk: every step rescans the whole term from the root for a
    permutative redex, and only then searches the head beta redex
    recursively.  Stops after `fuel` steps.  Returns (term, [(rule, path)],
    exhausted)."""
    from lampe.terms import replace_at

    trace = []
    while True:
        found = _reference_first_redex(t, mode, False)
        if found is None:
            found = _reference_head_redex(t, (), mode)
        if found is None:
            return t, trace, False
        if len(trace) == fuel:
            return t, trace, True
        rule, path, result = found
        trace.append((rule, path))
        t = replace_at(t, path, result)


def reference_hnv_lower_bound(t, fuel, mode):
    """`hnv_lower_bound` before the head walk: each fair round rebuilds the
    whole nu/choice prefix recursively, and the fixpoint test compares the
    whole terms.  Returns (value, fuel_used, exact)."""
    from lampe.distribution import hnv_mass
    from lampe.rewrite import pnf
    from lampe.terms import replace_at

    def head_round(t, limit):
        found_and_applied = [0, 0]

        def go(t):
            if isinstance(t, Nu):
                return Nu(t.name, go(t.body))
            if isinstance(t, Choice):
                return Choice(go(t.left), go(t.right), t.name, t.index)
            found = _reference_head_redex_in_value(t, (), mode)
            if found is None:
                return t
            found_and_applied[0] += 1
            if found_and_applied[1] >= limit:
                return t
            _, path, result = found
            found_and_applied[1] += 1
            return replace_at(t, path, result)

        return go(t), *found_and_applied

    used, best = 0, Fraction(0)
    while True:
        t, trace = pnf(t, mode)
        used += len(trace)
        best = max(best, hnv_mass(t, mode))
        if used >= fuel:
            return best, fuel, False
        t2, found, n = head_round(t, fuel - used)
        used += n
        # a round the fuel cut short is no fixpoint, whatever it reproduced
        if n == 0 or (n == found and alpha_eq(t2, t)):
            return best, min(used, fuel), True
        t = t2


# ---------------------------------------------------------------------------
# Reference proof normalization: the redex-kind chain, the contraction chain,
# the restart-from-root scan and the term-path chain that `proofs._REDEX_AT`,
# `proofs._proof_step` and `proofs._PREMISE_AT` replaced


def _reference_redex_kind(p):
    from lampe.proofs import _local_constraint, _pivot_atom, formula_names

    if p.rule == "imp-e" and p.premises[0].rule == "imp-i":
        return "beta-cut"
    if p.rule == "ce" and p.premises[0].rule == "ci":
        return "cbv-cut"
    if p.rule == "m":
        left, right = p.premises
        if left == right:
            return "m-idem"
        pivot = _pivot_atom(p)
        if left.rule == "m" and _pivot_atom(left) == pivot:
            return "m-m-left"
        if right.rule == "m" and _pivot_atom(right) == pivot:
            return "m-m-right"
    if p.rule == "imp-i" and p.premises[0].rule == "m":
        return "m-imp-i"
    if p.rule == "imp-e":
        if p.premises[0].rule == "m":
            return "m-imp-e-fun"
        if p.premises[1].rule == "m":
            return "m-imp-e-arg"
    if p.rule == "ci" and p.premises[0].rule == "m":
        inner = p.premises[0]
        if not (
            formula_names(_local_constraint(p))
            & {_pivot_atom(inner).name}
        ):
            return "m-ci"
    if p.rule == "ce":
        if p.premises[0].rule == "m":
            return "m-ce-major"
        if p.premises[1].rule == "m":
            return "m-ce-minor"
    return None


def reference_find_proof_redex(p, path=()):
    kind = _reference_redex_kind(p)
    if kind is not None:
        return path, kind
    for i, q in enumerate(p.premises):
        found = reference_find_proof_redex(q, path + (i,))
        if found is not None:
            return found
    return None


def _reference_rewrite_at(p, path, kind):
    if not path:
        return _reference_transform_redex(p, kind)
    i = path[0]
    premises = list(p.premises)
    premises[i] = _reference_rewrite_at(premises[i], path[1:], kind)
    return ProofDerivation(p.rule, p.sequent, tuple(premises), p.side)


def _reference_mix(left, right, pivot, sequent):
    return ProofDerivation("m", sequent, (left, right), {"pivot": pivot})


def _reference_transform_redex(p, kind):
    from lampe.proofs import _local_constraint, _pivot_atom, subst_proof, weaken_proof
    from lampe.typesys import _get_scale

    s = p.sequent
    b = s.constraint
    if kind == "beta-cut":
        fun, arg = p.premises
        body = fun.premises[0]
        inlined = subst_proof(body, len(s.ctx), arg)
        return weaken_proof(inlined, b)
    if kind == "cbv-cut":
        major, minor = p.premises
        intro = major
        d = _local_constraint(intro)
        q = intro.sequent.formula.q
        scale = _get_scale(p)
        strengthened = weaken_proof(minor, And(b, d))
        inlined = subst_proof(strengthened, len(s.ctx), intro.premises[0])
        inlined = weaken_proof(inlined, And(b, d))
        return ProofDerivation("ci", s, (inlined,), {"d": d, "q": q * scale})
    if kind == "m-idem":
        return weaken_proof(p.premises[0], b)
    if kind == "m-m-left":
        inner = p.premises[0]
        return _reference_mix(inner.premises[0], p.premises[1], p.side["pivot"], s)
    if kind == "m-m-right":
        inner = p.premises[1]
        return _reference_mix(p.premises[0], inner.premises[1], p.side["pivot"], s)
    if kind == "m-imp-i":
        inner = p.premises[0]
        left, right = inner.premises
        new_left = ProofDerivation(
            "imp-i", Sequent(s.ctx, left.sequent.constraint, s.formula), (left,), {}
        )
        new_right = ProofDerivation(
            "imp-i", Sequent(s.ctx, right.sequent.constraint, s.formula), (right,), {}
        )
        return _reference_mix(new_left, new_right, inner.side["pivot"], s)
    if kind in ("m-imp-e-fun", "m-imp-e-arg", "m-ce-major", "m-ce-minor"):
        k = 0 if kind in ("m-imp-e-fun", "m-ce-major") else 1
        inner = p.premises[k]
        pieces = []
        for branch in inner.premises:
            bc = And(b, branch.sequent.constraint)
            premises = list(p.premises)
            premises[k] = branch
            pieces.append(
                ProofDerivation(
                    p.rule, Sequent(s.ctx, bc, s.formula),
                    tuple(weaken_proof(q, bc) for q in premises),
                    p.side if p.rule == "ce" else {},
                )
            )
        return _reference_mix(pieces[0], pieces[1], inner.side["pivot"], s)
    if kind == "m-ci":
        inner = p.premises[0]
        d = _local_constraint(p)
        q = p.side["q"] if "q" in p.side else s.formula.q
        pivot = _pivot_atom(inner)
        pieces = []
        for sign, branch in ((pivot, inner.premises[0]), (Not(pivot), inner.premises[1])):
            bc = And(b, sign)
            strengthened = weaken_proof(branch, And(bc, d))
            pieces.append(
                ProofDerivation(
                    "ci", Sequent(s.ctx, bc, s.formula), (strengthened,), {"d": d, "q": q}
                )
            )
        return _reference_mix(pieces[0], pieces[1], inner.side["pivot"], s)
    raise ValueError(f"no redex of kind {kind} at this node")


def _reference_term_path(p, proof_path):
    out = []
    for i in proof_path:
        if p.rule in ("m", "imp-e"):
            out.append(i)
        elif p.rule in ("imp-i", "ci"):
            out.append(0)
        elif p.rule == "ce":
            out.extend((1,) if i == 0 else (0, 0))
        else:
            raise ValueError("path descends through a leaf")
        p = p.premises[i]
    return tuple(out)


def reference_normalization(p, max_steps=10000):
    """Every leftmost-outermost step of p as (path, kind, next proof), found
    by rescanning from the root and rebuilt through the two chains."""
    from lampe.proofs import check_proof

    check_proof(p)
    out = []
    while len(out) < max_steps:
        found = reference_find_proof_redex(p)
        if found is None:
            break
        p = _reference_rewrite_at(p, *found)
        check_proof(p)
        out.append((*found, p))
    return out


def reference_simulation(p, fuel=1000):
    """`verify_simulation`'s entries through the reference loop, each step
    translating both proofs."""
    from lampe.proofs import SimulationEntry, _witness_steps, check_proof, proof_term
    from lampe.terms import print_term

    check_proof(p)
    entries = []
    used = 0
    while used < fuel:
        found = reference_find_proof_redex(p)
        if found is None:
            break
        path, kind = found
        nxt = _reference_rewrite_at(p, path, kind)
        check_proof(nxt)
        before, after = proof_term(p), proof_term(nxt)
        try:
            witnessed, steps = _witness_steps(before, kind, _reference_term_path(p, path))
            ok = alpha_eq(witnessed, after)
            detail = "" if ok else (
                f"reached {print_term(witnessed)}, expected {print_term(after)}"
            )
        except (RecursionError, MemoryError):
            raise
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            steps, ok, detail = [], False, str(exc)
        entries.append(SimulationEntry(kind, ok, steps, detail))
        used += max(len(steps), 1)
        p = nxt
    return entries


# ---------------------------------------------------------------------------
# Reference parsers: the tokenizer that listed each token's kind, text and
# position from `finditer`, and the four parsers that dispatched on those
# kinds, kept as they were before the token stream became one `findall` of
# texts, so each parser's values and errors are compared against an
# independent copy


def reference_token_pattern(*groups):
    """One grammar's tokens as one compiled alternation: `groups` are
    `(kind, regex)` pairs, tried in order, none of which matches whitespace.
    A non-space character that no group matches is a token of kind "?"."""
    alternatives = "".join(f"(?P<{kind}>{regex})|" for kind, regex in groups)
    return re.compile(rf"{alternatives}(\S)")


def reference_tokenize(pattern, text):
    """The `(kind, text, position)` tokens of `text` under `pattern`, in one
    pass, closed by an `eof` token at len(text).  Whitespace separates
    tokens: no match starts on it, so the search skips it."""
    end = len(text)  # first, so a non-text input fails alike in every grammar
    out = [(m.lastgroup or "?", m.group(), m.start()) for m in pattern.finditer(text)]
    out.append(("eof", "", end))
    return out


_REFERENCE_TERM_TOKENS = reference_token_pattern(
    ("choice", r"\(\+[a-z][a-zA-Z0-9_'~]*\.[0-9]+\)"),
    ("badchoice", r"\(\+"),
    ("lam", r"\\"),
    ("dot", r"\."),
    ("lpar", r"\("),
    ("rpar", r"\)"),
    ("lbrace", r"\{"),
    ("rbrace", r"\}"),
    ("const", "#c"),
    ("nu", r"nu(?![a-zA-Z0-9_'~])"),
    ("ident", r"[a-z][a-zA-Z0-9_'~]*"),
    ("abbrev", r"[A-Z][A-Z0-9_]*|2"),
)


def reference_parse_term(text):
    """Parse the ASCII term grammar.  Abbreviations: I, OMEGA, 2.

    Binders are read in a loop, and each parenthesis or brace level costs
    one interpreter frame.  A character outside the grammar is reported
    before any error of structure, wherever it occurs."""
    toks = reference_tokenize(_REFERENCE_TERM_TOKENS, text)
    i = 0

    def term():
        # binders* (application (choice application)*)
        nonlocal i
        binders = []
        kind = toks[i][0]
        while kind == "lam" or kind == "nu":
            var = toks[i + 1]
            if var[0] != "ident":
                raise ParseError(f"expected ident, found {var[0]}", var[2])
            dot = toks[i + 2]
            if dot[0] != "dot":
                raise ParseError(f"expected dot, found {dot[0]}", dot[2])
            binders.append((kind, var[1]))
            i += 3
            kind = toks[i][0]
        t = label = None
        while True:
            app = None
            while True:
                kind, val, pos = toks[i]
                if kind == "ident":
                    i += 1
                    atom = Var(val)
                elif kind == "lpar" or kind == "lbrace":
                    if kind == "lbrace" and app is not None:
                        raise ParseError("braced CbV function cannot be an argument", pos)
                    i += 1
                    atom = term()
                    close = "rpar" if kind == "lpar" else "rbrace"
                    if toks[i][0] != close:
                        raise ParseError(
                            f"expected {close}, found {toks[i][0]}", toks[i][2]
                        )
                    i += 1
                    if kind == "lbrace":
                        atom = _BraceFun(atom)
                elif kind == "lam" or kind == "nu":
                    atom = term()
                elif kind == "const":
                    i += 1
                    atom = CONST
                elif kind == "abbrev":
                    if val not in _ABBREVIATIONS:
                        raise ParseError(f"unknown abbreviation {val}", pos)
                    i += 1
                    atom = _ABBREVIATIONS[val]
                elif app is None:
                    raise ParseError(f"unexpected token {kind}", pos)
                else:
                    break
                if app is None:
                    app = atom
                elif isinstance(app, _BraceFun):
                    app = CbvApp(app.fun, atom)
                else:
                    app = App(app, atom)
            if isinstance(app, _BraceFun):
                raise ParseError("braced CbV function must be applied", pos)
            t = app if t is None else Choice(t, app, Name(label), int(index))
            if kind != "choice":
                break
            label, _, index = val[2:-1].partition(".")
            i += 1
        for kind, var in reversed(binders):
            t = Lam(var, t) if kind == "lam" else Nu(Name(var), t)
        return t

    try:
        t = term()
        kind, _, pos = toks[i]
        if kind != "eof":
            raise ParseError(f"trailing input at {kind}", pos)
    except (ParseError, RecursionError):
        for kind, val, pos in toks:
            if kind == "badchoice":
                raise ParseError("malformed choice operator", pos) from None
            if kind == "?":
                raise ParseError(f"unexpected character {val!r}", pos) from None
        raise
    return t


_REFERENCE_FORMULA_TOKENS = reference_token_pattern(
    ("sym", r"[()!&|]"),
    ("const", r"[TF](?!\w)"),
    ("atom", r"[a-z][a-zA-Z0-9_'~]*\.[0-9]+"),
)


def reference_parse_formula(text):
    """Parse an event formula; `!` binds tighter than `&`, and `&` tighter
    than `|`.  Each parenthesis level costs one interpreter frame."""
    toks = reference_tokenize(_REFERENCE_FORMULA_TOKENS, text)
    i = 0

    def disjunction():
        # negated operands joined by & and |
        nonlocal i
        out = conj = None
        while True:
            start = i
            while toks[i][1] == "!":
                i += 1
            nots = i - start
            kind, val, pos = toks[i]
            i += 1
            if kind == "atom":
                name, _, index = val.partition(".")
                operand = Atom(Name(name), int(index))
            elif kind == "const":
                operand = TOP if val == "T" else BOT
            elif val == "(":
                operand = disjunction()
                if toks[i][1] != ")":
                    raise ParseError("expected ')'", toks[i][2])
                i += 1
            elif kind == "eof":
                raise ParseError("unexpected end of formula", pos)
            else:
                raise ParseError(f"unexpected character {text[pos]!r} in formula", pos)
            for _ in range(nots):
                operand = Not(operand)
            conj = operand if conj is None else And(conj, operand)
            op = toks[i][1]
            if op == "|":
                out = conj if out is None else Or(out, conj)
                conj = None
            elif op != "&":
                return conj if out is None else Or(out, conj)
            i += 1

    out = disjunction()
    kind, _, pos = toks[i]
    if kind != "eof":
        raise ParseError("trailing input in formula", pos)
    return out


# `C[q]` up to the first `]`; without one, the token runs to the end of the
# text and is reported as unterminated
_REFERENCE_COUNT_TOKEN = ("count", r"C\[[^\]]*\]?")

_REFERENCE_TYPE_TOKENS = reference_token_pattern(
    _REFERENCE_COUNT_TOKEN, ("ground", r"(?:hn|n|o)\b"), ("sym", r"=>|[()\[\],]")
)


# `q` in `C[q]`: ASCII `n` or `n/d`
_REFERENCE_EXPONENT = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def reference_count_exponent(token, pos):
    """The rational `q` of a `C[q]` token found at `pos`."""
    if not token.endswith("]"):
        raise ParseError("unterminated 'C['", pos)
    m = _REFERENCE_EXPONENT.fullmatch(token, 2, len(token) - 1)
    if m is None or m[2] is not None and int(m[2]) == 0:
        raise ParseError(f"expected n or n/d with d > 0 in {token!r}", pos)
    return Fraction(int(m[1]), int(m[2] or 1))


def reference_parse_type(text):
    """Parse a counting type.  Each arrow or multiset level costs one
    interpreter frame; a quantifier prefix costs none."""
    toks = reference_tokenize(_REFERENCE_TYPE_TOKENS, text)
    i = 0

    def typ():
        nonlocal i
        counts = []
        kind, val, pos = toks[i]
        while kind == "count":
            counts.append(reference_count_exponent(val, pos))
            i += 1
            kind, val, pos = toks[i]
        i += 1
        if kind == "ground":
            out = Ground(val)
        elif val == "(":
            dom = typ()
            if toks[i][1] != "=>":
                raise ParseError("expected '=>'", toks[i][2])
            i += 1
            cod = typ()
            if toks[i][1] != ")":
                raise ParseError("expected ')'", toks[i][2])
            i += 1
            out = Arrow(dom, cod)
        elif val == "[":
            items = []
            sep = toks[i][1]
            if sep == "]":
                i += 1
            while sep != "]":
                items.append(typ())
                _, sep, pos = toks[i]
                i += 1
                if sep != "," and sep != "]":
                    raise ParseError("expected ',' or ']' in multiset", pos)
            out = mk_mset(items)
        elif kind == "eof":
            raise ParseError("unexpected end of type", pos)
        else:
            raise ParseError(f"unexpected character {text[pos]!r} in type", pos)
        for q in reversed(counts):
            out = Counted(q, out)
        return out

    out = typ()
    kind, _, pos = toks[i]
    if kind != "eof":
        raise ParseError("trailing input in type", pos)
    return out


_REFERENCE_PROOF_FORMULA_TOKENS = reference_token_pattern(
    _REFERENCE_COUNT_TOKEN, ("var", "[a-zA-Z][a-zA-Z0-9_]*"), ("sym", "->|[()]")
)


def reference_parse_proof_formula(text):
    """Parse a counting propositional formula; `->` associates to the right.
    Arrows and quantifier prefixes are read in loops, and each parenthesis
    level costs one interpreter frame."""
    toks = reference_tokenize(_REFERENCE_PROOF_FORMULA_TOKENS, text)
    i = 0

    def implication():
        nonlocal i
        parts = []
        while True:
            counts = []
            kind, val, pos = toks[i]
            while kind == "count":
                counts.append(reference_count_exponent(val, pos))
                i += 1
                kind, val, pos = toks[i]
            i += 1
            if kind == "var":
                out = PropVar(val)
            elif val == "(":
                out = implication()
                if toks[i][1] != ")":
                    raise ParseError("expected ')'", toks[i][2])
                i += 1
            else:
                raise ParseError("expected a propositional variable", pos)
            for q in reversed(counts):
                out = Count(q, out)
            parts.append(out)
            if toks[i][1] != "->":
                break
            i += 1
        out = parts.pop()
        while parts:
            out = Implies(parts.pop(), out)
        return out

    out = implication()
    kind, _, pos = toks[i]
    if kind != "eof":
        raise ParseError("trailing input in formula", pos)
    return out
