import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    A_,
    B_,
    CN_OO,
    D,
    HALF,
    INT_OO,
    J,
    P,
    S,
    braces_coin_derivation,
    cbv_fixture_corpus,
    cn_fixture_corpus,
    church_two_cbn_derivation,
    church_two_cbv_derivation,
    cn_coin,
    coin_derivation,
    two_name_quarter_bound_derivation,
    two_name_exact_bound_derivation,
    correlated_pick_term,
    duplicator_proof,
    half_id_proof,
    identity_derivation,
    int_identity,
    proof_fixture_corpus,
    record_rule_checks,
    reference_mu_star,
    tree_nodes,
)
import lampe
from lampe.errors import (
    ParseError,
    PreconditionError,
    RuleShapeError,
    SideConditionError,
    SystemMismatchError,
)
from lampe import typesys
from lampe.formulas import (
    BOT,
    And,
    Atom,
    Not,
    Or,
    TOP,
    conj,
    parse_formula,
    print_formula,
    satisfiable,
)
from lampe.proofs import (
    PropVar,
    check_proof,
    print_proof_formula,
    proof_from_json,
    proof_to_json,
)
from lampe.terms import Lam, Name, Nu, Var, parse_term, print_term
from lampe.typesys import (
    RULES_BY_SYSTEM,
    _RULE_CHECKERS,
    Arrow,
    CBV,
    CN,
    Counted,
    HN,
    INT,
    Judgement,
    N,
    O,
    TypingDerivation,
    apply_mu_star,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
    is_balanced,
    is_safe,
    judgement_from_json,
    mk_mset,
    parse_type,
    print_type,
    srank,
    subtype,
    validate_type,
)

OO = Arrow(O, O)


# ---------------------------------------------------------------------------
# Types, subtyping, rank, balance


def test_type_parse_print_roundtrip():
    for text in [
        "o",
        "hn",
        "n",
        "C[1/2] (o => o)",
        "C[1/2] C[1/3] (C[1/1] (o => o) => (o => o))",
        "([C[1/2] o, C[1/1] o] => o)",
        "C[1/1] ([] => o)",
    ]:
        t = parse_type(text)
        assert parse_type(print_type(t)) == t


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("(o => o", "expected ')'", 7),
        ("(o o)", "expected '=>'", 3),
        ("C[1/2] (o", "expected '=>'", 9),
        ("[o o]", "expected ',' or ']' in multiset", 3),
        ("[o,", "unexpected end of type", 3),
        ("", "unexpected end of type", 0),
        ("x", "unexpected character 'x' in type", 0),
        ("on", "unexpected character 'o' in type", 0),
        ("=> o", "unexpected character '=' in type", 0),
        # a ground type ends at a word boundary
        ("nx", "unexpected character 'n' in type", 0),
        ("(o => hnv)", "unexpected character 'h' in type", 6),
        ("o o", "trailing input in type", 2),
        ("C[1/2 o", "unterminated 'C['", 0),
        ("(o => C[1", "unterminated 'C['", 6),
        # q is ASCII `n` or `n/d` with d > 0
        ("C[x] o", "expected n or n/d with d > 0 in 'C[x]'", 0),
        ("C[1/0] o", "expected n or n/d with d > 0 in 'C[1/0]'", 0),
        ("C[-1/2] o", "expected n or n/d with d > 0 in 'C[-1/2]'", 0),
        ("C[ +1_0 / 2_0 ] o", "expected n or n/d with d > 0 in 'C[ +1_0 / 2_0 ]'", 0),
        ("C[\u0661/\u0662] o", "expected n or n/d with d > 0 in 'C[\u0661/\u0662]'", 0),
        ("(o => C[1/] o)", "expected n or n/d with d > 0 in 'C[1/]'", 6),
    ],
)
def test_type_parse_error_table(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_type(text)
    assert (info.value.message, info.value.position) == (message, position)


def test_subtype_written_clause_direction():
    assert subtype(parse_type("C[1/2] o"), parse_type("C[1/1] o"))
    assert not subtype(parse_type("C[1/1] o"), parse_type("C[1/2] o"))


def test_subtype_multiset_injection():
    from lampe.typesys import mset_subtype

    s_half = parse_type("C[1/2] o")
    s_one = parse_type("C[1/1] o")
    assert mset_subtype(mk_mset([s_half]), mk_mset([]))
    assert mset_subtype(mk_mset([s_half, s_one]), mk_mset([s_one]))
    assert not mset_subtype(mk_mset([s_half]), mk_mset([s_half, s_half]))


def test_subtype_arrow_contravariance():
    stronger_arg = Counted(HALF, Arrow(mk_mset([parse_type("C[1/1] o")]), O))
    weaker_arg = Counted(HALF, Arrow(mk_mset([parse_type("C[1/2] o")]), O))
    # the written multiset clause injects the right-hand multiset into the
    # left-hand one, so demanding more of the argument is the subtype side
    assert subtype(
        Counted(HALF, Arrow(mk_mset([]), O)),
        Counted(HALF, Arrow(mk_mset([parse_type("C[1/2] o")]), O)),
    )
    assert subtype(stronger_arg, stronger_arg)
    assert subtype(stronger_arg, weaker_arg)
    assert not subtype(weaker_arg, stronger_arg)


def test_subtype_preorder_properties():
    rng = random.Random(3)

    def random_type(depth):
        if depth == 0:
            return Counted(
                rng.choice([Fraction(1), HALF, Fraction(1, 4)]),
                rng.choice([O, HN, N]),
            )
        body = Arrow(
            mk_mset([random_type(depth - 1) for _ in range(rng.randrange(3))]),
            rng.choice([O, HN, N]),
        )
        return Counted(rng.choice([Fraction(1), HALF]), body)

    pool = [random_type(rng.randrange(3)) for _ in range(40)]
    for t in pool:
        assert subtype(t, t)
    for _ in range(300):
        x, y, z = (rng.choice(pool) for _ in range(3))
        if subtype(x, y) and subtype(y, z):
            assert subtype(x, z)


def test_srank_values():
    assert srank(parse_type("C[1/2] (o => o)")) == HALF
    assert srank(HN) == 0
    assert srank(N) == 1
    assert srank(mk_mset([parse_type("C[1/3] o"), parse_type("C[1/2] o")])) == HALF
    assert srank(mk_mset([])) == 0


def test_balanced_examples():
    assert is_balanced(parse_type("C[1/2] (C[1/2] o => o)"))
    sigma = "(o => o)"
    unbalanced = parse_type(f"C[1/1] (C[1/2] (C[1/1] o => o) => (C[1/1] o => o))")
    assert not is_balanced(unbalanced)
    assert is_balanced(O) and is_safe(O)


def test_safe_excludes_hn_and_empty_multiset():
    assert not is_safe(parse_type("C[1/1] (hn => hn)").body if False else parse_type("C[1/1] ([C[1/1] hn] => o)").body)
    assert not is_safe(parse_type("([]=> o)"))
    assert is_safe(parse_type("([C[1/1] o] => o)"))


def test_srank_of_an_arrow_bounds_a_quantifier_by_one():
    # srank(sigma => tau) = 1 and srank(hn) = 0, and a quantifier over an
    # arrow is bounded by the product of its arguments' sranks
    assert lampe.srank(OO) == 1
    assert lampe.is_balanced(Counted(HALF, Arrow(OO, O)))
    assert lampe.is_safe(Counted(HALF, Arrow(OO, O)))
    assert not lampe.is_balanced(Counted(HALF, Arrow(HN, O)))


def test_an_unbalanced_argument_makes_the_type_unbalanced():
    # the argument's own bound is srank(hn) = 0 < 1/2; were it balanced, the
    # outer bound would be srank(inner) = 1/2 >= 1/4
    inner = Counted(HALF, Arrow(HN, O))
    outer = Counted(Fraction(1, 4), Arrow(inner, O))
    assert lampe.srank(inner) == HALF
    assert not lampe.is_balanced(outer)
    assert not lampe.is_safe(outer)
    assert not lampe.is_balanced(Arrow(inner, O))


def test_srank_positive_on_cn_cbv_types():
    for d, _ in cbv_fixture_corpus():
        ty = d.judgement.type
        from lampe.typesys import strip_prefix

        qs, _ = strip_prefix(ty)
        assert all(q > 0 for q in qs)
    for d in cn_fixture_corpus():
        assert srank(d.judgement.type) > 0


# ---------------------------------------------------------------------------
# The checker


def test_church_two_cbn_typing():
    d = church_two_cbn_derivation()
    j = check_derivation(d, CBV)
    assert print_type(j.type) == "C[1/2] C[1/2] (C[1/2] (o => o) => (o => o))"


def test_church_two_cbv_typing():
    d = church_two_cbv_derivation()
    j = check_derivation(d, CBV)
    assert print_type(j.type) == "C[1/2] (C[1/2] (o => o) => (o => o))"


def test_corpus_checks():
    for d, _ in cbv_fixture_corpus():
        check_derivation(d, CBV)
    for d in cn_fixture_corpus():
        check_derivation(d, CN)
    check_derivation(two_name_exact_bound_derivation(), INT)


def test_every_rule_of_a_system_has_a_checker():
    rules = set().union(*RULES_BY_SYSTEM.values())
    assert rules <= set(_RULE_CHECKERS)


def test_system_mismatch():
    d = coin_derivation()
    with pytest.raises(SystemMismatchError):
        check_derivation(d, CN)  # the mu rule is not a CN rule


def test_an_accepted_derivation_is_checked_once(monkeypatch):
    checked = record_rule_checks(monkeypatch)
    d = church_two_cbv_derivation()
    check_derivation(d, CBV)
    assert len(checked) == len(tree_nodes(d))
    assert check_derivation(d, CBV) == d.judgement
    assert len(checked) == len(tree_nodes(d))
    # the mark is outside the fields: equality, repr and JSON ignore it
    fresh = church_two_cbv_derivation()
    assert d == fresh and repr(d) == repr(fresh)
    assert derivation_to_json(d) == derivation_to_json(fresh)


def test_a_rejected_derivation_fails_alike_every_time(monkeypatch):
    checked = record_rule_checks(monkeypatch)
    j = J((), {A_}, parse_term("OMEGA"), parse_formula("a.0"), OO)
    bad = D("lam", j, (coin_derivation(),))
    errors = []
    for _ in range(2):
        with pytest.raises(RuleShapeError) as info:
            check_derivation(bad, CBV)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    # the passing premise is checked once, the failing root every time
    assert checked.count(bad) == 2
    assert len(checked) == len(tree_nodes(bad)) + 1


def test_a_lambda_typed_without_an_arrow_names_its_type():
    body = D("id", J((("z", O),), (), Var("z"), TOP, O))
    bad = D("lam", J((), (), Lam("z", Var("z")), TOP, Counted(HALF, O)), (body,))
    with pytest.raises(RuleShapeError) as info:
        check_derivation(bad, CBV)
    assert str(info.value) == "E_RULE_SHAPE: expected an arrow under C[1/2] o"


def test_a_scale_outside_the_unit_interval_names_the_scale():
    d = braces_coin_derivation()
    bad = D("cbv", d.judgement, d.premises, {"scale": Fraction(3, 2)})
    with pytest.raises(SideConditionError) as info:
        check_derivation(bad, CBV)
    assert str(info.value) == "E_SIDE_CONDITION: scale 3/2 outside (0,1]"


def test_a_wrong_cbv_conclusion_names_the_expected_type():
    d = braces_coin_derivation()
    j = d.judgement
    wrong = Counted(Fraction(1, 4), OO)
    bad = D("cbv", J(j.ctx, j.names, j.term, j.constraint, wrong), d.premises)
    with pytest.raises(RuleShapeError) as info:
        check_derivation(bad, CBV)
    assert str(info.value) == "E_RULE_SHAPE: conclusion type must be C[1/2] (o => o)"


def test_a_cbv_check_does_not_count_under_int():
    d = coin_derivation()
    check_derivation(d, CBV)
    with pytest.raises(SystemMismatchError):
        check_derivation(d, INT)
    check_derivation(d, CBV)


def test_a_node_is_checked_on_the_way_down_then_after_its_premises(monkeypatch):
    checked = record_rule_checks(monkeypatch)
    j = J((), {A_}, parse_term("OMEGA"), parse_formula("a.0"), OO)
    # the root fails its membership check before any premise is checked
    with pytest.raises(SystemMismatchError):
        check_derivation(D("hn", j, (identity_derivation(),)), CBV)
    assert checked == []
    # the left premise fails its rule check before the right premise's
    # membership check runs
    bad_lam = D("lam", j, (coin_derivation(),))
    with pytest.raises(RuleShapeError) as err:
        check_derivation(D("or", j, (bad_lam, D("hn", j))), CBV)
    assert err.value.message == "subject must be a lambda"
    assert checked[-1] is bad_lam


def test_a_shared_premise_is_checked_once(monkeypatch):
    checked = record_rule_checks(monkeypatch)
    p = identity_derivation()
    root = D("or", p.judgement, (p, p))
    check_derivation(root, CBV)
    assert checked == [p.premises[0], p, root]


def test_checking_survives_a_10000_deep_derivation():
    """The checking driver keeps an explicit stack, so a chain of 10,000
    `or` nodes fits in the default recursion limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        d = identity_derivation()
        for _ in range(10_000):
            d = D("or", d.judgement, (d,))
        assert check_derivation(d, CBV) is d.judgement
        assert d._checked_under == (CBV,)
    finally:
        sys.setrecursionlimit(limit)


def test_intersection_app_checks_each_argument_premise():
    # f x with f : [C[1] ([C[1] o] => o)] and x : [C[1] o]
    fun_ty = Counted(Fraction(1), INT_OO)
    c1o = Counted(Fraction(1), O)
    ctx = (("f", mk_mset([fun_ty])), ("x", mk_mset([c1o])), ("y", mk_mset([c1o])))
    fun = D("id-sub", J(ctx, (), Var("f"), TOP, fun_ty))
    term = parse_term("f x")

    def app(arg_var, arg_constraint):
        arg = D("id-sub", J(ctx, (), Var(arg_var), arg_constraint, c1o))
        return D("app-int", J(ctx, (), term, TOP, c1o), (fun, arg))

    assert check_derivation(app("x", TOP), INT).type == c1o
    for arg_var, arg_constraint, message in (
        ("y", TOP, "argument premise subject differs"),
        ("x", Or(TOP, TOP), "argument premise keeps the constraint"),
    ):
        with pytest.raises(RuleShapeError) as err:
            check_derivation(app(arg_var, arg_constraint), INT)
        assert err.value.message == message


def test_bad_measure_bound_rejected():
    d = coin_derivation()
    bad = TypingDerivation(
        d.rule,
        Judgement(
            d.judgement.ctx,
            d.judgement.names,
            d.judgement.term,
            d.judgement.constraint,
            Counted(Fraction(3, 4), OO),
        ),
        d.premises,
        {"d": Atom(A_, 0), "q": Fraction(3, 4)},
    )
    with pytest.raises(SideConditionError):
        check_derivation(bad, CBV)


def test_or_with_no_premises_requires_unsat():
    j_ok = J((), {A_}, parse_term("OMEGA"), parse_formula("a.0 & !a.0"), OO)
    check_derivation(D("or", j_ok), CBV)
    j_bad = J((), {A_}, parse_term("OMEGA"), parse_formula("a.0"), OO)
    with pytest.raises(SideConditionError):
        check_derivation(D("or", j_bad), CBV)


def test_mu_sigma_disjointness_enforced():
    d = two_name_exact_bound_derivation()
    cases = [(Atom(A_, 0), HALF), (Atom(A_, 0), HALF)]
    bad = TypingDerivation(d.rule, d.judgement, d.premises, {"cases": cases})
    with pytest.raises(SideConditionError):
        check_derivation(bad, INT)


def _three_case_node(third):
    """nu b. I summed over the cases b.0 & b.1, !b.0 and `third`."""
    b0, b1 = Atom(B_, 0), Atom(B_, 1)
    cases = [(And(b0, b1), Fraction(1, 4)), (Not(b0), HALF), (third, Fraction(1, 4))]
    premises = [int_identity(names={B_}, constraint=f) for f, _ in cases]
    term = Nu(B_, premises[0].judgement.term)
    return D("mu-sigma", J((), (), term, TOP, Counted(Fraction(1), INT_OO)), premises, {"cases": cases})


def test_mu_sigma_disjointness_checks_every_pair():
    b0, b1 = Atom(B_, 0), Atom(B_, 1)
    assert check_derivation(_three_case_node(And(b0, Not(b1))), INT).type == Counted(
        Fraction(1), INT_OO
    )
    # only the second and the third case overlap (on !b.0 & b.1)
    with pytest.raises(SideConditionError, match="pairwise disjoint"):
        check_derivation(_three_case_node(And(Not(b0), b1)), INT)


def test_two_name_bound_exponents():
    assert check_derivation(two_name_quarter_bound_derivation(), CN).type == Counted(
        Fraction(1, 4), parse_type("(C[1/1] o => o)")
    )
    assert check_derivation(two_name_exact_bound_derivation(), INT).type == Counted(
        Fraction(3, 8), INT_OO
    )


# ---------------------------------------------------------------------------
# The generalized counting rule


def _two_name_premise():
    one = Fraction(1)
    ty1 = Counted(one, INT_OO)
    a0, b0, b1 = Atom(A_, 0), Atom(B_, 0), Atom(B_, 1)
    t = correlated_pick_term()
    names = {A_, B_}
    c1 = And(a0, And(b0, b1))
    c2 = And(Not(a0), Not(b0))
    ident = int_identity(names=names, constraint=c1)
    inner_l = D("plus-l", J((), names, t.left.left, c1, ty1), (ident,))
    mid_l = D("plus-l", J((), names, t.left, c1, ty1), (inner_l,))
    top_l = D("plus-l", J((), names, t, c1, ty1), (mid_l,))
    ident2 = int_identity(names=names, constraint=c2)
    inner_r = D("plus-r", J((), names, t.right, c2, ty1), (ident2,))
    top_r = D("plus-r", J((), names, t, c2, ty1), (inner_r,))
    return D("or", J((), names, t, Or(c1, c2), ty1), (top_l, top_r))


def _restating_or_nodes(d):
    """The `or` nodes of d whose one premise has the node's own judgement."""
    return [
        n
        for n in tree_nodes(d)
        if n.rule == "or"
        and len(n.premises) == 1
        and typesys.same_judgement(n.premises[0].judgement, n.judgement)
    ]


def test_mu_star_two_name_instance():
    star = apply_mu_star(_two_name_premise(), order=[A_, B_])
    assert star.judgement.type == Counted(Fraction(3, 8), INT_OO)
    assert star.judgement.constraint == TOP
    assert isinstance(star.judgement.term, Nu)
    assert not _restating_or_nodes(star)


def test_mu_star_prunes_a_sparse_constraint():
    """One row of 2^20 satisfies a conjunction of 20 literals over two
    names; the fold skips every prefix whose span of the truth table is 0,
    so it builds that row alone, where a row-by-row fold visits all 2^20."""
    literals = [
        Atom(n, i) if (i + k) % 3 else Not(Atom(n, i))
        for k, n in enumerate((A_, B_))
        for i in range(10)
    ]
    star = apply_mu_star(int_identity(names={A_, B_}, constraint=conj(literals)))
    assert star.judgement.type == Counted(Fraction(1, 2**20), INT_OO)
    assert [n.rule for n in tree_nodes(star)].count("or") == 1
    assert not _restating_or_nodes(star)


def _single_atom_premise():
    names = {A_}
    half_con = Atom(A_, 0)
    ident = int_identity(names=names, constraint=half_con)
    return D(
        "or",
        J((), names, ident.judgement.term, half_con, ident.judgement.type),
        (ident,),
    )


def test_mu_star_checks_its_premise_once(monkeypatch):
    checked = record_rule_checks(monkeypatch)
    premise = _two_name_premise()
    star = apply_mu_star(premise, order=[A_, B_])
    for node in tree_nodes(premise):
        assert sum(1 for n in checked if n is node) == 1
    # every node of the result is checked once, the premise's included
    assert sorted(map(id, checked)) == sorted(map(id, tree_nodes(star)))


def test_mu_star_single_atom():
    # q = 1 under constraint a.0: the discharged exponent is 1 * 1/2
    star = apply_mu_star(_single_atom_premise(), order=[A_])
    assert star.judgement.type.q == HALF


def test_mu_star_discharges_1000_names():
    """The row fold keeps its own stack, so a premise with 1,000 names and
    the constraint T gets 1,000 nested `mu-sigma` nodes over one row."""
    names = {Name(f"a{i}") for i in range(1000)}
    ident = int_identity(names=names)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        star = apply_mu_star(ident)
    finally:
        sys.setrecursionlimit(limit)
    assert star.judgement.type == ident.judgement.type
    assert not star.judgement.names
    rules = [n.rule for n in tree_nodes(star)]
    assert rules.count("mu-sigma") == 1000 and rules.count("or") == 1


def test_mu_star_top_constraint():
    ident = int_identity(names={A_}, constraint=TOP)
    star = apply_mu_star(ident, order=[A_])
    assert star.judgement.type == ident.judgement.type


def test_mu_star_rejects_repeated_order_name():
    with pytest.raises(PreconditionError, match="name order must enumerate"):
        apply_mu_star(_two_name_premise(), order=[A_, A_, B_])


def test_mu_star_rejects_unsat():
    names = {A_}
    unsat = And(Atom(A_, 0), Not(Atom(A_, 0)))
    node = D(
        "or",
        J((), names, parse_term("OMEGA"), unsat, Counted(Fraction(1), INT_OO)),
    )
    with pytest.raises(PreconditionError):
        apply_mu_star(node, order=[A_])


@pytest.mark.parametrize(
    "judgement, message",
    [
        # the root type carries no counting quantifier
        (
            J((), {A_}, parse_term("OMEGA"), Atom(A_, 0), INT_OO),
            "E_RULE_SHAPE: INT type must carry one quantifier: ([C[1/1] o] => o)",
        ),
        # the constraint reads a name the judgement does not bind
        (
            J((), {A_}, parse_term("OMEGA"), Atom(B_, 0), Counted(Fraction(1), INT_OO)),
            "E_RULE_SHAPE: constraint names escape the judgement name set",
        ),
    ],
)
def test_mu_star_premise_check_rejects_an_undischargeable_root(judgement, message):
    with pytest.raises(RuleShapeError) as err:
        apply_mu_star(D("or", judgement), order=[A_])
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# JSON round trip


def test_derivation_json_roundtrip():
    for d, _ in cbv_fixture_corpus():
        blob = derivation_to_json(d)
        back = derivation_from_json(blob)
        assert check_derivation(back, CBV).format() == d.judgement.format()
    d = two_name_exact_bound_derivation()
    back = derivation_from_json(derivation_to_json(d))
    assert check_derivation(back, INT).type == d.judgement.type
    golden = json.loads((Path(__file__).parent / "golden" / "derivation_cli.json").read_text())
    for blob in golden["inputs"].values():
        d = derivation_from_json(blob)
        assert derivation_to_json(d) == blob
        back = derivation_from_json(derivation_to_json(d))
        assert back == d


def test_fold_calls_down_in_preorder_and_up_after_the_children():
    calls = []

    def down(node, depth):
        calls.append(("down", node[0], depth))
        if len(node) == 1:
            return node[0], None
        return node[0], [(child, depth + 1) for child in node[1:]]

    def up(node, value, results):
        calls.append(("up", value, results))
        return value + "(" + ",".join(results) + ")"

    tree = ("a", ("b", ("c",), ("d",)), ("e",), ("f", ("g",)))
    assert typesys.fold(tree, 0, down, up) == "a(b(c,d),e,f(g))"
    assert [c[1] for c in calls if c[0] == "down"] == list("abcdefg")
    assert [c[2] for c in calls if c[0] == "down"] == [0, 1, 2, 2, 1, 1, 2]
    assert [c[1] for c in calls if c[0] == "up"] == list("bfa")
    assert typesys.fold(("x",), 0, down, up) == "x"
    assert typesys.fold(("x",), 0, lambda n, _: (n[0], []), up) == "x()"


def test_the_derivation_codec_round_trips_a_10000_deep_derivation():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        d = identity_derivation()
        for _ in range(10_000):
            d = D("or", d.judgement, (d,))
        back = derivation_from_json(derivation_to_json(d))
        assert check_derivation(back, CBV) == d.judgement
        assert len(tree_nodes(back)) == 10_002
    finally:
        sys.setrecursionlimit(limit)


def _deepest_loadable_chain(node, leaf):
    """The JSON object of the longest chain of copies of `node` over `leaf`
    that `json.loads` reads here, each copy's first premise the next, and
    its length.  Found by doubling, then bisection."""
    head, _, tail = json.dumps(node).partition("null")

    def loads(n):
        try:
            return json.loads(head * n + json.dumps(leaf) + tail * n)
        except RecursionError:
            return None

    low, high = 0, 1
    while loads(high) is not None:
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if loads(mid) is not None else (low, mid)
    return loads(low), low


def test_the_decoders_add_no_depth_limit_of_their_own():
    """At CPython's default recursion limit, a derivation file and a proof
    file one node inside `json.loads`' nesting limit on the Python running
    the test decode and check: the decoders keep their own stack.  That
    limit is near 500 nodes before 3.12, near 750 on 3.12.1 and near 5,000
    on 3.13, whose C recursion limit is 10,000 levels."""
    base = identity_derivation()
    ident = P("id", S((PropVar("A"), PropVar("A")), TOP, PropVar("A")), (), {"index": 0})
    other = P("id", ident.sequent, (), {"index": 1})
    chains = (
        (
            {**derivation_to_json(D("or", base.judgement, (base,))), "premises": [None]},
            derivation_to_json(base),
            lambda obj: check_derivation(derivation_from_json(obj), CBV),
            base.judgement,
        ),
        (
            {
                **proof_to_json(P("m", ident.sequent, (ident, other), {"pivot": Atom(A_, 0)})),
                "premises": [None, proof_to_json(other)],
            },
            proof_to_json(ident),
            lambda obj: check_proof(proof_from_json(obj)),
            ident.sequent,
        ),
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        for node, leaf, decode_and_check, conclusion in chains:
            obj, length = _deepest_loadable_chain(node, leaf)
            assert length > 400
            assert decode_and_check(obj) == conclusion
    finally:
        sys.setrecursionlimit(limit)


def _scaled_premise():
    """A 1/2-quantified premise under the single-atom constraint a.0."""
    names = {A_}
    atom = Atom(A_, 0)
    half_id = int_identity(names=names, constraint=atom)
    scaled = TypingDerivation(
        "mu-sigma",
        J((), (), Nu(B_, half_id.judgement.term), TOP, Counted(HALF, INT_OO)),
        (
            TypingDerivation(
                "or",
                J((), {B_}, half_id.judgement.term, And(TOP, Atom(B_, 0)), half_id.judgement.type),
                (int_identity(names={B_}, constraint=And(TOP, Atom(B_, 0))),),
            ),
        ),
        {"cases": [(Atom(B_, 0), HALF)]},
    )
    check_derivation(scaled, INT)
    # now discharge a remaining name against atom a.0
    inner = int_identity(names={A_}, constraint=atom)
    premise = D(
        "or",
        J((), {A_}, inner.judgement.term, atom, inner.judgement.type),
        (inner,),
    )
    # give it exponent 1/2 by quantifying over an auxiliary fair pick first
    halved = TypingDerivation(
        "mu-sigma",
        J((), {A_}, Nu(B_, inner.judgement.term), atom, Counted(HALF, INT_OO)),
        (
            TypingDerivation(
                "or",
                J((), {A_, B_}, inner.judgement.term, And(atom, Atom(B_, 0)), inner.judgement.type),
                (int_identity(names={A_, B_}, constraint=And(atom, Atom(B_, 0))),),
            ),
        ),
        {"cases": [(Atom(B_, 0), HALF)]},
    )
    check_derivation(halved, INT)
    return halved


def test_mu_star_scaled_premise():
    # a 1/2-quantified premise under a single-atom constraint discharges
    # to half of a half
    star = apply_mu_star(_scaled_premise(), order=[A_])
    assert star.judgement.type.q == Fraction(1, 4)


def _random_constraint(rng, pool, n_atoms):
    leaves = [Atom(*ai) for ai in rng.sample(pool, n_atoms)]
    while len(leaves) > 1:
        left = leaves.pop(rng.randrange(len(leaves)))
        right = leaves.pop(rng.randrange(len(leaves)))
        leaves.append(rng.choice((And, Or))(left, right))
        if rng.random() < 0.3:
            leaves[-1] = Not(leaves[-1])
    return leaves[0]


def test_mu_star_matches_reference_construction():
    """The fold emits the derivation of the row-enumeration construction,
    byte for byte, on the fixed premises and on random constraints."""
    cases = [
        (_two_name_premise(), [A_, B_]),
        (_two_name_premise(), [B_, A_]),
        (_single_atom_premise(), [A_]),
        (int_identity(names={A_}, constraint=TOP), [A_]),
        (_scaled_premise(), [A_]),
    ]
    c = Name("c")
    a0, a1, b0, b1 = Atom(A_, 0), Atom(A_, 1), Atom(B_, 0), Atom(B_, 1)
    # constraints with T and F inside them
    for b in (
        And(a0, Or(b1, TOP)),
        Or(Not(a1), BOT),
        Not(And(BOT, b0)),
        Or(And(Not(TOP), a0), And(b1, Not(BOT))),
    ):
        cases.append((int_identity(names={A_, B_}, constraint=b), None))
    # a 10-atom conjunction that one row of 2^10 satisfies
    row = [a0, Atom(c, 2), Not(b0), Not(a1), Atom(c, 0), b1, Atom(A_, 2)]
    row += [Not(Atom(B_, 2)), Not(Atom(c, 1)), Atom(B_, 3)]
    cases.append((int_identity(names={A_, B_, c}, constraint=conj(row)), [c, A_, B_]))
    rng = random.Random(4)
    all_names = [A_, B_, c]
    while len(cases) < 65:
        names = all_names[: rng.randint(1, 3)]
        pool = [(n, i) for n in names for i in range(3)]
        b = _random_constraint(rng, pool, rng.randint(1, min(6, len(pool))))
        if not satisfiable(b):
            continue
        order = rng.sample(names, len(names)) if rng.random() < 0.5 else None
        cases.append((int_identity(names=set(names), constraint=b), order))
    for premise, order in cases:
        expected = derivation_to_json(reference_mu_star(premise, order))
        assert derivation_to_json(apply_mu_star(premise, order)) == expected


def test_intersection_app_empty_multiset():
    # a function demanding nothing of its argument applies to anything,
    # including an untypable argument
    from lampe.terms import App, Lam, Var

    empty_arrow = Counted(Fraction(1), Arrow(mk_mset([]), O))
    ctx = (("f", mk_mset([empty_arrow])),)
    fun = D("id-sub", J(ctx, (), Var("f"), TOP, empty_arrow))
    omega = parse_term("OMEGA")
    app = D(
        "app-int",
        J(ctx, (), App(Var("f"), omega), TOP, Counted(Fraction(1), O)),
        (fun,),
    )
    check_derivation(app, INT)


def test_checker_rejects_mutations():
    """Perturbing a valid derivation's rationals, formulas, or types must
    surface as a checking error."""
    import dataclasses

    from lampe.errors import RuleShapeError

    base = coin_derivation()
    j = base.judgement

    wrong_exponent = dataclasses.replace(
        base, judgement=dataclasses.replace(j, type=Counted(Fraction(2, 3), OO))
    )
    with pytest.raises((SideConditionError, RuleShapeError)):
        check_derivation(wrong_exponent, CBV)

    wrong_constraint = dataclasses.replace(
        base, judgement=dataclasses.replace(j, constraint=Atom(A_, 0))
    )
    with pytest.raises((SideConditionError, RuleShapeError)):
        check_derivation(wrong_constraint, CBV)

    wrong_term = dataclasses.replace(
        base, judgement=dataclasses.replace(j, term=parse_term("nu a. I (+a.1) I"))
    )
    with pytest.raises((SideConditionError, RuleShapeError)):
        check_derivation(wrong_term, CBV)

    leaked_name = dataclasses.replace(
        base, judgement=dataclasses.replace(j, term=parse_term("x (+a.0) y"))
    )
    with pytest.raises(RuleShapeError):
        check_derivation(leaked_name, CBV)


def test_escaping_term_name_message_quotes_the_judgement():
    j = J((), {B_}, parse_term("x (+a.0) y"), TOP, Counted(Fraction(1), INT_OO))
    with pytest.raises(RuleShapeError) as err:
        check_derivation(D("or", j), INT)
    assert str(err.value) == (
        f"E_RULE_SHAPE: term names escape the judgement name set in {j.format()}"
    )


def test_a_variable_outside_the_context_is_rejected():
    """|- \\x. v : o => o in the empty context: the lam premise declares v
    itself, so its bound variable would capture the body's free v."""
    premise = D("id", J((("v", O),), (), Var("v"), TOP, O))
    d = D("lam", J((), (), Lam("x", Var("v")), TOP, Arrow(O, O)), (premise,))
    with pytest.raises(RuleShapeError) as err:
        check_derivation(d, CBV)
    assert str(err.value) == (
        "E_RULE_SHAPE: term variables escape the judgement context in "
        f"{d.judgement.format()}"
    )


def test_hn_and_n_rules_in_derivations():
    from lampe.typesys import HN, N

    base = int_identity()
    j = base.judgement
    hn_node = D("hn", J(j.ctx, j.names, j.term, j.constraint, Counted(Fraction(1), HN)), (base,))
    check_derivation(hn_node, INT)

    safe_node = D("n", J(j.ctx, j.names, j.term, j.constraint, Counted(Fraction(1), N)), (base,))
    check_derivation(safe_node, INT)  # ([C[1] o] => o) is balanced and safe

    # an unsafe body (mentions hn) must be rejected by the n rule
    unsafe_ty = Counted(Fraction(1), Arrow(mk_mset([Counted(Fraction(1), HN)]), HN))
    ctx = (("z", mk_mset([Counted(Fraction(1), HN)])),)
    leaf = D("id-sub", J(ctx, (), parse_term("z"), TOP, Counted(Fraction(1), HN)))
    lam = D("lam", J((), (), parse_term(r"\z.z"), TOP, unsafe_ty), (leaf,))
    check_derivation(lam, INT)
    bad = D("n", J((), (), parse_term(r"\z.z"), TOP, Counted(Fraction(1), N)), (lam,))
    with pytest.raises(SideConditionError):
        check_derivation(bad, INT)


def test_mu_rules_share_their_premise_checks():
    import dataclasses

    coin = cn_coin()
    check_derivation(dataclasses.replace(coin, side={"d": Atom(A_, 0), "s": HALF}), CN)
    for d, system in ((coin_derivation(), CBV), (coin, CN)):
        doubled = dataclasses.replace(d, premises=d.premises * 2)
        with pytest.raises(RuleShapeError) as err:
            check_derivation(doubled, system)
        assert err.value.message == f"{d.rule} takes one premise"
        no_rational = dataclasses.replace(d, side={"d": Atom(A_, 0)})
        with pytest.raises(RuleShapeError) as err:
            check_derivation(no_rational, system)
        assert err.value.message == "missing side rational 'q'"
    # only mu-prime reads its rational from `s`
    with pytest.raises(RuleShapeError) as err:
        check_derivation(
            dataclasses.replace(coin_derivation(), side={"d": Atom(A_, 0), "s": HALF}), CBV
        )
    assert err.value.message == "missing side rational 'q'"
    # a smaller rational still meets the measure bound, but not the conclusion
    for d, system, message in (
        (coin_derivation(), CBV, "conclusion must prefix the premise type"),
        (coin, CN, "conclusion exponent must be the product"),
    ):
        smaller = dataclasses.replace(d, side={"d": Atom(A_, 0), "q": Fraction(1, 4)})
        with pytest.raises(RuleShapeError) as err:
            check_derivation(smaller, system)
        assert err.value.message == message
    # every CN type carries its quantifier, so only a direct call of the
    # checker meets a premise without one
    (branch,) = coin.premises
    bare = dataclasses.replace(
        branch, judgement=dataclasses.replace(branch.judgement, type=CN_OO)
    )
    with pytest.raises(RuleShapeError) as err:
        _RULE_CHECKERS["mu-prime"](dataclasses.replace(coin, premises=(bare,)), CN)
    assert err.value.message == "premise must carry its quantifier"


def test_ground_rules_share_their_premise_checks():
    base = int_identity()
    j = base.judgement
    for rule, ground in (("hn", HN), ("n", N)):
        ty = Counted(Fraction(1), ground)
        with pytest.raises(RuleShapeError) as err:
            check_derivation(D(rule, J(j.ctx, j.names, j.term, j.constraint, ty), (base, base)), INT)
        assert err.value.message == f"{rule} takes one premise"
        other = Or(TOP, TOP)
        with pytest.raises(RuleShapeError) as err:
            check_derivation(D(rule, J(j.ctx, j.names, j.term, other, ty), (base,)), INT)
        assert err.value.message == f"{rule} keeps the constraint"
        halved = Counted(HALF, ground)
        with pytest.raises(RuleShapeError) as err:
            check_derivation(D(rule, J(j.ctx, j.names, j.term, j.constraint, halved), (base,)), INT)
        assert err.value.message == f"conclusion must be the {rule} ground type"
    # only n asks for a safe quantified type: ([C[1] hn] => hn) mentions hn
    unsafe_ty = Counted(Fraction(1), Arrow(mk_mset([Counted(Fraction(1), HN)]), HN))
    ctx = (("z", mk_mset([Counted(Fraction(1), HN)])),)
    leaf = D("id-sub", J(ctx, (), parse_term("z"), TOP, Counted(Fraction(1), HN)))
    lam = D("lam", J((), (), parse_term(r"\z.z"), TOP, unsafe_ty), (leaf,))
    lj = lam.judgement
    hn_node, n_node = (
        D(rule, J((), (), lj.term, TOP, Counted(Fraction(1), ground)), (lam,))
        for rule, ground in (("hn", HN), ("n", N))
    )
    check_derivation(hn_node, INT)
    with pytest.raises(SideConditionError) as err:
        check_derivation(n_node, INT)
    assert err.value.message == "the quantified type must be safe"


# ---------------------------------------------------------------------------
# Side data: one text form per key, decoded once, read-only on the node


SIDE_SAMPLES = [
    {"d": "a.0 & !a.1", "q": "1/2"},
    {"d": "a.0", "s": "3/4"},
    {"scale": "1/2"},
    {"cases": [["b.0", "1/2"], ["!b.0 & b.1", "1/4"]]},
    {"pivot": "a.0"},
    {"index": 2},
    {"note": ["kept", 1]},
]


@pytest.mark.parametrize("side", SIDE_SAMPLES, ids=lambda side: "-".join(side))
def test_side_codec_round_trip_is_byte_identical(side):
    for blob, decode, encode in (
        (derivation_to_json(coin_derivation()), derivation_from_json, derivation_to_json),
        (proof_to_json(half_id_proof()), proof_from_json, proof_to_json),
    ):
        text = json.dumps({**blob, "side": side})
        node = decode(json.loads(text))
        assert json.dumps(encode(node)) == text


def test_side_values_are_decoded_on_load():
    blob = derivation_to_json(coin_derivation())
    side = derivation_from_json(
        {**blob, "side": {"d": "a.0", "q": "1/2", "pivot": "b.3",
                          "cases": [["a.0", "1/2"]], "index": 1}}
    ).side
    assert side["d"] == Atom(A_, 0) and side["q"] == HALF
    assert side["pivot"] == Atom(Name("b"), 3) and side["index"] == 1
    assert side["cases"] == ((Atom(A_, 0), HALF),)


def test_side_weight_written_as_a_bare_integer_decodes_and_reencodes_as_a_ratio():
    blob = derivation_to_json(coin_derivation())
    node = derivation_from_json(
        {**blob, "side": {"q": "1", "cases": [["a.0", "1"]]}}
    )
    assert node.side["q"] == Fraction(1) and type(node.side["q"]) is Fraction
    assert node.side["cases"] == ((Atom(A_, 0), Fraction(1)),)
    assert derivation_to_json(node)["side"] == {"q": "1/1", "cases": [["a.0", "1/1"]]}


def test_side_is_read_only():
    for node in (coin_derivation(), half_id_proof()):
        with pytest.raises(TypeError):
            node.side["q"] = Fraction(1)
    # nodes without side data share one empty mapping
    assert coin_derivation().premises[0].side is int_identity().side


def test_cases_are_frozen_at_construction():
    cases = [[Atom(A_, 0), HALF]]
    node = TypingDerivation(
        "mu-sigma", coin_derivation().judgement, (), {"cases": cases}
    )
    cases.append((Not(Atom(A_, 0)), HALF))
    cases[0][1] = Fraction(1)
    assert node.side["cases"] == ((Atom(A_, 0), HALF),)


def test_side_is_copied_from_the_caller():
    import dataclasses

    for node in (coin_derivation(), half_id_proof()):
        caller = dict(node.side)
        built = dataclasses.replace(node, side=caller)
        caller["q"] = Fraction(1, 8)
        caller.pop("d")
        assert built == node and dict(built.side) == dict(node.side)
        assert dataclasses.replace(built, premises=()).side == node.side


# ---------------------------------------------------------------------------
# Decode once: one parse per distinct text of an input, shared results

_PRINTERS = {
    "type": print_type,
    "term": print_term,
    "formula": print_formula,
    "proof": print_proof_formula,
}


def _text_fields(node):
    """(printer kind, decoded object) for every parsed text of a derivation
    or proof node."""
    if isinstance(node, TypingDerivation):
        j = node.judgement
        return [
            *(("type", a) for _, a in j.ctx),
            ("term", j.term),
            ("formula", j.constraint),
            ("type", j.type),
        ]
    s = node.sequent
    return [
        *(("proof", a) for a in s.ctx),
        ("formula", s.constraint),
        ("proof", s.formula),
    ]


@pytest.mark.parametrize(
    "fixture, to_json, from_json",
    [
        (church_two_cbv_derivation, derivation_to_json, derivation_from_json),
        (two_name_exact_bound_derivation, derivation_to_json, derivation_from_json),
        (duplicator_proof, proof_to_json, proof_from_json),
    ],
    ids=["cbv-derivation", "int-derivation", "proof"],
)
def test_equal_texts_in_one_input_decode_to_one_object(fixture, to_json, from_json):
    fields = [
        (kind, obj)
        for node in tree_nodes(from_json(to_json(fixture())))
        for kind, obj in _text_fields(node)
    ]
    first = {}
    for kind, obj in fields:
        text = _PRINTERS[kind](obj)
        assert first.setdefault((kind, text), obj) is obj, text
    assert len(first) < len(fields)  # the input does repeat its texts


def test_each_decode_parses_each_distinct_text_once_under_its_own_memo(monkeypatch):
    blob = derivation_to_json(church_two_cbv_derivation())
    parse_type_calls = []

    def spy(text):
        parse_type_calls.append((text, typesys._DECODE_MEMO.get()))
        return parse_type(text)

    monkeypatch.setattr(typesys, "parse_type", spy)
    memos = []
    for _ in range(2):
        parse_type_calls.clear()
        derivation_from_json(blob)
        texts = [text for text, _ in parse_type_calls]
        assert texts and len(texts) == len(set(texts))
        assert len({id(memo) for _, memo in parse_type_calls}) == 1
        memos.append(parse_type_calls[0][1])
        assert typesys._DECODE_MEMO.get() is None
    assert isinstance(memos[0], dict) and memos[0] is not memos[1]


def _deepest_node(blob):
    node = blob
    while node["premises"]:
        node = node["premises"][-1]
    return node


def test_a_decode_that_raises_leaves_no_memo_open():
    good = derivation_to_json(church_two_cbv_derivation())
    bad = json.loads(json.dumps(good))
    _deepest_node(bad)["judgement"]["type"] = "(o =>"
    proof = proof_to_json(duplicator_proof())
    bad_proof = json.loads(json.dumps(proof))
    _deepest_node(bad_proof)["sequent"]["constraint"] = "a.0 &"
    for blob, broken, decode, encode in (
        (good, bad, derivation_from_json, derivation_to_json),
        (proof, bad_proof, proof_from_json, proof_to_json),
    ):
        with pytest.raises(ParseError):
            decode(broken)
        assert typesys._DECODE_MEMO.get() is None
        assert encode(decode(blob)) == blob


def test_a_nested_judgement_decode_joins_the_open_memo():
    blob = derivation_to_json(coin_derivation())["judgement"]

    @typesys._one_decode
    def twice():
        return judgement_from_json(blob), judgement_from_json(blob)

    first, second = twice()
    assert first.term is second.term and first.type is second.type
    assert first.constraint is second.constraint
    # alone, each call opens and drops its own memo
    assert judgement_from_json(blob).term is not judgement_from_json(blob).term


# ---------------------------------------------------------------------------
# A type records the systems it is valid under


def test_a_type_valid_under_cn_is_still_checked_under_int():
    t = parse_type("C[1/2] (C[1/2] o => o)")
    validate_type(t, CN)
    with pytest.raises(RuleShapeError, match="multiset arguments"):
        validate_type(t, INT)
    validate_type(t, CBV)
    assert t.__dict__["_valid_under"] == (CN, CBV)


def test_a_type_that_failed_validation_fails_again():
    t = parse_type("C[1/2] (C[1/2] o => hn)")
    for _ in range(2):
        with pytest.raises(RuleShapeError, match="ground type hn"):
            validate_type(t, CN)
    assert "_valid_under" not in t.__dict__
    # the valid domain keeps its own mark
    assert t.body.dom.__dict__["_valid_under"] == (CN,)



def test_an_unknown_system_is_a_value_error():
    with pytest.raises(ValueError, match="unknown system 'foo'"):
        check_derivation(identity_derivation(), "foo")
    with pytest.raises(ValueError, match="foo"):
        validate_type(O, "foo")


@pytest.mark.parametrize("q", ["3/2", "0"])
def test_a_counting_exponent_outside_the_unit_interval_is_rejected(q):
    # the type parser reads any exponent; the validity check rejects it
    t = parse_type(f"C[{q}] n")
    with pytest.raises(RuleShapeError) as error:
        validate_type(t, CN)
    assert str(error.value) == f"E_RULE_SHAPE: counting exponent {q} outside (0,1]"
    assert "_valid_under" not in t.__dict__


def test_json_round_trip_is_byte_identical_after_a_check():
    derivations = [(d, CBV) for d, _ in cbv_fixture_corpus()]
    derivations += [(d, CN) for d in cn_fixture_corpus()]
    derivations.append((two_name_exact_bound_derivation(), INT))
    for d, system in derivations:
        text = json.dumps(derivation_to_json(d))
        back = derivation_from_json(json.loads(text))
        check_derivation(back, system)
        assert json.dumps(derivation_to_json(back)) == text
    for p in proof_fixture_corpus():
        text = json.dumps(proof_to_json(p))
        back = proof_from_json(json.loads(text))
        check_proof(back)
        assert json.dumps(proof_to_json(back)) == text
