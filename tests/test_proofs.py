import json
import random
import sys
from pathlib import Path

import pytest

from helpers import (
    B_,
    HALF,
    P,
    S,
    cut_proof,
    duplicator_proof,
    half_id_proof,
    mixed_copies_proof,
    mixed_premise_proof,
    proof_fixture_corpus,
    proof_kind_corpus,
    random_proof,
    reference_normalization,
    reference_simulation,
    tree_nodes,
)
from lampe.errors import (
    IllFormedError,
    ParseError,
    PreconditionError,
    RuleShapeError,
    SideConditionError,
)
from lampe.formulas import And, Atom, BOT, Not, TOP, parse_formula
from lampe.proofs import (
    _WITNESS_STEPS,
    Count,
    Implies,
    PropVar,
    _proof_step,
    _same_proof,
    _term_path,
    check_proof,
    formula_type,
    normalize_proof,
    normalize_step,
    parse_proof_formula,
    print_proof_formula,
    proof_from_json,
    proof_term,
    proof_to_json,
    translate,
    verify_simulation,
    weaken_proof,
)
from lampe.terms import Name, alpha_eq, parse_term, print_term, subterm_at
from lampe.typesys import CBV, O, Counted, check_derivation, print_type

A = PropVar("A")
a = Name("a")


def test_formula_parse_print():
    for text in ["A", "A -> B", "C[1/2] (A -> A)", "C[1/2] C[1/2] A", "(A -> B) -> C"]:
        f = parse_proof_formula(text)
        assert parse_proof_formula(print_proof_formula(f)) == f


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("A ->", "expected a propositional variable", 4),
        ("-> A", "expected a propositional variable", 0),
        ("", "expected a propositional variable", 0),
        ("(A -> B", "expected ')'", 7),
        ("A B", "trailing input in formula", 2),
        ("C[1/2 A", "unterminated 'C['", 0),
        ("C[1/2] (A -> C[1", "unterminated 'C['", 13),
        ("C[1/0] A", "expected n or n/d with d > 0 in 'C[1/0]'", 0),
        ("A -> C[-1/2] A", "expected n or n/d with d > 0 in 'C[-1/2]'", 5),
        ("C[ +1_0 / 2_0 ] A", "expected n or n/d with d > 0 in 'C[ +1_0 / 2_0 ]'", 0),
        ("C[\u0661/\u0662] A", "expected n or n/d with d > 0 in 'C[\u0661/\u0662]'", 0),
    ],
)
def test_proof_formula_parse_error_table(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_proof_formula(text)
    assert (info.value.message, info.value.position) == (message, position)


def test_half_id_checks():
    s = check_proof(half_id_proof())
    assert s.formula == Count(HALF, Implies(A, A))


def test_duplicator_checks():
    s = check_proof(duplicator_proof())
    assert print_proof_formula(s.formula) == "C[1/2] (A -> A) -> A -> C[1/2] C[1/2] A"


def test_id_instance_any_constraint():
    p = P("id", S((A,), parse_formula("a.0 & b.1"), A), (), {"index": 0})
    check_proof(p)


def test_bad_mixing_condition_rejected():
    left = P("id", S((A,), TOP, A), (), {"index": 0})
    right = P("id", S((A,), TOP, A), (), {"index": 0})
    bad = P(
        "m",
        S((A,), parse_formula("a.0"), A),
        (left, right),
        {"pivot": Atom(a, 1)},
    )
    # T does not hold only on the a.1 side split of a.0... the side is fine
    check_proof(bad)
    worse = P(
        "m",
        S((A,), TOP, A),
        (
            P("id", S((A,), Atom(a, 0), A), (), {"index": 0}),
            P("bot", S((A,), BOT, A)),
        ),
        {"pivot": Atom(a, 0)},
    )
    with pytest.raises(SideConditionError):
        check_proof(worse)


def test_a_proof_is_checked_once(monkeypatch):
    import lampe.proofs as proofs

    shape_checks = []
    shape = proofs._shape

    def counted(cond, message):
        shape_checks.append(message)
        shape(cond, message)

    # every proof rule makes at least one shape check
    monkeypatch.setattr(proofs, "_shape", counted)
    p = cut_proof()
    check_proof(p)
    assert shape_checks and len(tree_nodes(p)) > 1
    shape_checks.clear()
    assert check_proof(p) == p.sequent
    assert shape_checks == []
    # a node that failed is not marked: it fails alike on the next call
    worse = P("m", S((A,), TOP, A), (p.premises[0], P("bot", S((A,), BOT, A))),
              {"pivot": Atom(a, 0)})
    errors = []
    for _ in range(2):
        with pytest.raises((SideConditionError, RuleShapeError)) as info:
            check_proof(worse)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_an_unknown_rule_is_reported_after_its_premises():
    good = P("id", S((A,), TOP, A), (), {"index": 0})
    bad = P("id", S((A,), TOP, A), (), {"index": 1})
    with pytest.raises(RuleShapeError) as err:
        check_proof(P("foo", S((A,), TOP, A), (good, bad)))
    assert err.value.message == "bad hypothesis index"
    with pytest.raises(RuleShapeError) as err:
        check_proof(P("foo", S((A,), TOP, A), (good, good)))
    assert err.value.message == "unknown proof rule foo"


def test_proof_walks_reject_an_unknown_rule():
    """weaken_proof and proof_term, which check_proof's callers reach only
    with checked proofs, still name a rule they do not know."""
    unknown = P("foo", S((A,), TOP, A))
    with pytest.raises(RuleShapeError) as err:
        weaken_proof(unknown, TOP)
    assert err.value.message == "foo"
    with pytest.raises(RuleShapeError) as err:
        proof_term(unknown)
    assert err.value.message == "foo"


def test_weakening_a_proof_by_its_bound_name_is_ill_formed():
    """The half-identity's ci node binds a, so a constraint on a would be
    captured by it."""
    with pytest.raises(IllFormedError, match="collides with a bound name"):
        weaken_proof(half_id_proof(), Atom(a, 0))


def _spine(ty):
    """The exponents and the arrow domains met down a type's spine of
    quantifier bodies and arrow codomains, in order, and the ground type at
    its end."""
    qs, doms = [], []
    while type(ty) is not type(O):
        if type(ty) is Counted:
            qs.append(ty.q)
            ty = ty.body
        else:
            doms.append(ty.dom)
            ty = ty.cod
    return qs, doms, ty


def test_proof_formula_walks_loop_over_3000_links():
    """The printer and `formula_type` keep a stack, so at CPython's default
    recursion limit a 3,000-link arrow chain and a 3,000-quantifier prefix,
    which the parser reads in loops, print back and get their types; the
    quantifiers of 3,000 consequents move out over all the arrows."""
    counted_arrow = Implies(A, Count(HALF, A))
    floated = A
    for _ in range(3000):
        floated = Implies(A, Count(HALF, floated))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        cases = [
            (parse_proof_formula(text), text, spine)
            for text, spine in (
                ("A -> " * 3000 + "A", ([], [O] * 3000, O)),
                ("C[1/2] " * 3000 + "A", ([HALF] * 3000, [], O)),
                (
                    "(A -> C[1/2] A) -> " * 3000 + "A",
                    ([], [formula_type(counted_arrow)] * 3000, O),
                ),
            )
        ]
        cases.append((floated, None, ([HALF] * 3000, [O] * 3000, O)))
        for f, text, spine in cases:
            assert text is None or print_proof_formula(f) == text
            assert _spine(formula_type(f)) == spine
    finally:
        sys.setrecursionlimit(limit)


def test_checking_survives_a_10000_deep_proof():
    """The checking driver keeps an explicit stack, so a left-nested chain
    of 10,000 `m` nodes fits in the default recursion limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        ident = P("id", S((A,), TOP, A), (), {"index": 0})
        p = ident
        for _ in range(10_000):
            p = P("m", S((A,), TOP, A), (p, ident), {"pivot": Atom(a, 0)})
        assert check_proof(p) is p.sequent
        assert p._checked
    finally:
        sys.setrecursionlimit(limit)


def test_ci_freshness_condition():
    bad = P(
        "ci",
        S((), Atom(a, 0), Count(HALF, A)),
        (P("id", S((A,), And(Atom(a, 0), Atom(a, 0)), A), (), {"index": 0}),),
        {"d": Atom(a, 0)},
    )
    # wait: ctx mismatch; build a proper premise
    prem = P("bot", S((), BOT, A))
    bad = P(
        "ci",
        S((), Atom(a, 0), Count(HALF, A)),
        (P("bot", S((), And(Atom(a, 0), Atom(a, 0)), A)),),
        {"d": Atom(a, 0)},
    )
    with pytest.raises((SideConditionError, RuleShapeError)):
        check_proof(bad)


def test_normalize_cut():
    normal, steps = normalize_proof(cut_proof())
    assert steps == 6
    assert normalize_step(normal) is None
    assert print_proof_formula(normal.sequent.formula) == "A -> C[1/2] C[1/2] A"


def test_normalize_proof_step_cap_is_inclusive():
    # cut_proof needs exactly 6 steps: a cap of 6 is enough, 5 is not
    normal, steps = normalize_proof(cut_proof(), max_steps=6)
    assert steps == 6 and normalize_step(normal) is None
    with pytest.raises(IllFormedError, match="did not finish in 5 steps"):
        normalize_proof(cut_proof(), max_steps=5)


def test_negative_proof_budgets_are_precondition_errors():
    # a negative cap used to disable the bound, and a negative simulation
    # fuel reported zero steps as a pass
    with pytest.raises(PreconditionError, match="fuel must be >= 0"):
        normalize_proof(cut_proof(), max_steps=-1)
    with pytest.raises(PreconditionError, match="fuel must be >= 0"):
        verify_simulation(cut_proof(), fuel=-1)
    # zero stays a valid budget
    with pytest.raises(IllFormedError, match="did not finish in 0 steps"):
        normalize_proof(cut_proof(), max_steps=0)
    assert verify_simulation(cut_proof(), fuel=0).entries == []


def test_normal_proof_has_no_step():
    assert normalize_step(half_id_proof()) is None


def test_m_over_imp_i_permutes():
    exact = P(
        "imp-i",
        S((), Atom(a, 0), Implies(A, A)),
        (P("id", S((A,), Atom(a, 0), A), (), {"index": 0}),),
    )
    dummy = P(
        "imp-i",
        S((), Not(Atom(a, 0)), Implies(A, A)),
        (P("id", S((A,), Not(Atom(a, 0)), A), (), {"index": 0}),),
    )
    both = P(
        "imp-i",
        S((), TOP, Implies(A, A)),
        (
            P(
                "m",
                S((A,), TOP, A),
                (
                    P("id", S((A,), Atom(a, 0), A), (), {"index": 0}),
                    P("id", S((A,), Not(Atom(a, 0)), A), (), {"index": 0}),
                ),
                {"pivot": Atom(a, 0)},
            ),
        ),
    )
    out = normalize_step(both)
    assert out.rule == "m"
    assert all(q.rule == "imp-i" for q in out.premises)


def test_translate_half_id():
    term, deriv = translate(half_id_proof())
    assert alpha_eq(term, parse_term("nu a. (\\x.x) (+a.0) #c"))
    j = check_derivation(deriv, CBV)
    assert print_type(j.type) == "C[1/2] (o => o)"


def test_translate_type_map():
    f = parse_proof_formula("A -> C[1/2] B")
    assert print_type(formula_type(f)) == "C[1/2] (o => o)"
    g = parse_proof_formula("C[1/2] C[1/4] A")
    assert print_type(formula_type(g)) == "C[1/2] C[1/4] o"


def test_simulation_fixture_corpus():
    for p in proof_fixture_corpus():
        rep = verify_simulation(p, fuel=1000)
        assert not rep.failures


def test_simulation_cut_has_both_cut_kinds():
    rep = verify_simulation(cut_proof(), fuel=1000)
    kinds = [e.kind for e in rep.entries]
    assert "beta-cut" in kinds and "cbv-cut" in kinds
    assert not rep.failures


def test_random_proofs_simulate():
    rng = random.Random(123)
    made = 0
    while made < 25:
        p = random_proof(rng, depth=rng.randrange(2, 6))
        if p is None:
            continue
        made += 1
        check_proof(p)
        rep = verify_simulation(p, fuel=1000)
        assert not rep.failures, rep.failures[0]


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_simulation_propagates_resource_errors(monkeypatch, exc):
    def replay(*args):
        raise exc("replay")

    monkeypatch.setattr("lampe.proofs._witness_steps", replay)
    with pytest.raises(exc):
        verify_simulation(cut_proof(), fuel=1000)


def test_simulation_records_replay_failures(monkeypatch):
    def replay(*args):
        raise ValueError("no witness")

    monkeypatch.setattr("lampe.proofs._witness_steps", replay)
    rep = verify_simulation(cut_proof(), fuel=1000)
    assert rep.failures
    assert all(e.detail == "no witness" for e in rep.failures)


def test_proof_json_roundtrip():
    golden = json.loads((Path(__file__).parent / "golden" / "proof_cli.json").read_text())
    inputs = list(golden["inputs"].values())
    for p in proof_fixture_corpus() + [proof_from_json(obj) for obj in inputs]:
        back = proof_from_json(proof_to_json(p))
        assert check_proof(back) == check_proof(p)
        assert alpha_eq(proof_term(back), proof_term(p))
    assert [proof_to_json(proof_from_json(obj)) for obj in inputs] == inputs


def test_proof_walks_return_on_10000_deep_proofs():
    """Every walk over proof trees keeps an explicit stack, so at CPython's
    default recursion limit they all return on a proof 10,001 levels deep:
    the codec, the proof term, the translation, and normalization and its
    simulation, whose two steps are the root's `m-idem`, which compares the
    two copies node by node, and the one at the bottom of the kept copy."""
    base_side = P("id", S((A, A), TOP, A), (), {"index": 0})
    base = P("m", base_side.sequent, (base_side, base_side), {"pivot": Atom(B_, 0)})
    p = mixed_copies_proof(10_000, base)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        assert proof_from_json(proof_to_json(p)).sequent == p.sequent
        term, deriv = translate(p)
        assert alpha_eq(term, proof_term(p)) and deriv.judgement.term is term
        normal, steps = normalize_proof(p)
        assert steps == 2 and normal.premises[0].rule == "m"
        entries = verify_simulation(p).entries
        assert [(e.kind, e.ok) for e in entries] == [("m-idem", True)] * 2
    finally:
        sys.setrecursionlimit(limit)


def test_the_m_idem_comparison_answers_as_eq(random_proofs):
    """`_same_proof` compares on a stack with the answer of the generated
    `==`, over every pair of corpus proofs and their nodes, equal copies
    included, and nodes that differ only in their side data (`id 0` and
    `id 1` on one sequent) or in their number of premises."""
    proofs = proof_fixture_corpus() + proof_kind_corpus() + random_proofs[:10]
    proofs.append(mixed_copies_proof(2))
    nodes = [q for p in proofs for q in tree_nodes(p)]
    nodes += [proof_from_json(proof_to_json(q)) for q in nodes[::7]]
    nodes += [P(q.rule, q.sequent, q.premises[:1], q.side) for q in nodes if q.rule == "m"]
    assert any(p is not q and p == q for p in nodes for q in nodes)
    for p in nodes:
        for q in nodes:
            assert _same_proof(p, q) == (p == q)


def test_translation_well_typed_on_random_proofs():
    rng = random.Random(5)
    made = 0
    while made < 20:
        p = random_proof(rng, depth=rng.randrange(1, 5))
        if p is None:
            continue
        made += 1
        term, deriv = translate(p)
        j = check_derivation(deriv, CBV)
        assert alpha_eq(j.term, term)
        assert j.type == formula_type(p.sequent.formula)
        assert j.constraint == p.sequent.constraint


def test_normalization_terminates_on_random_proofs():
    rng = random.Random(77)
    made = 0
    while made < 30:
        p = random_proof(rng, depth=rng.randrange(2, 6))
        if p is None:
            continue
        made += 1
        normal, steps = normalize_proof(p, max_steps=2000)
        assert normalize_step(normal) is None
        assert normal.sequent == p.sequent


@pytest.mark.parametrize("rule, kind", [("imp-e", "m-imp-e-arg"), ("ce", "m-ce-minor")])
def test_mix_in_argument_or_minor_premise_is_split(rule, kind):
    from lampe.proofs import find_proof_redex, weaken_proof

    p = mixed_premise_proof(rule, 1)
    assert find_proof_redex(p) == ((), kind)
    hyp, mix = p.premises
    pieces = []
    for branch in mix.premises:
        bc = And(TOP, branch.sequent.constraint)
        pieces.append(
            P(
                rule,
                S(p.sequent.ctx, bc, p.sequent.formula),
                (weaken_proof(hyp, bc), weaken_proof(branch, bc)),
                dict(p.side),
            )
        )
    expected = P("m", p.sequent, tuple(pieces), {"pivot": Atom(a, 0)})
    assert normalize_step(p) == expected


@pytest.fixture(scope="module")
def random_proofs():
    """40 seeded random checked proofs of depth 2 to 6."""
    rng = random.Random(2718)
    made = []
    while len(made) < 40:
        p = random_proof(rng, depth=rng.randrange(2, 7))
        if p is not None:
            made.append(p)
    return made


def test_normalization_matches_the_reference_loop(random_proofs):
    # the step function against the frozen restart-from-root loop: the same
    # steps, in the same order, with the same contracta, and the same
    # simulation entries
    kinds = set()
    for p in proof_fixture_corpus() + proof_kind_corpus() + random_proofs:
        expected = reference_normalization(p)
        got, q = [], p
        while (found := _proof_step(q)) is not None:
            got.append(found)
            q = found[2]
        assert got == expected
        assert normalize_proof(p) == (q, len(got))
        assert verify_simulation(p).entries == reference_simulation(p)
        kinds.update(kind for _, kind, _ in got)
    assert kinds == set(_WITNESS_STEPS)


def _proof_nodes(p):
    """(path, node) for every node of a proof."""
    stack = [((), p)]
    while stack:
        path, node = stack.pop()
        yield path, node
        stack.extend((path + (i,), q) for i, q in enumerate(node.premises))


def _translated_pairs(p, d):
    """(proof node, derivation node) pairs of a proof and its translation;
    a mix's branches sit under plus-l/plus-r, and the ce minor under lam."""
    stack = [(p, d)]
    while stack:
        p, d = stack.pop()
        yield p, d
        subs = d.premises
        if p.rule == "m":
            subs = [side.premises[0] for side in subs]
        elif p.rule == "ce":
            subs = [subs[1], subs[0].premises[0]]
        stack.extend(zip(p.premises, subs))


def test_premise_positions_match_proof_terms(random_proofs):
    for root in proof_fixture_corpus() + proof_kind_corpus() + random_proofs:
        term = proof_term(root)
        for path, node in _proof_nodes(root):
            assert alpha_eq(subterm_at(term, _term_path(root, path)), proof_term(node))
        _, deriv = translate(root)
        for node, d in _translated_pairs(root, deriv):
            assert alpha_eq(d.judgement.term, proof_term(node))


def test_translate_rejects_a_two_name_local_constraint():
    d = And(Atom(a, 0), Atom(B_, 0))
    body = P(
        "imp-i",
        S((), And(TOP, d), Implies(A, A)),
        (P("id", S((A,), And(TOP, d), A), (), {"index": 0}),),
    )
    p = P("ci", S((), TOP, Count(HALF * HALF, Implies(A, A))), (body,), {"d": d})
    check_proof(p)
    with pytest.raises(IllFormedError, match="translation needs a single-name local constraint"):
        translate(p)


def test_translate_rejects_a_generator_name_already_in_scope():
    # the root constraint names a, and a mix on b leaves its left branch a
    # constraint free of a, so a counting introduction there may bind a
    a0, b0 = Atom(a, 0), Atom(B_, 0)
    arrow = Implies(A, A)
    local = Atom(a, 1)

    def identity(c):
        return P("imp-i", S((), c, arrow), (P("id", S((A,), c, A), (), {"index": 0}),))

    def counted(d):
        return P("ci", S((), TOP, Count(HALF, arrow)), (identity(And(TOP, d)),), {"d": d})

    p = P(
        "m",
        S((), a0, Count(HALF, arrow)),
        (counted(local), counted(Atom(Name("c"), 0))),
        {"pivot": b0},
    )
    check_proof(p)
    with pytest.raises(IllFormedError, match="generator name a is already in scope"):
        translate(p)
