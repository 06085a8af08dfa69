import random
from dataclasses import fields
from fractions import Fraction

import pytest

from lampe.errors import (
    FuelError,
    ModeViolationError,
    NotPnfError,
    OpenNamesError,
    PreconditionError,
)
from lampe.rewrite import (
    PE,
    first_step,
    PE_BRACES,
    Generator,
    PseudoValue,
    apply_rule_at,
    classify_pnf,
    head_step,
    is_hnv,
    is_pnf,
    iter_steps,
    pnf,
    reduce_term,
    step,
)
from lampe.terms import (
    App,
    CbvApp,
    Choice,
    Lam,
    Name,
    Nu,
    Term,
    Var,
    alpha_eq,
    children,
    parse_term,
    print_term,
    replace_at,
    subterm_at,
)

a = Name("a")


def rules_of(t, mode=PE):
    return [s.rule for s in step(t, mode)]


def test_idempotence_step():
    t = parse_term("x (+a.0) x")
    steps = step(t)
    assert any(s.rule == "i" and s.after == Var("x") for s in steps)


def test_worked_duplication_example():
    # nu a. (t1 (+a.0) t2) (u1 (+a.1) u2) permutes into the full tree
    t = parse_term("nu a. (t1 (+a.0) t2) (u1 (+a.1) u2)")
    assert "plus-fun" in rules_of(t)
    result, _ = pnf(t)
    expected = parse_term(
        "nu a. (t1 u1 (+a.1) t1 u2) (+a.0) (t2 u1 (+a.1) t2 u2)"
    )
    assert alpha_eq(result, expected)


def test_cbv_nu_step():
    t = parse_term("{t} (nu a. u)")
    steps = step(t, PE_BRACES)
    assert any(
        s.rule == "cbv-nu" and alpha_eq(s.after, parse_term("nu a. t u"))
        for s in steps
    )


def test_mode_violation():
    with pytest.raises(ModeViolationError):
        step(parse_term("{t} u"), PE)


def test_pnf_lambda_choice():
    t = parse_term("nu a. \\x. (u (+a.0) v)")
    result, trace = pnf(t)
    assert alpha_eq(result, parse_term("nu a. (\\x. u) (+a.0) (\\x. v)"))
    assert trace[0].rule == "plus-lam"


def test_pnf_drops_unused_generator():
    t = parse_term("nu a. t")
    result, trace = pnf(t, PE)
    assert result == Var("t")
    assert [s.rule for s in trace] == ["not-nu"]
    # the braces relation keeps it
    result2, trace2 = pnf(t, PE_BRACES)
    assert isinstance(result2, Nu) and not trace2


def test_pnf_of_pseudo_value_is_identity():
    v = parse_term("\\x. x (nu a. y (+a.0) z)")
    result, trace = pnf(v)
    assert result == v and not trace


def test_classify_pseudo_value():
    assert isinstance(classify_pnf(parse_term("\\x.x")), PseudoValue)
    # application headed by a variable is a pseudo-value
    t = parse_term("x (nu a. y (+a.0) z)")
    assert isinstance(classify_pnf(t), PseudoValue)


def test_classify_generator():
    t, _ = pnf(parse_term("nu a. I (+a.0) OMEGA"))
    view = classify_pnf(t)
    assert isinstance(view, Generator)
    assert view.name is a
    assert len(view.support) == 2
    assert alpha_eq(view.support[0], parse_term("I"))


def test_classify_rejects_open_names():
    with pytest.raises(OpenNamesError):
        classify_pnf(parse_term("x (+a.0) y"))


def test_classify_rejects_non_pnf():
    with pytest.raises(NotPnfError):
        classify_pnf(parse_term("nu a. \\x. (u (+a.0) v)"))


def test_head_step_inside_randomized_context():
    t = parse_term("nu a. ((\\x.x) y) (+a.0) z")
    s = head_step(t)
    assert s.rule == "beta"
    assert alpha_eq(s.after, parse_term("nu a. y (+a.0) z"))


def test_head_step_hnv_is_none():
    assert head_step(parse_term("\\x.\\y. y u1 u2")) is None
    assert is_hnv(parse_term("\\x.\\y. y u1 u2"))


def test_a_generator_is_not_a_head_normal_value():
    assert not is_hnv(parse_term("nu a. I"))


def test_head_step_omega_loops():
    t = parse_term("OMEGA")
    s = head_step(t)
    assert s.rule == "beta" and alpha_eq(s.after, t)


def test_reduce_zero_fuel():
    t = parse_term("OMEGA")
    out = reduce_term(t, PE, "full", 0)
    assert out.term == t and out.trace == [] and out.exhausted


@pytest.mark.parametrize("strategy", ["full", "head"])
def test_reduce_negative_fuel_is_a_precondition_error(strategy):
    with pytest.raises(PreconditionError, match="fuel must be >= 0"):
        reduce_term(parse_term(r"(\x. x) y"), PE, strategy, -1)


def test_reduce_rejects_an_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy 'inner'"):
        reduce_term(parse_term(r"(\x. x) y"), PE, "inner")


def test_reduce_cbn_reaches_four_branch_pnf():
    t = parse_term(r"(\y.\x.{y}(y x)) (nu a. I (+a.0) OMEGA)")
    out = reduce_term(t, PE_BRACES, "full", 200)
    result, _ = pnf(out.term, PE_BRACES)
    view = classify_pnf(result, PE_BRACES)
    assert isinstance(view, Generator)

    def leaves(term):
        inner = classify_pnf(term, PE_BRACES)
        if isinstance(inner, PseudoValue):
            return [inner.term]
        out = []
        for leaf in inner.support:
            out.extend(leaves(leaf))
        return out

    assert len(leaves(result)) == 4


def test_reduce_cbv_reaches_two_branch_pnf():
    t = parse_term("nu a. 2 (I (+a.0) OMEGA)")
    out = reduce_term(t, PE, "full", 60)
    result, _ = pnf(out.term)
    view = classify_pnf(result)
    assert isinstance(view, Generator)
    assert len(view.support) == 2


def test_trace_serialization():
    t = parse_term("nu a. \\x. (u (+a.0) v)")
    _, trace = pnf(t)
    line = trace[0].format()
    assert "plus-lam" in line and "~>" in line
    as_json = trace[0].to_json()
    assert set(as_json) == {"rule", "path", "before", "after"}


def test_unique_pnf_small_randomized():
    rng = random.Random(11)
    import sys, os

    sys.path.insert(0, os.path.dirname(__file__))
    from helpers import random_term

    for i in range(60):
        t = random_term(rng, rng.randrange(4, 25), [], [])
        results = []
        for seed in (2 * i, 2 * i + 1):
            u = t
            local = random.Random(seed)
            while True:
                triples = list(iter_steps(u, PE, include_beta=False))
                if not triples:
                    break
                rule, path, result = local.choice(triples)
                u = replace_at(u, path, result)
            results.append(u)
        assert alpha_eq(results[0], results[1])
        assert is_pnf(results[0])


def test_projection_commutes_with_unrelated_steps():
    """A permutative step whose rule does not touch a projected name is
    matched by zero or one step after projection."""
    import itertools
    from lampe.terms import free_names, project

    rng = random.Random(77)
    import os, sys

    sys.path.insert(0, os.path.dirname(__file__))
    from helpers import random_term

    free = Name("outer")
    checked = 0
    for i in range(150):
        t = random_term(rng, rng.randrange(5, 22), [free], [])
        outer = free_names(t)
        if not outer:
            continue
        name = sorted(outer, key=lambda n: n.text)[0]
        indices = _indices_of(t, name)
        if len(indices) > 4:
            continue
        for bits in itertools.product((0, 1), repeat=len(indices)):
            omega = {(name, i): v for i, v in zip(indices, bits)}
            perm_steps = [s for s in step(t, PE) if s.rule != "beta"]
            for s in perm_steps[:6]:
                if name in _step_names(s):
                    continue
                checked += 1
                lhs = project(s.after, {name}, omega)
                base = project(t, {name}, omega)
                if alpha_eq(base, lhs):
                    continue  # zero steps needed
                candidates = [u.after for u in step(base, PE)]
                assert any(alpha_eq(u, lhs) for u in candidates), print_term(t)
    assert checked >= 50


def _indices_of(t, name):
    from lampe.terms import children

    out = set()

    def go(u):
        if isinstance(u, Choice) and u.name is name:
            out.add(u.index)
        for c in children(u):
            go(c)

    go(t)
    return sorted(out)


def _step_names(s):
    from lampe.terms import subterm_at

    redex = subterm_at(s.before, s.path)
    out = set()
    if isinstance(redex, Choice):
        out.add(redex.name)
    for child in (redex,):
        pass
    from lampe.terms import children

    for c in children(redex):
        if isinstance(c, Choice):
            out.add(c.name)
        if isinstance(c, Nu):
            out.add(c.name)
    if isinstance(redex, Nu):
        out.add(redex.name)
    return out


def test_permutative_termination_within_cap():
    rng = random.Random(31)
    import os, sys

    sys.path.insert(0, os.path.dirname(__file__))
    from helpers import random_term

    for i in range(100):
        t = random_term(rng, rng.randrange(5, 35), [], [])
        result, trace = pnf(t)   # raises E_FUEL on cap overrun
        assert is_pnf(result)


def test_pnf_step_cap_is_inclusive():
    # one permutative step normalizes this term: a cap of 1 is enough, 0 is not
    t = parse_term("(x (+a.0) y) z")
    result, trace = pnf(t, cap=1)
    assert len(trace) == 1 and is_pnf(result)
    with pytest.raises(FuelError, match="exceeded 0 steps"):
        pnf(t, cap=0)


def test_shadowed_input_still_normalizes():
    """User terms may rebind a name; reduction freshens on the fly instead
    of blocking or capturing."""
    from lampe.distribution import distribution
    from lampe.terms import free_names

    shadowed = parse_term("nu a. (nu a. x (+a.0) y) (z (+a.0) w)")
    result, trace = pnf(shadowed)
    assert is_pnf(result)
    assert not free_names(result)
    # inner rebinding stays lexical: four outcomes, each a quarter
    d = distribution(result)
    assert sorted(w for _, w in d.items()) == [Fraction(1, 4)] * 4

    rng = random.Random(13)
    from lampe.terms import Choice as _C, Nu as _N

    for i in range(200):
        import os, sys

        sys.path.insert(0, os.path.dirname(__file__))
        from helpers import random_term

        t = random_term(rng, rng.randrange(4, 18), [], [])
        # force shadowing by rebinding an already-bound name
        from lampe.terms import bound_names as bn

        names = sorted(bn(t), key=lambda n: n.text)
        if names:
            t = _N(names[0], t)
        result, _ = pnf(t)
        assert is_pnf(result)


def test_unique_pnf_braces_mode():
    """The three CbV-application permutations keep the system confluent."""
    import os, sys

    sys.path.insert(0, os.path.dirname(__file__))
    from helpers import random_term
    from lampe.rewrite import PE_BRACES, iter_steps as _iter
    from lampe.terms import replace_at as _replace

    def random_pnf(t, rng, burst=8):
        while True:
            triples = list(_iter(t, PE_BRACES, include_beta=False))
            if not triples:
                return t
            rule, path, result = rng.choice(triples)
            t = _replace(t, path, result)
            for _ in range(rng.randrange(burst)):
                s = first_step(t, PE_BRACES, include_beta=False)
                if s is None:
                    return t
                t = s.after

    rng = random.Random(606)
    for i in range(120):
        t = random_term(rng, rng.randrange(5, 30), [], [], allow_cbv=True)
        p1 = random_pnf(t, random.Random(3 * i + 1))
        p2 = random_pnf(t, random.Random(3 * i + 2))
        assert alpha_eq(p1, p2)


def test_pnf_of_deep_lambda_spine():
    """600 nested lambdas under one generator: the choice moves out through
    every binder without exhausting the interpreter stack."""
    from lampe.distribution import distribution

    depth = 600
    binders = "".join(f"\\x{i}. " for i in range(depth))
    t = parse_term(f"nu a. {binders}u (+a.0) v")
    result, trace = pnf(t)
    assert len(trace) == depth
    d = distribution(result)
    assert sorted(w for _, w in d.entries.values()) == [Fraction(1, 2)] * 2


def test_apply_rule_at_replays_guard_blocked_plus_plus():
    # (a,1) does not come before (a,0), so step() never fires plus-plus-1
    # here, but a replay applies it regardless of the ordering guard
    t = parse_term("(x (+a.1) y) (+a.0) z")
    assert "plus-plus-1" not in rules_of(t)
    out = apply_rule_at(t, "plus-plus-1", ())
    assert out == parse_term("(x (+a.0) z) (+a.1) (y (+a.0) z)")
    t2 = parse_term("x (+a.0) (y (+a.1) z)")
    assert "plus-plus-2" not in rules_of(t2)
    out2 = apply_rule_at(t2, "plus-plus-2", ())
    assert out2 == parse_term("(x (+a.0) y) (+a.1) (x (+a.0) z)")


def test_apply_rule_at_rejects_plus_plus_on_the_same_pair():
    # only c1 is a rule instance here; plus-plus needs two distinct pairs
    t = parse_term("(x (+a.0) y) (+a.0) z")
    assert rules_of(t) == ["c1"]
    with pytest.raises(NotPnfError):
        apply_rule_at(t, "plus-plus-1", ())
    with pytest.raises(NotPnfError):
        apply_rule_at(parse_term("x (+a.0) (y (+a.0) z)"), "plus-plus-2", ())



def test_apply_rule_at_rejects_a_cbv_rule_in_plain_pe():
    # apply_rule_at does not check the mode, so a CbV application reaches the
    # rule table under PE, where no CbV rule fires
    t = parse_term("{f} (nu a. x)")
    assert apply_rule_at(t, "cbv-nu", (), PE_BRACES) == parse_term("nu a. f x")
    with pytest.raises(NotPnfError) as error:
        apply_rule_at(t, "cbv-nu", (), PE)
    assert str(error.value) == "E_NOT_PNF: rule cbv-nu does not apply at path ()"


def _fixture_terms():
    from helpers import cbv_fixture_corpus, cn_fixture_corpus

    stack = [d for d, _ in cbv_fixture_corpus()] + cn_fixture_corpus()
    terms = []
    while stack:
        d = stack.pop()
        terms.append(d.judgement.term)
        stack.extend(d.premises)
    return terms


def test_resumed_scan_matches_the_restarting_loop():
    """pnf and reduce_term(full) resume the scan at the last step; the loop
    that rescans from the root takes the same steps to the same term."""
    from helpers import random_affine_term, random_term, reference_pnf
    from lampe.rewrite import contains_cbv

    rng = random.Random(2024)
    corpus = [random_term(rng, rng.randrange(5, 41), [], []) for _ in range(1000)]
    joins = []
    for i in range(1, 400):
        t = random_affine_term(random.Random(90000 + i), 25, [], [])
        steps = step(t, PE)
        if len(steps) >= 2:
            joins += [steps[0].after, steps[-1].after]
    fixtures = _fixture_terms()
    assert len(joins) >= 100 and len(fixtures) >= 40
    compared = 0
    for mode in (PE, PE_BRACES):
        for t in corpus + fixtures:
            if mode == PE and contains_cbv(t):
                continue
            result, trace = pnf(t, mode)
            assert (result, [(s.rule, s.path) for s in trace], False) == reference_pnf(t, mode)
            compared += 1
        for t in joins + fixtures:
            if mode == PE and contains_cbv(t):
                continue
            out = reduce_term(t, mode, "full", 500)
            trace = [(s.rule, s.path) for s in out.trace]
            assert (out.term, trace, out.exhausted) == reference_pnf(t, mode, True, 500)
            compared += 1
    assert compared >= 2 * (1000 + len(joins))


def _count_dispatches(monkeypatch):
    """A one-item list that counts the calls into the rule table."""
    from lampe import rewrite

    count = [0]
    for kind, rules in list(rewrite._RULES_AT.items()):

        def counted(*args, rules=rules):
            count[0] += 1
            return rules(*args)

        monkeypatch.setitem(rewrite._RULES_AT, kind, counted)
    return count


def _size(t):
    n, stack = 0, [t]
    while stack:
        n += 1
        stack.extend(children(stack.pop()))
    return n


def test_permutative_scans_skip_subterms_without_choice_or_nu(monkeypatch):
    """In nu a. (M (+a.0) N), with choice-free M and N of 10,000 nodes in
    all, a scan without beta dispatches on the nu and the choice only: no
    permutative rule fires inside a subterm with no choice and no nu.  A
    scan with beta still enters M and finds the beta redex at the bottom of
    its application spine."""
    from lampe.rewrite import pnf_count
    from lampe.terms import free_names

    m = App(Lam("x", Var("x")), Var("u"))
    for _ in range(2498):
        m = App(m, Var("y"))
    n = Var("z")
    for i in range(4999):
        n = Lam(f"x{i}", n)
    assert _size(m) + _size(n) == 10_000
    # the records of M and N, as any earlier query leaves them
    free_names(m), free_names(n)
    count = _count_dispatches(monkeypatch)
    scans = {
        "pnf": lambda t, mode: pnf(t, mode)[1],
        "pnf_count": lambda t, mode: pnf_count(t, mode)[1],
        "is_pnf": lambda t, mode: not is_pnf(t, mode),
        "first_step": lambda t, mode: first_step(t, mode, include_beta=False),
        "iter_steps": lambda t, mode: list(iter_steps(t, mode, include_beta=False)),
    }
    beta_path = (0, 0) + (0,) * 2498
    for mode in (PE, PE_BRACES):
        for name, scan in scans.items():
            # a new root each time: a scan marks the root it proved normal
            count[0] = 0
            assert not scan(Nu(a, Choice(m, n, a, 0)), mode), name
            assert count[0] == 2, (name, mode)
        count[0] = 0
        s = first_step(Nu(a, Choice(m, n, a, 0)), mode)
        assert (s.rule, s.path) == ("beta", beta_path)
        assert count[0] == 2 + 2499
        [(rule, path, _)] = iter_steps(Nu(a, Choice(m, n, a, 0)), mode)
        assert (rule, path) == ("beta", beta_path)


def test_scans_without_beta_list_the_full_scan_less_its_beta_steps(monkeypatch):
    """Over the corpus of the resumed-scan test and the fixtures, in both
    modes, the scan without beta, which skips the subterms whose records
    hold no choice and no nu, lists exactly the steps of the full scan less
    its beta steps, in the same order.  pnf of a fresh parse, whose nodes
    have no records until the scan's own queries fill some, equals pnf of
    the filled term, step for step."""
    from helpers import random_term
    from lampe.terms import contains_cbv, free_names

    rng = random.Random(2024)
    corpus = [random_term(rng, rng.randrange(5, 41), [], []) for _ in range(1000)]
    corpus += _fixture_terms()
    count = _count_dispatches(monkeypatch)
    compared = fewer = 0
    for mode in (PE, PE_BRACES):
        for t in corpus:
            if mode == PE and contains_cbv(t):
                continue
            free_names(t)
            count[0] = 0
            full = [(s.rule, s.path, s.after) for s in step(t, mode)]
            full_dispatches = count[0]
            count[0] = 0
            lean = [
                (rule, path, replace_at(t, path, result))
                for rule, path, result in iter_steps(t, mode, include_beta=False)
            ]
            fewer += count[0] < full_dispatches
            assert lean == [entry for entry in full if entry[0] != "beta"]
            fresh = parse_term(print_term(t))
            assert fresh._facts is None and fresh == t
            result, trace = pnf(t, mode)
            fresh_result, fresh_trace = pnf(fresh, mode)
            assert fresh_result == result
            assert [(s.rule, s.path) for s in fresh_trace] == [
                (s.rule, s.path) for s in trace
            ]
            compared += 1
    assert compared >= 2000 and fewer >= 1000


@pytest.mark.parametrize(
    "text, run, expected",
    [
        # beta drops the argument's name c, so not-nu fires at the root
        (
            r"nu c. \z. (\y. z) (((v z) (+c.0) u) v)",
            lambda t: reduce_term(t, PE, "full", 30).trace,
            [("beta", (0, 0)), ("not-nu", ())],
        ),
        # c1 drops the last choice on a, so not-nu fires at the root
        (
            r"nu c. nu a. \z. nu c. ((((u (+c.0) (z (+a.1) z)) (+c.0) u) z) z)",
            lambda t: pnf(t, PE)[1],
            [("c1", (0, 0)), ("not-nu", ())],
        ),
    ],
    ids=["beta", "c1"],
)
def test_a_step_that_drops_a_name_rechecks_not_nu_above(text, run, expected):
    """After a step, the ancestors above its parent are re-checked only for
    the rules that can start to fire there; not-nu is one of them after a
    step that may drop a free name."""
    from helpers import reference_pnf

    t = parse_term(text)
    trace = [(s.rule, s.path) for s in run(t)]
    include_beta = expected[0][0] == "beta"
    assert trace == reference_pnf(t, PE, include_beta, 30)[1]
    i = trace.index(expected[0])
    assert trace[i : i + 2] == expected


def test_closed_generator_leaves_of_a_pnf_are_pnfs():
    """`distribution` records each closed leaf of a PNF's generator tree as
    normal.  Every name in such a leaf is bound inside it, so the loop that
    reads no node fact takes no step on it either, nested generators
    included."""
    from helpers import random_term, reference_pnf
    from lampe.terms import free_names

    rng = random.Random(2024)
    corpus = [random_term(rng, rng.randrange(5, 41), [], []) for _ in range(1000)]
    checked = 0
    for mode in (PE, PE_BRACES):
        for t in corpus:
            if free_names(t):
                continue
            todo = [pnf(t, mode)[0]]
            while todo:
                view = classify_pnf(todo.pop(), mode)
                if not isinstance(view, Generator):
                    continue
                for leaf in view.support:
                    if not free_names(leaf):
                        assert reference_pnf(leaf, mode)[1] == []
                        checked += 1
                        todo.append(leaf)
    assert checked >= 10_000


def test_prefix_choices_follow_the_nearest_nu_in_rising_index_order():
    """Along every branch of a closed PNF's nu/choice prefix, each choice is
    on the nearest enclosing nu's name, and below one nu the indices strictly
    increase: c1, c2 and plus-plus rewrite any other order.  So a leaf k
    choices deep in a generator tree has measure 1/2**k, and the head round
    of hnv_lower_bound may weigh a branch by its number of choices.  Under a
    nested nu the indices start again."""
    from helpers import random_term
    from lampe.terms import contains_cbv, free_names

    rng = random.Random(4711)
    corpus = [
        random_term(rng, rng.randrange(5, 31), [], [], allow_cbv=i % 3 == 0)
        for i in range(600)
    ]
    choices = nested = 0
    for t in corpus:
        if free_names(t):
            continue
        for mode in (PE_BRACES,) if contains_cbv(t) else (PE, PE_BRACES):
            # (node, nearest nu's name, last index below that nu)
            todo = [(pnf(t, mode)[0], None, -1)]
            while todo:
                u, name, last = todo.pop()
                if type(u) is Nu:
                    nested += name is not None
                    todo.append((u.body, u.name, -1))
                elif type(u) is Choice:
                    assert u.name is name and u.index > last
                    choices += 1
                    todo.append((u.left, name, u.index))
                    todo.append((u.right, name, u.index))
    assert choices >= 1800 and nested >= 1200


def test_counting_pnf_keeps_no_trace():
    """pnf_count keeps no intermediate term, so its peak traced memory grows
    linearly with the number of steps, where a trace of spines grows it
    quadratically (a ratio near 3.9 here).  The collector stays off in the
    window: garbage of earlier work that it would free there refills the
    interpreter's free lists, whose reuse tracemalloc does not see."""
    import gc
    import tracemalloc

    from lampe.rewrite import pnf_count

    def peak(depth):
        binders = "".join(f"\\x{i}. " for i in range(depth))
        t = parse_term(f"nu a. {binders}u (+a.0) v")
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            result, steps = pnf_count(t)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert steps == depth and isinstance(result.body, Choice)
        return top

    assert peak(800) / peak(400) < 2.5


def _nodes_in_scope(t):
    """Every node of t with the map from its enclosing nu-names to their
    depths, as the scan passes it to the rules."""
    out = []
    stack = [(t, {}, 0)]
    while stack:
        t, env, depth = stack.pop()
        out.append((t, env))
        if isinstance(t, Nu):
            env = {**env, t.name: depth}
        stack.extend((c, env, depth + 1) for c in children(t))
    return out


_ALL_RULES = {
    "i", "c1", "c2", "plus-plus-1", "plus-plus-2", "plus-lam", "nu-lam",
    "plus-fun", "plus-arg", "nu-fun", "beta", "plus-nu", "not-nu",
    "cbv-nu", "cbv-plus-1", "cbv-plus-2",
}


def test_rule_table_matches_the_reference_rules():
    """At every node of seeded random terms (open and closed, with CbV and
    without), of the termination families, and of the terms along their
    leftmost-outermost reductions, the rule table lists the (rule, result)
    pairs of the frozen reference generator, in its order, in both modes,
    with and without beta, with and without the ordering guard."""
    from helpers import (
        random_affine_term,
        random_term,
        reference_local_results,
        termination_terms,
    )
    from lampe.rewrite import _RULES_AT, contains_cbv

    rng = random.Random(4242)
    b = Name("b")
    seeds = [
        random_term(rng, rng.randrange(3, 25), [a, b][: i % 3], [], allow_cbv=i % 2 == 0)
        for i in range(240)
    ]
    seeds += [random_affine_term(random.Random(7000 + i), 20, [], []) for i in range(60)]
    seeds += [t for n in range(1, 4) for t in termination_terms(n)]
    terms = []
    for t in seeds:
        mode = PE_BRACES if contains_cbv(t) else PE
        terms.append(t)
        terms += [s.after for s in reduce_term(t, mode, "full", 8).trace]
    fired = set()
    compared = 0
    for t in terms:
        modes = (PE_BRACES,) if contains_cbv(t) else (PE, PE_BRACES)
        for node, env in _nodes_in_scope(t):
            rules = _RULES_AT[type(node)]
            for mode in modes:
                for include_beta in (False, True):
                    for ordered in (False, True):
                        args = (node, env, mode, include_beta, ordered)
                        got = list(rules(*args))
                        assert got == list(reference_local_results(*args))
                        fired.update(rule for rule, _ in got)
                        compared += 1
    assert fired == _ALL_RULES
    assert compared >= 100_000


def test_scans_survive_900_nested_lambdas():
    """The redex scan keeps an explicit stack, so the interpreter stack does
    not bound the depth of its term."""
    binders = "".join(f"\\x{i}. " for i in range(900))
    t = parse_term(f"nu a. {binders}u (+a.0) v")
    result, trace = pnf(t)
    assert len(trace) == 900 and is_pnf(result)
    s = first_step(t)
    assert s.rule == "plus-lam" and len(s.path) == 900
    assert [s.rule for s in step(t)] == ["plus-lam"]


def _same_term(t, u):
    """t == u on an explicit stack: the dataclass == recurses once per level."""
    todo = [(t, u)]
    while todo:
        t, u = todo.pop()
        if t is u:
            continue
        if type(t) is not type(u):
            return False
        for f in fields(t):
            x, y = getattr(t, f.name), getattr(u, f.name)
            if isinstance(x, Term):
                todo.append((x, y))
            elif x != y:
                return False
    return True


def test_head_walk_survives_a_3000_deep_application_spine():
    """The head walk keeps explicit stacks: it finds the head redex at the
    bottom of a 3000-deep application spine in every branch, and rebuilding
    their cells one after another, as the fair round of hnv_lower_bound
    does, gives the term of as many successive replace_at calls.  The round
    itself finds them, and the head-normal mass, on the same stacks."""
    from lampe.distribution import _head_round
    from lampe.rewrite import _branches, _contract, _head_redex, _path, _rebuild

    spine = App(Lam("x", Var("x")), Var("u"))
    for _ in range(2999):
        spine = App(spine, Var("y"))
    bottom = (0,) * 2999
    # a CbV application's argument is searched only when its function has
    # no head redex
    cbv = Choice(CbvApp(Var("f"), spine), CbvApp(Lam("z", spine), spine), a, 2)
    before = Nu(a, Choice(Choice(spine, Lam("z", spine), a, 0), cbv, a, 1))
    cells = [_head_redex(cell, PE_BRACES) for cell, _ in _branches(before)]
    cells = [cell for cell in cells if cell is not None]
    paths = [(0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1), (0, 1, 1, 0, 0)]
    paths = [p + bottom for p in paths]
    assert [_path(cell) for cell in cells] == paths
    replaced = before
    for path in paths:
        replaced = replace_at(replaced, path, _contract(subterm_at(replaced, path)))
    for cell, path in zip(cells, paths):
        rebuilt_path, t = _rebuild(cell, _contract(cell[0]))
        assert rebuilt_path == path
    assert _same_term(t, replaced) and not _same_term(t, before)
    assert all(subterm_at(t, path) == Var("u") for path in paths)
    assert subterm_at(t, (0, 0, 1)).var == "z"

    # the fair round walks the same branches once: no branch is head normal,
    # and it finds the same redex nodes without contracting them
    mass, redexes = _head_round(before, PE_BRACES)
    assert mass == 0 and [_path(cell) for cell in redexes] == paths
    for cell, path in zip(redexes, paths):
        assert cell[0] is subterm_at(before, path) and _contract(cell[0]) == Var("u")
    # a head normal branch adds its measure to the mass and gives no redex
    half = Nu(a, Choice(spine, Lam("z", Var("z")), a, 0))
    mass, redexes = _head_round(half, PE)
    assert mass == Fraction(1, 2) and [_path(cell) for cell in redexes] == [(0, 0) + bottom]
