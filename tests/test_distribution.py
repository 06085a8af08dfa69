import dataclasses
import importlib
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from helpers import termination_terms
from lampe.distribution import (
    distribution,
    estimate_hnv,
    hnv_lower_bound,
    hnv_mass,
    nf_mass,
    sample_run,
)
from lampe.errors import ModeViolationError, NotPnfError, OpenNamesError
from lampe.rewrite import PE, PE_BRACES, Generator, classify_pnf, pnf
from lampe.terms import Name, parse_term, print_term, project

a = Name("a")


def as_pnf(text, mode=PE):
    t, _ = pnf(parse_term(text), mode)
    return t


def test_distribution_coin():
    d = distribution(as_pnf("nu a. I (+a.0) OMEGA"))
    assert d.mass == 1
    assert d.weight_of(parse_term("I")) == Fraction(1, 2)
    assert d.weight_of(parse_term("OMEGA")) == Fraction(1, 2)


def test_distribution_delta():
    d = distribution(parse_term("\\x.x"))
    assert len(d) == 1 and d.weight_of(parse_term("\\y.y")) == 1


def test_distribution_requires_pnf():
    with pytest.raises(NotPnfError):
        distribution(parse_term("nu a. \\x. (u (+a.0) v)"))
    with pytest.raises(OpenNamesError):
        distribution(parse_term("x (+a.0) y"))


def test_distribution_correlated_tree():
    # same bit read twice along a path is not double-counted
    t = as_pnf("nu a. (x (+a.1) y) (+a.0) (y (+a.1) z)")
    d = distribution(t)
    assert d.weight_of(parse_term("x")) == Fraction(1, 4)
    assert d.weight_of(parse_term("y")) == Fraction(1, 2)
    assert d.weight_of(parse_term("z")) == Fraction(1, 4)


def test_hnv_mass_examples():
    assert hnv_mass(as_pnf("nu a. I (+a.0) OMEGA")) == Fraction(1, 2)
    assert hnv_mass(parse_term("\\x.\\y. y x")) == 1


def test_hnv_lower_bound_examples():
    assert hnv_lower_bound(parse_term("OMEGA"), 40).value == 0
    est = hnv_lower_bound(
        parse_term(r"nu a. (\x.\y.(y (+a.0) I) x) (nu b. I (+b.0) OMEGA)"), 200
    )
    assert est.value == Fraction(3, 4)
    assert est.exact
    # two independent bits: three of four member outcomes head-normalize
    est2 = hnv_lower_bound(parse_term("nu a. I (+a.0) (I (+a.1) OMEGA)"), 100)
    assert est2.value == Fraction(3, 4)
    # with the same index the collapse rule fires first and one bit decides
    est3 = hnv_lower_bound(parse_term("nu a. I (+a.0) (I (+a.0) OMEGA)"), 100)
    assert est3.value == Fraction(1, 2)


def test_hnv_round_cut_short_by_the_fuel_is_not_exact():
    """A round that takes only the redexes the fuel allows is no fixpoint,
    even when each redex it took reproduced itself: at fuel 1 only OMEGA's
    step runs, and I I is still waiting."""
    from helpers import reference_hnv_lower_bound

    text = "nu a. OMEGA (+a.0) (I I)"
    expected = {
        0: (0, 0, False),
        1: (0, 1, False),
        2: (Fraction(1, 2), 2, False),
        3: (Fraction(1, 2), 3, True),
        4: (Fraction(1, 2), 3, True),
        5: (Fraction(1, 2), 3, True),
    }
    for fuel, answer in expected.items():
        est = hnv_lower_bound(parse_term(text), fuel)
        assert (est.value, est.fuel_used, est.exact) == answer
        assert reference_hnv_lower_bound(parse_term(text), fuel, PE) == answer


def test_hnv_monotone_in_fuel():
    t = parse_term(r"nu a. (\x.\y.(y (+a.0) I) x) (nu b. I (+b.0) OMEGA)")
    values = [hnv_lower_bound(t, f).value for f in (0, 2, 5, 10, 50, 200)]
    assert values == sorted(values)


def test_nf_examples():
    t = parse_term(r"nu a. (\x.\y.(y (+a.0) I) x) (nu b. I (+b.0) OMEGA)")
    assert nf_mass(t, 200).value == Fraction(1, 2)
    assert nf_mass(parse_term(r"\x. x (nu a. I (+a.0) OMEGA)"), 100).value == Fraction(1, 2)
    assert nf_mass(parse_term(r"\x.x"), 10).value == 1


def test_nf_monotone_in_fuel():
    t = parse_term(r"nu a. (\x.\y.(y (+a.0) I) x) (nu b. I (+b.0) OMEGA)")
    values = [nf_mass(t, f).value for f in (0, 1, 3, 6, 20, 200)]
    assert values == sorted(values)


def test_nf_rejects_braces():
    with pytest.raises(ModeViolationError):
        nf_mass(parse_term("{\\x.x} y"), 10)


def test_distribution_mass_bound_and_projection_consistency():
    rng = random.Random(5)
    import os, sys

    sys.path.insert(0, os.path.dirname(__file__))
    from helpers import random_term

    checked = 0
    for i in range(120):
        t = random_term(rng, rng.randrange(4, 22), [], [])
        normal, _ = pnf(t)
        from lampe.terms import free_names

        if free_names(normal):
            continue
        d = distribution(normal)
        assert d.mass <= 1
        view = classify_pnf(normal)
        if not isinstance(view, Generator):
            continue
        checked += 1
        # brute-force the bit assignments over the indices of the tree
        indices = _tree_indices(view.tree, view.name)
        total = Fraction(0)
        seen = {}
        for bits in itertools.product((0, 1), repeat=len(indices)):
            omega = {(view.name, i): v for i, v in zip(indices, bits)}
            leaf = project(view.tree, {view.name}, omega)
            key = print_term(leaf)
            seen[key] = seen.get(key, Fraction(0)) + Fraction(
                1, 2 ** len(indices)
            )
        assert sum(seen.values()) == 1
    assert checked >= 10


def _tree_indices(tree, name):
    from lampe.terms import Choice

    out = set()

    def go(node):
        if isinstance(node, Choice) and node.name is name:
            out.add(node.index)
            go(node.left)
            go(node.right)

    go(tree)
    return sorted(out)


def test_sampler_trivial_cases():
    v = parse_term("\\x.x")
    out = sample_run(v, 3, 10)
    assert out.is_head_normal and out.term == v
    assert sample_run(parse_term("OMEGA"), 3, 20).kind == "exhausted"


def test_sampler_reproducible():
    t = parse_term("nu a. I (+a.0) OMEGA")
    runs1 = [sample_run(t, s, 50).kind for s in range(40)]
    runs2 = [sample_run(t, s, 50).kind for s in range(40)]
    assert runs1 == runs2
    assert {"head-normal", "exhausted"} == set(runs1)


def test_estimate_exact_cases():
    est, err = estimate_hnv(parse_term("I"), 10, 20, 1)
    assert est == 1 and err == 0


def test_estimate_close_to_half():
    t = parse_term("nu a. I (+a.0) OMEGA")
    est, err = estimate_hnv(t, 2000, 60, 7)
    assert abs(est - Fraction(1, 2)) <= 3 * err


def test_delta_case_on_random_pseudo_values():
    rng = random.Random(17)
    import os, sys

    sys.path.insert(0, os.path.dirname(__file__))
    from helpers import random_term
    from lampe.terms import Nu, free_names

    seen = 0
    for i in range(80):
        t = random_term(rng, rng.randrange(3, 15), [], [])
        normal, _ = pnf(t)
        if isinstance(normal, Nu) or free_names(normal):
            continue
        seen += 1
        d = distribution(normal)
        assert len(d) == 1 and d.weight_of(normal) == 1
    assert seen >= 20


_FIXED_TERMS = [
    "nu a. I (+a.0) OMEGA",
    "OMEGA",
    r"nu a. (\x.\y.(y (+a.0) I) x) (nu b. I (+b.0) OMEGA)",
    "nu a. I (+a.0) (I (+a.1) OMEGA)",
    "nu a. I (+a.0) (I (+a.0) OMEGA)",
    r"\x. x (nu a. I (+a.0) OMEGA)",
]

# M M with M = \x. (\y. x x) I cycles with period 2, which the self-loop
# check never catches; a segment of it passes every fuel limit
_PERIOD_TWO = r"(\x. (\y. x x) I) (\x. (\y. x x) I)"


def _driver_inputs():
    from helpers import random_term
    from lampe.terms import free_names

    terms = [t for n in range(1, 5) for t in termination_terms(n)]
    terms += [parse_term(text) for text in _FIXED_TERMS]
    rng = random.Random(29)
    for _ in range(200):
        t = random_term(rng, rng.randrange(3, 16), [], [])
        if not free_names(t):
            terms.append(t)
    return terms


def test_segment_driver_matches_reference_loops():
    """nf_mass, sample_run and estimate_hnv give the results of the per-step
    fuel loops and the capped sampler they replaced."""
    from helpers import (
        reference_estimate_hnv,
        reference_nf_mass,
        reference_sample_run,
    )

    inputs = _driver_inputs()
    assert len(inputs) >= 150
    compared = 0
    for t in inputs:
        for fuel in (0, 1, 3, 10, 30, 100, 400, 1200, 2500):
            est = nf_mass(t, fuel)
            assert (est.value, est.fuel_used, est.exact) == reference_nf_mass(t, fuel)
            compared += 1
        for fuel in (0, 20, 400, 2500):
            for seed in range(4):
                out = sample_run(t, seed, fuel)
                kind, term = reference_sample_run(t, seed, fuel)
                assert out.kind == kind
                assert (out.term is None) == (term is None)
                if term is not None:
                    assert print_term(out.term) == print_term(term)
                compared += 1
        for fuel in (400, 3000):
            est, _ = estimate_hnv(t, 12, fuel, 5)
            assert est == Fraction(reference_estimate_hnv(t, 12, fuel, 5), 12)
            compared += 1
    assert compared == len(inputs) * (9 + 16 + 2)


def test_segment_driver_on_a_period_two_loop():
    """Past 2000 steps the capped sampler fell back to a step-by-step loop;
    the driver stops at the run's own fuel with the same outcomes."""
    from helpers import (
        reference_estimate_hnv,
        reference_nf_mass,
        reference_sample_run,
    )

    loop = parse_term(_PERIOD_TWO)
    coin = parse_term(f"nu a. I (+a.0) ({_PERIOD_TWO})")
    for fuel in (2001, 2500):
        est = nf_mass(loop, fuel)
        assert (est.value, est.fuel_used, est.exact) == (0, fuel, False)
        assert reference_nf_mass(loop, fuel) == (0, fuel, False)
        assert sample_run(loop, 0, fuel).kind == "exhausted"
        assert reference_sample_run(loop, 0, fuel) == ("exhausted", None)
        est, _ = estimate_hnv(coin, 8, fuel, 3)
        assert est == Fraction(reference_estimate_hnv(coin, 8, fuel, 3), 8)
        assert 0 < est < 1


# after a head step at path 0.0, pnf steps at the root and later at 0.1.0,
# right of the hinted path: the scan must widen to the highest step's subtree
_STEPS_ABOVE_THE_HINT = (
    r"\u. \w. (nu a. \y. (\x. x) (y (+a.0) y)) "
    r"(\y. nu b. (\z. y y) (+b.1) ((\x. x) (+b.0) y))"
)


def test_segment_hint_matches_the_restarting_loop(monkeypatch):
    """After a head step, _segment's pnf scans only the step's ancestors and
    subtree; every such call takes the steps of the loop that rescans the
    whole term from the root."""
    from helpers import reference_pnf

    # the package exports a function of the same name as this module
    dist = importlib.import_module("lampe.distribution")
    real_pnf = dist.pnf
    hinted = []

    def checked_pnf(t, mode, _from=()):
        result, trace = real_pnf(t, mode, _from=_from)
        steps = [(s.rule, s.path) for s in trace]
        assert (result, steps, False) == reference_pnf(t, mode)
        hinted.append(bool(_from))
        return result, trace

    monkeypatch.setattr(dist, "pnf", checked_pnf)
    texts = [print_term(t) for n in range(1, 6) for t in termination_terms(n)]
    texts += _FIXED_TERMS + [_STEPS_ABOVE_THE_HINT]
    for text in texts:
        for fuel in (60, 400, 1000):
            # a fresh parse for each call: an exact nf_mass bound kept on
            # the node would answer the larger fuels without a segment, and
            # a kept segment state would answer nf_mass's first segment
            dist._segment(parse_term(text), PE, fuel)
            nf_mass(parse_term(text), fuel)
    assert sum(hinted) >= 100


def test_head_walk_matches_the_recursive_finder():
    """reduce_term(head) and head_step resume the permutative scan after each
    head step, and hnv_lower_bound's rounds apply the head walk's redexes in
    place; all take the steps of the recursive head finder and the loop that
    rescans from the root."""
    from helpers import random_term, reference_head_steps, reference_hnv_lower_bound
    from lampe.rewrite import contains_cbv, head_step, reduce_term

    rng = random.Random(31)
    terms = [
        random_term(rng, rng.randrange(3, 16), [], [], allow_cbv=i % 3 == 0)
        for i in range(150)
    ]
    terms += [t for n in range(1, 5) for t in termination_terms(n)]
    compared = 0
    for t in terms:
        for mode in (PE_BRACES,) if contains_cbv(t) else (PE, PE_BRACES):
            for fuel in (1, 20, 200):
                out = reduce_term(t, mode, "head", fuel)
                trace = [(s.rule, s.path) for s in out.trace]
                assert (out.term, trace, out.exhausted) == reference_head_steps(t, mode, fuel)
            s = head_step(t, mode)
            assert ([(s.rule, s.path)] if s else []) == reference_head_steps(t, mode, 1)[1]
            for fuel in (7, 60):
                est = hnv_lower_bound(t, fuel, mode)
                assert (est.value, est.fuel_used, est.exact) == reference_hnv_lower_bound(
                    t, fuel, mode
                )
            compared += 1
    assert compared >= 250


def test_head_round_reads_the_mass_and_the_redexes_from_one_walk():
    """The fair round of hnv_lower_bound walks a closed PNF's branches once:
    its mass is hnv_mass, and its redex cells, contracted, are the recursive
    finder's (path, result) on each branch leaf with a head redex.  This
    holds again on the PNF after each of up to three more rounds, where
    nested generators come to the head."""
    from helpers import _reference_head_redex_in_value, random_term
    from lampe.rewrite import _contract, _path
    from lampe.terms import Choice, Nu, contains_cbv, free_names, replace_at

    def prefix_nus(t):
        count, todo = 0, [t]
        while todo:
            t = todo.pop()
            if type(t) is Nu:
                count += 1
                todo.append(t.body)
            elif type(t) is Choice:
                todo += (t.left, t.right)
        return count

    def reference_round(t, mode, path=()):
        if type(t) is Nu:
            return reference_round(t.body, mode, path + (0,))
        if type(t) is Choice:
            return reference_round(t.left, mode, path + (0,)) + reference_round(
                t.right, mode, path + (1,)
            )
        found = _reference_head_redex_in_value(t, path, mode)
        return [] if found is None else [found[1:]]

    dist = importlib.import_module("lampe.distribution")
    rng = random.Random(37)
    terms = [
        random_term(rng, rng.randrange(3, 16), [], [], allow_cbv=i % 3 == 0)
        for i in range(200)
    ]
    terms = [t for t in terms if not free_names(t)]
    terms += [t for n in range(1, 5) for t in termination_terms(n)]
    terms += [parse_term(text) for text in _FIXED_TERMS]
    compared = nested = 0
    for t in terms:
        for mode in (PE_BRACES,) if contains_cbv(t) else (PE, PE_BRACES):
            u = t
            for _ in range(4):
                u, _ = pnf(u, mode)
                mass, redexes = dist._head_round(u, mode)
                assert mass == hnv_mass(u, mode)
                walk = [(_path(cell), _contract(cell[0])) for cell in redexes]
                assert walk == reference_round(u, mode)
                compared += 1
                nested += prefix_nus(u) >= 2
                if not redexes:
                    break
                for path, result in walk:
                    u = replace_at(u, path, result)
    assert compared >= 800 and nested >= 150


def test_head_round_names_an_open_leaf_as_hnv_mass_does():
    dist = importlib.import_module("lampe.distribution")
    t = parse_term(r"\x. x (+a.0) I")
    with pytest.raises(OpenNamesError) as round_error:
        dist._head_round(t, PE)
    with pytest.raises(OpenNamesError) as mass_error:
        hnv_mass(t)
    assert str(round_error.value) == str(mass_error.value)
    assert round_error.value.message == "free names ['a']"


def test_nf_mass_of_a_spine_that_grows_each_head_step():
    # each head step makes the spine one application deeper
    t = parse_term(r"(\v0. (nu a. v0) (nu b. v0)) (nu c. \v0. v0 v0 v0)")
    est = nf_mass(t, 400)
    assert (est.value, est.fuel_used, est.exact) == (0, 400, False)


def _bound_answer(functional, t, fuel, mode):
    try:
        est = functional(t, fuel, mode)
    except Exception as error:  # the error is part of the answer
        return type(error), str(error)
    return est.value, est.fuel_used, est.exact


def _fuel_sweep_texts():
    from helpers import random_term

    rng = random.Random(41)
    terms = [
        random_term(rng, rng.randrange(3, 16), [], [], allow_cbv=i % 3 == 0)
        for i in range(200)
    ]
    terms += [t for n in range(1, 5) for t in termination_terms(n)]
    texts = [print_term(t) for t in terms] + ["nu a. OMEGA (+a.0) (I I)"]
    assert all(parse_term(print_term(t)) == t for t in terms)
    return texts


_SWEEP_FUELS = list(range(30)) + [60, 1000]


def test_fuel_sweep_answers_match_a_fresh_parse():
    """An exact bound kept on a node answers later calls with more fuel; in
    any order of fuels, every answer on one shared node, error or estimate,
    is the answer for a fresh parse of the term, and the kept facts are
    numbers only."""
    shuffled = list(_SWEEP_FUELS)
    random.Random(43).shuffle(shuffled)
    orders = [_SWEEP_FUELS, _SWEEP_FUELS[::-1], shuffled]
    reused = kept = 0
    for text in _fuel_sweep_texts():
        for mode in (PE, PE_BRACES):
            for functional in (hnv_lower_bound, nf_mass):
                fresh = {
                    fuel: _bound_answer(functional, parse_term(text), fuel, mode)
                    for fuel in _SWEEP_FUELS
                }
                for fuels in orders:
                    shared = parse_term(text)
                    for fuel in fuels:
                        known = shared._bounds
                        answer = _bound_answer(functional, shared, fuel, mode)
                        assert answer == fresh[fuel], (text, mode, fuel)
                        reused += known is not None and answer[-1] is True
                    if shared._bounds is not None:
                        kept += 1
                        for fact in shared._bounds:
                            assert fact is None or (
                                type(fact) is tuple
                                and tuple(map(type, fact)) == (Fraction, int)
                            )
    assert reused >= 30000 and kept >= 1500
    names = {f.name for f in dataclasses.fields(parse_term("I"))}
    assert "_bounds" not in names


def test_fuel_sweep_fact_keeps_the_checks():
    """A kept fact answers only after the checks a full run makes: negative
    fuel, open names, CbV under plain PE and an unknown mode still raise.
    So does a cut run's state, which sample_run's segments read too."""
    from lampe.errors import PreconditionError

    closed = parse_term("nu a. I (+a.0) OMEGA")
    assert hnv_lower_bound(closed, 60).exact and nf_mass(closed, 60).exact
    cbv = parse_term(r"{\x. x} (nu a. I (+a.0) OMEGA)")
    assert hnv_lower_bound(cbv, 60, PE_BRACES).exact
    # a cut run's state in every slot, which any fuel would resume
    head = parse_term("I")
    resume = ((head, 0, 0, Fraction(1)),) * 2 + ((head, 0, 0),) * 2
    for t in (closed, cbv):
        assert t._bounds is not None
        object.__setattr__(t, "_resume", resume)
        for functional in (hnv_lower_bound, nf_mass):
            with pytest.raises(PreconditionError):
                functional(t, -1)
        with pytest.raises(PreconditionError):
            sample_run(t, 0, -1, PE_BRACES)
    with pytest.raises(ModeViolationError):
        nf_mass(closed, 60, PE_BRACES)
    with pytest.raises(ValueError):
        hnv_lower_bound(closed, 60, "no-such-mode")
    with pytest.raises(ValueError):
        sample_run(closed, 0, 60, "no-such-mode")
    # a fact planted in every slot of a node the checks reject is never read
    full = ((Fraction(1), 0),) * 3
    opened = parse_term(r"\x. x (+a.0) I")
    for t in (opened, cbv):
        object.__setattr__(t, "_bounds", full)
        object.__setattr__(t, "_resume", resume)
    for functional in (hnv_lower_bound, nf_mass):
        with pytest.raises(OpenNamesError):
            functional(opened, 60)
    with pytest.raises(ModeViolationError):
        hnv_lower_bound(cbv, 60, PE)
    with pytest.raises(ModeViolationError):
        nf_mass(cbv, 60)
    with pytest.raises(ModeViolationError):
        sample_run(cbv, 0, 60, PE)


def _kept_state(t, slot):
    return t._resume[slot] if t._resume else None


def test_fuel_cut_checkpoint_resumes_with_the_steps_past_it(monkeypatch):
    """Fuel 60 cuts every run on the size-5 termination families.  On the
    same node, fuel 1000 then resumes from the kept state: its pnf calls are
    the fresh run's without those the state already holds, and its answer is
    the fresh run's.  Fuel 30, short of the state, answers as a fresh run."""
    dist = importlib.import_module("lampe.distribution")
    real_pnf = dist.pnf
    calls = []  # the steps of each pnf call

    def recorded_pnf(t, mode, _from=()):
        result, trace = real_pnf(t, mode, _from=_from)
        calls.append([(s.rule, s.path) for s in trace])
        return result, trace

    monkeypatch.setattr(dist, "pnf", recorded_pnf)
    runs = [(hnv_lower_bound, mode, dist._HNV_SLOT[mode]) for mode in (PE, PE_BRACES)]
    runs += [
        (lambda t, fuel, mode: dist._segment(t, mode, fuel), mode, dist._SEGMENT_SLOT[mode])
        for mode in (PE, PE_BRACES)
    ]
    runs.append((nf_mass, PE, dist._NF_SLOT))
    resumed = saved = 0
    for text in [print_term(t) for t in termination_terms(5)]:
        for functional, mode, slot in runs:
            calls.clear()
            fresh = functional(parse_term(text), 1000, mode)
            fresh_calls = list(calls)
            shared = parse_term(text)
            functional(shared, 60, mode)
            state = _kept_state(shared, slot)
            short = parse_term(text)
            functional(short, 60, mode)
            assert functional(short, 30, mode) == functional(parse_term(text), 30, mode)
            calls.clear()
            assert functional(shared, 1000, mode) == fresh, (text, mode)
            tail = fresh_calls[len(fresh_calls) - len(calls):]
            assert calls == tail, (text, mode)
            if state is not None:
                # the kept state holds at least the first pnf of the run
                assert len(calls) < len(fresh_calls), (text, mode)
                resumed += 1
                saved += sum(map(len, fresh_calls)) - sum(map(len, calls))
    # every run keeps its state on the node
    assert resumed == 5 * len(runs)
    assert saved >= 60 * resumed
    # the loop's segment runs out after 401 steps, then after 101
    for mode in (PE, PE_BRACES):
        t = parse_term(_PERIOD_TWO)
        assert dist._segment(t, mode, 400)[::2] == ("out", 401)
        assert dist._segment(t, mode, 100) == dist._segment(parse_term(_PERIOD_TWO), mode, 100)


def test_fuel_cut_checkpoint_is_dropped_with_the_exact_bound_and_dies_with_its_node():
    """A cut run's state lives on its node until that functional's exact bound
    is kept there, and no longer than the node.  The segment state in PE
    also waits for hnv_lower_bound's bound in PE, which reads it too."""
    dist = importlib.import_module("lampe.distribution")
    for text in [print_term(t) for t in termination_terms(5)]:
        t = parse_term(text)
        hnv_lower_bound(t, 60, PE_BRACES)
        nf_mass(t, 60)
        slot = dist._HNV_SLOT[PE_BRACES]
        held = weakref.ref(_kept_state(t, slot)[0])
        assert hnv_lower_bound(t, 1000, PE_BRACES).exact
        assert _kept_state(t, slot) is None and held() is None
        assert nf_mass(t, 1000).exact
        assert _kept_state(t, dist._NF_SLOT) is not None
        assert hnv_lower_bound(t, 1000).exact
        assert t._resume is None and t._bounds[dist._NF_SLOT] is not None
        # the state of a run that stays cut dies with its node
        u = parse_term(text)
        hnv_lower_bound(u, 60)
        node = weakref.ref(u)
        state = weakref.ref(_kept_state(u, dist._HNV_SLOT[PE])[0])
        del u
        assert node() is None and state() is None


def test_segment_checkpoint_is_shared_by_the_functionals(monkeypatch):
    """hnv_lower_bound, nf_mass and sample_run run their single-branch prefix
    through one segment driver, whose last state the node keeps after every
    run.  On one node, in either order, each answer is a fresh parse's, and
    the second functional's pnf calls are its fresh run's less those of the
    shared prefix, unless every reader's exact bound dropped the state."""
    dist = importlib.import_module("lampe.distribution")
    real_pnf = dist.pnf
    calls = []

    def recorded_pnf(t, mode, _from=()):
        result, trace = real_pnf(t, mode, _from=_from)
        calls.append([(s.rule, s.path) for s in trace])
        return result, trace

    def run(functional, t):
        calls.clear()
        return functional(t), list(calls)

    monkeypatch.setattr(dist, "pnf", recorded_pnf)
    pairs = [
        (lambda t: hnv_lower_bound(t, 60), lambda t: nf_mass(t, 60), PE),
        (
            lambda t: hnv_lower_bound(t, 60, PE_BRACES),
            lambda t: sample_run(t, 7, 60, PE_BRACES),
            PE_BRACES,
        ),
    ]
    shared = 0
    for text in [print_term(t) for n in range(1, 6) for t in termination_terms(n)]:
        for first, second, mode in pairs:
            slot = dist._SEGMENT_SLOT[mode]
            prefix = len(run(lambda t: dist._segment(t, mode, 60), parse_term(text))[1])
            for a, b in ((first, second), (second, first)):
                t = parse_term(text)
                assert run(a, t) == run(a, parse_term(text)), (text, mode)
                kept = _kept_state(t, slot)
                assert (kept is None) == (not dist._segment_wanted(t, mode))
                answer, tail = run(b, t)
                fresh, fresh_calls = run(b, parse_term(text))
                assert answer == fresh, (text, mode)
                assert tail == fresh_calls[prefix if kept else 0 :], (text, mode)
                shared += kept is not None
    # all but hnv_lower_bound in PE_BRACES before sample_run below size 5:
    # its bound there is exact, and no other reader of that slot keeps one
    assert shared == 80
    # a node that holds every reader's exact bound holds no segment state,
    # and runs no longer keep one there
    for text in [print_term(t) for n in range(1, 6) for t in termination_terms(n)]:
        t = parse_term(text)
        assert nf_mass(t, 1000).exact and _kept_state(t, dist._NF_SLOT) is not None
        assert hnv_lower_bound(t, 1000).exact and hnv_lower_bound(t, 1000, PE_BRACES).exact
        sample_run(t, 7, 400)
        sample_run(t, 7, 400, PE_BRACES)
        assert t._resume is None
        # the kept PNF dies with its node
        u = parse_term(text)
        sample_run(u, 7, 60)
        node, state = weakref.ref(u), weakref.ref(_kept_state(u, dist._NF_SLOT)[0])
        del u
        assert node() is None and state() is None
