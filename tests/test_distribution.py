import importlib
import itertools
import random
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
    terms = [t for n in range(1, 6) for t in termination_terms(n)]
    terms += [parse_term(text) for text in _FIXED_TERMS + [_STEPS_ABOVE_THE_HINT]]
    for t in terms:
        for fuel in (60, 400, 1000):
            dist._segment(t, PE, fuel)
            nf_mass(t, fuel)
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
