"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
"""

import math
import random
import time
from fractions import Fraction

from helpers import (
    A_,
    B_,
    cbv_fixture_corpus,
    cn_fixture_corpus,
    church_two_cbn_derivation,
    church_two_cbv_derivation,
    two_name_quarter_bound_derivation,
    two_name_exact_bound_derivation,
    correlated_pick_term,
    proof_fixture_corpus,
    proof_kind_corpus,
    random_affine_term,
    random_proof,
    random_term,
)
from lampe.distribution import (
    hnv_mass,
    distribution,
    estimate_hnv,
    hnv_lower_bound,
    nf_mass,
)
from lampe.formulas import measure, parse_formula
from lampe.proofs import _WITNESS_STEPS, check_proof, translate, verify_simulation
from lampe.rewrite import (
    PE,
    PE_BRACES,
    iter_steps,
    pnf,
    reduce_term,
    step,
)
from lampe.terms import Nu, alpha_eq, free_names, parse_term, replace_at
from lampe.transport import transport_subject_reduction
from lampe.typesys import (
    CBV,
    CN,
    INT,
    Counted,
    apply_mu_star,
    check_derivation,
    is_balanced,
    print_type,
    same_judgement,
    strip_prefix,
)

WORKED_TERM = r"nu a. (\x.\y.(y (+a.0) I) x) (nu b. I (+b.0) OMEGA)"


def verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_measure_fixtures():
    half = parse_formula("a.0")
    quarter = parse_formula("a.0 & b.0")
    measure(half)  # warm caches before timing
    t0 = time.perf_counter()
    v1 = measure(half)
    t1 = time.perf_counter()
    v2 = measure(quarter)
    t2 = time.perf_counter()
    ok = (
        v1 == Fraction(1, 2)
        and v2 == Fraction(1, 4)
        and (t1 - t0) < 0.001
        and (t2 - t1) < 0.001
    )
    verdict(
        1,
        ok,
        f"mu(a.0)={v1}, mu(a.0&b.0)={v2}, "
        f"times {1000*(t1-t0):.3f}ms / {1000*(t2-t1):.3f}ms",
    )


def _branch_weights(term, mode):
    """Flatten nested generators into pseudo-value weights."""
    d = distribution(term, mode)
    return sorted(w for _, w in d.items())


def test_criterion_2_cbn_cbv_divergence():
    start = time.perf_counter()
    cbn = parse_term(r"(\y.\x.{y}(y x)) (nu a. I (+a.0) OMEGA)")
    out = reduce_term(cbn, PE_BRACES, "full", 200)
    normal, _ = pnf(out.term, PE_BRACES)
    cbn_weights = _branch_weights(normal, PE_BRACES)
    cbn_mass = hnv_lower_bound(cbn, 400, PE_BRACES).value

    cbv = parse_term("nu a. 2 (I (+a.0) OMEGA)")
    out2 = reduce_term(cbv, PE, "full", 200)
    normal2, _ = pnf(out2.term, PE)
    cbv_weights = _branch_weights(normal2, PE)
    cbv_mass = hnv_lower_bound(cbv, 400, PE).value
    took = time.perf_counter() - start

    ok = (
        cbn_weights == [Fraction(1, 4)] * 4
        and cbn_mass == Fraction(1, 4)
        and cbv_weights == [Fraction(1, 2)] * 2
        and cbv_mass == Fraction(1, 2)
        and took < 1.0
    )
    verdict(
        2,
        ok,
        f"CbN branches {cbn_weights} mass {cbn_mass}; "
        f"CbV branches {cbv_weights} mass {cbv_mass}; {took:.2f}s",
    )


def test_criterion_3_worked_example():
    t = parse_term(WORKED_TERM)
    hnv = hnv_lower_bound(t, 200)
    nf = nf_mass(t, 200)
    ok = (
        hnv.value == Fraction(3, 4)
        and hnv.fuel_used <= 200
        and nf.value == Fraction(1, 2)
        and nf.fuel_used <= 200
    )
    verdict(
        3,
        ok,
        f"HNV={hnv.value} (fuel {hnv.fuel_used}), NF={nf.value} (fuel {nf.fuel_used})",
    )


def test_criterion_4_counting_rule_comparison():
    prime = check_derivation(two_name_quarter_bound_derivation(), CN)
    sigma = check_derivation(two_name_exact_bound_derivation(), INT)
    from test_typesys import _two_name_premise

    star = apply_mu_star(_two_name_premise(), order=[A_, B_])
    # the summed exponent is exactly the distribution mass of the typable
    # branches, witnessing tightness on this fixture
    term = Nu(A_, Nu(B_, correlated_pick_term()))
    normal, _ = pnf(term)
    mass = hnv_mass(normal)
    ok = (
        prime.type.q == Fraction(1, 4)
        and sigma.type.q == Fraction(3, 8)
        and star.judgement.type.q == Fraction(3, 8)
        and star.judgement.type == sigma.type
        and mass == Fraction(3, 8)
    )
    verdict(
        4,
        ok,
        f"mu-prime gives C[{prime.type.q}], mu-sigma gives C[{sigma.type.q}], "
        f"mu-star gives C[{star.judgement.type.q}], exact mass {mass}",
    )


def test_criterion_5_church_numeral_typings():
    cbn = check_derivation(church_two_cbn_derivation(Fraction(1, 2)), CBV)
    cbv = check_derivation(church_two_cbv_derivation(Fraction(1, 2)), CBV)
    ok = (
        print_type(cbn.type) == "C[1/2] C[1/2] (C[1/2] (o => o) => (o => o))"
        and print_type(cbv.type) == "C[1/2] (C[1/2] (o => o) => (o => o))"
    )
    verdict(5, ok, f"CbN {print_type(cbn.type)}; CbV {print_type(cbv.type)}")


def _random_maximal_pnf(t, rng, burst=8):
    while True:
        triples = list(iter_steps(t, PE, include_beta=False))
        if not triples:
            return t
        rule, path, result = rng.choice(triples)
        t = replace_at(t, path, result)
        for _ in range(rng.randrange(burst)):
            from lampe.rewrite import first_step

            s = first_step(t, PE, include_beta=False)
            if s is None:
                return t
            t = s.after


def test_criterion_6_rewrite_metatheory():
    start = time.perf_counter()
    rng = random.Random(2024)
    mismatches = 0
    for i in range(1000):
        t = random_term(rng, rng.randrange(5, 41), [], [])
        p1 = _random_maximal_pnf(t, random.Random(2 * i + 1))
        p2 = _random_maximal_pnf(t, random.Random(2 * i + 2))
        if not alpha_eq(p1, p2):
            mismatches += 1

    join_failures = 0
    joins = 0
    i = 0
    while joins < 200 and i < 4000:
        i += 1
        t = random_affine_term(random.Random(90000 + i), 25, [], [])
        steps = step(t, PE)
        if len(steps) < 2:
            continue
        joins += 1
        r1 = reduce_term(steps[0].after, PE, "full", 500)
        r2 = reduce_term(steps[-1].after, PE, "full", 500)
        if r1.exhausted or r2.exhausted or not alpha_eq(r1.term, r2.term):
            join_failures += 1
    took = time.perf_counter() - start
    ok = mismatches == 0 and join_failures == 0 and joins >= 200 and took < 60
    verdict(
        6,
        ok,
        f"1000 unique-PNF checks ({mismatches} mismatches), "
        f"{joins} local joins ({join_failures} failures), {took:.1f}s",
    )


def test_criterion_7_soundness_bounds():
    checked = 0
    failures = []
    for d, mode in cbv_fixture_corpus():
        j = check_derivation(d, CBV)
        assert not free_names(j.term) and not j.ctx
        bound = math.prod(strip_prefix(j.type)[0], start=Fraction(1))
        got = hnv_lower_bound(j.term, 600, PE_BRACES).value
        checked += 1
        if got < bound:
            failures.append((print_type(j.type), bound, got))
    for d in cn_fixture_corpus():
        j = check_derivation(d, CN)
        assert isinstance(j.type, Counted) and is_balanced(j.type.body)
        got = nf_mass(j.term, 600).value
        checked += 1
        if got < j.type.q:
            failures.append((print_type(j.type), j.type.q, got))
    j = check_derivation(two_name_exact_bound_derivation(), INT)
    got = hnv_lower_bound(j.term, 600).value
    checked += 1
    if got < j.type.q:
        failures.append((print_type(j.type), j.type.q, got))
    ok = checked >= 15 and not failures
    verdict(
        7,
        ok,
        f"{checked} closed typed fixtures, bounds met"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_8_subject_reduction_transport():
    cases = 0
    failures = 0

    def expected(d, s):
        from lampe.typesys import Judgement

        j = d.judgement
        return Judgement(j.ctx, j.names, s.after, j.constraint, j.type)

    def chase(d, depth, pick):
        nonlocal cases, failures
        for _ in range(depth):
            steps = step(d.judgement.term, PE_BRACES)
            if not steps:
                return
            nxt = None
            for i, s in enumerate(steps):
                cases += 1
                try:
                    out = transport_subject_reduction(d, s, PE_BRACES)
                    if not same_judgement(out.judgement, expected(d, s)):
                        failures += 1
                    elif i == pick % len(steps):
                        nxt = out
                except Exception:
                    failures += 1
            if nxt is None:
                return
            d = nxt

    for d, _ in cbv_fixture_corpus():
        for pick in range(3):
            chase(d, depth=25, pick=pick)
    rng = random.Random(7)
    made = 0
    while made < 14:
        p = random_proof(rng, depth=rng.randrange(2, 5))
        if p is None:
            continue
        made += 1
        _, deriv = translate(p)
        chase(deriv, depth=8, pick=made)
    ok = cases >= 500 and failures == 0
    verdict(8, ok, f"{cases} transported steps, {failures} failures")


def test_criterion_9_curry_howard_simulation():
    entries = 0
    failures = 0
    kinds = set()
    # the kind corpus heads the seven mix permutations random proofs miss
    for p in proof_fixture_corpus() + proof_kind_corpus():
        rep = verify_simulation(p, fuel=1000)
        entries += len(rep.entries)
        failures += len(rep.failures)
        kinds.update(e.kind for e in rep.entries)
    rng = random.Random(42)
    made = 0
    while made < 200:
        p = random_proof(rng, depth=rng.randrange(2, 7))
        if p is None:
            continue
        made += 1
        check_proof(p)
        rep = verify_simulation(p, fuel=1000)
        entries += len(rep.entries)
        failures += len(rep.failures)
        kinds.update(e.kind for e in rep.entries)
    ok = failures == 0 and made == 200 and kinds == set(_WITNESS_STEPS)
    verdict(
        9,
        ok,
        f"{made} random proofs + fixtures, {entries} simulated steps, "
        f"{len(kinds)} of {len(_WITNESS_STEPS)} kinds, {failures} failures",
    )


def test_criterion_10_monte_carlo_consistency():
    start = time.perf_counter()
    fixtures = [
        ("nu a. I (+a.0) OMEGA", Fraction(1, 2), PE),
        ("I", Fraction(1), PE),
        (WORKED_TERM, Fraction(3, 4), PE),
        (None, Fraction(3, 8), PE),  # the two-name tree, built below
        ("nu a. 2 (I (+a.0) OMEGA)", Fraction(1, 2), PE),
    ]
    results = []
    ok = True
    for idx, (text, exact, mode) in enumerate(fixtures):
        if text is None:
            term = Nu(A_, Nu(B_, correlated_pick_term()))
        else:
            term = parse_term(text)
        est, err = estimate_hnv(term, 10000, 400, seed=1000 + idx, mode=mode)
        results.append((str(est), str(err)))
        if abs(est - exact) > 4 * err:
            ok = False
    took = time.perf_counter() - start
    ok = ok and took < 30
    verdict(
        10,
        ok,
        f"5 fixtures within 4 standard errors, {took:.1f}s",
    )
