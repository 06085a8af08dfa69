"""Memory stays bounded in a long-running process.

One mix of the library's entry points runs three times in one process.  Its
random number generator is seeded once, so each pass draws new terms and
formulas from the same distribution, as a long-running process would see
new inputs; their names and atoms come from fixed pools.  State that outlives
a call (per-node facts, the decode memo, interned names, formulas, types and
proof formulas, the retained oracle manager) must then hold no more after the
third pass than after the second, and no name or node may stay interned past
its use.
"""

import gc
import json
import random
import tracemalloc
from pathlib import Path

from helpers import _TermNames, random_term
from lampe import formulas as fm
from lampe.distribution import distribution, hnv_lower_bound
from lampe.errors import LampeError
from lampe.formulas import And, Atom, Not, Or, entails, equivalent, measure, parse_formula
from lampe.proofs import check_proof, proof_from_json, translate
from lampe.rewrite import PE_BRACES, pnf, step
from lampe.terms import Name, free_names
from lampe.transport import transport_subject_reduction
from lampe.typesys import CBV, CN, INT, apply_mu_star, check_derivation, derivation_from_json

SEED = 26
# Traced bytes that pass 3 may hold beyond pass 2: room for a dict's table
# that resizes by one step and for the interpreter's free lists (a few KB to
# tens of KB), not for what a pass leaves behind when it keeps its formulas
# (about 150 KB) or its oracle operands (about 750 KB).
SLACK = 64 * 1024

GOLDEN = Path(__file__).parent / "golden"
_ATOMS = [(Name(n), i) for n in "abcd" for i in range(3)]
_SIZES = range(4, 22)
# every name a nu binder of a random term can take, interned up front so
# that the vocabulary is fixed before pass 1
_BINDERS = [Name(f"n{k}") for k in range(1, _SIZES[-1] + 1)]


def _golden_inputs(file_name):
    return list(json.loads((GOLDEN / file_name).read_text())["inputs"].values())


_DERIVATIONS = _golden_inputs("derivation_cli.json")
_PROOFS = _golden_inputs("proof_cli.json")


def _formula(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        name, index = rng.choice(_ATOMS)
        return Atom(name, index)
    kind = rng.randrange(3)
    if kind == 0:
        return Not(_formula(rng, depth - 1))
    left, right = _formula(rng, depth - 1), _formula(rng, depth - 1)
    return And(left, right) if kind == 1 else Or(left, right)


def _attempt(fn, *args):
    try:
        return fn(*args)
    except LampeError:
        return None


def _mix(rng):
    # terms: normal forms, distributions and head-normalization bounds
    for _ in range(30):
        t = random_term(rng, rng.choice(_SIZES), [], [], supply=_TermNames("n"))
        normal, _ = pnf(t)
        if not free_names(normal):
            distribution(normal)
        hnv_lower_bound(t, 20)
    # the oracle triple on parsed texts, then one first operand against
    # fresh second operands
    for _ in range(40):
        b, c = (fm.print_formula(_formula(rng, 4)) for _ in range(2))
        b, c = parse_formula(b), parse_formula(c)
        measure(b), entails(b, c), equivalent(b, c)
    x = parse_formula("(a.0 | b.0) & (c.0 | !a.1) & (d.2 | !b.1)")
    for _ in range(150):
        entails(x, _formula(rng, 4))
    # the checkers, transport and mu-star on the decoded golden inputs
    for blob in _DERIVATIONS:
        d = _attempt(derivation_from_json, blob)
        if d is None:
            continue
        for system in (CBV, CN, INT):
            _attempt(check_derivation, d, system)
        _attempt(apply_mu_star, d)
        for s in step(d.judgement.term, PE_BRACES)[:2]:
            _attempt(transport_subject_reduction, d, s, PE_BRACES)
    for blob in _PROOFS:
        p = _attempt(proof_from_json, blob)
        if p is not None:
            _attempt(check_proof, p)
            _attempt(translate, p)
    # a last standalone query on a formula no other query reads, so the
    # retained manager holds the same after every pass
    measure(parse_formula("end.0 & !end.1"))


def test_long_running_mix_holds_bounded_memory():
    rng = random.Random(SEED)
    traced, names, formulas = [], [], []
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(3):
            _mix(rng)
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
            names.append(len(Name._table))
            formulas.append(len(fm._INTERNED))
    finally:
        tracemalloc.stop()
        gc.enable()
    assert traced[2] <= traced[1] + SLACK, traced
    assert names[1:] == names[:1] * 2, names
    assert formulas[1:] == formulas[:1] * 2, formulas
