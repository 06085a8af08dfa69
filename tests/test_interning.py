"""Interned types and proof formulas: one node per structure, `==` and `hash`
by identity.

Boolean formulas, types (`Ground`, `Arrow`, `Counted`, `Mset`) and proof
formulas (`PropVar`, `Implies`, `Count`) are built by one constructor through
one table (see the `formulas` module docstring).  Keys hold children by
identity, so hash values follow addresses; no answer may.
"""

import copy
import dataclasses
import pickle
import sys
from fractions import Fraction

import pytest

from helpers import coin_derivation, cut_proof, half_id_proof
from lampe import formulas as fm
from lampe.formulas import TOP, Interned
from lampe.proofs import (
    Count,
    Implies,
    PropVar,
    check_proof,
    formula_type,
    parse_proof_formula,
    print_proof_formula,
    proof_from_json,
    proof_to_json,
    translate,
)
from lampe.typesys import (
    CBV,
    HN,
    O,
    Arrow,
    Counted,
    Ground,
    Mset,
    derivation_from_json,
    derivation_to_json,
    judgement_from_json,
    mk_mset,
    parse_type,
    print_type,
)

TYPE_TEXTS = (
    "o",
    "C[1/2] (o => C[1/3] C[1] o)",
    "C[1/2] ([C[1] hn, C[1] n, C[1] hn] => C[2/3] n)",
    "(([] => o) => ([o] => o))",
)
FORMULA_TEXTS = ("A", "C[1/2] (A -> B) -> C[1/3] A -> B", "((A -> A) -> A) -> A")


def test_interned_equal_types_and_formulas_are_one_node_however_made():
    for text in TYPE_TEXTS:
        t = parse_type(text)
        assert parse_type(text) is t and parse_type(print_type(t)) is t
        assert copy.copy(t) is t and copy.deepcopy(t) is t
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(t, protocol)) is t
        assert dataclasses.replace(t) is t
    for text in FORMULA_TEXTS:
        a = parse_proof_formula(text)
        assert parse_proof_formula(text) is a
        assert parse_proof_formula(print_proof_formula(a)) is a
        assert copy.copy(a) is a and copy.deepcopy(a) is a
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(a, protocol)) is a
        assert dataclasses.replace(a) is a
    # replacing a field by name builds through the table too
    t = parse_type("C[1/2] (o => o)")
    assert dataclasses.replace(t, q=Fraction(1, 3)) is parse_type("C[1/3] (o => o)")
    assert dataclasses.replace(t.body, cod=HN) is Arrow(O, HN)
    a = parse_proof_formula("A -> B")
    assert dataclasses.replace(a, consequent=PropVar("A")) is parse_proof_formula("A -> A")
    # a multiset is its sorted items, so item order does not matter
    m = parse_type("[C[1] n, C[1] hn, C[1] n]").items
    assert mk_mset(reversed(m)) is mk_mset(m) is Mset(m)
    # formula_type builds the type that parsing does
    a = parse_proof_formula("C[1/2] (A -> B) -> C[1/3] A -> B")
    assert formula_type(a) is parse_type("(C[1/2] (o => o) => (C[1/3] o => o))")


def test_interned_decoded_derivations_and_proofs_share_their_nodes():
    d = coin_derivation()
    again = derivation_from_json(derivation_to_json(d))
    for j, k in zip(_judgements(d), _judgements(again)):
        assert k.type is j.type and k.constraint is j.constraint
        assert all(b is a for (_, a), (_, b) in zip(j.ctx, k.ctx))
    blob = derivation_to_json(d)["judgement"]
    assert judgement_from_json(blob) == d.judgement
    p = cut_proof()
    q = proof_from_json(proof_to_json(p))
    assert q.sequent.formula is p.sequent.formula
    assert all(b is a for a, b in zip(p.sequent.ctx, q.sequent.ctx))


def _judgements(d):
    stack = [d]
    while stack:
        d = stack.pop()
        yield d.judgement
        stack.extend(d.premises)


def test_interned_distinct_nodes_compare_unequal():
    """Every class compares by identity, bases included: a base's generated
    `__eq__` would compare no fields and call two nodes of a class equal."""
    pairs = [
        (Arrow(O, O), Arrow(O, HN)),
        (Arrow(O, HN), Arrow(HN, O)),
        (Counted(Fraction(1, 2), O), Counted(Fraction(1, 3), O)),
        (Ground("o"), Ground("n")),
        (mk_mset([O]), mk_mset([O, O])),
        (Implies(PropVar("A"), PropVar("B")), Implies(PropVar("B"), PropVar("A"))),
        (PropVar("A"), PropVar("B")),
        (Count(Fraction(1, 2), PropVar("A")), Count(Fraction(1), PropVar("A"))),
        (TOP, fm.BOT),
    ]
    for a, b in pairs:
        assert a != b and not a == b and hash(a) != hash(b)
        assert a == copy.copy(a) and hash(a) == object.__hash__(a)
    stack, classes = [Interned], []
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack.extend(cls.__subclasses__())
    assert {c.__name__ for c in classes} >= {
        "BoolFormula", "Type", "Formula", "Arrow", "Implies", "Mset", "Top",
    }
    for cls in classes:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


def test_interned_10000_link_chains_compare_and_hash_at_the_default_limit():
    """Two chains built apart are one node, so `==` and `hash` return at
    once under a recursion limit of 1000."""

    def chains():
        t, a = O, PropVar("A")
        for _ in range(10000):
            t, a = Arrow(O, t), Implies(PropVar("A"), a)
        return t, a

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        (t1, a1), (t2, a2) = chains(), chains()
        assert t1 == t2 and hash(t1) == hash(t2) and t1 is t2
        assert a1 == a2 and hash(a1) == hash(a2) and a1 is a2
        assert t1 != t1.cod and a1 != a1.consequent
        assert formula_type(a1) is t1
        assert print_type(t1) == "(o => " * 10000 + "o" + ")" * 10000
    finally:
        sys.setrecursionlimit(limit)


def test_interned_deepcopy_of_10000_link_chains_is_the_node():
    """A node is immutable and the one of its structure, so `deepcopy`
    returns it without walking its children, under a recursion limit of
    1000, and a container holding it copies around it."""
    t, a = O, PropVar("A")
    for _ in range(10000):
        t, a = Arrow(O, t), Implies(PropVar("A"), a)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert copy.deepcopy(t) is t and copy.deepcopy(a) is a
        held = {"chains": [t, a]}
        copied = copy.deepcopy(held)
        assert copied is not held and copied["chains"] is not held["chains"]
        assert copied["chains"][0] is t and copied["chains"][1] is a
    finally:
        sys.setrecursionlimit(limit)


def test_interned_translate_keeps_the_checked_mark_on_shared_types():
    """`formula_type` returns the interned type, so the mark that the closing
    CbV check leaves on it is what the next `formula_type` call returns."""
    for p in (half_id_proof(), cut_proof()):
        check_proof(p)
        _, d = translate(p)
        for j in _judgements(d):
            for t in [j.type, *(a for _, a in j.ctx)]:
                assert CBV in t._valid_under
        assert formula_type(p.sequent.formula) is d.judgement.type


class _Racing:
    """The table, as a constructor would meet it while another thread works
    on the same structure: its first `get` of `key` misses, as for a thread
    that looked just before the other one stored the node, and its first
    `setdefault` meets `dead`, an entry whose node has died and whose
    callback has not yet run."""

    def __init__(self, key, dead):
        self.table, self.key, self.dead = fm._INTERNED, key, dead

    def get(self, key, default=None):
        if key == self.key:
            self.key = None
            return default
        return self.table.get(key, default)

    def setdefault(self, key, entry):
        if self.dead is not None:
            dead, self.dead = self.dead, None
            return dead
        return self.table.setdefault(key, entry)

    def __delitem__(self, key):
        del self.table[key]


class _Gone:
    pass


def test_interned_store_takes_the_winners_node_and_waits_out_a_dead_entry(
    monkeypatch,
):
    t = parse_type("C[1/2] (o => o)")
    # a constructor that missed takes the node another thread stored
    key = (Fraction(1, 2), t.body, Counted)
    monkeypatch.setattr(fm, "_INTERNED", _Racing(key, None))
    assert Counted(Fraction(1, 2), t.body) is t
    assert fm._INTERNED.key is None
    # it tries a dead entry again until the entry is gone, then stores
    dead = fm._Entry(_Gone())
    assert dead() is None
    monkeypatch.setattr(fm, "_INTERNED", _Racing(None, dead))
    made = PropVar("Fresh")
    assert fm._INTERNED.dead is None and PropVar("Fresh") is made



def test_interned_constructors_reject_wrong_fields():
    for call in (
        lambda: Arrow(O),
        lambda: Arrow(O, O, O),
        lambda: Counted(body=O),
        lambda: PropVar(text="A"),
        lambda: Implies(PropVar("A"), antecedent=PropVar("A")),
        lambda: fm.Top(value=1),
    ):
        with pytest.raises(TypeError):
            call()
    assert Counted(Fraction(1, 2), body=O) is Counted(q=Fraction(1, 2), body=O)
