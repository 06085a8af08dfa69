"""Node facts: the memos kept on term, type, derivation, proof and formula
nodes.

A fact is a plain attribute outside the node's dataclass fields, so no fact
may change what a node compares, hashes, prints or encodes as.  `alpha_eq`
fills no fact record only to compare.  Name-text shape hashes vary with
PYTHONHASHSEED; these answers must not.
"""

import copy
import dataclasses
import gc
import json
import pickle
import random
import weakref
from fractions import Fraction

import pytest

from helpers import (
    coin_derivation,
    cut_proof,
    half_id_proof,
    random_formula,
    random_term,
    reference_walk_atoms,
    stored_shape_hash,
)
from lampe import formulas as fm
from lampe.errors import TooManyAtomsError
from lampe.formulas import And, Atom, TOP, Top, entails, measure
from lampe.proofs import check_proof, proof_to_json
from lampe.terms import (
    App,
    Choice,
    Lam,
    Name,
    Nu,
    Var,
    alpha_eq,
    canonical_str,
    children,
    free_names,
    parse_term,
)
from lampe.typesys import CBV, _RULE_CHECKERS, check_derivation, derivation_to_json


def _nodes(t):
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        out.append(t)
        stack.extend(children(t))
    return out


def _renamed(t, env=None):
    """An alpha-equal copy of t with every lambda variable renamed."""
    env = env or {}
    if isinstance(t, Var):
        return Var(env.get(t.var, t.var))
    if isinstance(t, Lam):
        new = f"{t.var}r{len(env)}"
        return Lam(new, _renamed(t.body, {**env, t.var: new}))
    if isinstance(t, Nu):
        return Nu(t.name, _renamed(t.body, env))
    if isinstance(t, Choice):
        return Choice(_renamed(t.left, env), _renamed(t.right, env), t.name, t.index)
    if isinstance(t, App):
        return App(_renamed(t.fun, env), _renamed(t.arg, env))
    return t


def _random_pairs(seed, count):
    """Pairs of fresh terms: alpha-equal copies, one-leaf variants and
    unrelated terms, over shared free names."""
    rng = random.Random(seed)
    names = [Name("a"), Name("b")]
    pairs = []
    for _ in range(count):
        size = rng.randrange(2, 18)
        t = random_term(rng, size, names, ["x", "y"])
        u = random_term(rng, size, names, ["x", "y"])
        pairs += [
            (t, _renamed(t)),
            (Lam("x", t), Lam("z", _renamed(t))),
            (App(t, Var("x")), App(_renamed(t), Var("y"))),
            (t, u),
        ]
    return pairs


# ---------------------------------------------------------------------------
# alpha_eq fills nothing


def test_node_facts_alpha_eq_fills_no_record():
    text = r"nu c. (\x. x (y (+c.0) z)) (+d.1) \w. w"
    for left, right in [
        (parse_term(text), parse_term(text)),
        (parse_term(text), parse_term(text.replace("\\w. w", "\\w. y"))),
        (parse_term(text), parse_term(r"\x. x")),
    ]:
        alpha_eq(left, right)
        assert all(n._facts is None for n in _nodes(left) + _nodes(right))


@pytest.mark.parametrize("seed", [3, 19, 101])
@pytest.mark.parametrize("filled", ["none", "left", "both"])
def test_node_facts_alpha_eq_matches_canonical_str(seed, filled):
    for t, u in _random_pairs(seed, 40):
        if filled in ("left", "both"):
            stored_shape_hash(t)
        if filled == "both":
            stored_shape_hash(u)
        assert alpha_eq(t, u) == (canonical_str(t) == canonical_str(u))
        assert alpha_eq(u, t) == alpha_eq(t, u)
        if filled == "none":
            assert t._facts is None and u._facts is None


# ---------------------------------------------------------------------------
# Formula facts under one check, and standalone


def _spread(n):
    """A conjunction over n distinct atoms."""
    return fm.conj(Atom(Name("p"), i) for i in range(n))


def test_node_facts_atom_cap_and_memo_under_one_check(monkeypatch):
    d = coin_derivation()
    original = _RULE_CHECKERS[d.rule]
    seen = {}

    def spy(node, system):
        if node is d:
            manager = fm._OPEN.get()
            assert manager is not None
            wide = _spread(25)
            with pytest.raises(TooManyAtomsError) as err:
                measure(wide)
            assert str(err.value) == "E_TOO_MANY_ATOMS: 25 atoms exceeds the cap of 24"
            with pytest.raises(TooManyAtomsError):
                entails(wide, TOP)
            narrow = _spread(24)
            assert measure(narrow) == Fraction(1, 2**24)
            assert entails(narrow, Atom(Name("p"), 23))
            rng = random.Random(7)
            atoms = [Atom(Name(n), i) for n in "ab" for i in range(3)]
            for _ in range(50):
                b = random_formula(rng, atoms, 4)
                assert fm.atoms(b) == set(reference_walk_atoms(b))
                assert fm.atoms(b) is fm.atoms(b)
            seen["manager"] = weakref.ref(manager)
            seen["formula"] = weakref.ref(wide)
        original(node, system)

    monkeypatch.setitem(_RULE_CHECKERS, d.rule, spy)
    check_derivation(d, CBV)
    assert fm._OPEN.get() is None
    gc.collect()
    # the manager, and the formulas its memos held, died with the check
    assert seen["manager"]() is None and seen["formula"]() is None


def test_node_facts_atoms_standalone_walk_is_unchanged():
    rng = random.Random(11)
    atoms = [Atom(Name(n), i) for n in "abc" for i in range(4)]
    formulas = [random_formula(rng, atoms, 5) for _ in range(60)]
    standalone = [fm.atoms(b) for b in formulas]
    shared = fm._one_manager(lambda: [fm.atoms(b) for b in formulas])()
    assert shared == standalone


# ---------------------------------------------------------------------------
# Facts stay invisible


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:
        return str(exc)


def _views(node, encode):
    return (
        dataclasses.fields(node),
        _hash_or_error(node),
        repr(node),
        json.dumps(encode(node), sort_keys=True) if encode else None,
    )


def test_node_facts_leave_fields_equality_hash_repr_and_json_unchanged():
    text = r"nu c. (\x. {x} (y (+c.0) z)) (+d.1) w"
    term, fresh_term = parse_term(text), parse_term(text)
    derivation, fresh_derivation = coin_derivation(), coin_derivation()
    proofs = [(half_id_proof(), half_id_proof()), (cut_proof(), cut_proof())]
    nodes = [(term, fresh_term, None), (derivation, fresh_derivation, derivation_to_json)]
    nodes += [(p, q, proof_to_json) for p, q in proofs]
    before = [_views(node, encode) for node, _, encode in nodes]

    free_names(term)
    canonical_str(term)
    check_derivation(derivation, CBV)
    for p, _ in proofs:
        check_proof(p)
    assert term._facts is not None and term._canonical_str is not None
    assert derivation._checked_under == (CBV,)
    assert derivation.judgement.type._valid_under == (CBV,)
    assert all(p._checked for p, _ in proofs)

    assert [_views(node, encode) for node, _, encode in nodes] == before
    for node, fresh, _ in nodes:
        assert node == fresh and fresh == node
        assert _hash_or_error(node) == _hash_or_error(fresh)
    # the marks stay outside the fields, and a fresh node carries none
    assert fresh_term._facts is None
    assert fresh_derivation._checked_under == ()
    assert not any(q._checked for _, q in proofs)
    for node, _, _ in nodes:
        names = {f.name for f in dataclasses.fields(node)}
        assert not names & {
            "_facts", "_canonical_str", "_normal", "_checked_under", "_checked",
        }


def test_node_facts_interned_formulas_keep_fields_equality_hash_repr_and_json():
    text = "(a.0 | !b.1) & (a.0 | !b.1) & !c.2"
    f = fm.parse_formula(text)
    derivation = coin_derivation()
    nodes = [(f, fm.print_formula), (derivation, derivation_to_json)]
    assert f._atoms is None and f._measure is None
    before = [_views(node, encode) for node, encode in nodes]
    pickled = pickle.dumps(f)
    # what a frozen dataclass of the same fields gives: field names and the
    # field-by-field repr; `==` and `hash` are by identity
    assert [field.name for field in dataclasses.fields(f)] == ["left", "right"]
    assert _hash_or_error(f) == object.__hash__(f)
    clause = "Or(left=Atom(name=Name('a'), index=0), right=Not(arg=Atom(name=Name('b'), index=1)))"
    assert repr(f) == (
        f"And(left=And(left={clause}, right={clause}), "
        "right=Not(arg=Atom(name=Name('c'), index=2)))"
    )

    # queries, the facts they write and a check leave them unchanged
    measure(f), entails(f, f.left), measure(TOP)
    fm._one_manager(fm.atoms)(f)
    check_derivation(derivation, CBV)
    assert f._measure == Fraction(3, 8) and f._atoms == fm.atoms(f)
    assert f.left._atoms is not None and TOP._measure == 1
    assert [_views(node, encode) for node, encode in nodes] == before
    # a copy or a pickle carries no fact, and rebuilds as the node itself
    assert pickle.dumps(f) == pickled
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert pickle.loads(pickled) is f
    # an equal formula is the same node, and compares and hashes as one
    assert fm.parse_formula(text) is f and f.left.left is f.left.right
    assert f == And(f.left, f.right) and hash(f) == hash(And(f.left, f.right))
    # constants are interned too: a new one is the node, with its fact
    assert Top() is TOP and fm.Bot() is fm.BOT and Top()._measure == 1
    for cls in (Atom, And, fm.Not, Top):
        names = {field.name for field in dataclasses.fields(cls)}
        assert not names & {"_atoms", "_measure"}
