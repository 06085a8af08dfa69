"""Natural deduction for the counting-quantified implicational logic:
checking, normalization, and the proof-term translation into the CbV
type system.

Sequents are (hypothesis list, Boolean constraint, formula).  Formulas are
interned as Boolean formulas are (see `formulas`), so `==` is identity, and a
formula node keeps its CbV type as a fact, `_type`, once `formula_type` has
found it: every hypothesis and conclusion that holds the node reads it, so
`translate` walks each distinct formula once.  The identity rule carries the
index of the hypothesis it uses; the mixing rule carries its pivot atom; the
counting introduction carries its local one-name constraint and bound.

Normalization rewrites the proof tree: the two cuts go through an inlining
substitution, and the mixing rule permutes past every other rule.  Each
normalization rule is written once, in the redex table `_REDEX_AT`: one
function per proof rule returns the (kind, contractum) of the first kind that
fires at a node of that rule, in the canonical order, or None.  The one step
function `_proof_step` scans leftmost-outermost from the root, dispatching
once per node on its rule, and rebuilds the redex's ancestors on the way
back; `normalize_step`, `normalize_proof` and `verify_simulation` take their
steps from it.

The position table `_PREMISE_AT` says where each premise's proof term sits in
its parent's proof term, as `proof_term` lays it out.  `verify_simulation`
maps a redex's proof path to its term position through it, and `translate`
builds the proof term once and hands each premise its part of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType

from .errors import IllFormedError, ParseError, RuleShapeError
from . import formulas as fm
from .formulas import (
    And,
    BoolFormula,
    Interned,
    Not,
    Or,
    _bracket,
    _one_manager,
    entails,
    equivalent,
    formula_names,
    interned,
    measure,
    parse_formula,
    print_formula,
    rename_formula_names,
)
from .rewrite import PE_BRACES, _check_fuel, apply_rule_at
from .terms import (
    App,
    CbvApp,
    CONST,
    Choice,
    Lam,
    Nu,
    Var,
    alpha_eq,
    copy_variant_name,
    free_names,
    print_term,
    subterm_at,
    token_at,
    token_pattern,
    tokenize,
)
from .typesys import (
    Arrow,
    CBV,
    COUNT_TOKEN,
    Counted,
    Judgement,
    O,
    TypingDerivation,
    _check_tree,
    _decoded,
    _expect,
    _freeze_side,
    _get_scale,
    _one_decode,
    _rebuilt,
    _shape,
    _side,
    _tree_from_json,
    _tree_to_json,
    check_derivation,
    count_exponent,
    fold,
    relabel,
    strip_prefix,
    wrap_prefix,
)


# ---------------------------------------------------------------------------
# Formulas of the logic


class Formula(Interned):
    # a node fact, not a field: see `formula_type`
    _type = None


@interned
class PropVar(Formula):
    name: str

    _type = O


@interned
class Implies(Formula):
    antecedent: Formula
    consequent: Formula


@interned
class Count(Formula):
    q: Fraction
    body: Formula


_PROOF_FORMULA_TOKENS = token_pattern(
    COUNT_TOKEN, ("var", "[a-zA-Z][a-zA-Z0-9_]*"), ("sym", "->|[()]")
)


def parse_proof_formula(text):
    """Parse a counting propositional formula; `->` associates to the right.
    Arrows and quantifier prefixes are read in loops, and each parenthesis
    level costs one interpreter frame.  Tokens are told apart by their text:
    past the quantifiers, a variable is the one from "A" up."""
    toks = tokenize(_PROOF_FORMULA_TOKENS, text)
    i = 0

    def implication():
        nonlocal i
        parts = []
        while True:
            counts = []
            tok = toks[i]
            while tok[:2] == "C[":
                counts.append(count_exponent(tok, _PROOF_FORMULA_TOKENS, text, i))
                i += 1
                tok = toks[i]
            i += 1
            if tok >= "A":
                out = PropVar(tok)
            elif tok == "(":
                out = implication()
                if toks[i] != ")":
                    pos = token_at(_PROOF_FORMULA_TOKENS, text, i)[1]
                    raise ParseError("expected ')'", pos)
                i += 1
            else:
                pos = token_at(_PROOF_FORMULA_TOKENS, text, i - 1)[1]
                raise ParseError("expected a propositional variable", pos)
            for q in reversed(counts):
                out = Count(q, out)
            parts.append(out)
            if toks[i] != "->":
                break
            i += 1
        out = parts.pop()
        while parts:
            out = Implies(parts.pop(), out)
        return out

    out = implication()
    if i != len(toks) - 1:
        pos = token_at(_PROOF_FORMULA_TOKENS, text, i)[1]
        raise ParseError("trailing input in formula", pos)
    return out


# print_proof_formula's expansion of a node, last item first; the flag says
# whether an implication there is bracketed
_PROOF_PRINT = {
    PropVar: lambda a, wrap: (a.name,),
    Count: lambda a, wrap: ((a.body, True), f"C[{a.q.numerator}/{a.q.denominator}] "),
    Implies: lambda a, wrap: _bracket(
        wrap, (a.consequent, False), " -> ", (a.antecedent, True)
    ),
}


def print_proof_formula(a):
    """The text that parse_proof_formula reads back as `a`, written from a
    stack as print_formula writes formulas."""
    out, stack = [], [(a, False)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        else:
            stack.extend(_PROOF_PRINT[type(item[0])](*item))
    return "".join(out)


# ---------------------------------------------------------------------------
# Proofs


@dataclass(frozen=True)
class Sequent:
    ctx: tuple  # tuple of Formula
    constraint: BoolFormula
    formula: Formula

    def format(self):
        ctx = ", ".join(print_proof_formula(a) for a in self.ctx)
        return (
            f"{ctx} |- {print_formula(self.constraint)} ~> "
            f"{print_proof_formula(self.formula)}"
        )


@dataclass(frozen=True)
class ProofDerivation:
    rule: str  # id | bot | m | imp-i | imp-e | ci | ce
    sequent: Sequent
    premises: tuple = ()
    side: MappingProxyType = field(default_factory=dict)

    __post_init__ = _freeze_side

    # a node fact: `(None,)` once the node passed check_proof, which checks
    # it under no type system (see typesys._check_tree)
    _checked = ()


@_one_manager
def check_proof(p):
    """Validate every rule application; returns the root sequent."""
    _check_tree(p, None, "_checked", None, _check_proof_rule)
    return p.sequent


def _check_proof_rule(p, system):
    """The rule check of one proof node, run by `_check_tree` with no system."""
    s = p.sequent
    if p.rule == "id":
        _shape(not p.premises, "id takes no premises")
        idx = p.side.get("index")
        _shape(idx is not None and 0 <= idx < len(s.ctx), "bad hypothesis index")
        _shape(s.ctx[idx] == s.formula, "id concludes a hypothesis")
    elif p.rule == "bot":
        _shape(not p.premises, "bot takes no premises")
        _side(entails(s.constraint, fm.BOT), "constraint must be unsatisfiable")
    elif p.rule == "m":
        _shape(len(p.premises) == 2, "m takes two premises")
        left, right = (q.sequent for q in p.premises)
        _shape(left.ctx == s.ctx and right.ctx == s.ctx, "m premises keep the context")
        _shape(
            left.formula == s.formula and right.formula == s.formula,
            "m premises prove the same formula",
        )
        pivot = _pivot_atom(p)
        _side(
            entails(
                s.constraint,
                Or(And(left.constraint, pivot), And(right.constraint, Not(pivot))),
            ),
            "m mixing condition fails",
        )
    elif p.rule == "imp-i":
        _shape(len(p.premises) == 1, "imp-i takes one premise")
        _shape(isinstance(s.formula, Implies), "imp-i concludes an implication")
        q = p.premises[0].sequent
        _shape(q.ctx == s.ctx + (s.formula.antecedent,), "premise discharges the antecedent")
        _shape(q.constraint == s.constraint, "imp-i keeps the constraint")
        _shape(q.formula == s.formula.consequent, "premise proves the consequent")
    elif p.rule == "imp-e":
        _shape(len(p.premises) == 2, "imp-e takes two premises")
        fun, arg = (q.sequent for q in p.premises)
        _shape(fun.ctx == s.ctx and arg.ctx == s.ctx, "imp-e premises keep the context")
        _shape(
            fun.constraint == s.constraint and arg.constraint == s.constraint,
            "imp-e keeps the constraint",
        )
        _shape(isinstance(fun.formula, Implies), "major premise is an implication")
        _shape(fun.formula.antecedent == arg.formula, "minor premise matches")
        _shape(fun.formula.consequent == s.formula, "conclusion is the consequent")
    elif p.rule == "ci":
        _shape(len(p.premises) == 1, "ci takes one premise")
        _shape(isinstance(s.formula, Count), "ci concludes a counted formula")
        q = p.premises[0].sequent
        _shape(q.ctx == s.ctx, "ci keeps the context")
        _shape(q.formula == s.formula.body, "premise proves the body")
        d = _local_constraint(p)
        _side(
            not (formula_names(s.constraint) & formula_names(d)),
            "local constraint shares a name with the ambient one",
        )
        _side(measure(d) >= s.formula.q, "measure bound fails")
        _side(
            equivalent(q.constraint, And(s.constraint, d)),
            "premise constraint is not the conclusion constraint plus the local part",
        )
    elif p.rule == "ce":
        _shape(len(p.premises) == 2, "ce takes two premises")
        major, minor = (q.sequent for q in p.premises)
        _shape(major.ctx == s.ctx, "major premise keeps the context")
        _shape(isinstance(major.formula, Count), "major premise is counted")
        _shape(
            minor.ctx == s.ctx + (major.formula.body,),
            "minor premise assumes the counted body",
        )
        _shape(
            major.constraint == s.constraint and minor.constraint == s.constraint,
            "ce keeps the constraint",
        )
        scale = _get_scale(p)
        _shape(
            s.formula == Count(major.formula.q * scale, minor.formula),
            "conclusion must prefix the minor formula with the scaled exponent",
        )
    else:
        raise RuleShapeError(f"unknown proof rule {p.rule}")


def _pivot_atom(p):
    pivot = p.side.get("pivot")
    _shape(pivot is not None, "m needs its pivot atom")
    return pivot


def _local_constraint(p):
    d = p.side.get("d")
    _shape(d is not None, "ci needs its local constraint")
    return d


# ---------------------------------------------------------------------------
# Proof transformations


def weaken_proof(p, new_constraint):
    """Replace the ambient constraint by a stronger one throughout."""
    return fold(p, new_constraint, _weaken_down, _rebuilt)


def _weaken_down(p, constraint):
    s = p.sequent
    new_s = Sequent(s.ctx, constraint, s.formula)
    if p.rule in ("id", "bot"):
        return ProofDerivation(p.rule, new_s, (), p.side), None
    if p.rule == "m":
        return ProofDerivation(p.rule, new_s, p.premises, p.side), None
    if p.rule in ("imp-i", "imp-e", "ce"):
        return new_s, [(q, constraint) for q in p.premises]
    if p.rule == "ci":
        d = _local_constraint(p)
        if formula_names(constraint) & formula_names(d):
            raise IllFormedError(
                "constraint strengthening collides with a bound name"
            )
        return new_s, [(p.premises[0], And(constraint, d))]
    raise RuleShapeError(p.rule)


def ctx_insert_proof(p, pos, extra):
    """Insert unused hypotheses at a fixed position of every context,
    shifting the hypothesis indices accordingly."""
    extra = tuple(extra)
    if not extra:
        return p

    def label(p):
        s, side = p.sequent, p.side
        if p.rule == "id" and side["index"] >= pos:
            side = {**side, "index": side["index"] + len(extra)}
        return Sequent(s.ctx[:pos] + extra + s.ctx[pos:], s.constraint, s.formula), side

    return relabel(p, label)


def counting_names(p):
    """Names bound by counting introductions inside a proof."""
    out = set()
    stack = [p]
    while stack:
        p = stack.pop()
        if p.rule == "ci":
            out |= formula_names(_local_constraint(p))
        stack += p.premises
    return out


def rename_proof_names(p, mapping):
    def label(p):
        s = p.sequent
        side = {
            key: rename_formula_names(v, mapping) if key in ("d", "pivot") else v
            for key, v in p.side.items()
        }
        constraint = rename_formula_names(s.constraint, mapping)
        return Sequent(s.ctx, constraint, s.formula), side

    return relabel(p, label)


def subst_proof(p, k, replacement):
    """Inline `replacement` (proving the hypothesis at index k) into p,
    removing that hypothesis; conjoins the replacement constraint along the
    way.  Duplicated copies get variant-renamed counting names, numbered in
    proof-term order to stay in lockstep with term substitution."""
    du = replacement.sequent.constraint
    base_len = len(replacement.sequent.ctx)
    internal = counting_names(replacement) - formula_names(du)
    hits = [0]

    def plugged_copy():
        hits[0] += 1
        if internal and hits[0] > 1:
            mapping = {
                name: copy_variant_name(name, hits[0]) for name in internal
            }
            return rename_proof_names(replacement, mapping)
        return replacement

    def down(p, _):
        s = p.sequent
        new_ctx = s.ctx[:k] + s.ctx[k + 1 :]
        new_c = And(s.constraint, du)
        new_s = Sequent(new_ctx, new_c, s.formula)
        if p.rule == "id":
            idx = p.side["index"]
            if idx == k:
                extra = new_ctx[base_len:]
                copy = plugged_copy()
                return weaken_proof(
                    ctx_insert_proof(copy, base_len, extra), new_c
                ), None
            new_idx = idx - 1 if idx > k else idx
            return ProofDerivation("id", new_s, (), {"index": new_idx}), None
        if p.rule == "ce":
            # term order visits the minor (the CbV function body) first
            return new_s, [(p.premises[1], None), (p.premises[0], None)]
        return new_s, [(q, None) for q in p.premises]

    return fold(p, None, down, lambda p, new_s, premises: _rebuilt(
        p, new_s, premises[::-1] if p.rule == "ce" else premises
    ))


# ---------------------------------------------------------------------------
# Normalization


def _with_premise(p, k, q):
    return p.premises[:k] + (q,) + p.premises[k + 1 :]


def _mix(pieces, pivot, sequent):
    return ProofDerivation("m", sequent, tuple(pieces), {"pivot": pivot})


def _split_mixed_premise(p, kinds, side):
    """m-imp-e-fun/arg and m-ce-major/minor: the first premise k that is a
    mix splits p into one copy per branch, each weakened to the branch's
    constraint, mixed on the same pivot."""
    for k, kind in enumerate(kinds):
        inner = p.premises[k]
        if inner.rule == "m":
            break
    else:
        return None
    s = p.sequent
    pieces = []
    for branch in inner.premises:
        bc = And(s.constraint, branch.sequent.constraint)
        premises = _with_premise(p, k, branch)
        pieces.append(
            ProofDerivation(
                p.rule, Sequent(s.ctx, bc, s.formula),
                tuple(weaken_proof(q, bc) for q in premises), side,
            )
        )
    return kind, _mix(pieces, inner.side["pivot"], s)


def _at_imp_e(p):
    fun, arg = p.premises
    if fun.rule == "imp-i":
        s = p.sequent
        inlined = subst_proof(fun.premises[0], len(s.ctx), arg)
        return "beta-cut", weaken_proof(inlined, s.constraint)
    return _split_mixed_premise(p, ("m-imp-e-fun", "m-imp-e-arg"), {})


def _at_ce(p):
    major, minor = p.premises
    if major.rule == "ci":
        s = p.sequent
        d = _local_constraint(major)
        bd = And(s.constraint, d)
        inlined = subst_proof(weaken_proof(minor, bd), len(s.ctx), major.premises[0])
        q = major.sequent.formula.q * _get_scale(p)
        return "cbv-cut", ProofDerivation(
            "ci", s, (weaken_proof(inlined, bd),), {"d": d, "q": q}
        )
    return _split_mixed_premise(p, ("m-ce-major", "m-ce-minor"), p.side)


def _at_m(p):
    left, right = p.premises
    s = p.sequent
    if _same_proof(left, right):
        return "m-idem", weaken_proof(left, s.constraint)
    # m-m-left/right: premise k mixes on the same pivot, so its branch k is
    # the only one reachable there
    pivot = _pivot_atom(p)
    for k, kind in enumerate(("m-m-left", "m-m-right")):
        inner = p.premises[k]
        if inner.rule == "m" and _pivot_atom(inner) == pivot:
            return kind, _mix(_with_premise(p, k, inner.premises[k]), pivot, s)
    return None


def _same_proof(p, q):
    """`p == q`, compared pair by pair on a stack: rule, sequent and side,
    then the premises, skipping a node paired with itself."""
    stack = [(p, q)]
    while stack:
        p, q = stack.pop()
        if p is not q:
            if (p.rule, p.sequent, p.side, len(p.premises)) != (
                q.rule, q.sequent, q.side, len(q.premises)
            ):
                return False
            stack += zip(p.premises, q.premises)
    return True


def _at_imp_i(p):
    inner = p.premises[0]
    if inner.rule != "m":
        return None
    s = p.sequent
    pieces = (
        ProofDerivation(
            "imp-i", Sequent(s.ctx, branch.sequent.constraint, s.formula), (branch,), {}
        )
        for branch in inner.premises
    )
    return "m-imp-i", _mix(pieces, inner.side["pivot"], s)


def _at_ci(p):
    inner = p.premises[0]
    if inner.rule != "m":
        return None
    d = _local_constraint(p)
    pivot = _pivot_atom(inner)
    if pivot.name in formula_names(d):
        return None
    s = p.sequent
    q = p.side.get("q", s.formula.q)
    pieces = []
    for sign, branch in zip((pivot, Not(pivot)), inner.premises):
        bc = And(s.constraint, sign)
        pieces.append(
            ProofDerivation(
                "ci", Sequent(s.ctx, bc, s.formula),
                (weaken_proof(branch, And(bc, d)),), {"d": d, "q": q},
            )
        )
    return "m-ci", _mix(pieces, pivot, s)


# `_REDEX_AT[p.rule](p)` is (kind, contractum) for the first normalization
# kind that fires at p, in the canonical order, or None; id and bot head no
# redex
_REDEX_AT = {
    "imp-e": _at_imp_e,
    "ce": _at_ce,
    "m": _at_m,
    "imp-i": _at_imp_i,
    "ci": _at_ci,
}


def _proof_step(p):
    """(path, kind, next proof) for the leftmost-outermost redex of p, or
    None when p is normal.  A stack entry (node, premise index, parent's
    entry) links its node to the root, to rebuild the redex's ancestors."""
    stack = [(p, None, None)]
    while stack:
        entry = stack.pop()
        p = entry[0]
        at = _REDEX_AT.get(p.rule)
        found = None if at is None else at(p)
        if found is not None:
            kind, new = found
            path = []
            while entry[2] is not None:
                _, i, entry = entry
                parent = entry[0]
                new = _rebuilt(parent, parent.sequent, _with_premise(parent, i, new))
                path.append(i)
            return tuple(reversed(path)), kind, new
        stack += reversed([(q, i, entry) for i, q in enumerate(p.premises)])
    return None


def normalize_step(p):
    """One leftmost-outermost normalization step; None when normal."""
    check_proof(p)
    found = _proof_step(p)
    if found is None:
        return None
    check_proof(found[2])
    return found[2]


def normalize_proof(p, max_steps=10000):
    """Leftmost-outermost normalization: (normal proof, steps taken).  The
    input and each new proof are checked once; a proof that still has a
    redex after max_steps steps raises; a negative max_steps is a
    precondition error."""
    _check_fuel(max_steps)
    check_proof(p)
    steps = 0
    while True:
        found = _proof_step(p)
        if found is None:
            return p, steps
        if steps == max_steps:
            raise IllFormedError(f"normalization did not finish in {max_steps} steps")
        p = found[2]
        check_proof(p)
        steps += 1


# ---------------------------------------------------------------------------
# Translation into the CbV type system


def formula_type(a):
    """The type corresponding to a formula: C[q] A types as C[q] of A's type,
    and A -> B moves the prefix of B's type out over the arrow.  The type is
    kept on the formula node as its `_type` fact, which a variable's class
    holds.  The first call that reaches a node finds it on one stack of
    formulas and pending steps, as `_truth_table` evaluates: a node met again
    as `(node,)` joins the types of its children on top, and a node that
    already has its type is not entered."""
    if a._type is not None:
        return a._type
    out, stack = [], [a]
    while stack:
        a = stack.pop()
        if type(a) is tuple:
            a = a[0]
            if type(a) is Implies:
                qs, body = strip_prefix(out.pop())
                t = wrap_prefix(qs, Arrow(out.pop(), body))
            else:
                t = Counted(a.q, out.pop())
            object.__setattr__(a, "_type", t)
            out.append(t)
        elif a._type is not None:
            out.append(a._type)
        elif type(a) is Implies:
            stack += ((a,), a.consequent, a.antecedent)
        else:
            stack += ((a,), a.body)
    return out[0]


def _hyp_var(i):
    return f"x{i}"


def proof_term(p):
    """The proof term alone (variables named by hypothesis position)."""
    return fold(p, None, _term_down, _term_up)


def _term_down(p, _):
    """A leaf's term, or the premises in term order: the ce minor is the body
    of the CbV function."""
    if p.rule == "id":
        return Var(_hyp_var(p.side["index"])), None
    if p.rule == "bot":
        return CONST, None
    pairs = [(q, None) for q in p.premises]
    return None, pairs[::-1] if p.rule == "ce" else pairs


def _term_up(p, _, t):
    if p.rule == "m":
        pivot = _pivot_atom(p)
        return Choice(t[0], t[1], pivot.name, pivot.index)
    if p.rule == "imp-e":
        return App(t[0], t[1])
    if p.rule == "ci":
        names = formula_names(_local_constraint(p))
        if len(names) != 1:
            raise IllFormedError("translation needs a single-name local constraint")
        return Nu(next(iter(names)), t[0])
    if p.rule == "imp-i":
        return Lam(_hyp_var(len(p.sequent.ctx)), t[0])
    if p.rule == "ce":
        return CbvApp(Lam(_hyp_var(len(p.sequent.ctx)), t[0]), t[1])
    raise RuleShapeError(p.rule)


# where each premise's proof term sits in its parent's proof term, as
# `proof_term` lays it out: the ce minor is the body of the CbV function
_PREMISE_AT = {
    "id": (),
    "bot": (),
    "m": ((0,), (1,)),
    "imp-i": ((0,),),
    "imp-e": ((0,), (1,)),
    "ci": ((0,),),
    "ce": ((1,), (0, 0)),
}


def translate(p):
    """(proof term, checked CbV typing derivation) for a checked proof."""
    check_proof(p)
    term = proof_term(p)
    root_names = frozenset(formula_names(p.sequent.constraint) | free_names(term))
    deriv = fold(p, (root_names, term), _translate_down, _translate_up)
    check_derivation(deriv, CBV)
    return term, deriv


def _translate_down(p, under):
    """The conclusion that types `term`, p's proof term, with `names` in
    scope, where `under` is (names, term); each premise gets its own."""
    names, term = under
    s = p.sequent
    ctx = tuple((_hyp_var(i), formula_type(a)) for i, a in enumerate(s.ctx))
    j = Judgement(ctx, names, term, s.constraint, formula_type(s.formula))
    if p.rule == "ci":
        if term.name in names:
            raise IllFormedError(f"generator name {term.name} is already in scope")
        names = names | {term.name}
    return j, [
        (q, (names, subterm_at(term, at)))
        for q, at in zip(p.premises, _PREMISE_AT[p.rule])
    ]


# the CbV rule of a proof rule's node whose premises are its premises' typings
_TYPED_BY = {"id": "id", "bot": "or", "imp-i": "lam", "imp-e": "app"}


def _translate_up(p, j, subs):
    """The typing derivation of p's proof term, from its premises' ones."""
    s = p.sequent
    subs = tuple(subs)
    if p.rule in _TYPED_BY:
        return TypingDerivation(_TYPED_BY[p.rule], j, subs, {})
    if p.rule == "m":
        pivot = _pivot_atom(p)
        sides = (
            TypingDerivation(
                rule, replace(j, constraint=And(q.judgement.constraint, sign)), (q,), {}
            )
            for rule, q, sign in zip(("plus-l", "plus-r"), subs, (pivot, Not(pivot)))
        )
        return TypingDerivation("or", j, tuple(sides), {})
    if p.rule == "ci":
        return TypingDerivation(
            "mu", j, subs, {"d": _local_constraint(p), "q": s.formula.q}
        )
    # ce: the minor premise types the body of the CbV function
    major, minor = subs
    qs, body = strip_prefix(minor.judgement.type)
    arg_type = formula_type(p.premises[0].sequent.formula.body)
    lam_node = TypingDerivation(
        "lam",
        replace(j, term=j.term.fun, type=wrap_prefix(qs, Arrow(arg_type, body))),
        (minor,),
        {},
    )
    return TypingDerivation("cbv", j, (lam_node, major), {"scale": _get_scale(p)})


# ---------------------------------------------------------------------------
# Simulation of normalization by reduction


@dataclass
class SimulationEntry:
    kind: str
    ok: bool
    steps: list
    detail: str = ""


@dataclass
class SimulationReport:
    entries: list

    @property
    def failures(self):
        return [e for e in self.entries if not e.ok]


def _term_path(p, path):
    """The position in p's proof term of the proof node at `path`."""
    out = ()
    for i in path:
        out += _PREMISE_AT[p.rule][i]
        p = p.premises[i]
    return out


# each normalization kind's reduction steps: (rule, offset below the redex)
_WITNESS_STEPS = {
    "beta-cut": (("beta", ()),),
    "cbv-cut": (("cbv-nu", ()), ("beta", (0,))),
    "m-idem": (("i", ()),),
    "m-m-left": (("c1", ()),),
    "m-m-right": (("c2", ()),),
    "m-imp-i": (("plus-lam", ()),),
    "m-imp-e-fun": (("plus-fun", ()),),
    "m-imp-e-arg": (("plus-arg", ()),),
    "m-ci": (("plus-nu", ()),),
    "m-ce-major": (("cbv-plus-2", ()),),
    "m-ce-minor": (("plus-lam", (0,)), ("cbv-plus-1", ())),
}


def _witness_steps(term, kind, pos):
    """The reduction steps that should realize one normalization step."""
    steps = []
    for rule, offset in _WITNESS_STEPS[kind]:
        at = pos + offset
        term = apply_rule_at(term, rule, at, PE_BRACES)
        steps.append((rule, at))
    return term, steps


def verify_simulation(p, fuel=1000):
    """Check that every normalization step of p is matched by reduction on
    the proof terms; failures become report entries.  A negative fuel is a
    precondition error."""
    _check_fuel(fuel)
    check_proof(p)
    entries = []
    used = 0
    before = None
    while used < fuel:
        found = _proof_step(p)
        if found is None:
            break
        path, kind, nxt = found
        check_proof(nxt)
        if before is None:
            before = proof_term(p)
        after = proof_term(nxt)
        try:
            witnessed, steps = _witness_steps(before, kind, _term_path(p, path))
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
        p, before = nxt, after
    return SimulationReport(entries)


# ---------------------------------------------------------------------------
# JSON interchange


def proof_to_json(p):
    return _tree_to_json(p, "sequent", lambda s: {
        "ctx": [print_proof_formula(a) for a in s.ctx],
        "constraint": print_formula(s.constraint),
        "formula": print_proof_formula(s.formula),
    })


@_one_decode
def proof_from_json(obj):
    return _tree_from_json(obj, ProofDerivation, "sequent", lambda seq: Sequent(
        tuple(
            _decoded(parse_proof_formula, a)
            for a in _expect(seq["ctx"], list, "the hypotheses as a list")
        ),
        _decoded(parse_formula, seq["constraint"]),
        _decoded(parse_proof_formula, seq["formula"]),
    ))
