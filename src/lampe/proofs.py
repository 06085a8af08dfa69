"""Natural deduction for the counting-quantified implicational logic:
checking, normalization, and the proof-term translation into the CbV
type system.

Sequents are (hypothesis list, Boolean constraint, formula).  The identity
rule carries the index of the hypothesis it uses; the mixing rule carries its
pivot atom; the counting introduction carries its local one-name constraint
and bound.

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

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .errors import IllFormedError, ParseError, RuleShapeError
from . import formulas as fm
from .formulas import (
    And,
    BoolFormula,
    Not,
    Or,
    _one_manager,
    entails,
    equivalent,
    formula_names,
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
    _decode_side,
    _decoded,
    _encode_side,
    _expect,
    _freeze_side,
    _get_scale,
    _one_decode,
    _shape,
    _side,
    check_derivation,
    count_exponent,
    relabel,
    strip_prefix,
    wrap_prefix,
)


# ---------------------------------------------------------------------------
# Formulas of the logic


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class PropVar(Formula):
    name: str


@dataclass(frozen=True)
class Implies(Formula):
    antecedent: Formula
    consequent: Formula


@dataclass(frozen=True)
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


def print_proof_formula(a):
    if isinstance(a, PropVar):
        return a.name
    if isinstance(a, Count):
        inner = print_proof_formula(a.body)
        if isinstance(a.body, Implies):
            inner = f"({inner})"
        return f"C[{a.q.numerator}/{a.q.denominator}] {inner}"
    if isinstance(a, Implies):
        left = print_proof_formula(a.antecedent)
        if isinstance(a.antecedent, Implies):
            left = f"({left})"
        return f"{left} -> {print_proof_formula(a.consequent)}"
    raise TypeError(a)


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
    s = p.sequent
    new_s = Sequent(s.ctx, new_constraint, s.formula)
    if p.rule in ("id", "bot"):
        return ProofDerivation(p.rule, new_s, (), p.side)
    if p.rule == "m":
        return ProofDerivation(p.rule, new_s, p.premises, p.side)
    if p.rule in ("imp-i", "imp-e", "ce"):
        return ProofDerivation(
            p.rule,
            new_s,
            tuple(weaken_proof(q, new_constraint) for q in p.premises),
            p.side,
        )
    if p.rule == "ci":
        d = _local_constraint(p)
        if formula_names(new_constraint) & formula_names(d):
            raise IllFormedError(
                "constraint strengthening collides with a bound name"
            )
        return ProofDerivation(
            p.rule,
            new_s,
            (weaken_proof(p.premises[0], And(new_constraint, d)),),
            p.side,
        )
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
    if p.rule == "ci":
        out |= formula_names(_local_constraint(p))
    for q in p.premises:
        out |= counting_names(q)
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
    total = _count_uses(p, k)
    internal = counting_names(replacement) - formula_names(du)
    hits = [0]

    def plugged_copy():
        hits[0] += 1
        if total > 1 and internal and hits[0] > 1:
            mapping = {
                name: copy_variant_name(name, hits[0]) for name in internal
            }
            return rename_proof_names(replacement, mapping)
        return replacement

    def go(p):
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
                )
            new_idx = idx - 1 if idx > k else idx
            return ProofDerivation("id", new_s, (), {"index": new_idx})
        if p.rule == "ce":
            # term order visits the minor (the CbV function body) first
            minor = go(p.premises[1])
            major = go(p.premises[0])
            return ProofDerivation(p.rule, new_s, (major, minor), p.side)
        return ProofDerivation(
            p.rule, new_s, tuple(go(q) for q in p.premises), p.side
        )

    return go(p)


def _count_uses(p, k):
    if p.rule == "id":
        return 1 if p.side["index"] == k else 0
    return sum(_count_uses(q, k) for q in p.premises)


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
    if left == right:
        return "m-idem", weaken_proof(left, s.constraint)
    # m-m-left/right: premise k mixes on the same pivot, so its branch k is
    # the only one reachable there
    pivot = _pivot_atom(p)
    for k, kind in enumerate(("m-m-left", "m-m-right")):
        inner = p.premises[k]
        if inner.rule == "m" and _pivot_atom(inner) == pivot:
            return kind, _mix(_with_premise(p, k, inner.premises[k]), pivot, s)
    return None


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
    None when p is normal; the redex's ancestors are rebuilt on the way
    back."""
    at = _REDEX_AT.get(p.rule)
    found = None if at is None else at(p)
    if found is not None:
        return ((), *found)
    for i, q in enumerate(p.premises):
        found = _proof_step(q)
        if found is not None:
            path, kind, new = found
            premises = _with_premise(p, i, new)
            return (i, *path), kind, ProofDerivation(p.rule, p.sequent, premises, p.side)
    return None


def find_proof_redex(p):
    """(path, kind) of the leftmost-outermost redex of p, or None."""
    found = _proof_step(p)
    return None if found is None else found[:2]


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
    """The type corresponding to a formula."""
    if isinstance(a, PropVar):
        return O
    if isinstance(a, Count):
        return Counted(a.q, formula_type(a.body))
    if isinstance(a, Implies):
        target = formula_type(a.consequent)
        qs, body = strip_prefix(target)
        return wrap_prefix(qs, Arrow(formula_type(a.antecedent), body))
    raise TypeError(a)


def _hyp_var(i):
    return f"x{i}"


def proof_term(p):
    """The proof term alone (variables named by hypothesis position)."""
    s = p.sequent
    if p.rule == "id":
        return Var(_hyp_var(p.side["index"]))
    if p.rule == "bot":
        return CONST
    if p.rule == "m":
        pivot = _pivot_atom(p)
        return Choice(
            proof_term(p.premises[0]),
            proof_term(p.premises[1]),
            pivot.name,
            pivot.index,
        )
    if p.rule == "imp-i":
        return Lam(_hyp_var(len(s.ctx)), proof_term(p.premises[0]))
    if p.rule == "imp-e":
        return App(proof_term(p.premises[0]), proof_term(p.premises[1]))
    if p.rule == "ci":
        d = _local_constraint(p)
        names = formula_names(d)
        if len(names) != 1:
            raise IllFormedError(
                "translation needs a single-name local constraint"
            )
        (a,) = names
        return Nu(a, proof_term(p.premises[0]))
    if p.rule == "ce":
        minor = Lam(_hyp_var(len(s.ctx)), proof_term(p.premises[1]))
        return CbvApp(minor, proof_term(p.premises[0]))
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
    deriv = _translate_node(p, root_names, term)
    check_derivation(deriv, CBV)
    return term, deriv


def _ctx_types(ctx):
    return tuple(
        (_hyp_var(i), formula_type(a)) for i, a in enumerate(ctx)
    )


def _translate_node(p, names, term):
    """The typing derivation of `term`, the proof term of p, with the
    generator names `names` in scope."""
    s = p.sequent
    ctx = _ctx_types(s.ctx)
    ty = formula_type(s.formula)
    j = Judgement(ctx, names, term, s.constraint, ty)
    inner = names
    if p.rule == "ci":
        if term.name in names:
            raise IllFormedError(f"generator name {term.name} is already in scope")
        inner = names | {term.name}
    subs = tuple(
        _translate_node(q, inner, subterm_at(term, at))
        for q, at in zip(p.premises, _PREMISE_AT[p.rule])
    )
    if p.rule == "id":
        return TypingDerivation("id", j, (), {})
    if p.rule == "bot":
        return TypingDerivation("or", j, (), {})
    if p.rule == "m":
        pivot = _pivot_atom(p)
        sides = (
            TypingDerivation(
                rule, Judgement(ctx, names, term, And(q.judgement.constraint, sign), ty),
                (q,), {},
            )
            for rule, q, sign in zip(("plus-l", "plus-r"), subs, (pivot, Not(pivot)))
        )
        return TypingDerivation("or", j, tuple(sides), {})
    if p.rule == "imp-i":
        return TypingDerivation("lam", j, subs, {})
    if p.rule == "imp-e":
        return TypingDerivation("app", j, subs, {})
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
        Judgement(ctx, names, term.fun, s.constraint, wrap_prefix(qs, Arrow(arg_type, body))),
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
    s = p.sequent
    return {
        "rule": p.rule,
        "sequent": {
            "ctx": [print_proof_formula(a) for a in s.ctx],
            "constraint": print_formula(s.constraint),
            "formula": print_proof_formula(s.formula),
        },
        "side": _encode_side(p.side),
        "premises": [proof_to_json(q) for q in p.premises],
    }


@_one_decode
def proof_from_json(obj):
    rule = _expect(obj["rule"], str, "the rule as a string")
    premises = _expect(obj.get("premises", []), list, "the premises as a list")
    seq = obj["sequent"]
    ctx = _expect(seq["ctx"], list, "the hypotheses as a list")
    return ProofDerivation(
        rule,
        Sequent(
            tuple(_decoded(parse_proof_formula, a) for a in ctx),
            _decoded(parse_formula, seq["constraint"]),
            _decoded(parse_proof_formula, seq["formula"]),
        ),
        tuple(map(proof_from_json, premises)),
        _decode_side(obj.get("side", {})),
    )
