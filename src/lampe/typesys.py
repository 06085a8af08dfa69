"""Counting-quantified type systems: the single-quantifier system (CN), the
CbV system with quantifier lists (CBV), and the intersection system (INT).

A derivation is an explicit tree that gets checked, never inferred: semantic
side conditions (entailment and measure bounds) are discharged by the exact
Boolean oracle.  Constraint positions prescribed as conjunctions by the
counting rules are matched up to logical equivalence, since rules elsewhere
may quote an equivalent formula.
"""

from __future__ import annotations

import re
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    ParseError,
    PreconditionError,
    RuleShapeError,
    SideConditionError,
    SystemMismatchError,
)
from . import formulas as fm
from .formulas import (
    And,
    Atom,
    BoolFormula,
    Not,
    TOP,
    _one_manager,
    _one_per_call,
    conj,
    disj,
    entails,
    equivalent,
    formula_names,
    measure,
    parse_formula,
    parse_rational,
    print_formula,
    satisfiable,
)
from .terms import (
    App,
    CbvApp,
    Choice,
    Lam,
    Name,
    Nu,
    Term,
    Var,
    alpha_eq,
    free_names,
    free_vars,
    parse_term,
    print_term,
    substitute,
    token_at,
    token_pattern,
    tokenize,
)

CN = "cn"
CBV = "cbv"
INT = "int"

GROUND_O = "o"
GROUND_HN = "hn"
GROUND_N = "n"


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Type:
    # the systems the type passed under, a node fact (see validate_type)
    _valid_under = ()


@dataclass(frozen=True)
class Ground(Type):
    kind: str


@dataclass(frozen=True)
class Arrow(Type):
    dom: object  # Type, or Mset in the intersection system
    cod: Type


@dataclass(frozen=True)
class Counted(Type):
    q: Fraction
    body: Type


@dataclass(frozen=True)
class Mset:
    items: tuple

    # read by validate_type when a multiset stands where a type should
    _valid_under = ()


O = Ground(GROUND_O)
HN = Ground(GROUND_HN)
N = Ground(GROUND_N)


def mk_mset(items):
    return Mset(tuple(sorted(items, key=print_type)))


def print_type(t):
    if isinstance(t, Ground):
        return t.kind
    if isinstance(t, Counted):
        q = t.q
        return f"C[{q.numerator}/{q.denominator}] {print_type(t.body)}"
    if isinstance(t, Arrow):
        return f"({print_type(t.dom)} => {print_type(t.cod)})"
    if isinstance(t, Mset):
        return "[" + ", ".join(print_type(i) for i in t.items) + "]"
    raise TypeError(t)


# `C[q]` up to the first `]`; without one, the token runs to the end of the
# text and is reported as unterminated
COUNT_TOKEN = ("count", r"C\[[^\]]*\]?")

_TYPE_TOKENS = token_pattern(
    COUNT_TOKEN, ("ground", r"(?:hn|n|o)\b"), ("sym", r"=>|[()\[\],]")
)


# `q` in `C[q]`: ASCII `n` or `n/d`
_EXPONENT = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def count_exponent(token, pattern, text, i):
    """The rational `q` of `token`, a `C[q]` token that is token i of
    `text` under `pattern` (which places an error)."""
    if not token.endswith("]"):
        raise ParseError("unterminated 'C['", token_at(pattern, text, i)[1])
    m = _EXPONENT.fullmatch(token, 2, len(token) - 1)
    if m is None or m[2] is not None and int(m[2]) == 0:
        raise ParseError(
            f"expected n or n/d with d > 0 in {token!r}", token_at(pattern, text, i)[1]
        )
    return Fraction(int(m[1]), int(m[2] or 1))


def parse_type(text):
    """Parse a counting type.  Each arrow or multiset level costs one
    interpreter frame; a quantifier prefix costs none.  Tokens are told
    apart by their text."""
    toks = tokenize(_TYPE_TOKENS, text)
    i = 0

    def typ():
        nonlocal i
        counts = []
        tok = toks[i]
        while tok[:2] == "C[":
            counts.append(count_exponent(tok, _TYPE_TOKENS, text, i))
            i += 1
            tok = toks[i]
        i += 1
        if tok == "o" or tok == "n" or tok == "hn":
            out = Ground(tok)
        elif tok == "(":
            dom = typ()
            if toks[i] != "=>":
                raise ParseError("expected '=>'", token_at(_TYPE_TOKENS, text, i)[1])
            i += 1
            cod = typ()
            if toks[i] != ")":
                raise ParseError("expected ')'", token_at(_TYPE_TOKENS, text, i)[1])
            i += 1
            out = Arrow(dom, cod)
        elif tok == "[":
            items = []
            sep = toks[i]
            if sep == "]":
                i += 1
            while sep != "]":
                items.append(typ())
                sep = toks[i]
                i += 1
                if sep != "," and sep != "]":
                    pos = token_at(_TYPE_TOKENS, text, i - 1)[1]
                    raise ParseError("expected ',' or ']' in multiset", pos)
            out = mk_mset(items)
        else:
            kind, pos = token_at(_TYPE_TOKENS, text, i - 1)
            if kind == "eof":
                raise ParseError("unexpected end of type", pos)
            raise ParseError(f"unexpected character {text[pos]!r} in type", pos)
        for q in reversed(counts):
            out = Counted(q, out)
        return out

    out = typ()
    if i != len(toks) - 1:
        raise ParseError("trailing input in type", token_at(_TYPE_TOKENS, text, i)[1])
    return out


def _check_q(q):
    if not (0 < q <= 1):
        raise RuleShapeError(f"counting exponent {q} outside (0,1]")


_SIMPLE_TYPE_ERRORS = {
    CN: "not a CN simple type",
    CBV: "quantifier right of an arrow",
    INT: "not an INT simple type",
}


def validate_type(t, system):
    """Structural validity of a type for the given system: the quantifier
    prefix (one in CN and INT, a list in CBV), then the arrows down to a
    ground type.

    A type that passed under `system` records it in its `_valid_under`
    attribute, outside its dataclass fields, as a derivation node does (see
    `_check_tree`); it is not checked under that system again, and a failed
    check records nothing."""
    if system not in _SIMPLE_TYPE_ERRORS:
        raise ValueError(system)
    valid = t._valid_under
    if system in valid:
        return
    _check_type(t, system)
    object.__setattr__(t, "_valid_under", valid + (system,))


def _check_type(t, system):
    if system == CBV:
        while isinstance(t, Counted):
            _check_q(t.q)
            t = t.body
    else:
        if not isinstance(t, Counted):
            raise RuleShapeError(
                f"{system.upper()} type must carry one quantifier: {print_type(t)}"
            )
        _check_q(t.q)
        t = t.body
    while isinstance(t, Arrow):
        if system == INT:
            if not isinstance(t.dom, Mset):
                raise RuleShapeError("intersection arrows take multiset arguments")
            for item in t.dom.items:
                validate_type(item, INT)
        else:
            if isinstance(t.dom, Mset):
                raise RuleShapeError(
                    "multiset argument outside the intersection system"
                )
            validate_type(t.dom, system)
        t = t.cod
    if not isinstance(t, Ground):
        raise RuleShapeError(f"{_SIMPLE_TYPE_ERRORS[system]}: {print_type(t)}")
    if system != INT and t.kind != GROUND_O:
        raise RuleShapeError(f"ground type {t.kind} is not a {system.upper()} type")


def strip_prefix(t):
    """(list of exponents, quantifier-free body)."""
    qs = []
    while isinstance(t, Counted):
        qs.append(t.q)
        t = t.body
    return qs, t


def wrap_prefix(qs, body):
    for q in reversed(qs):
        body = Counted(q, body)
    return body


def prefix_product(t):
    qs, _ = strip_prefix(t)
    out = Fraction(1)
    for q in qs:
        out *= q
    return out


# ---------------------------------------------------------------------------
# Subtyping, rank, balance, safety


def subtype(s, t):
    """The preorder of the intersection system."""
    if isinstance(s, Ground) and isinstance(t, Ground):
        return s.kind == t.kind
    if isinstance(s, Counted) and isinstance(t, Counted):
        return s.q <= t.q and subtype(s.body, t.body)
    if isinstance(s, Arrow) and isinstance(t, Arrow):
        return subtype(s.cod, t.cod) and mset_subtype(t.dom, s.dom)
    return False


def mset_subtype(source, target):
    """source <=* target: an injection of target's elements into source's
    with elementwise subtyping."""
    src = list(source.items) if isinstance(source, Mset) else [source]
    tgt = list(target.items) if isinstance(target, Mset) else [target]
    if len(tgt) > len(src):
        return False

    def assign(i, used):
        if i == len(tgt):
            return True
        for j in range(len(src)):
            if j not in used and subtype(src[j], tgt[i]):
                if assign(i + 1, used | {j}):
                    return True
        return False

    return assign(0, frozenset())


def srank(t):
    """The rank used by balancedness."""
    if isinstance(t, Counted):
        return t.q
    if isinstance(t, Ground):
        if t.kind == GROUND_HN:
            return Fraction(0)
        return Fraction(1)  # n and o; o never feeds a balance product
    if isinstance(t, Mset):
        if not t.items:
            return Fraction(0)
        return max(srank(i) for i in t.items)
    if isinstance(t, Arrow):
        return Fraction(1)
    raise TypeError(t)


def _arrow_args(sigma):
    args = []
    while isinstance(sigma, Arrow):
        args.append(sigma.dom)
        sigma = sigma.cod
    return args


def is_balanced(t):
    if isinstance(t, Ground):
        return True
    if isinstance(t, Mset):
        return all(is_balanced(i) for i in t.items)
    if isinstance(t, Arrow):
        return all(is_balanced(a) for a in _arrow_args(t))
    if isinstance(t, Counted):
        args = _arrow_args(t.body)
        if not all(is_balanced(a) for a in args):
            return False
        bound = Fraction(1)
        for a in args:
            bound *= srank(a)
        return t.q <= bound
    raise TypeError(t)


def _mentions_unsafe(t):
    if isinstance(t, Ground):
        return t.kind == GROUND_HN
    if isinstance(t, Mset):
        return not t.items or any(_mentions_unsafe(i) for i in t.items)
    if isinstance(t, Arrow):
        return _mentions_unsafe(t.dom) or _mentions_unsafe(t.cod)
    if isinstance(t, Counted):
        return _mentions_unsafe(t.body)
    raise TypeError(t)


def is_safe(t):
    """Balanced and free of hn and of the empty multiset."""
    return is_balanced(t) and not _mentions_unsafe(t)


# ---------------------------------------------------------------------------
# Judgements and derivations


@dataclass(frozen=True)
class Judgement:
    ctx: tuple  # tuple of (var, Type-or-Mset)
    names: frozenset
    term: Term
    constraint: BoolFormula
    type: object

    def ctx_map(self):
        return dict(self.ctx)

    def format(self):
        ctx = ", ".join(f"{x}: {print_type(a)}" for x, a in self.ctx)
        names = ",".join(sorted(str(n) for n in self.names))
        return (
            f"{ctx} |-{{{names}}} {print_term(self.term)} : "
            f"{print_formula(self.constraint)} ~> {print_type(self.type)}"
        )


def same_judgement(j1, j2):
    return (
        j1.ctx_map() == j2.ctx_map()
        and j1.names == j2.names
        and alpha_eq(j1.term, j2.term)
        and j1.constraint == j2.constraint
        and j1.type == j2.type
    )


_NO_SIDE = MappingProxyType({})


def _freeze_side(node):
    """Store the node's side data as a read-only copy, with `cases` as a
    tuple of pairs; nodes without side data share one empty mapping."""
    side = node.side
    if side:
        side = dict(side)
        if isinstance(side.get("cases"), (list, tuple)):
            side["cases"] = tuple(map(tuple, side["cases"]))
    object.__setattr__(node, "side", MappingProxyType(side) if side else _NO_SIDE)


@dataclass(frozen=True)
class TypingDerivation:
    rule: str
    judgement: Judgement
    premises: tuple = ()
    side: MappingProxyType = field(default_factory=dict)

    __post_init__ = _freeze_side

    # the systems the node passed under, a node fact (see _check_tree)
    _checked_under = ()


def fold(root, arg, down, up):
    """The one bottom-up walk of a tree, on an explicit stack.  `down(node,
    arg)`, called in a recursive walk's order, returns `(value, pairs)`: with
    `pairs` None, `value` is the node's result; else `pairs` lists the
    `(child, arg)` to visit, and `up(node, value, results)` builds the node's
    result from the list of theirs."""
    results = []
    stack = [(root, arg)]
    while stack:
        item = stack.pop()
        if len(item) == 3:
            node, value, cut = item
            results[cut:] = (up(node, value, results[cut:]),)
            continue
        value, pairs = down(*item)
        if pairs is None:
            results.append(value)
        else:
            stack.append((item[0], value, len(results)))
            stack += reversed(pairs)
    return results[0]


def relabel(node, label):
    """Rebuild a derivation or proof node by node with the same rules: a node
    becomes `type(node)(node.rule, conclusion, premises, side)`, where
    `label(node)` gives the new (conclusion, side) and is called on a node
    before its premises."""
    return fold(
        node,
        None,
        lambda n, _: (label(n), [(p, None) for p in n.premises]),
        lambda n, new, premises: type(n)(n.rule, new[0], tuple(premises), new[1]),
    )


def _rebuilt(node, conclusion, premises):
    """`node` with a new conclusion and premises: the `up` of most folds."""
    return type(node)(node.rule, conclusion, tuple(premises), node.side)


RULES_BY_SYSTEM = {
    CN: {"id", "or", "plus-l", "plus-r", "lam", "app", "mu-prime"},
    CBV: {"id", "or", "plus-l", "plus-r", "lam", "app", "cbv", "mu"},
    INT: {
        "id-sub",
        "or",
        "plus-l",
        "plus-r",
        "lam",
        "app-int",
        "mu-sigma",
        "hn",
        "n",
    },
}


def _shape(cond, message):
    if not cond:
        raise RuleShapeError(message)


def _side(cond, message):
    if not cond:
        raise SideConditionError(message)


def _check_judgement_wf(j, system):
    seen = set()
    for x, a in j.ctx:
        _shape(x not in seen, f"duplicate context variable {x}")
        seen.add(x)
        if isinstance(a, Mset):
            _shape(system == INT, "multiset declaration outside INT")
            for item in a.items:
                validate_type(item, system)
        else:
            _shape(system != INT, "INT declarations are multisets")
            validate_type(a, system)
    if not free_names(j.term) <= j.names:
        raise RuleShapeError(
            f"term names escape the judgement name set in {j.format()}"
        )
    if not free_vars(j.term) <= seen:
        raise RuleShapeError(
            f"term variables escape the judgement context in {j.format()}"
        )
    _shape(
        formula_names(j.constraint) <= j.names,
        "constraint names escape the judgement name set",
    )
    validate_type(j.type, system)


@_one_manager
def check_derivation(d, system):
    """Validate every node of the derivation; returns the root judgement."""
    if system not in RULES_BY_SYSTEM:
        raise ValueError(f"unknown system {system!r}")
    _check_tree(d, system, "_checked_under", _check_in_system, _check_rule)
    return d.judgement


def _check_in_system(d, system):
    if d.rule not in RULES_BY_SYSTEM[system]:
        raise SystemMismatchError(f"rule {d.rule} does not belong to {system}")
    _check_judgement_wf(d.judgement, system)


def _check_rule(d, system):
    _RULE_CHECKERS[d.rule](d, system)


def _check_tree(root, system, mark, check_down, check_up):
    """Check a derivation or proof tree on an explicit stack, in one order:
    `check_down(node, system)`, if given, on the way down, then the premises
    left to right, then `check_up(node, system)` on the way up.

    A node that passed under `system` is not checked again: nodes are frozen
    and their side data is read-only, so the verdict cannot change.  The mark
    is the attribute named `mark`, a tuple of the systems the node passed
    under, declared on the class outside the dataclass fields, where `==`,
    `repr` and the JSON encoder do not see it; a failed check leaves none."""
    stack = [(root, False)]
    while stack:
        node, up = stack.pop()
        done = getattr(node, mark)
        if system in done:
            continue
        if not up:
            if check_down is not None:
                check_down(node, system)
            if node.premises:
                stack.append((node, True))
                stack.extend([(p, False) for p in reversed(node.premises)])
                continue
        check_up(node, system)
        object.__setattr__(node, mark, done + (system,))


def _same_env(j, p):
    _shape(p.ctx_map() == j.ctx_map(), "premise context differs")
    _shape(p.names == j.names, "premise name set differs")


def _check_id(d, system):
    j = d.judgement
    _shape(not d.premises, "id takes no premises")
    _shape(isinstance(j.term, Var), "id subject must be a variable")
    declared = j.ctx_map().get(j.term.var)
    _shape(declared is not None, f"variable {j.term.var} not in context")
    _side(declared == j.type, "id type differs from the declaration")


def _check_id_sub(d, system):
    j = d.judgement
    _shape(not d.premises, "id takes no premises")
    _shape(isinstance(j.term, Var), "id subject must be a variable")
    declared = j.ctx_map().get(j.term.var)
    _shape(isinstance(declared, Mset), f"variable {j.term.var} not declared")
    _side(
        any(subtype(s, j.type) for s in declared.items),
        "no declared type is a subtype of the conclusion type",
    )


def _check_or(d, system):
    j = d.judgement
    for p in d.premises:
        _same_env(j, p.judgement)
        _shape(alpha_eq(p.judgement.term, j.term), "or premise subject differs")
        _shape(p.judgement.type == j.type, "or premise type differs")
    _side(
        entails(j.constraint, disj([p.judgement.constraint for p in d.premises])),
        "constraint does not entail the disjunction of the premises",
    )


def _check_plus(d, system, left):
    j = d.judgement
    _shape(len(d.premises) == 1, "choice rule takes one premise")
    _shape(isinstance(j.term, Choice), "subject must be a choice")
    p = d.premises[0].judgement
    _same_env(j, p)
    _shape(j.term.name in j.names, "choice name must be in the name set")
    branch = j.term.left if left else j.term.right
    _shape(alpha_eq(p.term, branch), "premise subject is not the chosen branch")
    _shape(p.type == j.type, "premise type differs")
    pivot = Atom(j.term.name, j.term.index)
    literal = pivot if left else Not(pivot)
    _side(
        entails(j.constraint, And(literal, p.constraint)),
        "constraint does not entail literal and premise constraint",
    )


def _arrow_parts(t, system):
    qs, body = strip_prefix(t)
    if not isinstance(body, Arrow):
        raise RuleShapeError(f"expected an arrow under {print_type(t)}")
    if system in (CN, INT):
        _shape(len(qs) == 1, "exactly one quantifier expected")
    return qs, body


def _check_lam(d, system):
    j = d.judgement
    _shape(len(d.premises) == 1, "lam takes one premise")
    _shape(isinstance(j.term, Lam), "subject must be a lambda")
    p = d.premises[0].judgement
    _shape(p.names == j.names, "premise name set differs")
    qs, body = _arrow_parts(j.type, system)
    ctx = j.ctx_map()
    pctx = p.ctx_map()
    extra = [x for x in pctx if x not in ctx]
    _shape(len(extra) == 1, "premise must declare exactly the bound variable")
    y = extra[0]
    _shape({x: a for x, a in pctx.items() if x != y} == ctx, "premise context differs")
    _shape(pctx[y] == body.dom, "declared argument type differs from the arrow")
    _shape(
        alpha_eq(p.term, substitute(j.term.body, j.term.var, Var(y)))
        if y != j.term.var
        else alpha_eq(p.term, j.term.body),
        "premise subject is not the lambda body",
    )
    _shape(p.type == wrap_prefix(qs, body.cod), "premise type must be the codomain")
    _shape(p.constraint == j.constraint, "lam keeps the constraint")


def _check_app(d, system):
    j = d.judgement
    _shape(len(d.premises) == 2, "app takes two premises")
    _shape(isinstance(j.term, App), "subject must be an application")
    pf, pa = (p.judgement for p in d.premises)
    _same_env(j, pf)
    _same_env(j, pa)
    _shape(alpha_eq(pf.term, j.term.fun), "function premise subject differs")
    _shape(alpha_eq(pa.term, j.term.arg), "argument premise subject differs")
    qs, body = _arrow_parts(pf.type, system)
    _shape(pa.type == body.dom, "argument type differs from the arrow domain")
    _shape(j.type == wrap_prefix(qs, body.cod), "conclusion type must be the codomain")
    _side(
        entails(j.constraint, And(pf.constraint, pa.constraint)),
        "constraint does not entail the premise conjunction",
    )


def _check_app_int(d, system):
    j = d.judgement
    _shape(len(d.premises) >= 1, "intersection app takes the function premise")
    _shape(isinstance(j.term, App), "subject must be an application")
    pf = d.premises[0].judgement
    _same_env(j, pf)
    _shape(alpha_eq(pf.term, j.term.fun), "function premise subject differs")
    qs, body = _arrow_parts(pf.type, system)
    _shape(isinstance(body.dom, Mset), "intersection arrow expected")
    arg_premises = [p.judgement for p in d.premises[1:]]
    _shape(
        len(arg_premises) == len(body.dom.items),
        "one argument premise per multiset element",
    )
    for pa in arg_premises:
        _same_env(j, pa)
        _shape(alpha_eq(pa.term, j.term.arg), "argument premise subject differs")
        _shape(pa.constraint == j.constraint, "argument premise keeps the constraint")
    _shape(
        mk_mset([pa.type for pa in arg_premises]) == body.dom,
        "argument premise types do not match the multiset",
    )
    _shape(pf.constraint == j.constraint, "function premise keeps the constraint")
    _shape(j.type == wrap_prefix(qs, body.cod), "conclusion type must be the codomain")


def _get_scale(d):
    s = d.side.get("scale", Fraction(1))
    if not 0 < s <= 1:
        raise SideConditionError(f"scale {s} outside (0,1]")
    return s


def _check_cbv(d, system):
    j = d.judgement
    _shape(len(d.premises) == 2, "cbv app takes two premises")
    _shape(isinstance(j.term, CbvApp), "subject must be a CbV application")
    pf, pa = (p.judgement for p in d.premises)
    _same_env(j, pf)
    _same_env(j, pa)
    _shape(alpha_eq(pf.term, j.term.fun), "function premise subject differs")
    _shape(alpha_eq(pa.term, j.term.arg), "argument premise subject differs")
    qs, body = _arrow_parts(pf.type, system)
    _shape(
        isinstance(pa.type, Counted) and pa.type.body == body.dom,
        "argument must have exactly one quantifier over the arrow domain",
    )
    s = _get_scale(d)
    expected = Counted(pa.type.q * s, wrap_prefix(qs, body.cod))
    if j.type != expected:
        raise RuleShapeError(f"conclusion type must be {print_type(expected)}")
    _side(
        entails(j.constraint, And(pf.constraint, pa.constraint)),
        "constraint does not entail the premise conjunction",
    )


def _nu_common(d):
    j = d.judgement
    _shape(len(d.premises) >= 1, "counting rules take at least one premise")
    _shape(isinstance(j.term, Nu), "subject must be a generator")
    a = j.term.name
    _shape(a not in j.names, "generator name already in scope")
    for p in d.premises:
        pj = p.judgement
        _shape(pj.names == j.names | {a}, "premise name set must add the generator name")
        _shape(pj.ctx_map() == j.ctx_map(), "premise context differs")
        _shape(alpha_eq(pj.term, j.term.body), "premise subject is not the body")
    return a


def _local_formula(d, key, a):
    f = d.side.get(key)
    _shape(f is not None, f"missing side formula {key!r}")
    _side(formula_names(f) <= {a}, f"side formula {key!r} must only use the bound name")
    return f


def _check_mu(d, system):
    """mu and mu-prime: one premise whose constraint adds a local part `d`
    of measure at least the rational.  mu prefixes the premise type with it;
    mu-prime, which also reads it from `s`, scales the premise's quantifier."""
    j = d.judgement
    a = _nu_common(d)
    _shape(len(d.premises) == 1, f"{d.rule} takes one premise")
    p = d.premises[0].judgement
    dloc = _local_formula(d, "d", a)
    prime = d.rule == "mu-prime"
    q = d.side.get("q", d.side.get("s")) if prime else d.side.get("q")
    _shape(q is not None, "missing side rational 'q'")
    _side(measure(dloc) >= q, "measure bound fails")
    _side(
        equivalent(p.constraint, And(j.constraint, dloc)),
        "premise constraint is not the conclusion constraint plus the local part",
    )
    if not prime:
        _shape(j.type == Counted(q, p.type), "conclusion must prefix the premise type")
        return
    _shape(isinstance(p.type, Counted), "premise must carry its quantifier")
    _shape(
        j.type == Counted(p.type.q * q, p.type.body),
        "conclusion exponent must be the product",
    )


def _check_mu_sigma(d, system):
    j = d.judgement
    a = _nu_common(d)
    cases = d.side.get("cases")
    _shape(isinstance(cases, (list, tuple)) and cases, "mu-sigma needs its case list")
    _shape(len(cases) == len(d.premises), "one case per premise")
    _side(a not in formula_names(j.constraint), "bound name occurs in the constraint")
    total = Fraction(0)
    sigma = None
    for (dloc, s), p in zip(cases, d.premises):
        _side(formula_names(dloc) <= {a}, "case formula must only use the bound name")
        _side(measure(dloc) >= s, "case measure bound fails")
        pj = p.judgement
        _side(
            equivalent(pj.constraint, And(j.constraint, dloc)),
            "premise constraint is not the conclusion constraint plus its case",
        )
        _shape(isinstance(pj.type, Counted), "premises carry one quantifier")
        if sigma is None:
            sigma = pj.type.body
        _shape(pj.type.body == sigma, "premises must share the quantified type")
        total += pj.type.q * s
    # pairwise disjoint iff each case misses the union of the earlier ones
    union = cases[0][0]
    for dloc, _ in cases[1:]:
        _side(entails(And(union, dloc), fm.BOT), "case formulas must be pairwise disjoint")
        union = fm.Or(union, dloc)
    _shape(j.type == Counted(total, sigma), "conclusion exponent must be the sum")


def _check_ground(d, system):
    """hn and n, each named after the ground type it concludes; n also asks
    for a safe quantified type."""
    j = d.judgement
    _shape(len(d.premises) == 1, f"{d.rule} takes one premise")
    p = d.premises[0].judgement
    _same_env(j, p)
    _shape(alpha_eq(p.term, j.term), "premise subject differs")
    _shape(p.constraint == j.constraint, f"{d.rule} keeps the constraint")
    _shape(isinstance(p.type, Counted), "premise carries one quantifier")
    if d.rule == GROUND_N:
        _side(is_safe(p.type.body), "the quantified type must be safe")
    _shape(
        j.type == Counted(p.type.q, Ground(d.rule)),
        f"conclusion must be the {d.rule} ground type",
    )


_RULE_CHECKERS = {
    "id": _check_id,
    "id-sub": _check_id_sub,
    "or": _check_or,
    "plus-l": lambda d, system: _check_plus(d, system, True),
    "plus-r": lambda d, system: _check_plus(d, system, False),
    "lam": _check_lam,
    "app": _check_app,
    "app-int": _check_app_int,
    "cbv": _check_cbv,
    "mu": _check_mu,
    "mu-prime": _check_mu,
    "mu-sigma": _check_mu_sigma,
    "hn": _check_ground,
    "n": _check_ground,
}


# ---------------------------------------------------------------------------
# The admissible generalized counting rule


def _atom_mask(bit, rows):
    """The `rows`-bit int whose bit r is bit `bit` of r: a period of 2^bit
    zeros and 2^bit ones, doubled by shift-and-or until it spans the rows."""
    half = 1 << bit
    mask, width = ((1 << half) - 1) << half, half << 1
    while width < rows:
        mask |= mask << width
        width <<= 1
    return mask


def _truth_table(b, bits, rows):
    """The truth table of b as a `rows`-bit int whose bit r is set iff b
    holds on row r, where atom x takes bit `bits[x]` of r.  Bit-parallel
    (Knuth, TAOCP 4A §7.1.1): one pass over b on an explicit stack, where a
    connective's class stands for applying it to the tables on top, so each
    operand's table is dropped as soon as its parent has read it."""
    full = (1 << rows) - 1
    tables = []
    stack = [b]
    while stack:
        f = stack.pop()
        kind = type(f)
        if f is Not:
            tables[-1] ^= full
        elif f is And:
            tables.append(tables.pop() & tables.pop())
        elif f is fm.Or:
            tables.append(tables.pop() | tables.pop())
        elif kind is Atom:
            tables.append(_atom_mask(bits[f.name, f.index], rows))
        elif kind is Not:
            stack += (Not, f.arg)
        elif kind is And or kind is fm.Or:
            stack += (kind, f.right, f.left)
        else:
            tables.append(full if kind is fm.Top else 0)
    return tables[0]


@_one_manager
def apply_mu_star(d, order=None):
    """Discharge every name of the root judgement at once, scaling the
    counting exponent by the exact measure of the root constraint.

    A row picks one complete minterm per name over that name's atoms in
    the constraint, so it decides the constraint, and the rows that satisfy
    it partition it.  The constraint's truth table over the rows in product
    order, name by name, is one int, computed once.  One `fold` walks the
    rows in that order, skips every row prefix whose span of the table is
    0, puts one `or` node over `d` under each row whose bit is set, and
    discharges each name with the summing counting rule over the kept rows
    under its prefix, innermost first.  Without `order` the names go
    in text order.  The opening check of `d` already rejects a root type
    without its quantifier and a constraint that names a name outside the
    judgement.
    """
    j = check_derivation(d, INT)
    b = j.constraint
    if not satisfiable(b):
        raise PreconditionError("the root constraint is unsatisfiable")
    names = list(order) if order is not None else sorted(
        j.names, key=lambda n: n.text
    )
    if len(names) != len(j.names) or set(names) != j.names:
        raise PreconditionError("name order must enumerate the judgement names")

    name_atoms = []  # per name, in product order: (name, its atoms' indices)
    row_atoms = []  # the atoms a row sets, in product order
    for a in names:
        indices = sorted(i for (n, i) in fm.atoms(b) if n is a)
        row_atoms += ((a, i) for i in indices)
        name_atoms.append((a, indices))
    # the p-th of the n row atoms is bit n - 1 - p of a row's index
    n = len(row_atoms)
    bits = {x: n - 1 - p for p, x in enumerate(row_atoms)}
    rows = 1 << n

    def down(k, under):
        """A row prefix as a `fold` node: k indexes the next name, and `under`
        holds the conjunction of the prefix's minterms, the prefix's span of
        the truth table, never 0, and its width in rows.  A complete row is
        one `or` node over `d`; above it, each name's `mu-sigma` node takes
        the derivations of its nonzero sub-spans directly as premises, found
        lowest first by the lowest set bit, so the zero spans between them
        cost nothing.  At the top a premise's constraint is the minterm m,
        not And(TOP, m), which `_check_mu_sigma` accepts as equivalent."""
        prefix, table, width = under
        if k == len(names):
            leaf = Judgement(j.ctx, j.names, j.term, prefix, j.type)
            return TypingDerivation("or", leaf, (d,), {}), None
        a, indices = name_atoms[k]
        width >>= len(indices)
        span = (1 << width) - 1
        s = Fraction(1, 1 << len(indices))  # the measure of each minterm
        cases = []
        pairs = []
        i = 0  # the minterm whose span is at the bottom of `table`
        while table:
            skip = ((table & -table).bit_length() - 1) // width
            table >>= skip * width
            i += skip
            # the i-th minterm in product order: its first atom is the top bit
            m = conj(
                Atom(a, x) if i >> (len(indices) - 1 - p) & 1 else Not(Atom(a, x))
                for p, x in enumerate(indices)
            )
            cases.append((m, s))
            pairs.append((k + 1, (And(prefix, m) if k else m, table & span, width)))
            table >>= width
            i += 1
        return (prefix, tuple(cases)), pairs

    def up(k, head, premises):
        prefix, cases = head
        total = sum(p.judgement.type.q * s for p, (_, s) in zip(premises, cases))
        root = Judgement(
            j.ctx,
            j.names - set(names[k:]),
            Nu(names[k], premises[-1].judgement.term),
            prefix,
            Counted(total, j.type.body),
        )
        return TypingDerivation("mu-sigma", root, tuple(premises), {"cases": cases})

    result = fold(0, (TOP, _truth_table(b, bits, rows), rows), down, up)
    check_derivation(result, INT)
    expected = Counted(j.type.q * measure(b), j.type.body)
    if result.judgement.type != expected:
        raise PreconditionError(
            f"constructed {print_type(result.judgement.type)}, "
            f"expected {print_type(expected)}"
        )
    return result


# ---------------------------------------------------------------------------
# JSON interchange


# One decode of a derivation, judgement or proof parses each distinct text
# once, so equal texts in one input decode to one shared object; parsed values
# are immutable (a node only gains facts derived from itself), so sharing
# them is sound.  Formulas are interned by their own constructors, so equal
# formula texts give one node in any input; for them the memo saves the
# parse.
_DECODE_MEMO = ContextVar("lampe_open_decode_memo", default=None)
_one_decode = _one_per_call(_DECODE_MEMO, dict)


def _decoded(parse, text):
    """`parse(text)`, parsed once per distinct `(parse, text)` in the open
    decode.  Only `str` texts are remembered: anything else goes straight to
    `parse`, which reports it as it always has, and a failed parse leaves no
    entry."""
    if type(text) is not str:
        return parse(text)
    memo = _DECODE_MEMO.get()
    out = memo.get((parse, text))
    if out is None:
        out = memo[parse, text] = parse(text)
    return out


def _expect(value, kind, what):
    """`value`, if its type is `kind`; else the TypeError that the CLI
    reports as E_SCHEMA, raised before anything is built from it."""
    if type(value) is not kind:
        raise TypeError(f"expected {what}, got {type(value).__name__}")
    return value


def _decode_pivot(text):
    pivot = _decoded(parse_formula, text)
    if type(pivot) is not Atom:
        raise TypeError(f"expected one atom as the pivot, got {text!r}")
    return pivot


def _decode_index(value):
    if type(value) is not int:
        raise TypeError(f"expected an integer hypothesis index, got {value!r}")
    return value


def _decode_cases(cases):
    return tuple(
        (_decoded(parse_formula, f), _decoded(parse_rational, s)) for f, s in cases
    )


def _encode_cases(cases):
    return [[print_formula(f), fm.format_rational(s)] for f, s in cases]


def _identity(value):
    return value


_RATIONAL = (parse_rational, fm.format_rational)

# The one text form of each side value of a derivation or proof node, as a
# (decode, encode) pair; keys outside the table pass through unchanged.
_SIDE_CODECS = {
    "d": (parse_formula, print_formula),
    "q": _RATIONAL,
    "s": _RATIONAL,
    "scale": _RATIONAL,
    "cases": (_decode_cases, _encode_cases),
    "pivot": (_decode_pivot, print_formula),
    "index": (_decode_index, _identity),
}
_PASS_THROUGH = (_identity, _identity)


def _decode_side(obj):
    return {
        k: _decoded(_SIDE_CODECS.get(k, _PASS_THROUGH)[0], v) for k, v in obj.items()
    }


def _encode_side(side):
    return {k: _SIDE_CODECS.get(k, _PASS_THROUGH)[1](v) for k, v in side.items()}


def _tree_to_json(root, key, encode):
    """The JSON object of a derivation or proof, whose nodes keep their
    conclusion in the attribute `key`, written out by `encode`."""
    return fold(
        root,
        None,
        lambda node, _: (None, [(p, None) for p in node.premises]),
        lambda node, _, premises: {
            "rule": node.rule,
            key: encode(getattr(node, key)),
            "side": _encode_side(node.side),
            "premises": premises,
        },
    )


def _tree_from_json(obj, cls, key, decode):
    """The `cls` tree that `obj` encodes, `decode` reading its conclusions
    from `key`: rule, premise list and conclusion before the premises, and
    the side data after them."""

    def down(obj, _):
        rule = _expect(obj["rule"], str, "the rule as a string")
        premises = _expect(obj.get("premises", []), list, "the premises as a list")
        return (rule, decode(obj[key])), [(p, None) for p in premises]

    return fold(obj, None, down, lambda obj, head, premises: cls(
        *head, tuple(premises), _decode_side(obj.get("side", {}))
    ))


def derivation_to_json(d):
    return _tree_to_json(d, "judgement", lambda j: {
        "ctx": [[x, print_type(a)] for x, a in j.ctx],
        "names": sorted(str(n) for n in j.names),
        "term": print_term(j.term),
        "constraint": print_formula(j.constraint),
        "type": print_type(j.type),
    })


@_one_decode
def judgement_from_json(obj):
    ctx = []
    for entry in _expect(obj["ctx"], list, "the context as a list"):
        x, a = _expect(entry, list, "each declaration as a [variable, type] list")
        x = _expect(x, str, "a context variable as a string")
        ctx.append((x, _decoded(parse_type, a)))
    names = frozenset(
        Name(_expect(n, str, "each name as a string"))
        for n in _expect(obj["names"], list, "the names as a list")
    )
    return Judgement(
        tuple(ctx),
        names,
        _decoded(parse_term, obj["term"]),
        _decoded(parse_formula, obj["constraint"]),
        _decoded(parse_type, obj["type"]),
    )


@_one_decode
def derivation_from_json(obj):
    return _tree_from_json(obj, TypingDerivation, "judgement", judgement_from_json)
