"""Terms of the probabilistic event lambda calculus and its CbV extension.

Variables are ordinary strings bound by lambda; names (the labels on choice
operators and generators) are interned `Name` objects bound by `nu`.  Names
are rigid: alpha_eq never renames them, and substitution only freshens a
nu-binder when it would otherwise capture a free name of the substituted
term.

Facts live on the node as plain attributes outside its dataclass fields, so
`==`, `hash` and `repr` do not see them and they die with the node.  `Term`
declares each with a class-level default (no annotation, so it is not a
field); a node's own value is written once with `object.__setattr__` and
stays in the instance's inline attribute values, with no per-node dict.
One iterative pass builds a non-leaf node's fact record (free variables,
free names, contains CbV, shape hash) from its children's; a variable keeps
none, the constant's class holds its record, and a node whose set equals a
child's shares that frozenset.  `canonical_str` and the normal-form marks of
`rewrite` are kept the same way.

Names are renamed by one scoped walk, `rename_names`: a nu binder gets a new
name through one function and its bound choices follow it, and a choice on a
free name is renamed through a map.  `rename_bound_name` (freshening a binder
against capture) and `variant_copy` (the k-th copy of a duplicated scope) are
calls of it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, UndefinedBitError

# ---------------------------------------------------------------------------
# Names


class Name:
    """Interned choice/generator label.  Names are ordered by their text, so
    no result depends on the order in which names were interned."""

    _table: dict = {}

    __slots__ = ("text",)

    def __new__(cls, text):
        existing = cls._table.get(text)
        if existing is not None:
            return existing
        obj = object.__new__(cls)
        obj.text = text
        cls._table[text] = obj
        return obj

    def __reduce__(self):
        # copies and unpickled names are interned too
        return Name, (self.text,)

    def __repr__(self):
        return f"Name({self.text!r})"

    def __str__(self):
        return self.text


# ---------------------------------------------------------------------------
# Abstract syntax


@dataclass(frozen=True)
class Term:
    # node facts, not fields: see the module docstring
    _facts = None
    _canonical_str = None
    _normal = 0


@dataclass(frozen=True)
class Var(Term):
    var: str


@dataclass(frozen=True)
class Lam(Term):
    var: str
    body: Term


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class Choice(Term):
    """left if the sampled bit (name, index) is 1, right if it is 0."""

    left: Term
    right: Term
    name: Name
    index: int


@dataclass(frozen=True)
class Nu(Term):
    name: Name
    body: Term


@dataclass(frozen=True)
class CbvApp(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class Const(Term):
    """The distinguished constant produced by translating dummy proofs."""


CONST = Const()


def children(t):
    if isinstance(t, (Var, Const)):
        return ()
    if isinstance(t, Lam):
        return (t.body,)
    if isinstance(t, Nu):
        return (t.body,)
    if isinstance(t, (App, CbvApp)):
        return (t.fun, t.arg)
    if isinstance(t, Choice):
        return (t.left, t.right)
    raise TypeError(t)


# `_REBUILD[type(t)](t, i, new)` is t with its i-th child replaced by new.
_REBUILD = {
    Lam: lambda t, i, new: Lam(t.var, new),
    Nu: lambda t, i, new: Nu(t.name, new),
    App: lambda t, i, new: App(new, t.arg) if i == 0 else App(t.fun, new),
    CbvApp: lambda t, i, new: CbvApp(new, t.arg) if i == 0 else CbvApp(t.fun, new),
    Choice: lambda t, i, new: (
        Choice(new, t.right, t.name, t.index)
        if i == 0
        else Choice(t.left, new, t.name, t.index)
    ),
}


def replace_child(t, i, new):
    rebuild = _REBUILD.get(type(t))
    if rebuild is None:
        raise TypeError(t)
    return rebuild(t, i, new)


def map_children(t, f):
    """t with each child c replaced by f(c); t itself when none changes."""
    out = t
    for i, c in enumerate(children(t)):
        new = f(c)
        if new is not c:
            out = replace_child(out, i, new)
    return out


def subterm_at(t, path):
    for i in path:
        t = children(t)[i]
    return t


def replace_at(t, path, new):
    spine = []
    for i in path:
        spine.append(t)
        t = children(t)[i]
    for parent, i in zip(reversed(spine), reversed(path)):
        new = replace_child(parent, i, new)
    return new


# The shape hash erases variable names, so terms equal up to alpha share it.
_EMPTY = frozenset()
_VAR_HASH = hash(("v",))
Const._facts = (_EMPTY, _EMPTY, False, hash(("c",)))
_set_fact = object.__setattr__


def _fill(root):
    """Store the fact record of root and of each node below it that lacks
    one, children first, on an explicit stack; return root's record.  A
    shared node stacked twice keeps the record it got first."""
    stack = [root]
    while stack:
        t = stack[-1]
        kind = type(t)
        if kind is Lam or kind is Nu:
            a, b = t.body, None
        else:
            a, b = (t.left, t.right) if kind is Choice else (t.fun, t.arg)
        # a child's record, None for a variable and for a child stacked here
        fa = a._facts
        if fa is None and type(a) is not Var:
            stack.append(a)
        if b is not None:
            fb = b._facts
            if fb is None and type(b) is not Var:
                stack.append(b)
        if stack[-1] is not t:
            continue
        stack.pop()
        if t._facts is not None:
            continue
        fv, fn, cbv, h = fa or (frozenset((a.var,)), _EMPTY, False, _VAR_HASH)
        if kind is Lam:
            if t.var in fv:
                fv = fv - {t.var}
            h = hash(("l", h))
        elif kind is Nu:
            if t.name in fn:
                fn = fn - {t.name}
            h = hash(("n", t.name.text, h))
        else:
            fv2, fn2, cbv2, h2 = fb or (frozenset((b.var,)), _EMPTY, False, _VAR_HASH)
            fv = fv2 if fv <= fv2 else fv if fv2 <= fv else fv | fv2
            fn = fn2 if fn <= fn2 else fn if fn2 <= fn else fn | fn2
            cbv = cbv or cbv2 or kind is CbvApp
            if kind is Choice:
                fn = fn if t.name in fn else fn | {t.name}
                h = hash(("p", t.name.text, t.index, h, h2))
            else:
                h = hash(("a" if kind is App else "b", h, h2))
        _set_fact(t, "_facts", (fv, fn, cbv, h))
    return root._facts


def free_vars(t):
    """The free lambda variables of t, as a frozenset."""
    if type(t) is Var:
        return frozenset((t.var,))
    return (t._facts or _fill(t))[0]


def free_names(t):
    if type(t) is Var:
        return _EMPTY
    return (t._facts or _fill(t))[1]


def contains_cbv(t):
    if type(t) is Var:
        return False
    return (t._facts or _fill(t))[2]


def shape_hash(t):
    """Alpha-invariant structural hash: equal terms up to alpha share it, so
    it serves as a fast reject."""
    if type(t) is Var:
        return _VAR_HASH
    return (t._facts or _fill(t))[3]


def bound_names(t):
    out = set()
    if isinstance(t, Nu):
        out.add(t.name)
    for c in children(t):
        out |= bound_names(c)
    return out


def all_names(t):
    return free_names(t) | bound_names(t)


def fresh_name(base, *terms):
    """`base` suffixed with the least `_k` that no name of `terms` uses:
    fresh by a local rule, so it does not depend on what else was
    interned."""
    taken = {n.text for t in terms for n in all_names(t)}
    k = 1
    while f"{base.text}_{k}" in taken:
        k += 1
    return Name(f"{base.text}_{k}")


def rename_names(t, env, rebind):
    """t with each nu binder n renamed to rebind(n), which the choices it
    binds follow, and each choice on a name n that no binder of t binds
    renamed to env.get(n, n).  A subtree that nothing renames comes back as
    the same object, as map_children keeps it."""
    if isinstance(t, Nu):
        name = rebind(t.name)
        body = rename_names(t.body, {**env, t.name: name}, rebind)
        return t if name is t.name and body is t.body else Nu(name, body)
    out = map_children(t, lambda c: rename_names(c, env, rebind))
    if isinstance(t, Choice) and env.get(t.name, t.name) is not t.name:
        return Choice(out.left, out.right, env[t.name], t.index)
    return out


def rename_bound_name(t, new_name):
    """Rename the binder of Nu-term `t` to `new_name` (which must be fresh in
    t); an inner binder of the same name keeps its occurrences."""
    return Nu(new_name, rename_names(t.body, {t.name: new_name}, lambda n: n))


# ---------------------------------------------------------------------------
# Substitution and alpha-equivalence

def fresh_var(base, avoid):
    stem = base.split("'")[0]
    cand = stem + "'"
    while cand in avoid:
        cand += "'"
    return cand


def copy_variant_name(name, k):
    """Deterministic name for the k-th duplicated copy of a nu scope."""
    return Name(f"{name.text}~{k}")


def variant_copy(u, k):
    """Rename every nu binder of u (and its bound occurrences) to the k-th
    copy variant.  Keeps duplicated generator scopes independent under a
    naming scheme the proof layer can reproduce."""
    return rename_names(u, {}, lambda n: copy_variant_name(n, k))


def count_free_occurrences(t, x):
    """How often x occurs free in t; a subterm whose stored free variables
    lack x is not entered."""
    if type(t) is Var:
        return 1 if t.var == x else 0
    if x not in free_vars(t):
        return 0
    return sum(count_free_occurrences(c, x) for c in children(t))


def substitute_indexed(t, x, u, start, duplicating):
    """Like substitute, but occurrences of x are numbered globally starting
    at `start`, so a larger term can be substituted piecewise while keeping
    the copy-variant naming aligned."""
    u_fvars = free_vars(u)
    u_fnames = free_names(u)
    hits = [start]

    def payload():
        hits[0] += 1
        if duplicating and hits[0] > 1:
            return variant_copy(u, hits[0])
        return u

    def go(t):
        if isinstance(t, Var):
            return payload() if t.var == x else t
        if isinstance(t, Lam):
            if t.var == x:
                return t
            if x not in free_vars(t.body):
                return t
            if t.var in u_fvars:
                y = fresh_var(t.var, u_fvars | free_vars(t.body))
                body = substitute(t.body, t.var, Var(y))
                return Lam(y, go(body))
            return Lam(t.var, go(t.body))
        if isinstance(t, Nu):
            if x not in free_vars(t.body):
                return t
            if t.name in u_fnames:
                t = rename_bound_name(t, fresh_name(t.name, t, u))
            return Nu(t.name, go(t.body))
        return map_children(t, go)

    return go(t)


def substitute(t, x, u):
    """Capture-avoiding t[u/x]: lambda binders of t are renamed as needed, and
    a nu binder of t is freshened when it would capture a free name of u.
    When x occurs several times and u carries generators, the second and
    later copies get variant-renamed binders, so the duplicated scopes stay
    distinct."""
    if x not in free_vars(t):
        return t
    duplicating = bool(count_free_occurrences(t, x) > 1 and bound_names(u))
    return substitute_indexed(t, x, u, 0, duplicating)


def alpha_eq(t, u):
    """Equality up to renaming of lambda-bound variables.  Names are rigid.

    The stored shape hashes reject at once when both terms already have a
    fact record; no record is filled only to compare.  Otherwise one walk
    over both terms on an explicit stack decides.  Each lambda pair binds
    its two variables to one fresh number, and the `None` entry stacked
    under its bodies puts the outer bindings back once they are done."""
    if t is u:
        return True
    ft, fu = t._facts, u._facts
    if ft is not None and fu is not None and ft[3] != fu[3]:
        return False
    env_t, env_u = {}, {}
    pairs = 0
    stack = [(t, u)]
    while stack:
        t, u = stack.pop()
        if t is None:
            x, bx, y, by = u
            env_t[x], env_u[y] = bx, by
            continue
        kind = type(t)
        if kind is not type(u):
            return False
        if kind is Var:
            bt = env_t.get(t.var)
            if bt != env_u.get(u.var) or (bt is None and t.var != u.var):
                return False
        elif kind is Lam:
            stack.append((None, (t.var, env_t.get(t.var), u.var, env_u.get(u.var))))
            pairs += 1
            env_t[t.var] = env_u[u.var] = pairs
            stack.append((t.body, u.body))
        elif kind is Nu:
            if t.name is not u.name:
                return False
            stack.append((t.body, u.body))
        elif kind is Choice:
            if t.name is not u.name or t.index != u.index:
                return False
            stack.append((t.right, u.right))
            stack.append((t.left, u.left))
        elif kind is not Const:
            stack.append((t.arg, u.arg))
            stack.append((t.fun, u.fun))
    return True


def canonical_str(t):
    """Printed form with lambda binders renamed positionally; alpha-invariant,
    suitable as a dictionary key.  One environment serves the whole walk: a
    lambda binds its variable for its body and then puts the outer binding
    back, so memory stays linear in the depth."""
    out = t._canonical_str
    if out is not None:
        return out
    env = {}

    def go(t, depth):
        if isinstance(t, Var):
            return env.get(t.var, t.var)
        if isinstance(t, Const):
            return "#c"
        if isinstance(t, Lam):
            outer = env.get(t.var)
            env[t.var] = f"${depth}"
            out = f"(\\${depth}. {go(t.body, depth + 1)})"
            if outer is None:
                del env[t.var]
            else:
                env[t.var] = outer
            return out
        if isinstance(t, Nu):
            return f"(nu {t.name}. {go(t.body, depth)})"
        if isinstance(t, App):
            return f"({go(t.fun, depth)} {go(t.arg, depth)})"
        if isinstance(t, CbvApp):
            return f"{{{go(t.fun, depth)}}} {go(t.arg, depth)}"
        if isinstance(t, Choice):
            return (
                f"({go(t.left, depth)} (+{t.name}.{t.index}) "
                f"{go(t.right, depth)})"
            )
        raise TypeError(t)

    out = go(t, 0)
    _set_fact(t, "_canonical_str", out)
    return out


# ---------------------------------------------------------------------------
# Projection by Cantor-space events


def project(t, names, valuation):
    """Resolve choices on names in `names` using `valuation`, a finite map
    (Name, index) -> bit.  Other choices and all generators are kept.

    A nu binder re-binding a name of `names` shields its scope: the outer
    bits do not apply there.
    """
    names = set(names)

    def go(t, active):
        if isinstance(t, Choice) and t.name in active:
            key = (t.name, t.index)
            if key not in valuation:
                raise UndefinedBitError(
                    f"no bit for ({t.name}, {t.index})"
                )
            side = t.left if valuation[key] == 1 else t.right
            return go(side, active)
        if isinstance(t, Choice):
            return Choice(
                go(t.left, active), go(t.right, active), t.name, t.index
            )
        if isinstance(t, Nu):
            inner = active - {t.name} if t.name in active else active
            return Nu(t.name, go(t.body, inner))
        return map_children(t, lambda c: go(c, active))

    return go(t, frozenset(names))


# ---------------------------------------------------------------------------
# Concrete syntax

_W = Lam("x", App(Var("x"), Var("x")))
_ABBREVIATIONS = {
    "I": Lam("x", Var("x")),
    "OMEGA": App(_W, _W),
    "2": Lam("y", Lam("x", App(Var("y"), App(Var("y"), Var("x"))))),
}


def token_pattern(*groups):
    """One grammar's tokens as one compiled alternation: `groups` are
    `(kind, regex)` pairs, tried in order, none of which matches whitespace.
    A non-space character that no group matches is a token of kind "?"."""
    alternatives = "".join(f"(?P<{kind}>{regex})|" for kind, regex in groups)
    return re.compile(rf"{alternatives}(\S)")


def tokenize(pattern, text):
    """The `(kind, text, position)` tokens of `text` under `pattern`, in one
    pass, closed by an `eof` token at len(text).  Whitespace separates
    tokens: no match starts on it, so the search skips it."""
    end = len(text)  # first, so a non-text input fails alike in every grammar
    out = [(m.lastgroup or "?", m.group(), m.start()) for m in pattern.finditer(text)]
    out.append(("eof", "", end))
    return out


_TERM_TOKENS = token_pattern(
    ("choice", r"\(\+[a-z][a-zA-Z0-9_'~]*\.[0-9]+\)"),
    ("badchoice", r"\(\+"),
    ("lam", r"\\"),
    ("dot", r"\."),
    ("lpar", r"\("),
    ("rpar", r"\)"),
    ("lbrace", r"\{"),
    ("rbrace", r"\}"),
    ("const", "#c"),
    ("nu", r"nu(?![a-zA-Z0-9_'~])"),
    ("ident", r"[a-z][a-zA-Z0-9_'~]*"),
    ("abbrev", r"[A-Z][A-Z0-9_]*|2"),
)


@dataclass(frozen=True)
class _BraceFun(Term):
    fun: Term


def parse_term(text):
    """Parse the ASCII term grammar.  Abbreviations: I, OMEGA, 2.

    Binders are read in a loop, and each parenthesis or brace level costs
    one interpreter frame.  A character outside the grammar is reported
    before any error of structure, wherever it occurs."""
    toks = tokenize(_TERM_TOKENS, text)
    i = 0

    def term():
        # binders* (application (choice application)*)
        nonlocal i
        binders = []
        kind = toks[i][0]
        while kind == "lam" or kind == "nu":
            var = toks[i + 1]
            if var[0] != "ident":
                raise ParseError(f"expected ident, found {var[0]}", var[2])
            dot = toks[i + 2]
            if dot[0] != "dot":
                raise ParseError(f"expected dot, found {dot[0]}", dot[2])
            binders.append((kind, var[1]))
            i += 3
            kind = toks[i][0]
        t = label = None
        while True:
            app = None
            while True:
                kind, val, pos = toks[i]
                if kind == "ident":
                    i += 1
                    atom = Var(val)
                elif kind == "lpar" or kind == "lbrace":
                    if kind == "lbrace" and app is not None:
                        raise ParseError("CbV function {t} cannot be an argument", pos)
                    i += 1
                    atom = term()
                    close = "rpar" if kind == "lpar" else "rbrace"
                    if toks[i][0] != close:
                        raise ParseError(
                            f"expected {close}, found {toks[i][0]}", toks[i][2]
                        )
                    i += 1
                    if kind == "lbrace":
                        atom = _BraceFun(atom)
                elif kind == "lam" or kind == "nu":
                    atom = term()
                elif kind == "const":
                    i += 1
                    atom = CONST
                elif kind == "abbrev":
                    if val not in _ABBREVIATIONS:
                        raise ParseError(f"unknown abbreviation {val}", pos)
                    i += 1
                    atom = _ABBREVIATIONS[val]
                elif app is None:
                    raise ParseError(f"unexpected token {kind}", pos)
                else:
                    break
                if app is None:
                    app = atom
                elif isinstance(app, _BraceFun):
                    app = CbvApp(app.fun, atom)
                else:
                    app = App(app, atom)
            if isinstance(app, _BraceFun):
                raise ParseError("CbV function {t} must be applied", pos)
            t = app if t is None else Choice(t, app, Name(label), int(index))
            if kind != "choice":
                break
            label, _, index = val[2:-1].partition(".")
            i += 1
        for kind, var in reversed(binders):
            t = Lam(var, t) if kind == "lam" else Nu(Name(var), t)
        return t

    try:
        t = term()
        kind, _, pos = toks[i]
        if kind != "eof":
            raise ParseError(f"trailing input at {kind}", pos)
    except (ParseError, RecursionError):
        for kind, val, pos in toks:
            if kind == "badchoice":
                raise ParseError("malformed choice operator", pos) from None
            if kind == "?":
                raise ParseError(f"unexpected character {val!r}", pos) from None
        raise
    return t


def print_term(t):
    """Inverse of parse_term up to whitespace (and alpha for reparse)."""

    def atom(t):
        if isinstance(t, Var):
            return t.var
        if isinstance(t, Const):
            return "#c"
        return f"({go(t)})"

    def appish(t):
        if isinstance(t, (App, CbvApp, Var, Const)):
            return go(t)
        return atom(t)

    def go(t):
        if isinstance(t, Var):
            return t.var
        if isinstance(t, Const):
            return "#c"
        if isinstance(t, Lam):
            return f"\\{t.var}. {go(t.body)}"
        if isinstance(t, Nu):
            return f"nu {t.name}. {go(t.body)}"
        if isinstance(t, App):
            return f"{appish(t.fun)} {atom(t.arg)}"
        if isinstance(t, CbvApp):
            return f"{{{go(t.fun)}}} {atom(t.arg)}"
        if isinstance(t, Choice):
            left = atom(t.left) if isinstance(t.left, Choice) else appish_or_atom(t.left)
            right = appish_or_atom(t.right)
            return f"{left} (+{t.name}.{t.index}) {right}"
        raise TypeError(t)

    def appish_or_atom(t):
        if isinstance(t, (Lam, Nu, Choice)):
            return atom(t)
        return go(t)

    return go(t)
