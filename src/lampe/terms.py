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
free names, kinds, shape hash) from its children's; a variable keeps none,
the constant's class holds its record, a node whose set equals a child's
shares that frozenset, and every empty set is the one `_EMPTY`.  The kinds
are a small int of bits for what occurs in the term, at its root or below:
`_HAS_CBV` for a CbV application, `_HAS_CHOICE_OR_NU` for a choice or a
generator.
`canonical_str`, the normal-form marks of `rewrite` (`_normal`), the exact
termination bounds of `distribution` (`_bounds`, numbers only) and the loop
state of its runs (`_resume`, dropped once the exact bounds that read it are
kept) are kept the same way.  `alpha_eq` reads the shape hashes, and skips a
subterm that both sides share while they bind alike.

Names are renamed by one scoped walk, `rename_names`: a nu binder gets a new
name through one function and its bound choices follow it, and a choice on a
free name is renamed through a map.  `rename_bound_name` (freshening a binder
against capture) and `variant_copy` (the k-th copy of a duplicated scope) are
calls of it.

Every walk over a whole term runs on an explicit stack, so none costs an
interpreter frame per level: the rebuilding walks through `_walk`, and the
printers and the remaining queries through loops of their own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

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
    _bounds = None
    _resume = None


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
    kind = type(t)
    if kind is Lam or kind is Nu:
        return (t.body,)
    if kind is App or kind is CbvApp:
        return (t.fun, t.arg)
    if kind is Choice:
        return (t.left, t.right)
    if kind is Var or kind is Const:
        return ()
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
        new = _REBUILD[type(parent)](parent, i, new)
    return new


def _walk(t, ctx, enter):
    """t rebuilt top-down.  `enter(s, ctx)` is the result for a node s met
    under ctx: a term, or a pair `(r, inner)` that stands for r with each
    child rebuilt under inner.  A node whose children all come back as the
    same objects comes back itself."""
    done, stack = [], [(t, ctx, None)]
    while stack:
        t, ctx, kids = stack.pop()
        if kids is not None:  # t waits for the results of its children
            first = len(done) - len(kids)
            for i, new in enumerate(done[first:]):
                if new is not kids[i]:
                    t = _REBUILD[type(t)](t, i, new)
            done[first:] = [t]
        elif type(out := enter(t, ctx)) is not tuple:
            done.append(out)
        else:
            t, ctx = out
            kids = children(t)
            stack.append((t, None, kids))
            for c in reversed(kids):
                stack.append((c, ctx, None))
    return done[0]


# The shape hash erases variable names, so terms equal up to alpha share it.
_EMPTY = frozenset()
_VAR_HASH = hash(("v",))
# the bits of a record's kinds slot: what occurs in the term, at its root or
# below
_HAS_CBV = 1
_HAS_CHOICE_OR_NU = 2
Const._facts = (_EMPTY, _EMPTY, 0, hash(("c",)))
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
        fv, fn, kinds, h = fa or (frozenset((a.var,)), _EMPTY, 0, _VAR_HASH)
        if kind is Lam:
            if t.var in fv:
                fv = fv - {t.var} if len(fv) > 1 else _EMPTY
            h = hash(("l", h))
        elif kind is Nu:
            if t.name in fn:
                fn = fn - {t.name} if len(fn) > 1 else _EMPTY
            kinds |= _HAS_CHOICE_OR_NU
            h = hash(("n", t.name.text, h))
        else:
            fv2, fn2, kinds2, h2 = fb or (frozenset((b.var,)), _EMPTY, 0, _VAR_HASH)
            fv = fv2 if fv <= fv2 else fv if fv2 <= fv else fv | fv2
            fn = fn2 if fn <= fn2 else fn if fn2 <= fn else fn | fn2
            kinds |= kinds2
            if kind is Choice:
                kinds |= _HAS_CHOICE_OR_NU
                fn = fn if t.name in fn else fn | {t.name}
                h = hash(("p", t.name.text, t.index, h, h2))
            elif kind is App:
                h = hash(("a", h, h2))
            else:
                kinds |= _HAS_CBV
                h = hash(("b", h, h2))
        _set_fact(t, "_facts", (fv, fn, kinds, h))
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
    return bool((t._facts or _fill(t))[2] & _HAS_CBV)


def bound_names(t):
    out, stack = set(), [t]
    while stack:
        t = stack.pop()
        if type(t) is Nu:
            out.add(t.name)
        stack.extend(children(t))
    return out


def fresh_name(base, *terms):
    """`base` suffixed with the least `_k` that no name of `terms` uses:
    fresh by a local rule, so it does not depend on what else was
    interned."""
    taken = {n.text for t in terms for n in free_names(t) | bound_names(t)}
    k = 1
    while f"{base.text}_{k}" in taken:
        k += 1
    return Name(f"{base.text}_{k}")


def rename_names(t, env, rebind):
    """t with each nu binder n renamed to rebind(n), which the choices it
    binds follow, and each choice on a name n that no binder of t binds
    renamed to env.get(n, n).  A subtree that nothing renames comes back as
    the same object."""

    def enter(t, env):
        kind = type(t)
        if kind is Nu:
            name = rebind(t.name)
            return (t if name is t.name else Nu(name, t.body)), {**env, t.name: name}
        if kind is Choice and env.get(t.name, t.name) is not t.name:
            return Choice(t.left, t.right, env[t.name], t.index), env
        return t if kind is Var or kind is Const else (t, env)

    return _walk(t, env, enter)


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
    count, stack = 0, [t]
    while stack:
        t = stack.pop()
        if type(t) is Var:
            count += t.var == x
        elif x in free_vars(t):
            stack.extend(children(t))
    return count


def substitute_indexed(t, x, u, start, duplicating):
    """Like substitute, but occurrences of x are numbered globally starting
    at `start`, so a larger term can be substituted piecewise while keeping
    the copy-variant naming aligned.  The walk's context at a node lists the
    substitutions pending there in the order they apply, as (variable, free
    variables of its payload, new variable, or None for u).  A binder that
    would capture a payload's free variable is renamed by a substitution of
    its own just ahead of that one, as if its body were renamed first."""
    hits = start

    def enter(t, pending):
        nonlocal hits
        kind = type(t)
        if kind is Var:
            var = t.var
            for old, _, new in pending:
                if var == old:
                    if new is None:
                        hits += 1
                        return variant_copy(u, hits) if duplicating and hits > 1 else u
                    var = new
            return t if var == t.var else Var(var)
        if kind is not Lam and kind is not Nu:
            return t if kind is Const else (t, pending)
        var = t.var if kind is Lam else None
        free = free_vars(t.body)  # kept up to date as each pending step applies
        inner = []
        for step in pending:
            old, fv, new = step
            if old == var or old not in free:
                continue
            if var in fv:
                fresh = fresh_var(var, fv | free)
                if var in free:
                    inner.append((var, {fresh}, fresh))
                    free = free - {var} | {fresh}
                var = fresh
            inner.append(step)
            free = free - {old} | fv
        if not inner:
            return t
        if kind is Lam and var != t.var:
            t = Lam(var, t.body)
        elif kind is Nu and inner[-1][2] is None and t.name in free_names(u):
            t = rename_bound_name(t, fresh_name(t.name, t, u))
        return t, inner

    return _walk(t, [(x, free_vars(u), None)], enter)


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
    under its bodies puts the outer bindings back once they are done.  Each
    entry carries a flag that holds while every enclosing lambda pair binds
    one variable name on both sides: both sides then bind alike, so a pair
    of one shared object is equal and is not entered."""
    if t is u:
        return True
    ft, fu = t._facts, u._facts
    if ft is not None and fu is not None and ft[3] != fu[3]:
        return False
    env_t, env_u = {}, {}
    pairs = 0
    stack = [(t, u, True)]
    while stack:
        t, u, same = stack.pop()
        if t is None:
            x, bx, y, by = u
            env_t[x], env_u[y] = bx, by
            continue
        if same and t is u:
            continue
        kind = type(t)
        if kind is not type(u):
            return False
        if kind is Var:
            bt = env_t.get(t.var)
            if bt != env_u.get(u.var) or (bt is None and t.var != u.var):
                return False
        elif kind is Lam:
            stack.append((None, (t.var, env_t.get(t.var), u.var, env_u.get(u.var)), False))
            pairs += 1
            env_t[t.var] = env_u[u.var] = pairs
            stack.append((t.body, u.body, same and t.var == u.var))
        elif kind is Nu:
            if t.name is not u.name:
                return False
            stack.append((t.body, u.body, same))
        elif kind is Choice:
            if t.name is not u.name or t.index != u.index:
                return False
            stack.append((t.right, u.right, same))
            stack.append((t.left, u.left, same))
        elif kind is not Const:
            stack.append((t.arg, u.arg, same))
            stack.append((t.fun, u.fun, same))
    return True


def canonical_str(t):
    """Printed form with lambda binders renamed positionally; alpha-invariant,
    suitable as a dictionary key.  One loop writes the text from a stack of
    strings and pending nodes.  One environment serves the whole walk: a
    lambda binds its variable for its body, and the `None` entry stacked
    after the body puts the outer binding back."""
    if t._canonical_str is not None:
        return t._canonical_str
    env, hidden = {}, []  # per open lambda: its variable, the binding it hides
    out, stack = [], [t]
    while stack:
        s = stack.pop()
        kind = type(s)
        if kind is str:
            out.append(s)
        elif kind is Var:
            out.append(env.get(s.var) or s.var)
        elif kind is Lam:
            label = f"${len(hidden)}"
            hidden.append((s.var, env.get(s.var)))
            env[s.var] = label
            stack += None, ")", s.body, f"(\\{label}. "
        elif s is None:
            var, outer = hidden.pop()
            env[var] = outer
        elif kind is App:
            stack += ")", s.arg, " ", s.fun, "("
        elif kind is Choice:
            stack += ")", s.right, f" (+{s.name}.{s.index}) ", s.left, "("
        elif kind is Nu:
            stack += ")", s.body, f"(nu {s.name}. "
        elif kind is CbvApp:
            stack += s.arg, "} ", s.fun, "{"
        else:
            out.append("#c")
    out = "".join(out)
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

    def enter(t, active):
        while type(t) is Choice and t.name in active:
            key = (t.name, t.index)
            if key not in valuation:
                raise UndefinedBitError(f"no bit for ({t.name}, {t.index})")
            t = t.left if valuation[key] == 1 else t.right
        if type(t) is Nu and t.name in active:
            return t, active - {t.name}
        return t if type(t) is Var or type(t) is Const else (t, active)

    return _walk(t, frozenset(names), enter)


# ---------------------------------------------------------------------------
# Concrete syntax

_W = Lam("x", App(Var("x"), Var("x")))
_ABBREVIATIONS = {
    "I": Lam("x", Var("x")),
    "OMEGA": App(_W, _W),
    "2": Lam("y", Lam("x", App(Var("y"), App(Var("y"), Var("x"))))),
}


def token_pattern(*groups):
    """One grammar's tokens: `groups` are `(kind, regex)` pairs, tried in
    order, none of which matches whitespace or the empty text.  Returns the
    compiled pattern that `tokenize` runs and, as text, its named form.

    The compiled pattern is the groups' alternation as one capturing group,
    then a catch-all for one non-space character outside it, so a character
    that no group matches (a stray, of kind "?") comes back from `findall` as
    "", which no token is.  The named form has one `(?P<kind>...)` group per
    kind and the catch-all as a last, unnamed group; its matches are the
    same, one for one.  Only an error message needs a token's kind or
    position, so the named form stays text and `re`'s own cache compiles it
    on the first error."""
    named = "".join(f"(?P<{kind}>{regex})|" for kind, regex in groups)
    tokens = "|".join(regex for _, regex in groups)
    return re.compile(rf"({tokens})|\S"), rf"{named}(\S)"


def tokenize(pattern, text):
    """The token texts of `text` under `pattern`, from one C-level
    `findall`, closed by "" for the end of the text (a stray character is
    "" too).  Whitespace separates tokens: no match starts on it, so the
    search skips it.  Parsers dispatch on the texts; `token_at` gives the
    kind and position of token i when an error needs them."""
    len(text)  # first: a non-text input raises len()'s TypeError, as it always has
    toks = pattern[0].findall(text)
    toks.append("")
    return toks


def token_kinds(pattern, text):
    """The `(kind, position)` of each token that `tokenize` lists, from the
    named form of `pattern`: a stray is of kind "?", and the closing token
    is ("eof", len(text))."""
    for m in re.finditer(pattern[1], text):
        yield m.lastgroup or "?", m.start()
    yield "eof", len(text)


def token_at(pattern, text, i):
    """The `(kind, position)` of token i of `text` under `pattern`."""
    return next(islice(token_kinds(pattern, text), i, None))


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
    before any error of structure, wherever it occurs.

    Tokens are told apart by their text.  Of the texts `tokenize` gives
    here, those in ["a", "{") are "nu" and the identifiers, those in
    ["A", "[") the abbreviations other than "2", and a choice is the one
    longer than two characters that starts with "(+"."""
    toks = tokenize(_TERM_TOKENS, text)
    i = 0

    def at(j):
        return token_at(_TERM_TOKENS, text, j)

    def term():
        # binders* (application (choice application)*)
        nonlocal i
        binders = []
        tok = toks[i]
        while tok == "\\" or tok == "nu":
            var = toks[i + 1]
            if not "a" <= var < "{" or var == "nu":
                kind, pos = at(i + 1)
                raise ParseError(f"expected ident, found {kind}", pos)
            if toks[i + 2] != ".":
                kind, pos = at(i + 2)
                raise ParseError(f"expected dot, found {kind}", pos)
            binders.append((tok, var))
            i += 3
            tok = toks[i]
        t = label = None
        while True:
            app = None
            while True:
                tok = toks[i]
                if "a" <= tok < "{" and tok != "nu":
                    i += 1
                    atom = Var(tok)
                elif tok == "(" or tok == "{":
                    if tok == "{" and app is not None:
                        pos = at(i)[1]
                        raise ParseError("braced CbV function cannot be an argument", pos)
                    i += 1
                    atom = term()
                    if toks[i] != (")" if tok == "(" else "}"):
                        kind, pos = at(i)
                        close = "rpar" if tok == "(" else "rbrace"
                        raise ParseError(f"expected {close}, found {kind}", pos)
                    i += 1
                    if tok == "{":
                        atom = _BraceFun(atom)
                elif tok == "\\" or tok == "nu":
                    atom = term()
                elif tok == "#c":
                    i += 1
                    atom = CONST
                elif tok in _ABBREVIATIONS:
                    i += 1
                    atom = _ABBREVIATIONS[tok]
                elif "A" <= tok < "[":
                    raise ParseError(f"unknown abbreviation {tok}", at(i)[1])
                elif app is None:
                    kind, pos = at(i)
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
                raise ParseError("braced CbV function must be applied", at(i)[1])
            t = app if t is None else Choice(t, app, Name(label), int(index))
            if tok[:2] != "(+" or tok == "(+":
                break
            label, _, index = tok[2:-1].partition(".")
            i += 1
        for binder, var in reversed(binders):
            t = Lam(var, t) if binder == "\\" else Nu(Name(var), t)
        return t

    try:
        t = term()
        if i != len(toks) - 1:
            kind, pos = at(i)
            raise ParseError(f"trailing input at {kind}", pos)
    except (ParseError, RecursionError):
        for kind, pos in token_kinds(_TERM_TOKENS, text):
            if kind == "badchoice":
                raise ParseError("malformed choice operator", pos) from None
            if kind == "?":
                raise ParseError(f"unexpected character {text[pos]!r}", pos) from None
        raise
    return t


def _paren(t, kinds):
    return (")", t, "(") if type(t) in kinds else (t,)


_OPEN = (Lam, Nu, Choice)  # reach to the right: bracketed before more text
_COMPOUND = _OPEN + (App, CbvApp)  # bracketed as an argument
# print_term's expansion of each node, last item first
_PRINT = {
    Var: lambda t: (t.var,),
    Const: lambda t: ("#c",),
    Lam: lambda t: (t.body, f"\\{t.var}. "),
    Nu: lambda t: (t.body, f"nu {t.name}. "),
    App: lambda t: (*_paren(t.arg, _COMPOUND), " ", *_paren(t.fun, _OPEN)),
    CbvApp: lambda t: (*_paren(t.arg, _COMPOUND), "} ", t.fun, "{"),
    Choice: lambda t: (
        *_paren(t.right, _OPEN), f" (+{t.name}.{t.index}) ", *_paren(t.left, _OPEN)
    ),
}


def print_term(t):
    """Inverse of parse_term up to whitespace (and alpha for reparse).  The
    text is written from a stack of strings and pending nodes, each node
    replaced by its `_PRINT` expansion."""
    out, stack = [], [t]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        else:
            stack.extend(_PRINT[type(item)](item))
    return "".join(out)
