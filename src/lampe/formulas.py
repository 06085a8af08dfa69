"""Named Boolean formulas and their exact measure on the product Cantor space.

Atoms are (name, index) pairs; each atom is an independent fair bit, so the
measure of a formula is the probability that it holds.  A query compiles its
operands into a reduced ordered binary decision diagram (Bryant 1986) and
reads the answer off the diagram: the measure is a weighted model count,
equivalence is node identity, and entailment is read by a walk down both
diagrams that builds no node and stops at the first counterexample.  `And`
and `Or` each compile with one apply.  Each query is guarded by a hard cap,
`ATOM_CAP`, on the number of distinct atoms in its operands.

Formulas are hash-consed (Filliâtre & Conchon 2006), as are the types of
`typesys` and the formulas of `proofs`: every `Interned` class is built by one
constructor, `_intern`, that returns the one live node of its structure, so
equal nodes are one object however they were made (parsed, decoded, renamed,
joined, copied or unpickled), and a manager's identity memos serve them all.
So `==` and `hash` are by identity, and neither recurses, and a deep copy of
a node is the node.  One table maps a key, the node's field values and then
its class, to a weak reference to the node; an entry goes when its node
does.  A child in a key hashes and compares by identity, and the key holds
it only as long as the node does.  The store is race-free: an entry goes in
by `dict.setdefault`, so a thread that loses a race to make a structure takes
the winner's node, and only its own callback takes a dead entry out, so a
constructor that meets one waits and tries again.  No two live nodes ever
share a structure, as identity equality needs.

Two facts live on each node, outside the dataclass fields, written with
`object.__setattr__` once found: `_atoms`, its atom set, filled by the first
`atoms` call that reaches the node, and `_measure`, by the first `measure`
of the node that succeeds.  A node is shared by every formula that holds
it, so each fact is found once in its life, whatever query, check or
manager asks; two threads that race both write the same answer.

Every manager gives an atom the next level when it first meets it (Fujita,
Fujisawa & Kawato 1988) and serves many queries from one unique table, one
set of apply memos and one identity memo of compiled formulas (Brace, Rudell
& Bryant 1990).  A function wrapped in `_one_manager` (the derivation and
proof checkers, mu-star and transport) answers every query made during its
call from one manager, dropped when the outermost such call returns or
raises.

Standalone queries, made outside such a call, share one retained manager
per context (a context variable, so each thread has its own; a copy of a
context run in another thread opens its own, as a manager only serves the
thread that made it).  A query keeps it when the manager has met its first
operand, as an operand of an earlier query, and the query's operands with
the operands the manager has met make at most two formulas: one pair.  An
equal formula is the same node, so it counts as met however it was made.
Otherwise the query opens a new manager, which replaces the old one.  Each
operand is compiled once per manager: so `measure(b)`, `entails(b, c)` and
`equivalent(b, c)` in a row compile b once and c once, with b's atoms
first, as a fresh manager for `entails(b, c)` would order them.  The query
that first joined the pair checked the cap on the atoms of both, so a
manager never holds more than `ATOM_CAP` levels, and it keeps one pair
alive, no more.  A query that raises, at the cap or inside a build, leaves
no manager retained, in this context or in a copy of it (the query marks
its manager busy until it hands it back), so a half-updated unique table
never serves another query.

Some queries are settled by identity before any manager: `entails(b, c)`
holds when b is c, c is T or b is F, and `equivalent(b, c)` when b is c.
Such a query opens, keeps and replaces no manager.

`disjoint(parts)` asks whether no two of its parts hold together, as the
summing counting rule needs of its cases.  It runs on the open manager, or
on one of its own for a standalone call, so it keeps and replaces no
retained manager.  It keeps a running union node of the parts before the
current one, tests the part against it with one `conj` and joins it with
one `disj`, and builds no `And` or `Or` formula.  Before each part after
the first it checks the cap on the atoms of the parts so far, where
`entails(And(union, part), F)` would check it, so it raises at the same
part and with the same text as such a loop.

In every other case the cap is checked for each query, on the atom facts
of its operands, before any node is built.
"""

from __future__ import annotations

import functools
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from threading import get_ident
from weakref import ref

from .errors import ParseError, TooManyAtomsError, UndefinedBitError
from .terms import Name, token_at, token_pattern, tokenize

ATOM_CAP = 24


# The one live node of each structure, by key: see the module docstring.
_INTERNED = {}
_set = object.__setattr__


class _Entry(ref):
    """A weak reference to an interned node that knows its key."""

    __slots__ = ("key",)


def _forget(entry):
    # nothing else takes out or replaces a stored entry, so the check and the
    # delete see the same one; an entry that lost a race was never stored
    if _INTERNED.get(entry.key) is entry:
        del _INTERNED[entry.key]


def _intern(cls, *values, **fields):
    """The one live `cls` node with these field values, made and stored on
    a miss."""
    if fields:
        # by name, as `dataclasses.replace` passes them
        names = cls.__match_args__
        values += tuple(fields.pop(f) for f in names[len(values) :] if f in fields)
        if fields:
            raise TypeError(f"{cls.__name__} takes the fields {names}")
    key = values + (cls,)
    entry = _INTERNED.get(key)
    node = None if entry is None else entry()
    if node is not None:
        return node
    names = cls.__match_args__
    # a call with too few or too many values matches no node, so gets here
    if len(values) != len(names):
        raise TypeError(f"{cls.__name__} takes the fields {names}")
    node = object.__new__(cls)
    for name, value in zip(names, values):
        _set(node, name, value)
    # stored only once its fields are set, so no thread reads one half made
    entry = _Entry(node, _forget)
    entry.key = key
    while True:
        found = _INTERNED.setdefault(key, entry)
        if found is entry:
            return node
        other = found()
        if other is not None:
            # another thread stored this structure first
            return other
        # a dead entry, whose callback is taking it out: try again


class Interned:
    """The base of every hash-consed class (see the module docstring).  A
    copy or a pickle rebuilds through the class, so it is the node itself.
    A node is immutable and the one of its structure, so a deep copy is the
    node itself, with no walk below it."""

    __new__ = _intern

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __deepcopy__(self, memo):
        return self


# the decorator of every interned class: frozen fields that `_intern` sets, no
# `__init__` (`object.__init__` ignores the arguments of a class that defines
# `__new__`), and `==` and `hash` by identity
interned = dataclass(frozen=True, eq=False, init=False)


class BoolFormula(Interned):
    # node facts, not fields: see `atoms` and `measure`
    _atoms = None
    _measure = None


@interned
class Top(BoolFormula):
    _atoms = frozenset()


@interned
class Bot(BoolFormula):
    _atoms = frozenset()


@interned
class Atom(BoolFormula):
    name: Name
    index: int


@interned
class Not(BoolFormula):
    arg: BoolFormula


@interned
class And(BoolFormula):
    left: BoolFormula
    right: BoolFormula


@interned
class Or(BoolFormula):
    left: BoolFormula
    right: BoolFormula


TOP = Top()
BOT = Bot()


def conj(parts):
    parts = list(parts)
    if not parts:
        return TOP
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts):
    parts = list(parts)
    if not parts:
        return BOT
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def atoms(b):
    """The (name, index) atoms of b, as a frozenset kept on b."""
    out = b._atoms
    return _fill_atoms(b) if out is None else out


def _fill_atoms(root):
    """Store the atom set of root and of each node below it that lacks one,
    children first, on an explicit stack; return root's set.  A node whose
    set equals a child's shares that child's frozenset."""
    stack = [root]
    while stack:
        b = stack[-1]
        if b._atoms is not None:
            # a shared node stacked twice
            stack.pop()
            continue
        kind = type(b)
        if kind is Atom:
            out = frozenset(((b.name, b.index),))
        elif kind is Not:
            out = b.arg._atoms
            if out is None:
                stack.append(b.arg)
                continue
        else:
            left, right = b.left._atoms, b.right._atoms
            if left is None:
                stack.append(b.left)
            if right is None:
                stack.append(b.right)
            if stack[-1] is not b:
                continue
            out = right if left <= right else left if right <= left else left | right
        stack.pop()
        _set(b, "_atoms", out)
    return root._atoms


def formula_names(b):
    return {name for name, _ in atoms(b)}


def rename_formula_names(b, mapping):
    """b with the name of each atom renamed through `mapping`.  A post-order
    walk on an explicit stack that renames each shared node once; a node
    whose operands come back as the same nodes comes back itself."""
    done = {}
    stack = [b]
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
            continue
        kind = type(node)
        if kind is Atom:
            new = mapping.get(node.name)
            out = Atom(new, node.index) if new is not None else node
        elif kind is Not:
            arg = done.get(node.arg)
            if arg is None:
                stack.append(node.arg)
                continue
            out = node if arg is node.arg else Not(arg)
        elif kind is And or kind is Or:
            left, right = done.get(node.left), done.get(node.right)
            if left is None or right is None:
                if right is None:
                    stack.append(node.right)
                if left is None:
                    stack.append(node.left)
                continue
            same = left is node.left and right is node.right
            out = node if same else kind(left, right)
        else:
            out = node
        stack.pop()
        done[node] = out
    return done[b]


def eval_formula(b, valuation):
    """Evaluate under a finite map (Name, index) -> bit; missing bits error.
    A loop on an explicit stack of the connectives whose first operand is
    being evaluated: `&` and `|` go on to their right operand only when the
    left one does not settle them, so a bit that is never reached may be
    missing."""
    stack = []
    while True:
        kind = type(b)
        if kind is Not or kind is And or kind is Or:
            stack.append(b)
            b = b.arg if kind is Not else b.left
            continue
        if kind is Top:
            value = True
        elif kind is Bot:
            value = False
        elif kind is Atom:
            key = (b.name, b.index)
            if key not in valuation:
                raise UndefinedBitError(f"no bit for ({b.name}, {b.index})")
            value = valuation[key] == 1
        else:
            raise TypeError(b)
        while stack:
            op = stack.pop()
            kind = type(op)
            if kind is Not:
                value = not value
            elif value == (kind is And):
                # a true left operand of `&`, or a false one of `|`: the
                # right operand is the value
                b = op.right
                break
        else:
            return value


def _check_cap(count):
    if count > ATOM_CAP:
        raise TooManyAtomsError(f"{count} atoms exceeds the cap of {ATOM_CAP}")


class _Levels(dict):
    """Variable levels of a manager: an atom met for the first time takes
    the next level, below every atom met before it."""

    def __missing__(self, atom):
        level = self[atom] = len(self)
        return level


class _SharedBDD:
    """A reduced ordered BDD manager whose atoms take levels as it meets them.

    Nodes are ints: 0 and 1 are the terminals, every other node is an index
    into the parallel `_level`/`_low`/`_high` lists.  The unique table keeps
    the diagram reduced, so two formulas compiled by one manager denote the
    same function iff they compile to the same node.  `conj` and `disj` are
    Bryant's apply, each with its own memo; `implies` reads `u <= v` from
    both diagrams and builds no node.  Each diagram is canonical for its
    manager's order, so no answer depends on which order that is.

    The unique table and the `not`, `and`, `or` and `implies` memos serve
    every query the manager answers.  `build` remembers each compiled
    formula by identity, subformulas included: formulas are interned, so
    each distinct subformula is compiled once, however many parents or
    queries ask for it.  `_walked` keeps each standalone operand the
    manager has met, by `id`, for `_manager`'s pair rule.  Each memo holds
    the formula itself, so while the manager lives no other formula can
    take over a remembered `id`."""

    def __init__(self):
        self._var_level = _Levels()
        # the operations return before they would read a terminal's level
        self._level = [None, None]
        self._low = [0, 1]
        self._high = [0, 1]
        self._unique = {}
        self._not_memo = {}
        self._and_memo = {}
        self._or_memo = {}
        self._implies_memo = {}
        self._built = {}
        self._walked = {}
        self._thread = get_ident()
        self._busy = False

    def _node(self, level, low, high):
        if low == high:
            return low
        key = (level, low, high)
        u = self._unique.get(key)
        if u is None:
            u = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = u
        return u

    def neg(self, u):
        if u < 2:
            return 1 - u
        r = self._not_memo.get(u)
        if r is None:
            r = self._node(
                self._level[u], self.neg(self._low[u]), self.neg(self._high[u])
            )
            self._not_memo[u] = r
        return r

    def conj(self, u, v):
        if u == 0 or v == 0:
            return 0
        if u == 1 or u == v:
            return v
        if v == 1:
            return u
        if u > v:
            u, v = v, u
        key = (u, v)
        r = self._and_memo.get(key)
        if r is None:
            lu, lv = self._level[u], self._level[v]
            if lu == lv:
                r = self._node(
                    lu,
                    self.conj(self._low[u], self._low[v]),
                    self.conj(self._high[u], self._high[v]),
                )
            elif lu < lv:
                r = self._node(
                    lu, self.conj(self._low[u], v), self.conj(self._high[u], v)
                )
            else:
                r = self._node(
                    lv, self.conj(u, self._low[v]), self.conj(u, self._high[v])
                )
            self._and_memo[key] = r
        return r

    def disj(self, u, v):
        if u == 1 or v == 1:
            return 1
        if u == 0 or u == v:
            return v
        if v == 0:
            return u
        if u > v:
            u, v = v, u
        key = (u, v)
        r = self._or_memo.get(key)
        if r is None:
            lu, lv = self._level[u], self._level[v]
            if lu == lv:
                r = self._node(
                    lu,
                    self.disj(self._low[u], self._low[v]),
                    self.disj(self._high[u], self._high[v]),
                )
            elif lu < lv:
                r = self._node(
                    lu, self.disj(self._low[u], v), self.disj(self._high[u], v)
                )
            else:
                r = self._node(
                    lv, self.disj(u, self._low[v]), self.disj(u, self._high[v])
                )
            self._or_memo[key] = r
        return r

    def implies(self, u, v):
        """True iff every assignment that satisfies u satisfies v.  A reduced
        inner node is neither constant, so the terminal cases decide; the
        walk stops at the first pair of cofactors that decides False."""
        if u == 0 or v == 1 or u == v:
            return True
        if u == 1 or v == 0:
            return False
        key = (u, v)
        r = self._implies_memo.get(key)
        if r is None:
            lu, lv = self._level[u], self._level[v]
            if lu == lv:
                r = self.implies(self._low[u], self._low[v]) and self.implies(
                    self._high[u], self._high[v]
                )
            elif lu < lv:
                r = self.implies(self._low[u], v) and self.implies(self._high[u], v)
            else:
                r = self.implies(u, self._low[v]) and self.implies(u, self._high[v])
            self._implies_memo[key] = r
        return r

    def build(self, b):
        """The node of b, compiled once per formula node.  A left-nested
        run of one connective (`a & b & ...`, `!!...`) is compiled bottom-up
        in a loop, so only the right operands take a frame each."""
        hit = self._built.get(id(b))
        if hit is not None:
            return hit[1]
        kind = type(b)
        if kind is And or kind is Or or kind is Not:
            run = []
            while type(b) is kind and id(b) not in self._built:
                run.append(b)
                b = b.arg if kind is Not else b.left
            u = self.build(b)
            for b in reversed(run):
                if kind is And:
                    u = self.conj(u, self.build(b.right))
                elif kind is Or:
                    u = self.disj(u, self.build(b.right))
                else:
                    u = self.neg(u)
                self._built[id(b)] = (b, u)
            return u
        if kind is Atom:
            u = self._node(self._var_level[(b.name, b.index)], 0, 1)
            self._built[id(b)] = (b, u)
            return u
        if kind is Top:
            return 1
        if kind is Bot:
            return 0
        raise TypeError(b)

    def weight(self, u):
        """Probability that node u holds, as an exact Fraction.

        The weighted model count runs in integers scaled by 2^n: terminal 1
        counts all 2^n assignments and each inner node halves the sum of its
        children's counts.  A child does not depend on its parent's variable,
        so both counts are even and the halving is exact.  The nodes below u
        are counted in post-order on an explicit stack, which holds one path
        down from u; a terminal is its own child, so it counts to itself."""
        n = len(self._var_level)
        count = {0: 0, 1: 1 << n}
        stack = [u]
        while stack:
            v = stack[-1]
            low, high = self._low[v], self._high[v]
            if low not in count:
                stack.append(low)
            elif high not in count:
                stack.append(high)
            else:
                count[v] = (count[low] + count[high]) >> 1
                stack.pop()
        return Fraction(count[u], 1 << n)


def _one_per_call(var, factory):
    """A decorator that keeps one `factory()` object in the context variable
    `var` for the whole of a call.  A call made while one is open joins it;
    the outermost call drops it when it returns or raises."""

    def wrap(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            if var.get() is not None:
                return fn(*args, **kwargs)
            token = var.set(factory())
            try:
                return fn(*args, **kwargs)
            finally:
                var.reset(token)

        return call

    return wrap


_OPEN = ContextVar("lampe_open_bdd_manager", default=None)

# Answer every oracle query made during a call from one shared manager.
_one_manager = _one_per_call(_OPEN, _SharedBDD)

# The manager kept between the standalone queries of one context.
_RETAINED = ContextVar("lampe_retained_bdd_manager", default=None)


def _manager(*operands):
    """The manager for one query over `operands`: the open shared one, else
    the retained one if it is idle, this thread made it, it has met the
    first operand and it has met no formula outside the query's operands but
    one, else a new one.  The cap applies to the query alone, and is checked
    before any node is built.  A standalone query takes its manager out of
    `_RETAINED` and marks it busy until `_retain` puts it back, so a query
    that raises leaves none retained, here or in a copy of this context."""
    bdd = _OPEN.get()
    if bdd is None:
        bdd = _RETAINED.get()
        _RETAINED.set(None)
        if (
            bdd is None
            or bdd._busy
            or bdd._thread != get_ident()
            or id(operands[0]) not in bdd._walked
            or len(bdd._walked.keys() | {id(b) for b in operands}) > 2
        ):
            bdd = _SharedBDD()
        bdd._busy = True
        for b in operands:
            bdd._walked[id(b)] = b
    found = atoms(operands[0])
    for b in operands[1:]:
        more = atoms(b)
        found = more if found <= more else found | more
    _check_cap(len(found))
    return bdd


def _retain(bdd, answer):
    """`answer`, once a standalone query has read it from `bdd`, which is
    retained for the next one."""
    if _OPEN.get() is None:
        bdd._busy = False
        _RETAINED.set(bdd)
    return answer


def measure(b):
    """Exact measure of the event denoted by b, as a Fraction kept on b."""
    out = b._measure
    if out is None:
        bdd = _manager(b)
        out = _retain(bdd, bdd.weight(bdd.build(b)))
        _set(b, "_measure", out)
    return out


def entails(b, c):
    """True iff every assignment satisfying b satisfies c.  Identity settles
    it, with no manager, when b is c, c is T or b is F."""
    if b is c or c is TOP or b is BOT:
        _check_cap(len(atoms(c if b is BOT else b)))
        return True
    bdd = _manager(b, c)
    return _retain(bdd, bdd.implies(bdd.build(b), bdd.build(c)))


def equivalent(b, c):
    """True iff b and c hold under the same assignments; identity settles
    it, with no manager, when b is c."""
    if b is c:
        _check_cap(len(atoms(b)))
        return True
    bdd = _manager(b, c)
    return _retain(bdd, bdd.build(b) == bdd.build(c))


def satisfiable(b):
    bdd = _manager(b)
    return _retain(bdd, bdd.build(b) != 0)


@_one_manager
def disjoint(parts):
    """True iff no two of the formulas `parts` hold together.  Each part
    after the first is tested against the running union of the parts
    before it with one `conj`, then joined to it with one `disj`, on the
    open manager's diagrams; no `And` or `Or` formula is built.  Before each
    test the cap is checked on the atoms of the parts so far, as
    `entails(And(union, part), F)` would check them."""
    bdd = _OPEN.get()
    found = atoms(parts[0]) if parts else None
    union = None
    for b in parts[1:]:
        more = atoms(b)
        found = more if found <= more else found | more
        _check_cap(len(found))
        if union is None:
            union = bdd.build(parts[0])
        u = bdd.build(b)
        if bdd.conj(union, u):
            return False
        union = bdd.disj(union, u)
    return True


# ---------------------------------------------------------------------------
# Concrete syntax: T, F, name.index, !b, b & c, b | c, parentheses.


_FORMULA_TOKENS = token_pattern(
    ("sym", r"[()!&|]"),
    ("const", r"[TF](?!\w)"),
    ("atom", r"[a-z][a-zA-Z0-9_'~]*\.[0-9]+"),
)


def parse_formula(text):
    """Parse an event formula; `!` binds tighter than `&`, and `&` tighter
    than `|`.  Each parenthesis level costs one interpreter frame.  Tokens
    are told apart by their text: an atom is the one in ["a", "{")."""
    toks = tokenize(_FORMULA_TOKENS, text)
    i = 0

    def disjunction():
        # negated operands joined by & and |
        nonlocal i
        out = conj = None
        while True:
            start = i
            while toks[i] == "!":
                i += 1
            nots = i - start
            tok = toks[i]
            i += 1
            if "a" <= tok < "{":
                name, _, index = tok.partition(".")
                operand = Atom(Name(name), int(index))
            elif tok == "T":
                operand = TOP
            elif tok == "F":
                operand = BOT
            elif tok == "(":
                operand = disjunction()
                if toks[i] != ")":
                    pos = token_at(_FORMULA_TOKENS, text, i)[1]
                    raise ParseError("expected ')'", pos)
                i += 1
            else:
                kind, pos = token_at(_FORMULA_TOKENS, text, i - 1)
                if kind == "eof":
                    raise ParseError("unexpected end of formula", pos)
                raise ParseError(f"unexpected character {text[pos]!r} in formula", pos)
            for _ in range(nots):
                operand = Not(operand)
            conj = operand if conj is None else And(conj, operand)
            op = toks[i]
            if op == "|":
                out = conj if out is None else Or(out, conj)
                conj = None
            elif op != "&":
                return conj if out is None else Or(out, conj)
            i += 1

    out = disjunction()
    if i != len(toks) - 1:
        pos = token_at(_FORMULA_TOKENS, text, i)[1]
        raise ParseError("trailing input in formula", pos)
    return out


def _bracket(wrap, *items):
    return (")", *items, "(") if wrap else items


# print_formula's expansion of a node printed at a precedence (0 at the top,
# 1 left of `|`, 2 left of `&` or right of `|`, 3 right of `&` or under `!`),
# last item first
_PRINT = {
    Top: lambda b, prec: ("T",),
    Bot: lambda b, prec: ("F",),
    Atom: lambda b, prec: (f"{b.name}.{b.index}",),
    Not: lambda b, prec: ((b.arg, 3), "!"),
    And: lambda b, prec: _bracket(prec > 2, (b.right, 3), " & ", (b.left, 2)),
    Or: lambda b, prec: _bracket(prec > 1, (b.right, 2), " | ", (b.left, 1)),
}


def print_formula(b):
    """The text that parse_formula reads back as `b`, with brackets only
    where precedence needs them.  It is written from a stack of strings and
    pending `(node, precedence)` pairs, each pair replaced by its node's
    `_PRINT` expansion."""
    out, stack = [], [(b, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        else:
            stack.extend(_PRINT[type(item[0])](*item))
    return "".join(out)


def parse_rational(text):
    if not isinstance(text, str):
        raise TypeError(f"expected a rational written as text, got {text!r}")
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(q):
    return f"{q.numerator}/{q.denominator}"
