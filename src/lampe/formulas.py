"""Named Boolean formulas and their exact measure on the product Cantor space.

Atoms are (name, index) pairs; each atom is an independent fair bit, so the
measure of a formula is the probability that it holds.  A query compiles its
operands into a reduced ordered binary decision diagram (Bryant 1986) and
reads the answer off the diagram: the measure is a weighted model count,
equivalence is node identity, and entailment is read by a walk down both
diagrams that builds no node and stops at the first counterexample.  `And`
and `Or` each compile with one apply.  Each query is guarded by a hard cap on
the number of distinct atoms in its operands.

A standalone query builds a fresh diagram over its own atoms, ordered by
their first appearance in a left-to-right depth-first walk of its operands
(Fujita, Fujisawa & Kawato 1988); the same walk counts them for the cap, and
the manager is dropped when the query returns.  A function wrapped in
`_one_manager` (the derivation and proof checkers, mu-star and transport)
instead answers every query made during its call from one shared manager
(Brace, Rudell & Bryant 1990): its unique table, its apply memos and a
compiled-formula memo serve all of that call's queries, atoms take levels in
the order the queries meet them, and the manager is dropped when the
outermost such call returns or raises.  While it is open, `atoms` answers
from its identity memo of atom sets, which keeps the set of every formula
node it meets, so the per-query cap check and the checkers' name tests walk
each formula node once per call; the cap is still checked for each query,
before any node is built.
"""

from __future__ import annotations

import functools
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, TooManyAtomsError, UndefinedBitError
from .terms import Name, token_pattern, tokenize

ATOM_CAP = 24


@dataclass(frozen=True)
class BoolFormula:
    pass


@dataclass(frozen=True)
class Top(BoolFormula):
    pass


@dataclass(frozen=True)
class Bot(BoolFormula):
    pass


@dataclass(frozen=True)
class Atom(BoolFormula):
    name: Name
    index: int


@dataclass(frozen=True)
class Not(BoolFormula):
    arg: BoolFormula


@dataclass(frozen=True)
class And(BoolFormula):
    left: BoolFormula
    right: BoolFormula


@dataclass(frozen=True)
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
    """The (name, index) atoms of b: a fresh set, or while a shared manager
    is open a frozenset from its identity memo."""
    bdd = _OPEN.get()
    return set(_walk_atoms(b)) if bdd is None else bdd.atoms(b)


def _walk_atoms(*fs):
    """The atoms of `fs` in the order a left-to-right depth-first walk of
    them first meets each, as a dict from atom to its position in that
    order."""
    order = {}
    stack = list(reversed(fs))
    while stack:
        b = stack.pop()
        if isinstance(b, Atom):
            order.setdefault((b.name, b.index), len(order))
        elif isinstance(b, Not):
            stack.append(b.arg)
        elif isinstance(b, (And, Or)):
            stack.append(b.right)
            stack.append(b.left)
    return order


def formula_names(b):
    return {name for name, _ in atoms(b)}


def rename_formula_names(b, mapping):
    """b with the name of each atom renamed through `mapping`."""
    if isinstance(b, Atom):
        new = mapping.get(b.name)
        return Atom(new, b.index) if new is not None else b
    if isinstance(b, Not):
        return Not(rename_formula_names(b.arg, mapping))
    if isinstance(b, (And, Or)):
        left = rename_formula_names(b.left, mapping)
        return type(b)(left, rename_formula_names(b.right, mapping))
    return b


def eval_formula(b, valuation):
    """Evaluate under a finite map (Name, index) -> bit; missing bits error."""
    if isinstance(b, Top):
        return True
    if isinstance(b, Bot):
        return False
    if isinstance(b, Atom):
        key = (b.name, b.index)
        if key not in valuation:
            raise UndefinedBitError(f"no bit for ({b.name}, {b.index})")
        return valuation[key] == 1
    if isinstance(b, Not):
        return not eval_formula(b.arg, valuation)
    if isinstance(b, And):
        return eval_formula(b.left, valuation) and eval_formula(b.right, valuation)
    if isinstance(b, Or):
        return eval_formula(b.left, valuation) or eval_formula(b.right, valuation)
    raise TypeError(b)


def _check_cap(count):
    if count > ATOM_CAP:
        raise TooManyAtomsError(f"{count} atoms exceeds the cap of {ATOM_CAP}")


class _BDD:
    """A reduced ordered BDD manager over the atom levels `var_level`.

    Nodes are ints: 0 and 1 are the terminals, every other node is an index
    into the parallel `_level`/`_low`/`_high` lists.  The unique table keeps
    the diagram reduced, so two formulas compiled by one manager denote the
    same function iff they compile to the same node.  `conj` and `disj` are Bryant's apply, each
    with its own memo; `implies` reads `u <= v` from both diagrams and
    builds no node.  A manager made for one query orders its atoms by their
    first appearance in its operands (`_walk_atoms`), which depends on the
    operands alone; `_SharedBDD` lets atoms join as they are met.  Each
    diagram is canonical for its manager's order, so no answer depends on
    which order that is.
    """

    def __init__(self, var_level):
        self._var_level = var_level
        # the operations return before they would read a terminal's level
        self._level = [None, None]
        self._low = [0, 1]
        self._high = [0, 1]
        self._unique = {}
        self._not_memo = {}
        self._and_memo = {}
        self._or_memo = {}
        self._implies_memo = {}

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
        if isinstance(b, Top):
            return 1
        if isinstance(b, Bot):
            return 0
        if isinstance(b, Atom):
            return self._node(self._var_level[(b.name, b.index)], 0, 1)
        if isinstance(b, Not):
            return self.neg(self.build(b.arg))
        if isinstance(b, And):
            return self.conj(self.build(b.left), self.build(b.right))
        if isinstance(b, Or):
            return self.disj(self.build(b.left), self.build(b.right))
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


class _Levels(dict):
    """Variable levels of a shared manager: an atom met for the first time
    takes the next level, below every atom met before it."""

    def __missing__(self, atom):
        level = self[atom] = len(self)
        return level


class _SharedBDD(_BDD):
    """The manager of one `_one_manager` call, shared by all its queries.

    Its unique table and its `not`, `and`, `or` and `implies` memos serve
    every query; `build` remembers each compiled formula by identity, and
    `atoms` the atom set of each formula node, subformulas included.  Each
    memo holds the formula itself next to its value, so while the manager
    lives no other formula can take over a remembered `id`."""

    def __init__(self):
        super().__init__(_Levels())
        self._built = {}
        self._atoms = {}

    def build(self, b):
        hit = self._built.get(id(b))
        if hit is None:
            hit = self._built[id(b)] = (b, _BDD.build(self, b))
        return hit[1]

    def atoms(self, b):
        hit = self._atoms.get(id(b))
        if hit is None:
            if isinstance(b, Atom):
                out = frozenset(((b.name, b.index),))
            elif isinstance(b, Not):
                out = self.atoms(b.arg)
            elif isinstance(b, (And, Or)):
                out = self.atoms(b.left) | self.atoms(b.right)
            else:
                out = frozenset()
            hit = self._atoms[id(b)] = (b, out)
        return hit[1]


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


def _manager(*operands):
    """The manager for one query over `operands`: the open shared one, else
    a fresh one ordered by first appearance in them.  The cap applies to the
    query alone, and is checked before any node is built."""
    bdd = _OPEN.get()
    if bdd is None:
        bdd = _BDD(_walk_atoms(*operands))
        _check_cap(len(bdd._var_level))
    else:
        _check_cap(len(frozenset().union(*map(bdd.atoms, operands))))
    return bdd


def measure(b):
    """Exact measure of the event denoted by b, as a Fraction."""
    bdd = _manager(b)
    return bdd.weight(bdd.build(b))


def entails(b, c):
    """True iff every assignment satisfying b satisfies c."""
    bdd = _manager(b, c)
    return bdd.implies(bdd.build(b), bdd.build(c))


def equivalent(b, c):
    bdd = _manager(b, c)
    return bdd.build(b) == bdd.build(c)


def satisfiable(b):
    return _manager(b).build(b) != 0


# ---------------------------------------------------------------------------
# Concrete syntax: T, F, name.index, !b, b & c, b | c, parentheses.


_FORMULA_TOKENS = token_pattern(
    ("sym", r"[()!&|]"),
    ("const", r"[TF](?!\w)"),
    ("atom", r"[a-z][a-zA-Z0-9_'~]*\.[0-9]+"),
)


def parse_formula(text):
    """Parse an event formula; `!` binds tighter than `&`, and `&` tighter
    than `|`.  Each parenthesis level costs one interpreter frame."""
    toks = tokenize(_FORMULA_TOKENS, text)
    i = 0

    def disjunction():
        # negated operands joined by & and |
        nonlocal i
        out = conj = None
        while True:
            start = i
            while toks[i][1] == "!":
                i += 1
            nots = i - start
            kind, val, pos = toks[i]
            i += 1
            if kind == "atom":
                name, _, index = val.partition(".")
                operand = Atom(Name(name), int(index))
            elif kind == "const":
                operand = TOP if val == "T" else BOT
            elif val == "(":
                operand = disjunction()
                if toks[i][1] != ")":
                    raise ParseError("expected ')'", toks[i][2])
                i += 1
            elif kind == "eof":
                raise ParseError("unexpected end of formula", pos)
            else:
                raise ParseError(f"unexpected character {text[pos]!r} in formula", pos)
            for _ in range(nots):
                operand = Not(operand)
            conj = operand if conj is None else And(conj, operand)
            op = toks[i][1]
            if op == "|":
                out = conj if out is None else Or(out, conj)
                conj = None
            elif op != "&":
                return conj if out is None else Or(out, conj)
            i += 1

    out = disjunction()
    kind, _, pos = toks[i]
    if kind != "eof":
        raise ParseError("trailing input in formula", pos)
    return out


def print_formula(b):
    def go(b, prec):
        if isinstance(b, Top):
            return "T"
        if isinstance(b, Bot):
            return "F"
        if isinstance(b, Atom):
            return f"{b.name}.{b.index}"
        if isinstance(b, Not):
            return "!" + go(b.arg, 3)
        if isinstance(b, And):
            s = f"{go(b.left, 2)} & {go(b.right, 3)}"
            return f"({s})" if prec > 2 else s
        if isinstance(b, Or):
            s = f"{go(b.left, 1)} | {go(b.right, 2)}"
            return f"({s})" if prec > 1 else s
        raise TypeError(b)

    return go(b, 0)


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
