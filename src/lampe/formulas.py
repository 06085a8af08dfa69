"""Named Boolean formulas and their exact measure on the product Cantor space.

Atoms are (name, index) pairs; each atom is an independent fair bit, so the
measure of a formula is the probability that it holds.  Every query compiles
its operands into a fresh reduced ordered binary decision diagram (Bryant
1986) over the atoms that actually occur, ordered by (name text, index), and
reads the answer off the diagram: the measure is a weighted model count,
entailment and equivalence are node identities.  Queries are guarded by a
hard cap on the number of distinct atoms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, TooManyAtomsError, UndefinedBitError
from .terms import Name

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
    if isinstance(b, Atom):
        return {(b.name, b.index)}
    if isinstance(b, Not):
        return atoms(b.arg)
    if isinstance(b, (And, Or)):
        return atoms(b.left) | atoms(b.right)
    return set()


def formula_names(b):
    return {name for name, _ in atoms(b)}


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


def _check_cap(atom_set):
    if len(atom_set) > ATOM_CAP:
        raise TooManyAtomsError(
            f"{len(atom_set)} atoms exceeds the cap of {ATOM_CAP}"
        )


class _BDD:
    """A reduced ordered BDD private to one query.

    Nodes are ints: 0 and 1 are the terminals, every other node is an index
    into the parallel `_level`/`_low`/`_high` lists.  The unique table keeps
    the diagram reduced, so two formulas over this instance denote the same
    function iff they compile to the same node.  The variable order is
    (name text, index), which does not depend on interning history.
    """

    def __init__(self, atom_set):
        _check_cap(atom_set)
        order = sorted(atom_set, key=lambda ni: (ni[0].text, ni[1]))
        self._var_level = {atom: i for i, atom in enumerate(order)}
        terminal = len(order)  # below every variable
        self._level = [terminal, terminal]
        self._low = [0, 1]
        self._high = [0, 1]
        self._unique = {}
        self._not_memo = {}
        self._and_memo = {}

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
            return self.neg(
                self.conj(self.neg(self.build(b.left)), self.neg(self.build(b.right)))
            )
        raise TypeError(b)

    def weight(self, u):
        """Probability that node u holds, as an exact Fraction.

        The weighted model count runs in integers scaled by 2^n: terminal 1
        counts all 2^n assignments and each inner node halves the sum of its
        children's counts.  A child does not depend on its parent's variable,
        so both counts are even and the halving is exact."""
        n = len(self._var_level)
        memo = {0: 0, 1: 1 << n}

        def count(v):
            r = memo.get(v)
            if r is None:
                r = memo[v] = (count(self._low[v]) + count(self._high[v])) >> 1
            return r

        return Fraction(count(u), 1 << n)


def measure(b):
    """Exact measure of the event denoted by b, as a Fraction."""
    bdd = _BDD(atoms(b))
    return bdd.weight(bdd.build(b))


def entails(b, c):
    """True iff every assignment satisfying b satisfies c."""
    bdd = _BDD(atoms(b) | atoms(c))
    return bdd.conj(bdd.build(b), bdd.neg(bdd.build(c))) == 0


def equivalent(b, c):
    bdd = _BDD(atoms(b) | atoms(c))
    return bdd.build(b) == bdd.build(c)


def satisfiable(b):
    return _BDD(atoms(b)).build(b) != 0


# ---------------------------------------------------------------------------
# Concrete syntax: T, F, name.index, !b, b & c, b | c, parentheses.


def parse_formula(text):
    pos = 0

    def skip_ws(p):
        while p < len(text) and text[p].isspace():
            p += 1
        return p

    def parse_or(p):
        left, p = parse_and(p)
        while True:
            p = skip_ws(p)
            if p < len(text) and text[p] == "|":
                right, p = parse_and(p + 1)
                left = Or(left, right)
            else:
                return left, p

    def parse_and(p):
        left, p = parse_not(p)
        while True:
            p = skip_ws(p)
            if p < len(text) and text[p] == "&":
                right, p = parse_not(p + 1)
                left = And(left, right)
            else:
                return left, p

    def parse_not(p):
        p = skip_ws(p)
        if p < len(text) and text[p] == "!":
            arg, p = parse_not(p + 1)
            return Not(arg), p
        return parse_atom(p)

    def parse_atom(p):
        p = skip_ws(p)
        if p >= len(text):
            raise ParseError("unexpected end of formula", p)
        ch = text[p]
        if ch == "(":
            inner, p = parse_or(p + 1)
            p = skip_ws(p)
            if p >= len(text) or text[p] != ")":
                raise ParseError("expected ')'", p)
            return inner, p + 1
        if ch == "T" and not _ident_continues(p + 1):
            return TOP, p + 1
        if ch == "F" and not _ident_continues(p + 1):
            return BOT, p + 1
        m = re.match(r"([a-z][a-zA-Z0-9_'~]*)\.([0-9]+)", text[p:])
        if m:
            return Atom(Name(m.group(1)), int(m.group(2))), p + m.end()
        raise ParseError(f"unexpected character {ch!r} in formula", p)

    def _ident_continues(p):
        return p < len(text) and (text[p].isalnum() or text[p] == "_")

    out, p = parse_or(0)
    p = skip_ws(p)
    if p != len(text):
        raise ParseError("trailing input in formula", p)
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
