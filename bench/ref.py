"""Reference checks that do not use the code under test.

Library objects are read only through their fields (`Var.var`, `App.fun`,
...), never through library functions, so a bug in `alpha_eq`,
`canonical_str`, `measure` or the redex finders cannot hide itself.
"""

import itertools
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# Alpha-invariant keys: lambda variables become de Bruijn indices, names stay


def term_key(t):
    """Key of a library term: equal iff the terms are alpha-equivalent."""
    out = []
    stack = [(t, ())]
    while stack:
        t, env = stack.pop()
        kind = type(t).__name__
        if kind == "Var":
            out.append(f"#{env.index(t.var)}" if t.var in env else f"${t.var}")
        elif kind == "Lam":
            out.append("L")
            stack.append((t.body, (t.var,) + env))
        elif kind == "Nu":
            out.append(f"N{t.name.text}")
            stack.append((t.body, env))
        elif kind == "Choice":
            out.append(f"C{t.name.text}.{t.index}")
            stack.append((t.right, env))
            stack.append((t.left, env))
        elif kind in ("App", "CbvApp"):
            out.append("A" if kind == "App" else "B")
            stack.append((t.arg, env))
            stack.append((t.fun, env))
        elif kind == "Const":
            out.append("K")
        else:
            raise TypeError(kind)
    return " ".join(out)


def tuple_key(t):
    """The same key for a generator term tuple (see gen.py)."""
    out = []
    stack = [(t, ())]
    while stack:
        t, env = stack.pop()
        tag = t[0]
        if tag == "var":
            out.append(f"#{env.index(t[1])}" if t[1] in env else f"${t[1]}")
        elif tag == "lam":
            out.append("L")
            stack.append((t[2], (t[1],) + env))
        elif tag == "nu":
            out.append(f"N{t[1]}")
            stack.append((t[2], env))
        elif tag == "choice":
            out.append(f"C{t[3]}.{t[4]}")
            stack.append((t[2], env))
            stack.append((t[1], env))
        else:
            out.append("A" if tag == "app" else "B")
            stack.append((t[2], env))
            stack.append((t[1], env))
    return " ".join(out)


def term_nodes(t):
    """Node count of a library term."""
    count = 0
    stack = [t]
    while stack:
        t = stack.pop()
        count += 1
        for field in ("body", "fun", "arg", "left", "right"):
            child = getattr(t, field, None)
            if child is not None:
                stack.append(child)
    return count


# ---------------------------------------------------------------------------
# Permutative normalization: the leftmost step count of a plain term tuple
#
# The PE permutative rules of the paper, tried in a fixed order at each
# position, positions in pre-order: the leftmost strategy whose steps
# `lampe.rewrite.pnf` counts.  Lambda variables become de Bruijn indices
# first: no permutative rule moves a variable across a lambda, so the indices
# stay valid and alpha-equality (rule i) is tuple equality.  Names stay
# rigid, as in the library.


def _debruijn(t, scope=()):
    tag = t[0]
    if tag == "var":
        return ("var", scope.index(t[1]))
    if tag == "lam":
        return ("lam", _debruijn(t[2], (t[1],) + scope))
    if tag == "nu":
        return ("nu", t[1], _debruijn(t[2], scope))
    if tag == "choice":
        return ("choice", _debruijn(t[1], scope), _debruijn(t[2], scope), t[3], t[4])
    return ("app", _debruijn(t[1], scope), _debruijn(t[2], scope))


class _Permutative:
    def __init__(self):
        self.memo = {}  # id -> (term, free names); the term keeps the id alive

    def free(self, t):
        hit = self.memo.get(id(t))
        if hit is not None and hit[0] is t:
            return hit[1]
        tag = t[0]
        if tag == "var":
            out = frozenset()
        elif tag == "lam":
            out = self.free(t[1])
        elif tag == "nu":
            out = self.free(t[2]) - {t[1]}
        elif tag == "choice":
            out = self.free(t[1]) | self.free(t[2]) | {t[3]}
        else:
            out = self.free(t[1]) | self.free(t[2])
        self.memo[id(t)] = (t, out)
        return out

    def names(self, t, out):
        tag = t[0]
        if tag == "nu":
            out.add(t[1])
        elif tag == "choice":
            out.add(t[3])
        for child in t[1:]:
            if isinstance(child, tuple):
                self.names(child, out)
        return out

    @staticmethod
    def rename(t, old, new):
        tag = t[0]
        if tag == "var" or (tag == "nu" and t[1] == old):
            return t
        if tag == "lam":
            return ("lam", _Permutative.rename(t[1], old, new))
        if tag == "nu":
            return ("nu", t[1], _Permutative.rename(t[2], old, new))
        if tag == "choice":
            return ("choice", _Permutative.rename(t[1], old, new),
                    _Permutative.rename(t[2], old, new),
                    new if t[3] == old else t[3], t[4])
        return ("app", _Permutative.rename(t[1], old, new), _Permutative.rename(t[2], old, new))

    @staticmethod
    def before(a, i, b, j, env):
        """(a, i) before (b, j): a's binder encloses b's, index order within
        one name.  In a closed term every name is bound, and two names bound
        at one depth are one name."""
        if a == b:
            return i < j
        return env.get(a, -1) < env.get(b, -1)

    def local(self, t, env):
        """The result of the first rule that applies at the root of t."""
        tag = t[0]
        if tag == "choice":
            _, left, right, a, i = t
            if left == right:
                return left  # i
            if left[0] == "choice" and left[3] == a and left[4] == i:
                return ("choice", left[1], right, a, i)  # c1
            if right[0] == "choice" and right[3] == a and right[4] == i:
                return ("choice", left, right[2], a, i)  # c2
            if left[0] == "choice" and self.before(left[3], left[4], a, i, env):
                return ("choice", ("choice", left[1], right, a, i),
                        ("choice", left[2], right, a, i), left[3], left[4])
            if right[0] == "choice" and self.before(right[3], right[4], a, i, env):
                return ("choice", ("choice", left, right[1], a, i),
                        ("choice", left, right[2], a, i), right[3], right[4])
        elif tag == "lam":
            body = t[1]
            if body[0] == "choice":
                return ("choice", ("lam", body[1]), ("lam", body[2]), body[3], body[4])
            if body[0] == "nu":
                return ("nu", body[1], ("lam", body[2]))
        elif tag == "app":
            fun, arg = t[1], t[2]
            if fun[0] == "choice":
                return ("choice", ("app", fun[1], arg), ("app", fun[2], arg), fun[3], fun[4])
            if arg[0] == "choice":
                return ("choice", ("app", fun, arg[1]), ("app", fun, arg[2]), arg[3], arg[4])
            if fun[0] == "nu":
                name, body = fun[1], fun[2]
                if name in self.free(arg):
                    taken = self.names(fun, self.names(arg, set()))
                    k = 1
                    while f"{name}_{k}" in taken:
                        k += 1
                    body = self.rename(body, name, f"{name}_{k}")
                    name = f"{name}_{k}"
                return ("nu", name, ("app", body, arg))
        elif tag == "nu":
            body = t[2]
            if body[0] == "choice" and body[3] != t[1]:
                return ("choice", ("nu", t[1], body[1]), ("nu", t[1], body[2]),
                        body[3], body[4])
            if t[1] not in self.free(body):
                return body
        return None

    def first(self, t, env, depth):
        """t after its leftmost permutative step, or None in normal form."""
        out = self.local(t, env)
        if out is not None:
            return out
        tag = t[0]
        if tag == "lam":
            body = self.first(t[1], env, depth + 1)
            return None if body is None else ("lam", body)
        if tag == "nu":
            inner = dict(env)
            inner[t[1]] = depth
            body = self.first(t[2], inner, depth + 1)
            return None if body is None else ("nu", t[1], body)
        if tag in ("choice", "app"):
            left = self.first(t[1], env, depth + 1)
            if left is not None:
                return (tag, left) + t[2:]
            right = self.first(t[2], env, depth + 1)
            if right is not None:
                return (tag, t[1], right) + t[3:]
        return None


def pnf_steps(t, cap):
    """Steps of the leftmost permutative normalization of the closed plain
    term tuple `t`, or -1 when it needs more than `cap`."""
    rules = _Permutative()
    t = _debruijn(t)
    for steps in range(cap + 1):
        t = rules.first(t, {}, 0)
        if t is None:
            return steps
    return -1


# ---------------------------------------------------------------------------
# Boolean formulas: a truth-table counter over formula tuples


def formula_atoms(b, out=None):
    out = set() if out is None else out
    if b[0] == "atom":
        out.add((b[1], b[2]))
    for child in b[1:]:
        if isinstance(child, tuple):
            formula_atoms(child, out)
    return out


def evaluate(b, val):
    tag = b[0]
    if tag == "atom":
        return val[(b[1], b[2])]
    if tag == "not":
        return not evaluate(b[1], val)
    if tag == "and":
        return evaluate(b[1], val) and evaluate(b[2], val)
    if tag == "or":
        return evaluate(b[1], val) or evaluate(b[2], val)
    return tag == "T"


def truth_table(formulas):
    """Rows of truth values of `formulas` over the union of their atoms,
    with the atom count."""
    atoms = sorted(set().union(*(formula_atoms(b) for b in formulas)))
    rows = []
    for bits in itertools.product((False, True), repeat=len(atoms)):
        val = dict(zip(atoms, bits))
        rows.append(tuple(evaluate(b, val) for b in formulas))
    return rows, len(atoms)


def measure(b):
    rows, n = truth_table([b])
    return Fraction(sum(1 for (v,) in rows if v), 2**n)


def entails(b, c):
    rows, _ = truth_table([b, c])
    return all(vc for vb, vc in rows if vb)


# ---------------------------------------------------------------------------
# Proofs: the cut patterns of the kernel's normalization, read off the tree


def _pivot(p):
    pivot = p.side["pivot"]
    return (pivot.name.text, pivot.index)


def _names(b):
    """Names of a library Boolean formula."""
    kind = type(b).__name__
    if kind == "Atom":
        return {b.name.text}
    if kind == "Not":
        return _names(b.arg)
    if kind in ("And", "Or"):
        return _names(b.left) | _names(b.right)
    return set()


def is_cut(p):
    rules = [q.rule for q in p.premises]
    if p.rule == "imp-e" and (rules[0] in ("imp-i", "m") or rules[1] == "m"):
        return True
    if p.rule == "ce" and (rules[0] in ("ci", "m") or rules[1] == "m"):
        return True
    if p.rule == "imp-i" and rules[0] == "m":
        return True
    if p.rule == "ci" and rules[0] == "m":
        return _pivot(p.premises[0])[0] not in _names(p.side["d"])
    if p.rule == "m":
        left, right = p.premises
        if left == right:
            return True
        return any(q.rule == "m" and _pivot(q) == _pivot(p) for q in p.premises)
    return False


def has_cut(p):
    stack = [p]
    while stack:
        p = stack.pop()
        if is_cut(p):
            return True
        stack.extend(p.premises)
    return False


# ---------------------------------------------------------------------------
# Statistics


def binomial_ok(estimate, mass, samples, sigmas=5):
    """Whether a Monte Carlo estimate lies within `sigmas` standard errors
    of the exact mass (the error computed from the mass, not the sample)."""
    sd = math.sqrt(float(mass * (1 - mass)) / samples)
    return abs(float(estimate - mass)) <= sigmas * sd + 1e-12
