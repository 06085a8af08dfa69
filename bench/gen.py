"""Seeded input generators owned by the benchmark.

Every generator takes a `random.Random` and returns plain text or JSON-ready
dicts, so that the library only ever sees generated inputs through its own
parsers (`parse_term`, `parse_formula`, `proof_from_json`,
`derivation_from_json`).  Terms and formulas are also returned as nested
tuples, which the reference checks in `ref.py` read without the library.

Term tuples:    ("var", x) | ("lam", x, body) | ("app", f, a)
                | ("choice", left, right, name, index) | ("nu", name, body)
                | ("cbv", f, a)  (the CbV application {f} a, in expected
                                  proof terms only)
Formula tuples: ("T",) | ("F",) | ("atom", name, index) | ("not", b)
                | ("and", b, c) | ("or", b, c)
"""

from fractions import Fraction

import ref

IDENTITY = ("lam", "x", ("var", "x"))
_W = ("lam", "w", ("app", ("var", "w"), ("var", "w")))
OMEGA = ("app", _W, _W)


# ---------------------------------------------------------------------------
# Printers (fully parenthesised, so no precedence rule of the library matters)


def term_text(t):
    tag = t[0]
    if tag == "var":
        return t[1]
    if tag == "lam":
        return f"(\\{t[1]}. {term_text(t[2])})"
    if tag == "app":
        return f"({term_text(t[1])} {term_text(t[2])})"
    if tag == "choice":
        return f"({term_text(t[1])} (+{t[3]}.{t[4]}) {term_text(t[2])})"
    if tag == "nu":
        return f"(nu {t[1]}. {term_text(t[2])})"
    raise ValueError(t)


def formula_text(b):
    tag = b[0]
    if tag in ("T", "F"):
        return tag
    if tag == "atom":
        return f"{b[1]}.{b[2]}"
    if tag == "not":
        return f"!({formula_text(b[1])})"
    op = " & " if tag == "and" else " | "
    return f"({formula_text(b[1])}{op}{formula_text(b[2])})"


# ---------------------------------------------------------------------------
# rewrite: random closed plain terms (the traffic of acceptance criterion 6)


def plain_term(rng, size):
    """A closed plain term of about `size` nodes.  Generator binders get
    names unique to the term, so no binder shadows another."""
    tag = rng.randrange(10**6)
    counter = [0]

    def go(size, names, scope):
        if size <= 1:
            if scope and rng.random() < 0.8:
                return ("var", rng.choice(scope))
            return IDENTITY
        kinds = ["lam", "app", "choice", "nu"]
        if names:
            kinds.append("choice")
        kind = rng.choice(kinds)
        if kind == "lam":
            v = f"v{len(scope)}"
            return ("lam", v, go(size - 1, names, scope + [v]))
        if kind in ("app", "choice") and (kind == "app" or names):
            left = size // 2
            a = go(left, names, scope)
            b = go(size - 1 - left, names, scope)
            if kind == "app":
                return ("app", a, b)
            return ("choice", a, b, rng.choice(names), rng.randrange(3))
        counter[0] += 1
        fresh = f"n{tag}_{counter[0]}"
        return ("nu", fresh, go(size - 1, names + [fresh], scope))

    return go(size, [], [])


def affine_term(rng, size):
    """A closed term whose lambda variables occur at most once, so full
    reduction terminates (the local-join traffic of criterion 6)."""
    tag = rng.randrange(10**6)
    counter = [0]

    def fresh(prefix):
        counter[0] += 1
        return f"{prefix}{tag}_{counter[0]}"

    def go(size, names, scope):
        if size <= 1 or (scope and rng.random() < 0.25):
            if scope:
                v = rng.choice(scope)
                scope.remove(v)
                return ("var", v)
            return IDENTITY
        kind = rng.choice(["lam", "app", "choice", "nu", "app"])
        if kind == "lam":
            v = fresh("u")
            scope.append(v)
            return ("lam", v, go(size - 1, names, scope))
        if kind == "app" or (kind == "choice" and names):
            left = size // 2
            a = go(left, names, scope)
            b = go(size - 1 - left, names, scope)
            if kind == "app":
                return ("app", a, b)
            return ("choice", a, b, rng.choice(names), rng.randrange(2))
        name = fresh("m")
        return ("nu", name, go(size - 1, names + [name], scope))

    return go(size, [], [])


# ---------------------------------------------------------------------------
# oracle: random Boolean formulas with an exact atom count

ATOM_NAMES = ("p", "q", "r", "s", "t", "u")
ATOM_INDICES = 5  # 6 names x 5 indices = 30 atoms, enough to pass ATOM_CAP


def _negation_normal(b, negate):
    tag = b[0]
    if tag == "atom":
        return ("not", b) if negate else b
    if tag == "not":
        return _negation_normal(b[1], not negate)
    if tag in ("and", "or"):
        if negate:
            tag = "or" if tag == "and" else "and"
        return (tag, _negation_normal(b[1], negate), _negation_normal(b[2], negate))
    raise ValueError(b)


def cnf_formula(rng, atom_list, clauses):
    """A random 3-CNF with `clauses` clauses that mentions every atom of
    `atom_list`.  Its truth-table cost and measure vary little from draw to
    draw, unlike those of a formula of random shape."""
    slots = list(atom_list)
    rng.shuffle(slots)
    slots += [rng.choice(atom_list) for _ in range(3 * clauses - len(slots))]
    out = None
    for k in range(clauses):
        clause = None
        for n, i in slots[3 * k : 3 * k + 3]:
            lit = ("atom", n, i) if rng.random() < 0.5 else ("not", ("atom", n, i))
            clause = lit if clause is None else ("or", clause, lit)
        out = clause if out is None else ("and", out, clause)
    return out


def oracle_pair(rng, n_atoms, equivalent):
    """(b, c) over exactly `n_atoms` atoms, b a 3-CNF with as many clauses
    as atoms: c is b rewritten by De Morgan (so equivalent to b) or
    c = b | r for a smaller CNF r (so entailed by b)."""
    pool = [(n, i) for n in ATOM_NAMES for i in range(ATOM_INDICES)]
    atom_list = rng.sample(pool, n_atoms)
    b = cnf_formula(rng, atom_list, n_atoms)
    if equivalent:
        return b, ("not", _negation_normal(b, True))
    r = cnf_formula(rng, rng.sample(atom_list, max(1, n_atoms // 3)), max(1, n_atoms // 3))
    return b, ("or", b, r)


# ---------------------------------------------------------------------------
# kernel: proofs built forward, rule first, formula derived from the premises

_PROPS = ("A", "B", "C")
_QS = (Fraction(1, 2), Fraction(1, 4), Fraction(1))


def _proof_formula(rng, depth):
    roll = rng.random()
    if depth > 0 and roll < 0.4:
        return ("imp", _proof_formula(rng, depth - 1), _proof_formula(rng, depth - 1))
    if depth > 0 and roll < 0.6:
        return ("count", rng.choice(_QS), _proof_formula(rng, depth - 1))
    return ("prop", rng.choice(_PROPS))


def proof_formula_text(a):
    if a[0] == "prop":
        return a[1]
    if a[0] == "count":
        return f"C[{a[1].numerator}/{a[1].denominator}] ({proof_formula_text(a[2])})"
    return f"({proof_formula_text(a[1])}) -> ({proof_formula_text(a[2])})"


def proof_skeleton(rng, ctx, size):
    """(node, formula): a proof of about `size` rule applications, with no
    constraints yet.  Each node picks its rule first; its formula follows
    from the premises, so no search or backtracking is needed.  Nodes:
    ("id", i) | ("imp-i", A, body) | ("imp-e", fun, arg) | ("ci", q, body)
    | ("ce", major, minor) | ("m", left, right)."""
    if size <= 1:
        if ctx:
            i = rng.randrange(len(ctx))
            return ("id", i), ctx[i]
        a = _proof_formula(rng, 1)
        return ("imp-i", a, ("id", 0)), ("imp", a, a)
    rule = rng.choice(("imp-i", "imp-i", "ci", "m", "m", "imp-e", "ce"))
    half = (size - 1) // 2
    if rule == "imp-i":
        a = _proof_formula(rng, 1)
        body, f = proof_skeleton(rng, ctx + (a,), size - 1)
        return ("imp-i", a, body), ("imp", a, f)
    if rule == "ci":
        q = rng.choice(_QS)
        body, f = proof_skeleton(rng, ctx, size - 1)
        return ("ci", q, body), ("count", q, f)
    if rule == "m":
        left, f = proof_skeleton(rng, ctx, half)
        right = left
        if rng.random() < 0.5:
            # the same proof behind a beta cut
            right = ("imp-e", ("imp-i", f, ("id", len(ctx))), left)
        return ("m", left, right), f
    if rule == "imp-e":
        arg, a = proof_skeleton(rng, ctx, half)
        body, f = proof_skeleton(rng, ctx + (a,), size - 1 - half)
        fun = ("imp-i", a, body)
        if rng.random() < 0.3:
            fun = ("m", fun, fun)
        return ("imp-e", fun, arg), f
    q = rng.choice(_QS)
    inner, a = proof_skeleton(rng, ctx, half)
    major = ("ci", q, inner)
    if rng.random() < 0.3:
        major = ("m", major, major)
    minor, f = proof_skeleton(rng, ctx + (a,), size - 1 - half)
    return ("ce", major, minor), ("count", q, f)


def count_cuts(node):
    """Rules of a skeleton that can head a cut: imp-e, ce and m."""
    own = 1 if node[0] in ("imp-e", "ce", "m") else 0
    return own + sum(count_cuts(child) for child in node[1:]
                     if isinstance(child, tuple) and child[0] in _RULES)


_RULES = ("id", "imp-i", "imp-e", "ci", "ce", "m")


def _local_constraint(q, name):
    """A one-name formula of measure exactly q."""
    a0, a1 = ("atom", name, 0), ("atom", name, 1)
    if q == 1:
        return ("or", a0, ("not", a0))
    if q == Fraction(1, 2):
        return a0
    return ("and", a0, a1)


def proof_json(skeleton, tag):
    """Instantiate a skeleton as a closed proof under the constraint T: each
    m and ci node gets a fresh name.  Returns (proof JSON, the proof term
    the translation must give, as a term tuple)."""
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"g{tag}_{counter[0]}"

    def go(node, ctx, c):
        rule = node[0]
        side = {}
        if rule == "id":
            premises, f = [], ctx[node[1]]
            side["index"] = node[1]
            term = ("var", f"x{node[1]}")
        elif rule == "imp-i":
            body, g, bt = go(node[2], ctx + (node[1],), c)
            premises, f = [body], ("imp", node[1], g)
            term = ("lam", f"x{len(ctx)}", bt)
        elif rule == "imp-e":
            fun, ff, funt = go(node[1], ctx, c)
            arg, _, argt = go(node[2], ctx, c)
            premises, f = [fun, arg], ff[2]
            term = ("app", funt, argt)
        elif rule == "ci":
            name = fresh()
            d = _local_constraint(node[1], name)
            body, g, bt = go(node[2], ctx, ("and", c, d))
            premises, f = [body], ("count", node[1], g)
            side["d"] = formula_text(d)
            term = ("nu", name, bt)
        elif rule == "ce":
            major, mf, majort = go(node[1], ctx, c)
            minor, g, minort = go(node[2], ctx + (mf[2],), c)
            premises, f = [major, minor], ("count", mf[1], g)
            term = ("cbv", ("lam", f"x{len(ctx)}", minort), majort)
        else:
            name = fresh()
            pivot = ("atom", name, 0)
            left, f, lt = go(node[1], ctx, ("and", c, pivot))
            right, _, rt = go(node[2], ctx, ("and", c, ("not", pivot)))
            premises = [left, right]
            side["pivot"] = f"{name}.0"
            term = ("choice", lt, rt, name, 0)
        obj = {
            "rule": rule,
            "sequent": {
                "ctx": [proof_formula_text(a) for a in ctx],
                "constraint": formula_text(c),
                "formula": proof_formula_text(f),
            },
            "side": side,
            "premises": premises,
        }
        return obj, f, term

    proof, _, term = go(skeleton, (), ("T",))
    return proof, term


def mu_star_premise(rng, tag, n_atoms):
    """An INT typing of the identity under a random CNF constraint over
    `n_atoms` atoms of two names, for `apply_mu_star`: (derivation JSON,
    constraint tuple)."""
    names = [f"h{tag}_{k}" for k in range(2)]
    pool = [(n, i) for n in names for i in range(3)]
    b = ("F",)
    while ref.measure(b) == 0:  # apply_mu_star needs a satisfiable constraint
        b = cnf_formula(rng, rng.sample(pool, n_atoms), n_atoms - 1)
    names_json = sorted(names)
    c = formula_text(b)
    premise = {
        "rule": "id-sub",
        "judgement": {"ctx": [["z", "[C[1] o]"]], "names": names_json,
                      "term": "z", "constraint": c, "type": "C[1] o"},
    }
    root = {
        "rule": "lam",
        "judgement": {"ctx": [], "names": names_json, "term": "\\z. z",
                      "constraint": c, "type": "C[1] ([C[1] o] => o)"},
        "premises": [premise],
    }
    return root, b


# ---------------------------------------------------------------------------
# termination: closed families with closed-form masses


def _church(n, s, z):
    body = ("var", z)
    for _ in range(n):
        body = ("app", ("var", s), body)
    return ("lam", s, ("lam", z, body))


def termination_term(rng, family, n):
    """(term, exact hnv mass = exact nf mass) for the family at size n.
    Names are drawn from the seed; so is the branch order of each choice,
    which does not change the mass because every bit is fair."""
    s, z, y, x = rng.sample(["s", "z", "y", "x", "k", "f", "g", "h"], 4)
    a, b = rng.sample(["a", "b", "c", "d", "e"], 2)

    def coin(keep, drop):
        # keep with probability 1/2, drop otherwise
        if rng.random() < 0.5:
            return ("choice", keep, drop, a, 0)
        return ("choice", drop, keep, a, 0)

    num = _church(n, s, z)
    if family in ("coin_iter", "half_plus"):
        # f^n(I) with f = \y. nu a. y (+a.0) OMEGA: every round keeps 1/2
        f = ("lam", y, ("nu", a, coin(("var", y), OMEGA)))
        term, mass = ("app", ("app", num, f), IDENTITY), Fraction(1, 2**n)
        if family == "coin_iter":
            return term, mass
        # half_plus: a fair pick between I and the coin iteration
        sides = [IDENTITY, term]
        rng.shuffle(sides)
        return ("nu", b, ("choice", sides[0], sides[1], b, 0)), (1 + mass) / 2
    # pick_arg: n rounds of "x or I" starting from OMEGA
    g = ("lam", x, ("nu", a, coin(("var", x), IDENTITY)))
    f = ("lam", y, ("app", g, ("var", y)))
    return ("app", ("app", num, f), OMEGA), 1 - Fraction(1, 2**n)
