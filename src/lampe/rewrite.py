"""Reduction relations: beta, the permutative rules, and head reduction.

Two modes: PE (the base calculus) and PE_BRACES (the CbV extension).  The
permutative system of PE_BRACES drops rule (not-nu) and adds the three
CbV-application permutations.

The pair order used by the plus-plus rules at a redex position: (a,i) comes
before (b,j) when a's binder encloses b's binder at that position (free names
count as outermost), with name text order breaking ties between free names,
and index order within one name.

Each rule is written once, in the rule table `_RULES_AT`: one function per
node type lists the (rule, result) pairs that fire at a node of that type,
in rule order, after deciding from the types of the node's children.  The
redex scan dispatches once per node on its type, and `apply_rule_at` (and
through it `transport`) takes its reducts from the same table.

Leftmost-outermost reduction runs one pre-order scan on an explicit stack of
cells, each holding a node and its parent's cell, so a redex comes with its
ancestors.  A step at path p rebuilds those ancestors bottom-up (`_rebuild`,
through `terms._REBUILD`), storing each new ancestor in its cell, and the
scan goes on from the same stack: no node before p in pre-order held a
redex, and the stacked right siblings now hang from the new ancestors.  Only
p's ancestors can have changed, so the scan re-checks them before resuming
at p: the parent in full, since its child at p may have changed type, and
above it only two rules.  Every higher ancestor keeps the types of its
children, and the other rules decide from those types alone: nu-fun and
cbv-nu read the other operand's free names only to rename, so they cannot
start to fire there.  Rule i compares the branches of a choice, so every
choice ancestor is re-checked; not-nu reads the free names of a nu's body,
so a nu ancestor is re-checked (in PE) when the step may have dropped a name
(i, c1, c2, beta).  The first scan of a run checks every ancestor of its
start in full, as nothing is known of them.
`pnf`'s private `_from` path says the term is normal outside one subtree and
its ancestors; the scan then starts at that subtree.
Head steps go through cells too: the walks of the randomized context and of
the head spine below each leaf build cells [node, index, parent] that share
their ancestors, and `_rebuild` contracts a head redex in place, so the
redexes of several branches, rebuilt one after another, compose.
A scan without beta does not enter a subterm whose fact record (`terms`)
says that no choice and no nu occurs in it; a subterm with no record yet is
entered.  This holds for every subterm, whatever its free names and
wherever it sits: each permutative rule fires at a choice (i, c1, c2,
plus-plus) or a nu (plus-nu, not-nu), or at a node with a choice or a nu
child (plus-lam, nu-lam, plus-fun, plus-arg, nu-fun, cbv-nu, cbv-plus), so
a subterm without either holds no permutative redex, in either mode.  Beta
fires at any application of a lambda, so the scans that include beta
(`step`, full `reduce_term`, and `first_step` and `iter_steps` by default)
enter every subterm.
A scan that finds no redex marks the node "normal under this mode" (with or
without beta): one bit of the node's `_normal` attribute, a node fact kept
as `terms` keeps the others and read first by the next scan; names are
ordered by their text, so the fact depends on the node and the mode only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import (
    FuelError,
    ModeViolationError,
    NotPnfError,
    OpenNamesError,
    PreconditionError,
)
from .terms import (
    _HAS_CHOICE_OR_NU,
    _REBUILD,
    App,
    CbvApp,
    Choice,
    Const,
    Lam,
    Name,
    Nu,
    Term,
    Var,
    alpha_eq,
    children,
    contains_cbv,
    free_names,
    fresh_name,
    print_term,
    replace_at,
    rename_bound_name,
    substitute,
    subterm_at,
)

PE = "pe"
PE_BRACES = "pe-braces"

PERM_STEP_CAP = 10**6


@dataclass(frozen=True)
class ReductionStep:
    rule: str
    path: tuple
    before: Term
    after: Term

    def format(self):
        pathtxt = ".".join(str(i) for i in self.path) if self.path else "e"
        return (
            f"{self.rule} @ {pathtxt} : "
            f"{print_term(self.before)} ~> {print_term(self.after)}"
        )

    def to_json(self):
        return {
            "rule": self.rule,
            "path": list(self.path),
            "before": print_term(self.before),
            "after": print_term(self.after),
        }


@dataclass(frozen=True)
class PseudoValue:
    term: Term


@dataclass(frozen=True)
class Generator:
    name: Name
    tree: Term
    support: tuple


@dataclass
class ReduceOutcome:
    term: Term
    trace: list
    exhausted: bool = False


def _check_fuel(fuel):
    if fuel < 0:
        raise PreconditionError("fuel must be >= 0")


def _require_mode(t, mode):
    if mode not in (PE, PE_BRACES):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == PE and contains_cbv(t):
        raise ModeViolationError("CbV application in plain PE mode")


def _pair_before(a, i, b, j, env):
    """The ordering side condition of the plus-plus rules."""
    if a is b:
        return i < j
    da = env.get(a, -1)
    db = env.get(b, -1)
    if da != db:
        return da < db
    return a.text < b.text


def _lift(c, around):
    """The choice c with `around` put around each branch: the reduct of a
    plus rule, which moves a context under a choice."""
    return Choice(around(c.left), around(c.right), c.name, c.index)


def _at_choice(t, env, mode, include_beta, ordered):
    left, right, a, i = t.left, t.right, t.name, t.index
    out = [("i", left)] if alpha_eq(left, right) else []
    split_left = type(left) is Choice
    split_right = type(right) is Choice
    if split_left and left.name is a and left.index == i:
        split_left = False
        out.append(("c1", Choice(left.left, right, a, i)))
    if split_right and right.name is a and right.index == i:
        split_right = False
        out.append(("c2", Choice(left, right.right, a, i)))
    if split_left and (
        not ordered or _pair_before(left.name, left.index, a, i, env)
    ):
        out.append(("plus-plus-1", _lift(left, lambda u: Choice(u, right, a, i))))
    if split_right and (
        not ordered or _pair_before(right.name, right.index, a, i, env)
    ):
        out.append(("plus-plus-2", _lift(right, lambda u: Choice(left, u, a, i))))
    return out


def _at_lam(t, env, mode, include_beta, ordered):
    body = t.body
    if type(body) is Choice:
        return (("plus-lam", _lift(body, lambda u: Lam(t.var, u))),)
    if type(body) is Nu:
        return (("nu-lam", Nu(body.name, Lam(t.var, body.body))),)
    return ()


def _at_app(t, env, mode, include_beta, ordered):
    fun, arg = t.fun, t.arg
    out = []
    if type(fun) is Choice:
        out.append(("plus-fun", _lift(fun, lambda u: App(u, arg))))
    if type(arg) is Choice:
        out.append(("plus-arg", _lift(arg, lambda u: App(fun, u))))
    if type(fun) is Nu:
        nu = fun
        if nu.name in free_names(arg):
            nu = rename_bound_name(nu, fresh_name(nu.name, fun, arg))
        out.append(("nu-fun", Nu(nu.name, App(nu.body, arg))))
    elif include_beta and type(fun) is Lam:
        out.append(("beta", substitute(fun.body, fun.var, arg)))
    return out


def _at_nu(t, env, mode, include_beta, ordered):
    body = t.body
    out = []
    if type(body) is Choice and body.name is not t.name:
        out.append(("plus-nu", _lift(body, lambda u: Nu(t.name, u))))
    if mode == PE and t.name not in free_names(body):
        out.append(("not-nu", body))
    return out


def _at_cbv_app(t, env, mode, include_beta, ordered):
    if mode != PE_BRACES:
        return ()
    fun, arg = t.fun, t.arg
    out = []
    if type(arg) is Nu:
        nu = arg
        if nu.name in free_names(fun):
            nu = rename_bound_name(nu, fresh_name(nu.name, fun, arg))
        out.append(("cbv-nu", Nu(nu.name, App(fun, nu.body))))
    if type(fun) is Choice:
        out.append(("cbv-plus-1", _lift(fun, lambda u: CbvApp(u, arg))))
    if type(arg) is Choice:
        out.append(("cbv-plus-2", _lift(arg, lambda u: CbvApp(fun, u))))
    return out


def _at_leaf(t, env, mode, include_beta, ordered):
    return ()


# `_RULES_AT[type(t)](t, env, mode, include_beta, ordered)` lists the
# (rule, result) pairs that fire at the root of t, in rule order; it is empty
# when none does.  `env` maps the enclosing nu-names to their depths, and
# with `ordered` false the plus-plus rules skip their ordering guard.
_RULES_AT = {
    Choice: _at_choice,
    Lam: _at_lam,
    App: _at_app,
    Nu: _at_nu,
    CbvApp: _at_cbv_app,
    Var: _at_leaf,
    Const: _at_leaf,
}

_LEAVES = frozenset((Var, Const))


# A scan cell is the list [node, index, parent, env, depth]: a node, its
# index among its parent's children, the parent's cell (None at the root),
# the map from its enclosing nu-names to their depths, and its depth.  The
# chain of parent cells is the node's path and holds its ancestors.


def _scan(stack, mode, include_beta):
    """Pre-order (rule, cell, local_result) triples: pop a cell, list the
    rules at its node, stack the cells of its children.  No leaf below the
    root is stacked, and without beta no child whose record says it holds
    no choice and no nu (see the module docstring)."""
    push = stack.append
    while stack:
        cell = stack.pop()
        t, _, _, env, depth = cell
        kind = type(t)
        for rule, result in _RULES_AT[kind](t, env, mode, include_beta, True):
            yield rule, cell, result
        if kind is Lam or kind is Nu:
            if kind is Nu:
                env = {**env, t.name: depth}
            body = t.body
            if type(body) not in _LEAVES and (
                include_beta or (f := body._facts) is None or f[2] & _HAS_CHOICE_OR_NU
            ):
                push([body, 0, cell, env, depth + 1])
        elif kind not in _LEAVES:
            first, second = (t.left, t.right) if kind is Choice else (t.fun, t.arg)
            if type(second) not in _LEAVES and (
                include_beta or (f := second._facts) is None or f[2] & _HAS_CHOICE_OR_NU
            ):
                push([second, 1, cell, env, depth + 1])
            if type(first) not in _LEAVES and (
                include_beta or (f := first._facts) is None or f[2] & _HAS_CHOICE_OR_NU
            ):
                push([first, 0, cell, env, depth + 1])


def _path(cell):
    out = []
    while cell[2] is not None:
        out.append(cell[1])
        cell = cell[2]
    out.reverse()
    return tuple(out)


def _rebuild(cell, after):
    """Put `after` at cell's node and rebuild its ancestors bottom-up, each
    stored in its cell, so the cells that share them hang from the new
    term.  Returns (path, new root)."""
    cell[0] = after
    path = []
    while cell[2] is not None:
        path.append(cell[1])
        parent = cell[2]
        after = parent[0] = _REBUILD[type(parent[0])](parent[0], cell[1], after)
        cell = parent
    path.reverse()
    return tuple(path), after


def _redexes(root, mode, include_beta):
    """Every (rule, path, local_result) triple of root, in pre-order."""
    for rule, cell, result in _scan([[root, None, None, {}, 0]], mode, include_beta):
        yield rule, _path(cell), result


def _first_at(cell, mode, include_beta):
    """The first (rule, cell, local_result) at the node of cell, or None."""
    t = cell[0]
    for rule, result in _RULES_AT[type(t)](t, cell[3], mode, include_beta, True):
        return rule, cell, result
    return None


# The rules whose reduct can lack a free name of the redex: they drop a
# branch or the argument of a substitution.
_DROPS_NAMES = frozenset(("i", "c1", "c2", "beta"))


def _recheck(cell, mode, include_beta, drops_names):
    """The outermost redex, as (rule, cell, local_result), among the
    ancestors of a node just stepped at, or None: the parent in full, and
    above it rule i and, when the step may have dropped a name, not-nu."""
    parent = cell[2]
    if parent is None:
        return None
    found = _first_at(parent, mode, include_beta)
    not_nu = drops_names and mode == PE
    cell = parent[2]
    while cell is not None:
        t = cell[0]
        kind = type(t)
        if kind is Choice:
            if alpha_eq(t.left, t.right):
                found = "i", cell, t.left
        elif kind is Nu and not_nu and t.name not in free_names(t.body):
            found = "not-nu", cell, t.body
        cell = cell[2]
    return found


_NORMAL_BITS = {
    (PE, False): 1,
    (PE, True): 2,
    (PE_BRACES, False): 4,
    (PE_BRACES, True): 8,
}


def _normal_fact(mode, include_beta):
    """The bit of `_normal` that marks a node normal in `mode`."""
    return _NORMAL_BITS[mode, include_beta]


def _mark_normal(t, fact):
    object.__setattr__(t, "_normal", t._normal | fact)


def _lo_steps(t, mode, include_beta, start=()):
    """Leftmost-outermost steps from t, resumed as the module docstring says."""
    fact = _normal_fact(mode, include_beta)
    if t._normal & fact:
        return
    # the first scan checks every ancestor of `start` in full
    cell, found = [t, None, None, {}, 0], None
    for i in start:
        found = _first_at(cell, mode, include_beta)
        if found is not None:
            break
        node, _, _, env, depth = cell
        if type(node) is Nu:
            env = {**env, node.name: depth}
        cell = [children(node)[i], i, cell, env, depth + 1]
    stack = []
    while True:
        if found is None:
            stack.append(cell)
            found = next(_scan(stack, mode, include_beta), None)
            if found is None:
                _mark_normal(t, fact)
                return
        rule, cell, after = found
        # the stacked cells hang from the rebuilt ancestors: resume at p
        path, after = _rebuild(cell, after)
        yield ReductionStep(rule, path, t, after)
        t = after
        if t._normal & fact:
            return
        found = _recheck(cell, mode, include_beta, rule in _DROPS_NAMES)
        if found is not None:
            # the stacked cells below that ancestor belong to its old subtree
            depth = found[1][4]
            while stack and stack[-1][4] > depth:
                stack.pop()


def step(t, mode=PE):
    """All one-step redexes of the full reduction, leftmost-outermost first."""
    _require_mode(t, mode)
    out = []
    for rule, path, result in _redexes(t, mode, include_beta=True):
        out.append(ReductionStep(rule, path, t, replace_at(t, path, result)))
    return out


def iter_steps(t, mode=PE, include_beta=True):
    """Lazy (rule, path, local_result) triples; the reduct of a triple is
    replace_at(t, path, local_result)."""
    _require_mode(t, mode)
    yield from _redexes(t, mode, include_beta)


def first_step(t, mode=PE, include_beta=True):
    _require_mode(t, mode)
    return next(_lo_steps(t, mode, include_beta), None)


def _perm_steps(t, mode, cap, start):
    """The permutative steps to t's PNF; FuelError past `cap` of them."""
    _require_mode(t, mode)
    for n, s in enumerate(_lo_steps(t, mode, False, start)):
        if n == cap:
            raise FuelError(f"permutative normalization exceeded {cap} steps")
        yield s


def pnf(t, mode=PE, cap=PERM_STEP_CAP, _from=()):
    """The unique permutative normal form, with the reduction trace.  With the
    private `_from` path, t must be normal outside its subtree and ancestors."""
    trace = list(_perm_steps(t, mode, cap, _from))
    return (trace[-1].after if trace else t), trace


def pnf_count(t, mode=PE):
    """pnf without the trace: the normal form and the number of steps.  It
    keeps no intermediate term, so memory does not grow with the steps."""
    n = 0
    for s in _perm_steps(t, mode, PERM_STEP_CAP, ()):
        t = s.after
        n += 1
    return t, n


def is_pnf(t, mode=PE):
    return first_step(t, mode, include_beta=False) is None


def classify_pnf(t, mode=PE):
    """Split a name-closed PNF into a pseudo-value or a generator with its
    choice tree and support."""
    _require_closed_pnf(t, mode)
    if not isinstance(t, Nu):
        return PseudoValue(t)
    leaves = tuple(leaf for leaf, _ in _tree_leaves(t.body, t.name))
    return Generator(t.name, t.body, leaves)


def _require_closed_pnf(t, mode):
    if free_names(t):
        raise OpenNamesError(f"free names {sorted(str(n) for n in free_names(t))}")
    if not is_pnf(t, mode):
        raise NotPnfError(print_term(t))


def _tree_leaves(tree, name):
    """Leaves of a generator tree, left to right, each with its depth: the
    bit event reaching a leaf has measure 1/2**depth, as no index repeats
    along a branch of a PNF."""
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if type(node) is Choice and node.name is name:
            stack.append((node.right, depth + 1))
            stack.append((node.left, depth + 1))
        else:
            yield node, depth


# ---------------------------------------------------------------------------
# Head reduction


def _branches(t):
    """The leaves of t's randomized context (the nu/choice prefix), left to
    right, as (cell, splits): splits counts the choices above the leaf, and
    the cells share their ancestors.  An explicit stack, so the interpreter
    stack does not bound the prefix."""
    stack = [([t, None, None], 0)]
    while stack:
        cell, splits = stack.pop()
        t = cell[0]
        kind = type(t)
        if kind is Nu:
            stack.append(([t.body, 0, cell], splits))
        elif kind is Choice:
            stack.append(([t.right, 1, cell], splits + 1))
            stack.append(([t.left, 0, cell], splits + 1))
        else:
            yield cell, splits


def _head_redex(cell, mode):
    """The cell of the head beta redex below a branch leaf's cell, or None;
    nothing is substituted.  The walk follows lambda bodies and application
    heads; in PE_BRACES a CbV application's argument is tried after its
    function.  An explicit stack, so the interpreter stack does not bound
    the spine."""
    braces = mode == PE_BRACES
    todo = [cell]
    while todo:
        cell = todo.pop()
        t = cell[0]
        kind = type(t)
        if kind is Lam:
            todo.append([t.body, 0, cell])
        elif kind is App:
            if type(t.fun) is Lam:
                return cell
            todo.append([t.fun, 0, cell])
        elif braces and kind is CbvApp:
            todo.append([t.arg, 1, cell])
            todo.append([t.fun, 0, cell])
    return None


def _first_head_redex(t, mode):
    """The cell of the leftmost head beta redex in t's branches, or None."""
    found = (_head_redex(cell, mode) for cell, _ in _branches(t))
    return next((cell for cell in found if cell is not None), None)


def _contract(redex):
    """The reduct of a head beta redex."""
    return substitute(redex.fun.body, redex.fun.var, redex.arg)


def _head_steps(t, mode):
    """Head-reduction steps from t: leftmost-outermost permutative steps,
    and a head beta step when there are none.  A head step at p leaves the
    term normal outside p's subtree and ancestors, so the permutative scan
    resumes at p."""
    path = ()
    while True:
        for s in _lo_steps(t, mode, False, path):
            yield s
            t = s.after
        cell = _first_head_redex(t, mode)
        if cell is None:
            return
        path, after = _rebuild(cell, _contract(cell[0]))
        yield ReductionStep("beta", path, t, after)
        t = after


def head_step(t, mode=PE):
    """One head-reduction step: the first permutative redex if any, else the
    leftmost head beta redex through the randomized context."""
    _require_mode(t, mode)
    return next(_head_steps(t, mode), None)


def is_hnv(t, mode=PE):
    """Head normal value: a pseudo-value with no head-reduction step."""
    if isinstance(t, Nu):
        return False
    return is_pnf(t, mode) and _first_head_redex(t, mode) is None


def apply_rule_at(t, rule, path, mode=PE):
    """Apply the named reduction rule at a path; raises if it fails to match.
    The ordering guard of the plus-plus rules is skipped (callers replay
    steps that already fired in context)."""
    sub = subterm_at(t, path)
    for r, result in _RULES_AT[type(sub)](sub, {}, mode, True, False):
        if r == rule:
            return replace_at(t, path, result)
    raise NotPnfError(f"rule {rule} does not apply at path {path}")


def reduce_term(t, mode=PE, strategy="full", fuel=1000):
    """Fuel-bounded driver.  `full` takes the leftmost-outermost redex of the
    full reduction; `head` follows head_step.  A negative fuel is a
    precondition error."""
    _check_fuel(fuel)
    _require_mode(t, mode)
    if strategy not in ("full", "head"):
        raise ValueError(f"unknown strategy {strategy!r}")
    steps = _lo_steps(t, mode, True) if strategy == "full" else _head_steps(t, mode)
    trace = list(islice(steps, fuel))
    t = trace[-1].after if trace else t
    more = len(trace) >= fuel and next(steps, None) is not None
    return ReduceOutcome(t, trace, exhausted=more)
