"""Constructive subject reduction for the CbV system: given a checked
derivation and a one-step reduction of its subject, rebuild a checked
derivation of the reduct with the identical judgement.

Every reduct is taken from `rewrite.apply_rule_at`, the one table of rewrite
rules; the handlers here only type it.  Beta steps go through the
substitution-lemma construction.  A permutation case has one of two shapes:
a choice permutation is a pivot split (`_split`), which types each branch of
the reduct under the constraint conjoined with that branch's pivot literal,
resolving the rearranged choices the same way on both sides; a generator
permutation is a generator lift (`_lift_nu`), which re-associates each
counting leaf of the generator's typing with its neighbour and puts one
counting node over the result.  Disjunction nodes are peeled into their
leaves and reassembled around the transformed pieces.  The handlers test no
node's rule: `transport_subject_reduction` checks the derivation first, and
the CbV checker types each term former by exactly one rule, so the subject
that `apply_rule_at` matched fixes the rule of every node a handler reads.

The structural rewrites that keep every node's rule (adding names, renaming a
context variable, renaming generator names) are labelling functions handed
to `typesys.relabel`, the one rebuild walk over derivations and proofs; term
names are renamed by `terms.rename_names`.  `ctx_weaken` and
`weaken_constraint` rewrite premises, not labels, and stay separate.
"""

from __future__ import annotations

from .errors import NotPnfError, UnsupportedStepError
from .formulas import And, Atom, Not, _one_manager, rename_formula_names
from .rewrite import apply_rule_at
from .terms import (
    Nu,
    Var,
    alpha_eq,
    bound_names,
    copy_variant_name,
    count_free_occurrences,
    rename_names,
    substitute,
    substitute_indexed,
)
from .typesys import (
    CBV,
    Arrow,
    Counted,
    Judgement,
    TypingDerivation,
    _get_scale,
    check_derivation,
    relabel,
    same_judgement,
    strip_prefix,
    wrap_prefix,
)


def _unsupported(msg):
    raise UnsupportedStepError(msg)


def or_leaves(d):
    """Non-disjunction leaves of the top layer of disjunction nodes."""
    if d.rule == "or":
        out = []
        for p in d.premises:
            out.extend(or_leaves(p))
        return out
    return [d]


def _or(premises, judgement):
    return TypingDerivation("or", judgement, tuple(premises), {})


def _node(rule, judgement, premises, side=None):
    return TypingDerivation(rule, judgement, tuple(premises), side or {})


def _with(j, term=None, constraint=None, type_=None, ctx=None, names=None):
    return Judgement(
        j.ctx if ctx is None else ctx,
        j.names if names is None else names,
        j.term if term is None else term,
        j.constraint if constraint is None else constraint,
        j.type if type_ is None else type_,
    )


# ---------------------------------------------------------------------------
# Structural weakenings


def weaken_constraint(d, new_constraint):
    """Strengthen the conclusion constraint (single-premise disjunction)."""
    return _or([d], _with(d.judgement, constraint=new_constraint))


def names_weaken(d, extra):
    """Add names to every judgement name set."""
    extra = frozenset(extra)
    if not extra:
        return d

    def label(d):
        j = d.judgement
        if isinstance(j.term, Nu) and d.rule in ("mu", "mu-prime", "mu-sigma"):
            if j.term.name in extra:
                _unsupported(f"name weakening collides with bound name {j.term.name}")
        return _with(j, names=j.names | extra), d.side

    return relabel(d, label)


def rename_derivation_var(d, old, new):
    """Rename a context variable throughout a derivation."""

    def label(d):
        j = d.judgement
        ctx = tuple((new if x == old else x, a) for x, a in j.ctx)
        return _with(j, term=substitute(j.term, old, Var(new)), ctx=ctx), d.side

    return relabel(d, label)


def _fresh_var(x, taken):
    """x with primes appended until it is not in `taken`."""
    while x in taken:
        x += "'"
    return x


def ctx_weaken(d, pairs):
    """Add unused declarations to every context, renaming inner binders on
    collision."""
    if not pairs:
        return d
    new_vars = {x for x, _ in pairs}

    def go(d):
        for x, _ in d.judgement.ctx:
            if x in new_vars:
                _unsupported(f"context weakening collides with {x}")
        premises = []
        for p in d.premises:
            clash = [x for x, _ in p.judgement.ctx if x in new_vars
                     and x not in {y for y, _ in d.judgement.ctx}]
            for x in clash:
                taken = {y for y, _ in p.judgement.ctx} | new_vars
                p = rename_derivation_var(p, x, _fresh_var(x, taken))
            premises.append(go(p))
        return TypingDerivation(
            d.rule,
            _with(d.judgement, ctx=d.judgement.ctx + tuple(pairs)),
            tuple(premises),
            d.side,
        )

    return go(d)


# ---------------------------------------------------------------------------
# The substitution lemma as a derivation transformation


def rename_derivation_names(d, mapping):
    """Wholesale renaming of generator names in subjects, name sets, side
    formulas and constraints of a derivation."""

    def label(d):
        j = d.judgement
        side = d.side
        if "d" in side:
            side = {**side, "d": rename_formula_names(side["d"], mapping)}
        return Judgement(
            j.ctx,
            frozenset(mapping.get(n, n) for n in j.names),
            rename_names(j.term, mapping, lambda n: mapping.get(n, n)),
            rename_formula_names(j.constraint, mapping),
            j.type,
        ), side

    return relabel(d, label)


def subst_typing(d, x, arg_derivation):
    """Given d typing t (with x declared) and a derivation of u, build the
    derivation of t[u/x] whose every node conjoins the argument constraint.
    Occurrences of x are numbered in subject order so duplicated generator
    scopes get the same variant names as term-level substitution."""
    du = arg_derivation.judgement.constraint
    u = arg_derivation.judgement.term
    base_ctx_vars = {y for y, _ in arg_derivation.judgement.ctx}
    base_names = arg_derivation.judgement.names
    u_binders = bound_names(u)
    duplicating = bool(
        count_free_occurrences(d.judgement.term, x) > 1 and u_binders
    )

    def count(t):
        return count_free_occurrences(t, x)

    def premise_offsets(d, offset):
        """Occurrence offset for each premise, following the subject layout."""
        t = d.judgement.term
        if d.rule == "plus-r":
            return [offset + count(t.left)]
        if d.rule in ("app", "cbv"):
            return [offset, offset + count(t.fun)]
        return [offset] * len(d.premises)

    def go(d, offset):
        j = d.judgement
        new_ctx = tuple((y, a) for y, a in j.ctx if y != x)
        new_constraint = And(j.constraint, du)
        new_term = substitute_indexed(j.term, x, u, offset, duplicating)
        new_j = _with(j, term=new_term, constraint=new_constraint, ctx=new_ctx)
        if d.rule == "id":
            if j.term.var == x:
                copy_index = offset + 1
                plug = arg_derivation
                if duplicating and copy_index > 1:
                    mapping = {
                        n: copy_variant_name(n, copy_index) for n in u_binders
                    }
                    plug = rename_derivation_names(plug, mapping)
                extra = [(y, a) for y, a in new_ctx if y not in base_ctx_vars]
                plugged = names_weaken(
                    ctx_weaken(plug, extra), j.names - base_names
                )
                return _or([plugged], new_j)
            return _node("id", new_j, ())
        offsets = premise_offsets(d, offset)
        return _node(
            d.rule,
            new_j,
            [go(p, off) for p, off in zip(d.premises, offsets)],
            d.side,
        )

    return go(d, 0)


# ---------------------------------------------------------------------------
# Harvesting typed pieces out of choice / generator typings


def branch_typings(d, want_left):
    """Sub-derivations typing the chosen branch of a choice subject, whose
    constraints jointly cover the subject constraint under the pivot literal."""
    keep = "plus-l" if want_left else "plus-r"
    return [
        leaf.premises[0]
        for leaf in or_leaves(d)
        if leaf.rule == keep
    ]


def _chosen(d, left, term, constraint):
    """The typings of the chosen branch of d's choice subject, joined into a
    typing of `term` under `constraint`."""
    return _or(
        branch_typings(d, left), _with(d.judgement, term=term, constraint=constraint)
    )


def _binder(d):
    """The variable that the premise of the lam node d declares."""
    outer = {z for z, _ in d.judgement.ctx}
    return [y for y, _ in d.premises[0].judgement.ctx if y not in outer][0]


# ---------------------------------------------------------------------------
# Root-step transformations: the reduct `after` comes from rewrite's rule
# table, and each handler types it from the pieces of the old derivation.


def _transport_root(d, rule, mode):
    handler = _ROOT_HANDLERS.get(rule)
    if handler is None:
        _unsupported(f"no transport case for rule {rule}")
    j = d.judgement
    return handler(d, j, _reapply(j.term, rule, (), mode))


def _split(j, after, piece):
    """Type the choice `after` by splitting j's constraint on its pivot.  On
    each side bv is the constraint conjoined with that side's pivot literal,
    and piece(bv, left) types the branch of `after` that bv selects."""
    x = Atom(after.name, after.index)
    sides = []
    for left, literal in ((True, x), (False, Not(x))):
        bv = And(j.constraint, literal)
        sides.append(
            _node(
                "plus-l" if left else "plus-r",
                _with(j, term=after, constraint=bv),
                [piece(bv, left)],
            )
        )
    return _or(sides, _with(j, term=after))


def _root_beta(d, j, after):
    dfun, darg = d.premises
    pieces = []
    for lf in or_leaves(dfun):
        binder = _binder(lf)
        for la in or_leaves(darg):
            pieces.append(subst_typing(lf.premises[0], binder, la))
    return _or(pieces, _with(j, term=after))


def _root_idem(d, j, after):
    # t (+a.i) t ~> t
    return _or(
        branch_typings(d, True) + branch_typings(d, False), _with(j, term=after)
    )


def _root_same_pivot(d, j, after, nested_left):
    # c1: (l (+a.i) m) (+a.i) r ~> l (+a.i) r
    # c2: l (+a.i) (m (+a.i) r) ~> l (+a.i) r
    def piece(bv, left):
        cores = branch_typings(d, left)
        if left == nested_left:
            cores = [c for br in cores for c in branch_typings(br, left)]
        branch = after.left if left else after.right
        return _or(cores, _with(j, term=branch, constraint=bv))

    return _split(j, after, piece)


def _root_plus_lam(d, j, after):
    # \x. (l (+a.i) r) ~> (\x. l) (+a.i) (\x. r)
    body_deriv = d.premises[0]
    pb = body_deriv.judgement

    def piece(bv, left):
        core = _chosen(body_deriv, left, pb.term.left if left else pb.term.right, bv)
        lam = after.left if left else after.right
        return _node("lam", _with(j, term=lam, constraint=bv), [core])

    return _split(j, after, piece)


def _root_plus_app(d, j, after, fun_side):
    """The four choice-past-application permutations."""
    dfun, darg = d.premises
    choice_deriv, other_deriv = (dfun, darg) if fun_side else (darg, dfun)

    def piece(bv, left):
        app = after.left if left else after.right
        core = _chosen(choice_deriv, left, app.fun if fun_side else app.arg, bv)
        partner = weaken_constraint(other_deriv, bv)
        premises = [core, partner] if fun_side else [partner, core]
        return _node(d.rule, _with(j, term=app, constraint=bv), premises, d.side)

    return _split(j, after, piece)


def _root_plus_plus(d, j, after, left_nested):
    """Reordering of two stacked choices with ordered pivots: the pivot of
    the nested choice ends up outermost."""
    t = j.term
    nested, shared = (t.left, t.right) if left_nested else (t.right, t.left)

    def outer(bv_outer, wa):
        mid = after.left if wa else after.right

        def inner(bv, wb):
            # which original subterm does this assignment select?
            if wb == left_nested:
                cores = [
                    c
                    for br in branch_typings(d, left_nested)
                    for c in branch_typings(br, wa)
                ]
                target = nested.left if wa else nested.right
            else:
                cores = branch_typings(d, not left_nested)
                target = shared
            if not alpha_eq(mid.left if wb else mid.right, target):
                _unsupported("pivot selection mismatch in choice reordering")
            return _or(cores, _with(j, term=target, constraint=bv))

        return _split(_with(j, constraint=bv_outer), mid, inner)

    return _split(j, after, outer)


def _root_plus_nu(d, j, after):
    # nu b. (l (+a.i) r) ~> (nu b. l) (+a.i) (nu b. r)
    inner = d.premises[0]
    dloc, q = d.side["d"], d.side["q"]

    def piece(bv, left):
        nu = after.left if left else after.right
        core = _chosen(inner, left, nu.body, And(bv, dloc))
        return _node(
            "mu", _with(j, term=nu, constraint=bv), [core], {"d": dloc, "q": q}
        )

    return _split(j, after, piece)


def _lift_nu(j, after, gen, body):
    """Type the generator `after` from the counting leaves of `gen`, the
    typing of the old generator.  For each leaf, body(leaf) gives the typing
    of `after`'s body and the constraint, exponent and side data of the
    counting node over it."""
    pieces = []
    for leaf in or_leaves(gen):
        premise, constraint, q, side = body(leaf)
        ty = Counted(q, premise.judgement.type)
        mu_j = _with(j, term=after, constraint=constraint, type_=ty)
        pieces.append(_node("mu", mu_j, [premise], side))
    return _or(pieces, _with(j, term=after))


def _root_nu_lam(d, j, after):
    # \x. nu b. B ~> nu b. \x. B
    nu_deriv = d.premises[0]
    arg_type = dict(nu_deriv.judgement.ctx)[_binder(d)]

    def body(leaf):
        inner = leaf.premises[0]
        pi = inner.judgement
        qs, body_sigma = strip_prefix(pi.type)
        lam_node = _node(
            "lam",
            Judgement(
                j.ctx,
                pi.names,
                after.body,
                pi.constraint,
                wrap_prefix(qs, Arrow(arg_type, body_sigma)),
            ),
            [inner],
        )
        return lam_node, leaf.judgement.constraint, leaf.side["q"], leaf.side

    return _lift_nu(j, after, nu_deriv, body)


def _root_nu_fun(d, j, after):
    # (nu b. F) w ~> nu b. (F w)
    dfun, darg = d.premises
    # the premises keep the old name: a checked mu premise keeps it out of
    # the name set, which holds the argument's free names, so no capture
    name = j.term.fun.name
    bw = darg.judgement.constraint
    arg_named = names_weaken(darg, {name})

    def body(leaf):
        inner = leaf.premises[0]
        pi = inner.judgement
        ci = leaf.judgement.constraint
        appc = And(And(ci, bw), leaf.side["d"])
        arrow_qs, arrow = strip_prefix(pi.type)
        app_j = Judgement(
            j.ctx, pi.names, after.body, appc, wrap_prefix(arrow_qs, arrow.cod)
        )
        app_node = _node(
            "app",
            app_j,
            [weaken_constraint(inner, appc), weaken_constraint(arg_named, appc)],
        )
        return app_node, And(ci, bw), leaf.side["q"], leaf.side

    return _lift_nu(j, after, dfun, body)


def _root_cbv_nu(d, j, after):
    # {F} (nu b. U) ~> nu b. (F U)
    dfun, darg = d.premises
    # the premises keep the old name: a checked mu premise keeps it out of
    # the name set, which holds the function's free names, so no capture
    name = j.term.arg.name
    q = darg.judgement.type.q * _get_scale(d)
    bf = dfun.judgement.constraint
    fun_named = names_weaken(dfun, {name})
    arrow_qs, arrow = strip_prefix(dfun.judgement.type)

    def body(leaf):
        inner = leaf.premises[0]
        ci = leaf.judgement.constraint
        dloc = leaf.side["d"]
        appc = And(And(bf, ci), dloc)
        app_j = Judgement(
            j.ctx,
            inner.judgement.names,
            after.body,
            appc,
            wrap_prefix(arrow_qs, arrow.cod),
        )
        app_node = _node(
            "app",
            app_j,
            [weaken_constraint(fun_named, appc), weaken_constraint(inner, appc)],
        )
        return app_node, And(bf, ci), q, {"d": dloc, "q": q}

    return _lift_nu(j, after, darg, body)


_ROOT_HANDLERS = {
    "beta": _root_beta,
    "i": _root_idem,
    "c1": lambda d, j, after: _root_same_pivot(d, j, after, True),
    "c2": lambda d, j, after: _root_same_pivot(d, j, after, False),
    "plus-lam": _root_plus_lam,
    "plus-fun": lambda d, j, after: _root_plus_app(d, j, after, True),
    "plus-arg": lambda d, j, after: _root_plus_app(d, j, after, False),
    "cbv-plus-1": lambda d, j, after: _root_plus_app(d, j, after, True),
    "cbv-plus-2": lambda d, j, after: _root_plus_app(d, j, after, False),
    "plus-plus-1": lambda d, j, after: _root_plus_plus(d, j, after, True),
    "plus-plus-2": lambda d, j, after: _root_plus_plus(d, j, after, False),
    "plus-nu": _root_plus_nu,
    "nu-lam": _root_nu_lam,
    "nu-fun": _root_nu_fun,
    "cbv-nu": _root_cbv_nu,
}

# premise index typing the subterm at each child position, per rule
_CHILD_PREMISE = {
    "lam": {0: 0},
    "app": {0: 0, 1: 1},
    "cbv": {0: 0, 1: 1},
    "plus-l": {0: 0},
    "plus-r": {1: 0},
    "mu": {0: 0},
}


def _descend(d, rule, path, mode):
    j = d.judgement
    if d.rule == "or":
        new_premises = [_descend(p, rule, path, mode) for p in d.premises]
        term = (
            new_premises[0].judgement.term
            if new_premises
            else _reapply(j.term, rule, path, mode)
        )
        return _or(new_premises, _with(j, term=term))
    if not path:
        return _transport_root(d, rule, mode)
    child = path[0]
    mapping = _CHILD_PREMISE.get(d.rule, {})
    new_term = _reapply(j.term, rule, path, mode)
    if child not in mapping:
        # untyped branch of a one-sided choice rule: the typing is unaffected
        return TypingDerivation(
            d.rule, _with(j, term=new_term), d.premises, d.side
        )
    idx = mapping[child]
    new_premise = _descend(d.premises[idx], rule, path[1:], mode)
    premises = list(d.premises)
    premises[idx] = new_premise
    return TypingDerivation(
        d.rule, _with(j, term=new_term), tuple(premises), d.side
    )


def _reapply(term, rule, path, mode):
    """Apply the named reduction rule at the path inside `term`."""
    try:
        return apply_rule_at(term, rule, path, mode)
    except NotPnfError as exc:
        _unsupported(exc.message)


@_one_manager
def transport_subject_reduction(d, step, mode="pe-braces"):
    """Rebuild a checked CbV derivation for the reduct of a one-step
    reduction of d's subject, with an identical judgement."""
    j = check_derivation(d, CBV)
    if not alpha_eq(j.term, step.before):
        raise UnsupportedStepError("derivation subject differs from the step")
    result = _descend(d, step.rule, tuple(step.path), mode)
    out_j = check_derivation(result, CBV)
    expected_term = _reapply(j.term, step.rule, tuple(step.path), mode)
    expected = _with(j, term=expected_term)
    if not same_judgement(out_j, expected):
        raise UnsupportedStepError(
            f"transport produced {out_j.format()}, expected {expected.format()}"
        )
    return result
