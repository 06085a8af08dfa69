"""Exact value distributions, termination mass functionals, and a seeded
Monte Carlo cross-validator.

The distribution of a name-closed PNF assigns each pseudo-value the exact
measure of the event set leading to it, computed by walking each generator
tree once.  Along a branch of a PNF's nu/choice prefix every choice is on
the nearest enclosing nu's name, and under one nu the indices strictly
increase (rules c1, c2 and plus-plus rewrite any other order), so a leaf k
choices deep in a generator tree has measure 1/2**k.  Each closed leaf of a
generator tree is recorded as normal before it is checked: every name in it
is bound inside it, so the plus-plus order is the same inside the whole
term and alone, and the leaf of a PNF is a PNF.  The PNF check of the
leaf's own `distribution` call and `is_hnv` then skip its scan.  An open
leaf is not recorded, and still raises OpenNamesError.

Each fair round of `hnv_lower_bound` walks the prefix once, through
`rewrite._branches`: a leaf with no head redex adds 1/2**splits to the
head-normal mass, the same sum as `hnv_mass` without building a
distribution, and the others give the cells of the round's head redexes,
left to right.  Only those the fuel lets the round take are contracted,
through `rewrite._rebuild`, as `_segment`'s head steps are.

A run of `hnv_lower_bound` or `nf_mass` that ends exact cut no round or
segment short, so any larger fuel replays it step for step: the argument
node keeps its (value, fuel_used), one slot per functional and mode, and a
later call on the node with fuel > fuel_used answers from it.

`nf_mass`, `sample_run` and the single-branch prefix of `hnv_lower_bound`
share one segment driver, `_segment`: permutative normalization plus head
beta steps, until a generator or a head normal value appears, a head step
reproduces its term, or the fuel limit is passed.  No PNF of a segment but
its last has head-normal mass, so `hnv_lower_bound`'s rounds start there
with best mass 0.

After every run, `_segment` keeps its last PNF on the node it started from
(`_resume`, one slot per mode) as (PNF, before, steps), with the steps taken
before that PNF's pnf and after it.  A segment never truncates a step, so
that state is one of every run with a limit of at least `before`, and such a
call resumes from it.  The slot goes, and is not written again, once each
functional that reads it in that mode holds its exact bound on the node
(`hnv_lower_bound`, and `nf_mass` in PE).

A run of `hnv_lower_bound` that the fuel cuts keeps in its own slot, until
its exact bound is kept, the state after the pnf of its first cut round: a
later call whose fuel covers the steps taken before that pnf replays every
earlier round, and resumes from the state instead.  Only the first cut is
kept: a round truncated to the fuel left is not the round a larger fuel runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ModeViolationError, OpenNamesError, PreconditionError
from .rewrite import (
    PE,
    PE_BRACES,
    _branches,
    _check_fuel,
    _contract,
    _first_head_redex,
    _head_redex,
    _mark_normal,
    _normal_fact,
    _rebuild,
    _require_closed_pnf,
    _require_mode,
    _tree_leaves,
    is_hnv,
    pnf,
)
from .terms import (
    App,
    Choice,
    Lam,
    Nu,
    Term,
    alpha_eq,
    canonical_str,
    contains_cbv,
    free_names,
)


@dataclass
class Distribution:
    """Finite sub-distribution over alpha-canonicalized pseudo-values."""

    entries: dict  # canonical key -> (representative term, Fraction)

    @property
    def mass(self):
        return sum((w for _, w in self.entries.values()), Fraction(0))

    def items(self):
        return [
            (term, weight)
            for _, (term, weight) in sorted(self.entries.items())
        ]

    def weight_of(self, t):
        entry = self.entries.get(canonical_str(t))
        return entry[1] if entry else Fraction(0)

    def __len__(self):
        return len(self.entries)


@dataclass
class TerminationEstimate:
    value: Fraction
    fuel_used: int
    exact: bool


def _add(entries, term, weight):
    key = canonical_str(term)
    if key in entries:
        old_term, old_w = entries[key]
        entries[key] = (old_term, old_w + weight)
    else:
        entries[key] = (term, weight)


def distribution(t, mode=PE):
    """The sub-distribution of pseudo-values of a name-closed PNF."""
    _require_closed_pnf(t, mode)
    entries = {}
    if not isinstance(t, Nu):
        _add(entries, t, Fraction(1))
        return Distribution(entries)
    normal = _normal_fact(mode, False)
    for leaf, depth in _tree_leaves(t.body, t.name):
        if not free_names(leaf):
            _mark_normal(leaf, normal)
        sub = distribution(leaf, mode)
        for term, w in sub.entries.values():
            _add(entries, term, w / (1 << depth))
    return Distribution(entries)


def hnv_mass(t, mode=PE):
    """Probability mass of head normal values in the distribution of t."""
    dist = distribution(t, mode)
    total = Fraction(0)
    for term, w in dist.entries.values():
        if is_hnv(term, mode):
            total += w
    return total


def _head_round(t, mode):
    """One walk over the branches of a name-closed PNF: the head-normal mass
    (hnv_mass) and the cells of the head redexes, left to right."""
    mass, redexes = Fraction(0), []
    for cell, splits in _branches(t):
        names = free_names(cell[0])
        if names:
            raise OpenNamesError(f"free names {sorted(str(n) for n in names)}")
        found = _head_redex(cell, mode)
        if found is None:
            mass += Fraction(1, 2 ** splits)
        else:
            redexes.append(found)
    return mass, redexes


# the slot of each functional's exact bound in a term's `_bounds`, and of its
# run state in `_resume`; nf_mass runs its segments in PE, so its slot is
# that of `_segment` in PE
_HNV_SLOT = {PE: 0, PE_BRACES: 1}
_SEGMENT_SLOT = {PE: 2, PE_BRACES: 3}
_NF_SLOT = _SEGMENT_SLOT[PE]


def _known_bound(t, slot, fuel):
    """The exact bound kept on t in `slot`, if a run with `fuel` replays it."""
    known = t._bounds and t._bounds[slot]
    if known and fuel > known[1]:
        return TerminationEstimate(known[0], known[1], True)
    return None


def _keep_resume(t, slot, state):
    """Keep a run's state in t's `_resume` slot; None drops the slot."""
    resume = list(t._resume or (None,) * 4)
    if resume[slot] is not state:
        resume[slot] = state
        object.__setattr__(t, "_resume", tuple(resume) if any(resume) else None)


def _segment_wanted(t, mode):
    """False once each reader of t's segment slot in `mode` holds its exact
    bound on t: hnv_lower_bound in `mode`, and nf_mass in PE."""
    bounds = t._bounds
    return not (bounds and bounds[_HNV_SLOT[mode]] and (mode != PE or bounds[_NF_SLOT]))


def _keep_bound(t, slot, mode, est):
    if est.exact:
        bounds = list(t._bounds or (None, None, None))
        bounds[slot] = (est.value, est.fuel_used)
        object.__setattr__(t, "_bounds", tuple(bounds))
        # the segment slot goes once each of its readers holds its bound
        if not _segment_wanted(t, mode):
            _keep_resume(t, _SEGMENT_SLOT[mode], None)
    return est


def hnv_lower_bound(t, fuel, mode=PE):
    """Fuel-bounded under-approximation of the head-normalization
    probability: head-reduce fairly across branches, keeping the best mass
    seen at each permutation-normal stage.  A run the fuel cuts keeps the
    state after the pnf of its first cut round on t; a later call with fuel
    at least the steps taken before that pnf resumes from it."""
    _check_fuel(fuel)
    if free_names(t):
        raise OpenNamesError("term has free names")
    _require_mode(t, mode)
    slot = _HNV_SLOT[mode]
    known = _known_bound(t, slot, fuel)
    if known is not None:
        return known
    root, cut = t, None
    # a round's state after its pnf: the PNF, the steps taken before the pnf
    # and after it, and the best mass of the rounds before
    state = t._resume and t._resume[slot]
    if not state or fuel < state[1]:
        # the single-branch prefix has no head-normal mass before its end
        state = (*_segment(t, mode, fuel)[3], Fraction(0))
    t, before, used, best = state
    while True:
        mass, redexes = _head_round(t, mode)
        # the first round the fuel cuts, by its pnf or by the steps it allows
        if cut is None and (used >= fuel or len(redexes) > fuel - used):
            cut = (t, before, used, best)
        best = max(best, mass)
        if used >= fuel:
            break
        # one head step in each of the leftmost branches the fuel allows
        steps = [(cell, _contract(cell[0])) for cell in redexes[: fuel - used]]
        if not steps:
            break
        used += len(steps)
        if len(steps) == len(redexes) and all(
            alpha_eq(result, cell[0]) for cell, result in steps
        ):
            # a whole round reproduced every redex: nothing will change
            break
        for cell, result in steps:
            _, t = _rebuild(cell, result)
        before = used
        t, trace = pnf(t, mode)
        used += len(trace)
    # an exact run, cut nowhere, answers every larger fuel from its bound
    _keep_resume(root, slot, cut)
    est = TerminationEstimate(best, min(used, fuel), cut is None)
    return _keep_bound(root, slot, mode, est)


def _segment_end(t, mode, kind, steps, state):
    """A segment's result; t keeps its state while a reader may resume it."""
    if _segment_wanted(t, mode):
        _keep_resume(t, _SEGMENT_SLOT[mode], state)
    return kind, state[0], steps, state


def _segment(t, mode, limit):
    """Run the deterministic part of a head reduction: permutative
    normalization plus head beta steps.  Returns (kind, term, steps, state);
    kind is "gen" (a generator PNF), "hnv" (a head normal value), "diverged"
    (a head step reproduces its term) or "out" (more than `limit` steps,
    counting the head step that passed it), and term is the last PNF, which
    state holds as (term, steps before its pnf, steps after).  t keeps the
    state after every run; a later call with a limit of at least the steps
    before resumes from it."""
    state = t._resume and t._resume[_SEGMENT_SLOT[mode]]
    if not state or limit < state[1]:
        u, trace = pnf(t, mode)
        state = (u, 0, len(trace))
    while True:
        u, _, steps = state
        if steps > limit:
            return _segment_end(t, mode, "out", steps, state)
        if isinstance(u, Nu):
            return _segment_end(t, mode, "gen", steps, state)
        cell = _first_head_redex(u, mode)
        if cell is None:
            return _segment_end(t, mode, "hnv", steps, state)
        if steps == limit:
            return _segment_end(t, mode, "out", steps + 1, state)
        result = _contract(cell[0])
        if alpha_eq(result, cell[0]):
            return _segment_end(t, mode, "diverged", steps + 1, state)
        path, u = _rebuild(cell, result)
        # u is normal outside the head step's subtree and its ancestors
        u, trace = pnf(u, mode, _from=path)
        state = (u, steps + 1, steps + 1 + len(trace))


def _spine_args(t):
    while isinstance(t, Lam):
        t = t.body
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return args


def _nf_rec(t, limit, mode):
    """Lower bound for the normalization probability of a name-closed term
    within `limit` steps.  Returns (value, steps used, exact)."""
    kind, t, used, _ = _segment(t, mode, limit)
    if kind == "out":
        return Fraction(0), used, False
    if kind == "diverged":
        return Fraction(0), used, True
    exact = True
    if kind == "gen":
        total = Fraction(0)
        for leaf, depth in _tree_leaves(t.body, t.name):
            sub, sub_used, sub_exact = _nf_rec(leaf, limit - used, mode)
            used += sub_used
            exact = exact and sub_exact
            total += sub / (1 << depth)
        return total, used, exact
    total = Fraction(1)
    for arg in _spine_args(t):
        sub, sub_used, sub_exact = _nf_rec(arg, limit - used, mode)
        used += sub_used
        exact = exact and sub_exact
        total *= sub
    return total, used, exact


def nf_mass(t, fuel, mode=PE):
    """Fuel-bounded lower bound for the probability of reaching a normal
    form.  Only defined on the plain calculus.  Each segment keeps its last
    state on the node it started from (see `_segment`), so a later call with
    more fuel resumes those segments."""
    _check_fuel(fuel)
    if mode != PE or contains_cbv(t):
        raise ModeViolationError(
            "normal-form mass is only defined for plain PE terms"
        )
    if free_names(t):
        raise OpenNamesError("term has free names")
    known = _known_bound(t, _NF_SLOT, fuel)
    if known is not None:
        return known
    value, used, exact = _nf_rec(t, fuel, PE)
    return _keep_bound(t, _NF_SLOT, PE, TerminationEstimate(value, min(used, fuel), exact))


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass
class SampleOutcome:
    kind: str  # "head-normal" | "exhausted"
    term: Term = None

    @property
    def is_head_normal(self):
        return self.kind == "head-normal"


def sample_run(t, seed, fuel, mode=PE, _caches=None):
    """One randomized head-reduction run: whenever the term is a generator
    PNF, fresh bits from the seeded PRNG resolve its tree.  Reproducible for
    a fixed seed."""
    _check_fuel(fuel)
    _require_mode(t, mode)
    rng = random.Random(seed)
    # segments depend on the fuel limit only, which is fixed for the run
    cache = _caches if _caches is not None else {}
    remaining = fuel
    while True:
        key = canonical_str(t)
        segment = cache.get(key)
        if segment is None:
            segment = cache[key] = _segment(t, mode, fuel)
        kind, cur, steps, _ = segment
        if kind in ("diverged", "out") or steps > remaining:
            return SampleOutcome("exhausted")
        remaining -= steps
        if kind == "hnv":
            return SampleOutcome("head-normal", cur)
        bits = {}
        node = cur.body
        while isinstance(node, Choice) and node.name is cur.name:
            bit = bits.setdefault(node.index, rng.getrandbits(1))
            node = node.left if bit == 1 else node.right
        t = node


def estimate_hnv(t, samples, fuel, seed, mode=PE):
    """Fraction of runs reaching a head normal value, with an upper rational
    bound on the binomial standard error.  Deterministic for a fixed seed."""
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    caches = {}
    hits = 0
    for k in range(samples):
        sub_seed = seed * 1_000_003 + k
        if sample_run(t, sub_seed, fuel, mode, _caches=caches).is_head_normal:
            hits += 1
    estimate = Fraction(hits, samples)
    variance_numerator = hits * (samples - hits) * samples
    root = math.isqrt(variance_numerator)
    if root * root < variance_numerator:
        root += 1
    stderr = Fraction(root, samples * samples)
    return estimate, stderr
