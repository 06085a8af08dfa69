"""The four workloads.  Each one owns its seeded inputs and splits them into
rounds; `run.py` times `run` on every round once and calls `digest` and
`check` outside the timed window.

A run does a fixed amount of work, so that what it measures does not depend
on the speed of the program: `rounds_for(seconds)` is the number of rounds
that took `seconds` reference seconds when the benchmark was written
(ROUNDS_PER_S), and no input repeats.  A workload's inputs are text or JSON;
`parse` turns them into library objects and is part of set-up time.
TAIL_PERCENTILE is the highest of p90, p95, p98 and p99 that leaves at least
50 items beyond it in a 15 s run (p90 when even that leaves fewer).  `run`
returns raw library results, `digest` reduces them to plain data, and
`check` compares the digest with a reference from `ref.py` (or with an
identity that must hold), returning a failure message or None.
"""

import bisect
import random

import gen
import ref


class Workload:
    @classmethod
    def rounds_for(cls, seconds):
        return max(1, round(seconds * cls.ROUNDS_PER_S))


class Rewrite(Workload):
    """Criterion 6's traffic: random closed plain terms of size 5..40 through
    pnf, distribution and a seeded random-strategy PNF, with one affine
    local join (step plus two reduce_term) per five terms.

    A term's cost follows the number of permutative steps of its leftmost
    PNF, so each round takes one term from each bin of STEP_BINS, bins that
    hold about a fifth of the draws each.  That keeps the cost mix of a run
    the same from seed to seed.  A draw needing more than STEP_BINS[-1]
    steps, about a tenth of them, is dropped: the cost grows exponentially
    there, and the largest took seconds against a median of milliseconds.
    The benchmark counts the steps with its own reference (`ref.pnf_steps`),
    so a change to the library cannot change which terms a run holds."""

    STEP_BINS = (6, 13, 23, 43, 100)
    TAIL_PERCENTILE = 95
    ROUNDS_PER_S = 19.0
    JOIN_SIZE = 25
    JOIN_FUEL = 500
    BURST = 8

    def __init__(self, seed, rounds):
        rng = random.Random(seed)
        bins = [[] for _ in self.STEP_BINS]
        while any(len(b) < rounds for b in bins):
            t = gen.plain_term(rng, rng.randint(5, 40))
            steps = ref.pnf_steps(t, self.STEP_BINS[-1])
            if steps >= 0:
                b = bins[bisect.bisect_left(self.STEP_BINS, steps)]
                if len(b) < rounds:
                    b.append(gen.term_text(t))
        self.inputs = []
        self.rounds = []
        for r in range(rounds):
            batch = [("plain", b[r]) for b in bins]
            batch.append(("join", gen.term_text(gen.affine_term(rng, self.JOIN_SIZE))))
            self.rounds.append(list(range(len(self.inputs), len(self.inputs) + len(batch))))
            self.inputs.extend((kind, text, rng.randrange(2**32)) for kind, text in batch)

    def parse(self, api):
        return [(kind, api.parse_term(text), s) for kind, text, s in self.inputs]

    def run(self, api, item):
        kind, t, s = item
        if kind == "join":
            steps = api.step(t, api.PE)
            if len(steps) < 2:
                return kind, len(steps), None, None
            first = api.reduce_term(steps[0].after, api.PE, "full", self.JOIN_FUEL)
            last = api.reduce_term(steps[-1].after, api.PE, "full", self.JOIN_FUEL)
            return kind, len(steps), first, last
        normal, trace = api.pnf(t, api.PE)
        dist = api.distribution(normal, api.PE)
        return kind, normal, dist, self._random_pnf(api, t, random.Random(s))

    def _random_pnf(self, api, t, rng):
        """A random permutative strategy: a uniformly chosen redex, then up
        to BURST - 1 leftmost steps, until no redex is left."""
        while True:
            triples = list(api.iter_steps(t, api.PE, include_beta=False))
            if not triples:
                return t
            _, path, result = rng.choice(triples)
            t = api.replace_at(t, path, result)
            for _ in range(rng.randrange(self.BURST)):
                s = api.first_step(t, api.PE, include_beta=False)
                if s is None:
                    return t
                t = s.after

    def digest(self, api, out):
        kind = out[0]
        if kind == "join":
            _, n, first, last = out
            if first is None:
                return kind, n, None
            return kind, n, (
                first.exhausted, last.exhausted,
                ref.term_key(first.term), ref.term_key(last.term),
            )
        _, normal, dist, other = out
        mass = sum(w for _, w in dist.entries.values())
        return kind, ref.term_key(normal), ref.term_key(other), mass, api.print_term(normal)

    def check(self, api, index, d):
        if d[0] == "join":
            if d[2] is None:
                return None
            first_ex, last_ex, k1, k2 = d[2]
            if first_ex or last_ex:
                return "local join ran out of fuel"
            return None if k1 == k2 else "local join does not meet"
        _, key, other, mass, printed = d
        if key != other:
            return "leftmost and random-strategy PNFs differ"
        if mass != 1:
            return f"distribution mass {mass} is not 1"
        if ref.term_key(api.parse_term(printed)) != key:
            return "print_term/parse_term does not round-trip the PNF"
        return None


class Oracle(Workload):
    """Random formulas over 4..13 atoms through measure, entails and
    equivalent, plus one formula over more than ATOM_CAP atoms per round,
    which must fail with E_TOO_MANY_ATOMS.  The partner formula is
    equivalent at even atom counts and merely entailed at odd ones, so the
    cost of an item grows with its atom count and a round sorts by size.
    A round holds three formulas of 9 atoms and three of 13, so that the
    median falls inside the one size and the tail percentile inside the
    other, rather than at the edge between two sizes.

    Items up to TABLE_MAX atoms are checked against the benchmark's own
    truth table.  The measure identities cost several times the item
    itself, so they are checked on the first round, which covers every
    size."""

    ATOMS = tuple(range(4, 14)) + (9, 9, 13, 13)
    TAIL_PERCENTILE = 90
    ROUNDS_PER_S = 0.4
    OVER_CAP = (25, 26, 27, 28)
    TABLE_MAX = 10

    def __init__(self, seed, rounds):
        rng = random.Random(seed)
        self.inputs = []
        self.rounds = []
        for r in range(rounds):
            indices = []
            sizes = self.ATOMS + (self.OVER_CAP[r % len(self.OVER_CAP)],)
            for n in sizes:
                b, c = gen.oracle_pair(rng, n, equivalent=n % 2 == 0)
                indices.append(len(self.inputs))
                self.inputs.append((n, b, c))
            self.rounds.append(indices)

    def parse(self, api):
        return [
            (api.parse_formula(gen.formula_text(b)), api.parse_formula(gen.formula_text(c)))
            for _, b, c in self.inputs
        ]

    def run(self, api, item):
        b, c = item
        out = []
        for fn, args in ((api.measure, (b,)), (api.entails, (b, c)), (api.equivalent, (b, c))):
            try:
                out.append(fn(*args))
            except api.LampeError as exc:
                if exc.code != "E_TOO_MANY_ATOMS":
                    raise
                out.append(exc.code)
        return tuple(out)

    def digest(self, api, out):
        return out

    def check(self, api, index, d):
        n, b, c = self.inputs[index]
        if n > 24:
            if d != ("E_TOO_MANY_ATOMS",) * 3:
                return f"{n} atoms gave {d}, not E_TOO_MANY_ATOMS"
            return None
        mu, ent, equiv = d
        if n <= self.TABLE_MAX:
            if mu != ref.measure(b):
                return f"measure {mu} differs from the truth table"
            if ent != ref.entails(b, c):
                return "entails differs from the truth table"
            if equiv != (ref.entails(b, c) and ref.entails(c, b)):
                return "equivalent differs from the truth table"
        if equiv and not ent:
            return "equivalent without entails"
        if index >= len(self.rounds[0]):
            return None

        def m(f):
            return api.measure(api.parse_formula(gen.formula_text(f)))

        if mu + m(("not", b)) != 1:
            return "mu(b) + mu(!b) != 1"
        if m(("or", b, c)) + m(("and", b, c)) != mu + m(c):
            return "mu(b|c) + mu(b&c) != mu(b) + mu(c)"
        if ent != (m(("and", b, ("not", c))) == 0):
            return "entails(b, c) disagrees with mu(b & !c) = 0"
        return None


class Kernel(Workload):
    """Random proofs built forward, through check_proof, normalize_proof,
    translate, check_derivation (cbv), verify_simulation and a short
    subject-reduction chase, plus apply_mu_star on a random INT premise.

    Each round holds one proof of each size.  A proof with more than
    MAX_CUTS rules that can form a cut (imp-e, ce, m) is redrawn: the
    normalization steps grow with them, every step re-checks the whole
    proof, and the rare proof with dozens of steps took seconds against a
    median of tens of milliseconds."""

    SIZES = (4, 7, 10, 13)
    MAX_CUTS = 2
    TAIL_PERCENTILE = 90
    ROUNDS_PER_S = 7.2
    CHASE_DEPTH = 2
    CHASE_WIDTH = 2
    MU_STAR_ATOMS = (3, 4, 5)

    def __init__(self, seed, rounds):
        rng = random.Random(seed)
        self.inputs = []
        for slot in range(rounds * len(self.SIZES)):
            size = self.SIZES[slot % len(self.SIZES)]
            skeleton, _ = gen.proof_skeleton(rng, (), size)
            while gen.count_cuts(skeleton) > self.MAX_CUTS:
                skeleton, _ = gen.proof_skeleton(rng, (), size)
            proof, term = gen.proof_json(skeleton, 2 * slot)
            atoms = self.MU_STAR_ATOMS[slot % len(self.MU_STAR_ATOMS)]
            premise, constraint = gen.mu_star_premise(rng, 2 * slot + 1, atoms)
            self.inputs.append((proof, term, premise, constraint, rng.randrange(8)))
        n = len(self.SIZES)
        self.rounds = [list(range(r * n, (r + 1) * n)) for r in range(rounds)]

    def parse(self, api):
        return [
            (api.proof_from_json(proof), api.derivation_from_json(premise), pick)
            for proof, _, premise, _, pick in self.inputs
        ]

    def run(self, api, item):
        proof, premise, pick = item
        api.check_proof(proof)
        normal, steps = api.normalize_proof(proof)
        term, deriv = api.translate(proof)
        api.check_derivation(deriv, api.CBV)
        report = api.verify_simulation(proof)
        chase = []
        d = deriv
        for level in range(self.CHASE_DEPTH):
            found = api.step(d.judgement.term, api.PE_BRACES)[: self.CHASE_WIDTH]
            if not found:
                break
            moved = [(d, s, api.transport_subject_reduction(d, s, api.PE_BRACES))
                     for s in found]
            chase.extend(moved)
            d = moved[(pick + level) % len(moved)][2]
        star = api.apply_mu_star(premise)
        return normal, term, report, chase, star

    def digest(self, api, out):
        normal, term, report, chase, star = out
        moves = []
        for d, s, moved in chase:
            j, k = d.judgement, moved.judgement
            moves.append(
                dict(j.ctx) == dict(k.ctx) and j.names == k.names
                and ref.term_key(s.after) == ref.term_key(k.term)
                and j.constraint == k.constraint and j.type == k.type
            )
        sj = star.judgement
        return (
            ref.has_cut(normal), ref.term_key(term),
            sum(1 for e in report.entries if not e.ok), len(report.entries),
            tuple(moves), sj.type.q, type(sj.constraint).__name__,
        )

    def check(self, api, index, d):
        _, term, _, constraint, _ = self.inputs[index]
        cut, key, sim_failures, _, moves, q, root = d
        if cut:
            return "normal proof still has a cut"
        if key != ref.tuple_key(term):
            return "translated proof term differs from the proof's own term"
        if sim_failures:
            return f"{sim_failures} simulation failures"
        if not all(moves):
            return "a transported judgement does not match the reduct"
        if q != ref.measure(constraint) or root != "Top":
            return f"mu-star gave C[{q}], expected C[{ref.measure(constraint)}]"
        return None


class Termination(Workload):
    """Closed families whose masses have closed forms, through
    hnv_lower_bound and nf_mass at two fuels (the lower one runs out for the
    largest size), with estimate_hnv on the items of one size.  Each round
    holds every family at every size."""

    SIZES = (1, 2, 3, 4, 5)
    FAMILIES = ("coin_iter", "half_plus", "pick_arg")
    TAIL_PERCENTILE = 90
    FUELS = (60, 1000)
    ROUNDS_PER_S = 0.6
    SAMPLES = 200
    SAMPLE_FUEL = 400
    SAMPLED_SIZE = 3

    def __init__(self, seed, rounds):
        rng = random.Random(seed)
        self.inputs = []
        self.rounds = []
        for _ in range(rounds):
            indices = []
            for n in self.SIZES:
                for family in self.FAMILIES:
                    t, mass = gen.termination_term(rng, family, n)
                    samples = self.SAMPLES if n == self.SAMPLED_SIZE else 0
                    indices.append(len(self.inputs))
                    self.inputs.append((gen.term_text(t), mass, samples, rng.randrange(2**20)))
            self.rounds.append(indices)

    def parse(self, api):
        return [(api.parse_term(text), samples, s) for text, _, samples, s in self.inputs]

    def run(self, api, item):
        t, samples, s = item
        bounds = []
        for fuel in self.FUELS:
            bounds.append(api.hnv_lower_bound(t, fuel, api.PE))
            bounds.append(api.nf_mass(t, fuel))
        estimate = None
        if samples:
            estimate = api.estimate_hnv(t, samples, self.SAMPLE_FUEL, s, api.PE)[0]
        return bounds, estimate

    def digest(self, api, out):
        bounds, estimate = out
        return tuple((b.value, b.exact, b.fuel_used) for b in bounds), estimate

    def check(self, api, index, d):
        _, mass, samples, _ = self.inputs[index]
        bounds, estimate = d
        for value, exact, _ in bounds:
            if value > mass or (exact and value != mass):
                return f"bound {value} (exact={exact}) against mass {mass}"
        if samples and not ref.binomial_ok(estimate, mass, samples):
            return f"estimate {estimate} is not within 5 standard errors of {mass}"
        return None


WORKLOADS = {
    "rewrite": Rewrite,
    "oracle": Oracle,
    "kernel": Kernel,
    "termination": Termination,
}
