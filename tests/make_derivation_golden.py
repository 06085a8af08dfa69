"""Write `tests/golden/derivation_cli.json`: the exit code, stdout and stderr
of the derivation subcommands (`check` under each system, `mu-star --json`,
`transport --json` in both modes at every step index and one past the last)
over the derivation fixtures, and of the term subcommands (`pnf`, `reduce`,
`dist`, `nf`, `hnv`) in both modes over hand-picked and seeded random terms.
The test `tests/test_cli.py::test_derivation_cli_golden` replays the records.

The derivations are the CBV and CN fixtures, the clash derivation, three INT
derivations, translated seeded random proofs, and, so that every transport
case has a record: the translations of `helpers.proof_kind_corpus()` (`c1`,
`c2`, `plus-plus-1`, `cbv-plus-2`), the `m-ce-minor` proof's translation
transported by its `plus-lam` step (`cbv-plus-1`), the choice tree of
`x (+a.1) (y (+a.0) z)` (`plus-plus-2`) and
`helpers.generator_permutation_derivations()` (`nu-fun`, `plus-nu`).  The
script counts the cases of `transport._ROOT_HANDLERS` whose handler returns
in some record's run; if one is missed, it writes nothing and exits 1.

Run from the repository root, only when the CLI's output is meant to change:

    PYTHONPATH=src python tests/make_derivation_golden.py
"""

import random
import sys
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from helpers import (  # noqa: E402
    A_,
    B_,
    cbv_fixture_corpus,
    choice_tree_derivation,
    clash_derivation,
    cn_fixture_corpus,
    generator_permutation_derivations,
    int_identity,
    mixed_premise_proof,
    proof_kind_corpus,
    random_proof,
    random_term,
    two_name_exact_bound_derivation,
)
from make_proof_golden import run_records, write_golden  # noqa: E402
from lampe import transport  # noqa: E402
from lampe.errors import LampeError  # noqa: E402
from lampe.formulas import TOP, And, Atom, Not, Or  # noqa: E402
from lampe.proofs import translate  # noqa: E402
from lampe.rewrite import PE, PE_BRACES, step  # noqa: E402
from lampe.terms import Name, free_names, parse_term, print_term  # noqa: E402
from lampe.typesys import O, derivation_to_json  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "derivation_cli.json"
SEED = 2026
RANDOM_DERIVATIONS = 4
RANDOM_TERMS = 12
MODES = (PE, PE_BRACES)
FUEL = "40"
# a reduction prints every step, so it gets less fuel
REDUCE_FUEL = "10"
TERMS = (
    r"nu a. \x. (u (+a.0) v)",
    r"nu a. I (+a.0) OMEGA",
    r"nu a. (\x.\y.(y (+a.0) I) x) (nu b. I (+b.0) OMEGA)",
    r"{\x. x (+a.0) x} (nu a. I (+a.0) I)",
    r"(\x. x x) (nu b. I (+b.0) I)",
    r"(\x. \y. x) (\y. y)",
    r"(nu b. \x. x (+b.0) I) (nu b. I (+b.0) OMEGA)",
    r"{I} (nu b. I (+b.0) OMEGA)",
    r"(x (+a.0) y) (+a.1) (z (+a.0) x)",
    r"2 (nu a. I (+a.0) OMEGA)",
    r"nu a. nu b. (I (+b.1) OMEGA) (+a.0) (OMEGA (+b.0) I)",
    r"OMEGA",
)


def golden_derivations():
    """The CBV and CN fixtures, the clash derivation, INT derivations that
    mu-star accepts, translated seeded random proofs, and the derivations
    that reach the transport cases the others miss."""
    a0, b0 = Atom(A_, 0), Atom(B_, 0)
    derivations = [d for d, _ in cbv_fixture_corpus()] + cn_fixture_corpus() + [
        clash_derivation(),
        two_name_exact_bound_derivation(),
        int_identity(names={A_}, constraint=a0),
        int_identity(names={A_, B_}, constraint=Or(And(a0, b0), Not(a0))),
        int_identity(names={A_, B_, Name("c")}, constraint=And(Atom(Name("c"), 2), Not(b0))),
    ]
    fixed = len(derivations)
    rng = random.Random(SEED)
    while len(derivations) < fixed + RANDOM_DERIVATIONS:
        p = random_proof(rng, depth=rng.randrange(2, 5))
        if p is not None:
            derivations.append(translate(p)[1])
    derivations += [translate(p)[1] for p in proof_kind_corpus()]
    minor = translate(mixed_premise_proof("ce", 1))[1]
    (s,) = [s for s in step(minor.judgement.term, PE_BRACES) if s.rule == "plus-lam"]
    derivations.append(transport.transport_subject_reduction(minor, s, PE_BRACES))
    tree = parse_term("x (+a.1) (y (+a.0) z)")
    ctx = (("x", O), ("y", O), ("z", O))
    derivations.append(choice_tree_derivation(tree, ctx, free_names(tree), TOP))
    return derivations + generator_permutation_derivations()


def step_count(term, mode):
    try:
        return len(step(term, mode))
    except LampeError:
        return 0


def derivation_argvs(named):
    """Argument lists over (file name, derivation) pairs."""
    for name, d in named:
        for system in ("cn", "cbv", "int"):
            yield ["check", "--system", system, name]
        yield ["mu-star", "--json", name]
        for mode in MODES:
            for i in range(step_count(d.judgement.term, mode) + 1):
                yield ["transport", "--json", "--mode", mode, "--step-index", str(i), name]


def golden_terms():
    rng = random.Random(SEED)
    terms = list(TERMS)
    while len(terms) < len(TERMS) + RANDOM_TERMS:
        names = [Name("a"), Name("b")][: rng.randrange(3)]
        t = random_term(rng, rng.randrange(4, 10), names, [], allow_cbv=rng.random() < 0.5)
        text = print_term(t)
        if text not in terms:
            terms.append(text)
    return terms


def term_argvs(terms):
    for text in terms:
        for mode in MODES:
            yield ["pnf", "--mode", mode, "--trace", text]
            yield ["pnf", "--mode", mode, "--json", text]
            yield ["reduce", "--mode", mode, "--fuel", REDUCE_FUEL, "--json", text]
            yield ["reduce", "--mode", mode, "--fuel", REDUCE_FUEL, "--strategy", "head", "--trace", text]
            yield ["dist", "--mode", mode, "--json", text]
            yield ["dist", "--mode", mode, text]
            yield ["nf", "--mode", mode, "--fuel", FUEL, text]
            yield ["hnv", "--mode", mode, "--fuel", FUEL, text]


@contextmanager
def reached_root_cases():
    """The set of transport root cases whose handler returns while the
    block runs."""
    reached = set()
    handlers = dict(transport._ROOT_HANDLERS)

    def counted(rule, handler):
        def call(*args):
            out = handler(*args)
            reached.add(rule)
            return out

        return call

    transport._ROOT_HANDLERS.update({r: counted(r, h) for r, h in handlers.items()})
    try:
        yield reached
    finally:
        transport._ROOT_HANDLERS.update(handlers)


def main():
    derivations = golden_derivations()
    inputs = {f"deriv-{i:02d}.json": derivation_to_json(d) for i, d in enumerate(derivations)}
    argvs = [*derivation_argvs(zip(inputs, derivations)), *term_argvs(golden_terms())]
    with reached_root_cases() as reached:
        records = run_records(inputs, argvs)
    missed = sorted(set(transport._ROOT_HANDLERS) - reached)
    if missed:
        sys.exit(f"no record reaches the transport cases {', '.join(missed)}; nothing written")
    print(f"{len(reached)} of {len(transport._ROOT_HANDLERS)} transport cases reached")
    write_golden(GOLDEN, inputs, records)


if __name__ == "__main__":
    main()
