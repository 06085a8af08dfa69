"""Batch command line over the library: terms, formulas, derivations, proofs.

Exit codes: 0 success, 1 domain error (E_*) or internal error (E_INTERNAL),
2 usage error.  All numeric output is exact num/den.
"""

from __future__ import annotations

import argparse
import json
import sys

from .distribution import (
    distribution,
    estimate_hnv,
    hnv_lower_bound,
    nf_mass,
    sample_run,
)
from .errors import LampeError, PreconditionError, SchemaError
from .formulas import (
    entails,
    format_rational,
    measure,
    parse_formula,
)
from .proofs import (
    check_proof,
    normalize_proof,
    proof_from_json,
    proof_to_json,
    translate,
    verify_simulation,
)
from .rewrite import PE, PE_BRACES, head_step, pnf, pnf_count, reduce_term, step
from .terms import canonical_str, parse_term, print_term
from .transport import transport_subject_reduction
from .typesys import (
    apply_mu_star,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
)


def _mode(args):
    return PE_BRACES if args.mode == "pe-braces" else PE


def _read_json(path, decode):
    """Load a JSON file and decode it; a decoder that trips over the shape
    of the input raises E_SCHEMA."""
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    try:
        return decode(obj)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"malformed input ({exc})") from None


def _json_pieces(obj):
    """The text of `json.dumps(obj, indent=2)`, piece by piece.  It is
    written from a stack of strings and pending `(value, newline)` pairs,
    where `newline` is the line break and indent of the value's level, so a
    deep tree takes no frame per level.  Dict keys are strings, as in every
    output here; scalars and keys are written by `json.dumps`."""
    stack = [(obj, "\n")]
    while stack:
        item = stack.pop()
        if type(item) is str:
            yield item
            continue
        value, newline = item
        if isinstance(value, dict) and value:
            pairs = [(f"{json.dumps(k)}: ", v) for k, v in value.items()]
            brackets = "{}"
        elif isinstance(value, (list, tuple)) and value:
            pairs = [("", v) for v in value]
            brackets = "[]"
        else:
            yield json.dumps(value)
            continue
        inner = newline + "  "
        stack.append(newline + brackets[1])
        for i in range(len(pairs) - 1, -1, -1):
            key, v = pairs[i]
            stack += ((v, inner), ("," if i else brackets[0]) + inner + key)


def _emit_json(obj):
    """Write `obj` as `json.dumps(obj, indent=2)` and a newline would print
    it, streamed: an output can be far larger than its tree (each line of
    a deep node is indented to its depth)."""
    sys.stdout.writelines(_json_pieces(obj))
    sys.stdout.write("\n")


def cmd_parse(args):
    print(print_term(parse_term(args.term)))


def cmd_pnf(args):
    term = parse_term(args.term)
    if args.trace:
        term, trace = pnf(term, _mode(args))
        for s in trace:
            print(s.format())
        steps = len(trace)
    else:
        term, steps = pnf_count(term, _mode(args))
    if args.json:
        _emit_json({"result": print_term(term), "steps": steps})
    else:
        print(print_term(term))


def cmd_reduce(args):
    outcome = reduce_term(
        parse_term(args.term), _mode(args), args.strategy, args.fuel
    )
    if args.json:
        _emit_json(
            {
                "result": print_term(outcome.term),
                "trace": [s.to_json() for s in outcome.trace],
                "exhausted": outcome.exhausted,
            }
        )
    else:
        if args.trace:
            for s in outcome.trace:
                print(s.format())
        print(print_term(outcome.term))


def cmd_dist(args):
    term, _ = pnf_count(parse_term(args.term), _mode(args))
    dist = distribution(term, _mode(args))
    if args.json:
        _emit_json(
            {
                canonical_str(t): format_rational(w)
                for t, w in dist.items()
            }
        )
    else:
        for t, w in dist.items():
            print(f"{format_rational(w)}  {print_term(t)}")


def cmd_hnv(args):
    est = hnv_lower_bound(parse_term(args.term), args.fuel, _mode(args))
    print(format_rational(est.value))
    if not est.exact:
        print("lower bound (fuel exhausted)", file=sys.stderr)


def cmd_nf(args):
    est = nf_mass(parse_term(args.term), args.fuel, _mode(args))
    print(format_rational(est.value))
    if not est.exact:
        print("lower bound (fuel exhausted)", file=sys.stderr)


def cmd_mu(args):
    print(format_rational(measure(parse_formula(args.formula))))


def cmd_entails(args):
    holds = entails(parse_formula(args.left), parse_formula(args.right))
    print("true" if holds else "false")


def cmd_check(args):
    deriv = _read_json(args.file, derivation_from_json)
    judgement = check_derivation(deriv, args.system)
    print(judgement.format())


def cmd_mu_star(args):
    deriv = _read_json(args.file, derivation_from_json)
    result = apply_mu_star(deriv)
    if args.json:
        _emit_json(derivation_to_json(result))
    else:
        print(result.judgement.format())


def cmd_transport(args):
    deriv = _read_json(args.file, derivation_from_json)
    mode = _mode(args)
    steps = step(deriv.judgement.term, mode)
    if not 0 <= args.step_index < len(steps):
        raise PreconditionError(
            f"step index {args.step_index} out of range ({len(steps)} steps)"
        )
    result = transport_subject_reduction(deriv, steps[args.step_index], mode)
    if args.json:
        _emit_json(derivation_to_json(result))
    else:
        print(result.judgement.format())


def cmd_check_proof(args):
    proof = _read_json(args.file, proof_from_json)
    print(check_proof(proof).format())


def cmd_normalize_proof(args):
    proof = _read_json(args.file, proof_from_json)
    normal, steps = normalize_proof(proof, args.fuel)
    print(f"{steps} steps", file=sys.stderr)
    if args.json:
        _emit_json(proof_to_json(normal))
    else:
        print(normal.sequent.format())


def cmd_translate(args):
    proof = _read_json(args.file, proof_from_json)
    term, deriv = translate(proof)
    if args.json:
        _emit_json(
            {"term": print_term(term), "derivation": derivation_to_json(deriv)}
        )
    else:
        print(print_term(term))
        print(deriv.judgement.format())


def cmd_simulate(args):
    proof = _read_json(args.file, proof_from_json)
    report = verify_simulation(proof, args.fuel)
    for entry in report.entries:
        status = "ok" if entry.ok else "FAIL"
        print(f"{status} {entry.kind} ({len(entry.steps)} steps) {entry.detail}")
    print(f"{len(report.entries)} steps, {len(report.failures)} failures")
    if report.failures:
        raise LampeError("simulation failures")


def cmd_sample(args):
    outcome = sample_run(
        parse_term(args.term), args.seed, args.fuel, _mode(args)
    )
    if outcome.is_head_normal:
        print(f"HEAD_NORMAL {print_term(outcome.term)}")
    else:
        print("EXHAUSTED")


def cmd_estimate(args):
    estimate, stderr = estimate_hnv(
        parse_term(args.term), args.samples, args.fuel, args.seed, _mode(args)
    )
    print(f"{format_rational(estimate)} {format_rational(stderr)}")


# argparse options of each flag a subcommand may take
_FLAGS = {
    "mode": {"choices": ["pe", "pe-braces"], "default": "pe"},
    "fuel": {"type": int, "default": 1000},
    "json": {"action": "store_true"},
    "trace": {"action": "store_true"},
    "strategy": {"choices": ["head", "full"], "default": "full"},
    "system": {"choices": ["cn", "cbv", "int"], "required": True},
    "step-index": {"type": int, "default": 0},
    "seed": {"type": int, "default": 0},
    "samples": {"type": int, "default": 1000},
}

# name: (handler, help, positional arguments, flags the handler reads); a
# flag written flag=value has that default in this subcommand
_SUBCOMMANDS = {
    "parse": (cmd_parse, "echo a term", "term", ""),
    "pnf": (cmd_pnf, "permutative normal form", "term", "mode json trace"),
    "reduce": (
        cmd_reduce, "fuel-bounded reduction", "term", "mode fuel json strategy trace"
    ),
    "dist": (cmd_dist, "distribution of a PNF", "term", "mode json"),
    "hnv": (cmd_hnv, "head-normalization mass", "term", "mode fuel"),
    "nf": (cmd_nf, "normalization mass", "term", "mode fuel"),
    "mu": (cmd_mu, "measure of a formula", "formula", ""),
    "entails": (cmd_entails, "Boolean entailment", "left right", ""),
    "check": (cmd_check, "check a typing derivation", "file", "system"),
    "mu-star": (cmd_mu_star, "discharge all names at once", "file", "json"),
    "transport": (
        cmd_transport,
        "subject reduction transport",
        "file",
        "mode=pe-braces json step-index",
    ),
    "check-proof": (cmd_check_proof, "check a proof", "file", ""),
    "normalize-proof": (cmd_normalize_proof, "normalize a proof", "file", "fuel json"),
    "translate": (cmd_translate, "proof term and typing", "file", "json"),
    "simulate": (cmd_simulate, "normalization vs reduction", "file", "fuel"),
    "sample": (cmd_sample, "one randomized run", "term", "mode fuel seed"),
    "estimate": (
        cmd_estimate, "Monte Carlo estimate", "term", "mode fuel seed samples"
    ),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lampe",
        description="probabilistic event lambda calculus toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, positionals, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            flag, _, default = flag.partition("=")
            options = dict(_FLAGS[flag], default=default) if default else _FLAGS[flag]
            p.add_argument(f"--{flag}", **options)
        for positional in positionals.split():
            p.add_argument(positional)
    return parser


_COMMANDS = {name: spec[0] for name, spec in _SUBCOMMANDS.items()}


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        _COMMANDS[args.command](args)
    except LampeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"E_INPUT: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("E_DEPTH: input nested too deeply to process", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - a library fault, not a user error
        print(f"E_INTERNAL: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
