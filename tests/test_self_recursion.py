"""The functions of `src/lampe` that call themselves by name, one frame per
level of their input.  The list may only shrink: a new self-recursive
function fails the test, and so does a listed function that no longer
recurses, until it is struck from the list.  Mutual recursion and calls
through `self` are not counted."""

import ast
from pathlib import Path

import lampe

SELF_RECURSIVE = {
    "distribution.distribution",
    "distribution._nf_rec",
    "formulas.rename_formula_names",
    "formulas.eval_formula",
    "formulas.parse_formula.disjunction",
    "formulas.print_formula.go",
    "proofs.parse_proof_formula.implication",
    "proofs.print_proof_formula",
    "proofs.weaken_proof",
    "proofs.counting_names",
    "proofs.subst_proof.go",
    "proofs._count_uses",
    "proofs._proof_step",
    "proofs.formula_type",
    "proofs.proof_term",
    "proofs._translate_node",
    "proofs.proof_to_json",
    "terms.bound_names",
    "terms.rename_names",
    "terms.count_free_occurrences",
    "terms.substitute_indexed.go",
    "terms.canonical_str.go",
    "terms.project.go",
    "terms.parse_term.term",
    "terms.print_term.go",
    "transport.or_leaves",
    "transport.ctx_weaken.go",
    "transport.subst_typing.go",
    "transport._descend",
    "typesys.print_type",
    "typesys.parse_type.typ",
    "typesys.subtype",
    "typesys.mset_subtype.assign",
    "typesys.srank",
    "typesys.is_balanced",
    "typesys._mentions_unsafe",
    "typesys.relabel",
    "typesys.apply_mu_star.fold",
    "typesys.derivation_to_json",
}


def _self_recursive(node, prefix):
    """The qualified names of the defs under `node` whose bodies call their
    own name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if isinstance(child, ast.FunctionDef) and any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == child.name
                for n in ast.walk(child)
            ):
                yield name
            yield from _self_recursive(child, name)
        else:
            yield from _self_recursive(child, prefix)


def test_self_recursive_functions_only_go_away():
    found = set()
    for path in Path(lampe.__file__).parent.glob("*.py"):
        found.update(_self_recursive(ast.parse(path.read_text()), path.stem))
    assert sorted(found - SELF_RECURSIVE) == [], "new self-recursive functions"
    assert sorted(SELF_RECURSIVE - found) == [], "no longer recursive: strike them"
