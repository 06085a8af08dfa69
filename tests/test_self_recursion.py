"""The functions of `src/lampe` that lie on a cycle of the module's call
graph, one frame per level of their input.  The list may only shrink: a new
recursive function fails the test, and so does a listed function that no
longer recurses, until it is struck from the list.

Each module's graph has one node per `def`, named by its qualified path.  A
function has an edge to every function it names: a bare name, whether called
or passed as a value (`map(derivation_from_json, ...)`), resolves from the
innermost enclosing function scope outwards to the module, and stops at the
first scope that binds the name; `self.m` resolves to the method `m` of the
enclosing class.  Lambdas and comprehensions count as part of their `def`."""

import ast
from pathlib import Path

import lampe

RECURSIVE = {
    "distribution.distribution",
    "distribution._nf_rec",
    "formulas.rename_formula_names",
    "formulas.eval_formula",
    "formulas.parse_formula.disjunction",
    "formulas._SharedBDD.build",
    "formulas._SharedBDD.conj",
    "formulas._SharedBDD.disj",
    "formulas._SharedBDD.implies",
    "formulas._SharedBDD.neg",
    "proofs.parse_proof_formula.implication",
    "terms.parse_term.term",
    "typesys.print_type",
    "typesys.parse_type.typ",
    "typesys.subtype",
    "typesys.mset_subtype",
    "typesys.mset_subtype.assign",
    "typesys.srank",
    "typesys.is_balanced",
    "typesys._mentions_unsafe",
    "typesys.validate_type",
    "typesys._check_type",
}


def _scope(body, params, path):
    """The names that a scope with these statements and parameters binds to
    something other than a def, and {name: qualified name} of its defs.
    Lambdas and comprehensions are not separate scopes here."""
    bound, defs, free = set(params), {}, set()
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[node.name] = f"{path}.{node.name}"
            continue
        if isinstance(node, ast.ClassDef):
            bound.add(node.name)
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            free.update(node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return bound - free - set(defs), defs


def _params(fn):
    args = fn.args
    every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return [a.arg for a in every if a is not None]


def _call_graph(module, prefix):
    """{qualified name: set of qualified names it refers to} for every def of
    `module`."""
    # each def's qualified name, its chain of enclosing scopes (innermost
    # first, ending with the module's), and the methods of its nearest
    # enclosing class
    found = []
    module_scope = _scope(module.body, (), prefix)
    stack = [(node, prefix, (module_scope,), None) for node in module.body]
    while stack:
        node, path, scopes, methods = stack.pop()
        if isinstance(node, ast.ClassDef):
            name = f"{path}.{node.name}"
            own = {
                c.name: f"{name}.{c.name}"
                for c in node.body
                if isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            # a class body is not an enclosing scope of its methods
            stack.extend((c, name, scopes, own) for c in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{path}.{node.name}"
            inner = (_scope(node.body, _params(node), name),) + scopes
            found.append((name, node, inner, methods))
            stack.extend((c, name, inner, methods) for c in node.body)
        else:
            stack.extend((c, path, scopes, methods) for c in ast.iter_child_nodes(node))
    graph = {}
    for name, fn, scopes, methods in found:
        edges = graph[name] = set()
        todo = list(fn.body) + fn.args.defaults + fn.args.kw_defaults
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                for bound, defs in scopes:
                    if node.id in defs:
                        edges.add(defs[node.id])
                        break
                    if node.id in bound:
                        break
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and methods
                and node.attr in methods
            ):
                edges.add(methods[node.attr])
            todo.extend(n for n in ast.iter_child_nodes(node) if n is not None)
    return graph


def _on_cycles(graph):
    """The nodes of `graph` that can reach themselves."""
    out = set()
    for start in graph:
        seen = set()
        todo = list(graph[start])
        while todo:
            node = todo.pop()
            if node == start:
                out.add(start)
                break
            if node not in seen:
                seen.add(node)
                todo.extend(graph.get(node, ()))
    return out


def test_self_recursive_functions_only_go_away():
    found = set()
    for path in Path(lampe.__file__).parent.glob("*.py"):
        found |= _on_cycles(_call_graph(ast.parse(path.read_text()), path.stem))
    assert sorted(found - RECURSIVE) == [], "new recursive functions"
    assert sorted(RECURSIVE - found) == [], "no longer recursive: strike them"


def test_the_scan_sees_each_kind_of_edge():
    source = '''
def direct(t):
    return direct(t)

def one(t):
    return two(t)

def two(t):
    return one(t)

def passed(xs):
    return list(map(passed, xs))

def shadowed(shadowed):
    return shadowed(1)

def outer(t):
    def outer(u):
        return u
    return outer(t)

class K:
    def m(self, t):
        return self.m(t)

    def n(self, t):
        return m(t)
'''
    found = _on_cycles(_call_graph(ast.parse(source), "x"))
    assert found == {"x.direct", "x.one", "x.two", "x.passed", "x.K.m"}
