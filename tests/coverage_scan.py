"""Line coverage of `src/lampe` under the tier-1 suite (Python 3.12+).

Runs the suite in this process with a `sys.monitoring` LINE callback, takes
the executable lines of each `lampe` module from its code objects, and prints
the lines that no test reached as JSON.  Exits non-zero if the suite fails or
if an unreached line is not in `ALLOWED`, which gives each kept line its
reason.  Each line reports once: the callback disables its location after the
first hit, so the suite keeps close to its plain speed.  There is no
`sys.settrace` fallback for older versions: a per-line trace makes the suite
several times slower and fails its timing gates.

    PYTHONPATH=src python tests/coverage_scan.py [pytest arguments]
"""

import json
import sys
import types
from pathlib import Path

import pytest

if sys.version_info < (3, 12):
    sys.exit("the coverage scan needs sys.monitoring, new in Python 3.12")

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "lampe"

_FALL_THROUGH = (
    "TypeError fall-through of an isinstance chain that tests every class "
    "of a closed union"
)
_SELF_CHECK = "self-check on the library's own construction; no valid input fails it"
_SUBPROCESS = "the console entry point runs only in a subprocess"

# (module, stripped source text) -> why no test reaches the line; a key covers
# every line of its module with that text
ALLOWED = {
    # children
    ("terms", "raise TypeError(t)"): _FALL_THROUGH,
    # srank, is_balanced, _mentions_unsafe
    ("typesys", "raise TypeError(t)"): _FALL_THROUGH,
    # eval_formula, _SharedBDD.build
    ("formulas", "raise TypeError(b)"): _FALL_THROUGH,
    # transport_subject_reduction's closing comparison and the plus-plus
    # pivot check
    ("transport", "raise UnsupportedStepError("): _SELF_CHECK,
    (
        "transport",
        'f"transport produced {out_j.format()}, expected {expected.format()}"',
    ): _SELF_CHECK,
    (
        "transport",
        '_unsupported("pivot selection mismatch in choice reordering")',
    ): _SELF_CHECK,
    # apply_mu_star's closing comparison
    ("typesys", "raise PreconditionError("): _SELF_CHECK,
    ("typesys", 'f"constructed {print_type(result.judgement.type)}, "'): _SELF_CHECK,
    ("typesys", 'f"expected {print_type(expected)}"'): _SELF_CHECK,
    # main and its __main__ call
    ("cli", "sys.exit(run(sys.argv[1:]))"): _SUBPROCESS,
    ("cli", "main()"): _SUBPROCESS,
    # ParseError.__str__
    ("errors", "return super().__str__()"): (
        "only a ParseError built without a position reaches it; nothing builds "
        "one, but unpickling calls ParseError(message) and restores the "
        "position afterwards, so the default stays"
    ),
}

COVERAGE_ID = sys.monitoring.COVERAGE_ID
_EVENTS = sys.monitoring.events


def executable_lines(path):
    """The line numbers that the code objects compiled from `path` report."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # 3.12 gives line 0 (and None) to instructions with no source line
        lines.update(n for _, _, n in code.co_lines() if n is not None and n > 0)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_suite(args):
    """Run pytest with LINE events on; returns its exit code and the set of
    (file, line) pairs that ran."""
    hit = set()
    prefix = str(SRC)

    def on_line(code, line):
        if code.co_filename.startswith(prefix):
            hit.add((code.co_filename, line))
        return sys.monitoring.DISABLE

    sys.monitoring.use_tool_id(COVERAGE_ID, "lampe-coverage-scan")
    sys.monitoring.register_callback(COVERAGE_ID, _EVENTS.LINE, on_line)
    sys.monitoring.set_events(COVERAGE_ID, _EVENTS.LINE)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS), *args])
    finally:
        sys.monitoring.set_events(COVERAGE_ID, _EVENTS.NO_EVENTS)
        sys.monitoring.free_tool_id(COVERAGE_ID)
    return code, hit


def main(args):
    code, hit = run_suite(args)
    unreached, unexplained = [], []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        reached = {line for name, line in hit if name == str(path)}
        for line in sorted(executable_lines(path) - reached):
            text = source[line - 1].strip()
            entry = {"module": path.stem, "line": line, "text": text}
            entry["reason"] = ALLOWED.get((path.stem, text))
            unreached.append(entry)
            if entry["reason"] is None:
                unexplained.append(entry)
    print(json.dumps(unreached, indent=1))
    print(f"{len(unreached)} unreached lines, {len(unexplained)} not in the allowlist")
    if code != 0:
        sys.exit(f"the suite failed (pytest exit code {int(code)})")
    if unexplained:
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv[1:])
