"""Write `tests/golden/proof_cli.json`: the exit code, stdout and stderr of
the proof subcommands over the proof fixture corpus, the small proofs that
head the mix permutations, and 20 seeded random proofs.  The test
`tests/test_cli.py::test_proof_cli_golden` replays the records.

Run from the repository root, only when the proof CLI's output is meant to
change:

    PYTHONPATH=src python tests/make_proof_golden.py
"""

import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from helpers import proof_fixture_corpus, proof_kind_corpus, random_proof  # noqa: E402
from lampe.cli import run  # noqa: E402
from lampe.proofs import proof_to_json  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "proof_cli.json"
SEED = 2026
RANDOM_PROOFS = 20
# (subcommand, flags); each runs on every input file
COMMANDS = (
    ("check-proof", ()),
    ("normalize-proof", ("--json",)),
    ("translate", ("--json",)),
    ("simulate", ()),
)


def golden_inputs():
    """{file name: proof JSON}, the hand-built proofs first."""
    proofs = proof_fixture_corpus() + proof_kind_corpus()
    fixed = len(proofs)
    rng = random.Random(SEED)
    while len(proofs) < fixed + RANDOM_PROOFS:
        p = random_proof(rng, depth=rng.randrange(2, 6))
        if p is not None:
            proofs.append(p)
    return {f"proof-{i:02d}.json": proof_to_json(p) for i, p in enumerate(proofs)}


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_records(inputs, argvs):
    """Run each argument list in a temporary directory that holds the input
    files, and return one record per run."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, blob in inputs.items():
            Path(tmp, name).write_text(json.dumps(blob))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            return [run_captured(argv) for argv in argvs]
        finally:
            os.chdir(here)


def write_golden(path, inputs, records):
    """Write the inputs and the records to `path`."""
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"inputs": inputs, "records": records}, indent=1) + "\n")
    print(f"{len(records)} records, {path.stat().st_size} bytes -> {path}")


def main():
    inputs = golden_inputs()
    argvs = [[command, *flags, name] for name in inputs for command, flags in COMMANDS]
    write_golden(GOLDEN, inputs, run_records(inputs, argvs))


if __name__ == "__main__":
    main()
