import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _layers():
    """The `LAYERS` table of bench/run.py, read from its source without
    importing the script."""
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no LAYERS table")


def test_every_traced_function_resolves_on_its_layer():
    # the tracer wraps `lampe.<layer>.<name>`; a function moved to another
    # module must stay importable under its layer
    missing = [
        f"{layer}.{name}"
        for layer, names in _layers().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"lampe.{layer}"), name, None))
    ]
    assert missing == []
