"""Every function, method and class of the engine modules has a caller in the package."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import qkcomin

PACKAGE = Path(qkcomin.__file__).resolve().parent

# names kept without a caller in the package, one reason each
ALLOWED = {
    "recombine": "bench/tracer.py patches KModel.recombine by name (GKM_METHODS)",
    "load_table_json": "public API in the README; tests round-trip every table line through it",
    "star_elements": "the planned whitney check multiplies with it",
    "positivity_sign_report": "the planned sign check reports with it",
}


def references(tree) -> Counter:
    """How often each name is read, as a variable or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node


@pytest.mark.parametrize(
    "module", ["gkm.py", "quantum.py", "cli.py", "cache.py", "laurent.py", "weyl.py"]
)
def test_every_definition_has_a_caller(module):
    package_refs = Counter()
    for path in PACKAGE.glob("*.py"):
        package_refs += references(ast.parse(path.read_text(encoding="utf-8")))
    unused = [
        f"{node.name} (line {node.lineno})"
        for node in definitions(ast.parse((PACKAGE / module).read_text(encoding="utf-8")))
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in ALLOWED
        and package_refs[node.name] == references(node)[node.name]
    ]
    assert not unused, f"defined in {module} and never referenced in the package: {unused}"
