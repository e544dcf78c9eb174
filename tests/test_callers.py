"""Every function, method and class of the package modules has a caller in the
package, and every name a package module imports is read there."""

import ast
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

import qkcomin

PACKAGE = Path(qkcomin.__file__).resolve().parent
MODULES = tuple(
    sorted(p.name for p in PACKAGE.glob("*.py") if p.name not in ("__init__.py", "__main__.py"))
)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# names kept without a caller in the package, one reason each
ALLOWED = {
    "recombine": "bench/tracer.py patches KModel.recombine by name (GKM_METHODS)",
    "star_elements": "the planned whitney check multiplies with it",
    "swap_letters": "bench/tracer.py looks LaurentElement.swap_letters up by name "
    "(inspect.getattr_static raises on a missing one); the reference sweep calls it",
    "parse": "bench/tracer.py LAURENT_OPS patches LaurentElement.parse by name, and the "
    "tests round-trip the output grammar with it",
}

# checked names that are also defined elsewhere in the package, where a read
# of one definition counts for all; one reason each why every one is read
SHARED_NAMES = {
    "zero": "KModel.zero returns LaurentElement.zero, which the subword table builder also calls",
    "one": "KModel.one returns LaurentElement.one, which starts every subword state",
    "dist": "quantum.dist is called by name, oracles.MomentGraph.dist as graph.dist",
}


def references(tree, skip) -> Counter:
    """How often each name is read, as a variable or as an attribute,
    outside the subtrees in ``skip``."""
    counts = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        stack.extend(ast.iter_child_nodes(node))
    return counts


def definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS):
            yield node


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@lru_cache(maxsize=None)
def package_trees() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


@lru_cache(maxsize=None)
def dead_definitions(allowed: frozenset = frozenset(ALLOWED)) -> tuple:
    """(module, definition) pairs of the checked modules, other than those
    named in ``allowed``, that nothing live reads.

    A name read only inside its own definition, or inside definitions
    already found dead, has no caller.  Rounds repeat until none is newly
    found, so a chain of helpers that only call each other is flagged whole.
    """
    trees = package_trees()
    candidates = [
        (module, node)
        for module in MODULES
        for node in definitions(trees[module])
        if not is_dunder(node.name) and node.name not in allowed
    ]
    dead: set = set()
    found: list = []
    while True:
        live = sum((references(tree, dead) for tree in trees.values()), Counter())
        new = [
            (module, node)
            for module, node in candidates
            if node not in dead and live[node.name] == references(node, dead)[node.name]
        ]
        if not new:
            return tuple(found)
        found.extend(new)
        for _, node in new:
            dead.update(definitions(node))


@pytest.mark.parametrize("module", MODULES)
def test_every_definition_has_a_caller(module):
    unused = [
        f"{node.name} (line {node.lineno})" for where, node in dead_definitions() if where == module
    ]
    assert not unused, f"defined in {module} and never referenced in the package: {unused}"


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_names_are_needed(name):
    """Each allowlisted name is defined in a checked module and is flagged
    once its own entry is removed, so no entry outlives its reason."""
    assert name in {node.name for module in MODULES for node in definitions(package_trees()[module])}
    flagged = {node.name for _, node in dead_definitions(frozenset(ALLOWED) - {name})}
    assert name in flagged


def test_shared_names_are_listed():
    """References are counted by name, so a checked definition whose name is
    defined twice could borrow the reads of its namesake; every such name
    must be listed in SHARED_NAMES with its reason, and nothing else."""
    counts = Counter(
        node.name for tree in package_trees().values() for node in definitions(tree)
    )
    shared = {
        node.name
        for module in MODULES
        for node in definitions(package_trees()[module])
        if counts[node.name] > 1 and not is_dunder(node.name) and node.name not in ALLOWED
    }
    assert shared == set(SHARED_NAMES)


def unused_imports(tree) -> list:
    """The names the module imports and never reads as a variable, with the
    line of their import."""
    reads = Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [f"{name} (line {node.lineno})" for name in names if not reads[name]]
    return unused


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_every_import_is_read(module):
    """``__init__.py`` imports to re-export, so it is not checked."""
    unused = unused_imports(package_trees()[module])
    assert not unused, f"imported in {module} and never read: {unused}"


def test_unused_import_is_flagged():
    tree = ast.parse("import os\nimport a.b\nfrom x import y as z, w\nos.sep\nw()\n")
    assert unused_imports(tree) == ["a (line 2)", "z (line 3)"]


# the only modules that read ``LaurentElement.parse``: the grammar of a scalar
# is an output format, read back only where it is defined; cache files hold
# integers
PARSE_READERS = {"laurent.py"}


def parse_readers(trees: dict) -> set:
    """The modules of ``trees`` that read an attribute named ``parse``,
    whether they call it or alias it."""
    return {
        module
        for module, tree in trees.items()
        if any(isinstance(node, ast.Attribute) and node.attr == "parse" for node in ast.walk(tree))
    }


def test_only_laurent_and_cache_parse_scalars():
    readers = parse_readers(package_trees())
    assert readers <= PARSE_READERS, f"LaurentElement.parse read outside {PARSE_READERS}: {readers}"


def test_parse_reader_is_flagged():
    sources = {
        "call.py": "LaurentElement.parse('1', 1)\n",
        "alias.py": "read = LaurentElement.parse\n",
        "other.py": "parser.parse_args()\nparse('1')\n",
    }
    trees = {name: ast.parse(text) for name, text in sources.items()}
    assert parse_readers(trees) == {"call.py", "alias.py"}
