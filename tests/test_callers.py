"""Static guard: every public function of the package serves a run.

A reference implementation that only tests call belongs in
tests/oracles.py, not in src/hpfl.  The guard reads code, not text: only
AST names and attributes count as references, so a docstring or an
``__all__`` entry does not.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hpfl"


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def public_functions():
    """(module, name) of each public module-level function in src/hpfl."""
    return [(path.stem, node.name)
            for path in sorted(PACKAGE.glob("*.py"))
            for node in _tree(path).body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]


def referenced_names():
    """The names and attributes read by code in src/, scripts/ and bench/,
    and the names hpfl/__init__.py re-exports."""
    names = set()
    for top in ("src", "scripts", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    names.update(alias.asname or alias.name
                  for node in _tree(PACKAGE / "__init__.py").body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)
    return names


def test_every_public_function_has_a_caller_outside_the_tests():
    referenced = referenced_names()
    test_only = ["%s.%s" % pair for pair in public_functions()
                 if pair[1] not in referenced]
    assert not test_only, (
        "public functions no code in src/, scripts/ or bench/ calls "
        "(move them to tests/oracles.py or delete them): %s" % test_only)
