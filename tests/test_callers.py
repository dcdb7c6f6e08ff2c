"""Static guards: every public function of the package serves a run,
every name the benchmark's tracer patches exists, and every traced model
method keeps a name the benchmark counts as a kernel.

A reference implementation that only tests call belongs in
tests/oracles.py, not in src/hpfl.  The first guard reads code, not text:
only AST names and attributes count as references, so a docstring or an
``__all__`` entry does not.  The second catches a traced name that no run
calls, such as ``meta.meta_loss``, being renamed or deleted.
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


def tracer():
    """The namespace of the benchmark's tracer module.

    bench/tracer.py is run with exec rather than imported, so the test
    writes no bytecode under bench/.
    """
    path = ROOT / "bench" / "tracer.py"
    namespace = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def traced_targets():
    """The (owner, attribute) pairs the benchmark's tracer patches."""
    return tracer()["targets"]()


def test_every_traced_name_exists():
    missing = ["%s.%s" % (getattr(owner, "__name__", owner), attr)
               for owner, attr in traced_targets() if not hasattr(owner, attr)]
    assert not missing, (
        "bench/tracer.py traces names the package no longer has: %s" % missing)


def test_traced_kernel_spans_keep_their_kernel_names():
    """A traced method of a model class, inherited or its own, gives a span
    name that bench/run.py counts as a kernel: it starts with ``tasks.``
    and holds ``Model.``.  The tracer names a span by the function's
    ``__qualname__``, so a method inherited from a base whose name lacks
    ``Model`` would drop out of every kernel metric."""
    namespace = tracer()
    span_name = namespace["span_name"]
    names = [span_name(getattr(owner, attr))
             for owner, attr in namespace["targets"]()
             if isinstance(owner, type) and owner.__module__ == "hpfl.tasks"]
    assert names
    wrong = [name for name in names
             if not (name.startswith("tasks.") and "Model." in name)]
    assert not wrong, "traced kernels the benchmark does not count: %s" % wrong
