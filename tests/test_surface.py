"""Every name the package exports, every top-level function and every
method of src/synmem has a caller.

A name counts as called where it appears as a Name or Attribute node in a
module of src/synmem other than the package's `__init__`, outside the body
of its own def or class, or anywhere in bench/*.py. bench/tracer.py names
what it wraps as "module:function" or "module:Class.method" strings in its
layer tables, so those names count too. Nodes are counted, not text: a
docstring that mentions a name does not call it. Dunder methods are called
by the language, so they are not checked.

It also holds one layering rule: snn imports no synmem module but quant
and rng, so training records counts and energy alone prices them.
"""

import ast
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "synmem")
BENCH = os.path.join(ROOT, "bench")


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _modules(directory):
    return [os.path.join(directory, f) for f in sorted(os.listdir(directory))
            if f.endswith(".py")]


def exported_names():
    tree = _parse(os.path.join(SRC, "__init__.py"))
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def used_names(tree):
    """Names read as Name or Attribute nodes, outside a def or class of that name."""
    used = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        elif isinstance(node, ast.Name) and node.id not in owners:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in owners:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return used


def traced_names():
    """Functions, classes and methods named in bench/tracer.py's layer tables."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(BENCH, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [t for layers in (tracer.TIMED_LAYERS, tracer.COUNTED_LAYERS)
               for ts in layers.values() for t in ts]
    return {name for t in targets for name in t.split(":")[1].split(".")}


def defined_names():
    """(module:qualified name, name) of each top-level function and each
    non-dunder method in src/synmem."""
    defs = []
    for path in _modules(SRC):
        module = os.path.basename(path)[:-3]
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}:{node.name}.{m.name}", m.name) for m in node.body
                         if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((f"{module}:{node.name}", node.name))
    return defs


def called_names():
    used = traced_names()
    for path in _modules(SRC):
        if os.path.basename(path) != "__init__.py":
            used |= used_names(_parse(path))
    for path in _modules(BENCH):
        used |= used_names(_parse(path))
    return used


def test_every_export_has_a_caller():
    used = called_names()
    assert [name for name in exported_names() if name not in used] == []


def test_every_function_and_method_has_a_caller():
    used = called_names()
    defs = defined_names()
    assert len(defs) > 100       # the walk found the package's functions
    assert [where for where, name in defs if name not in used] == []


def test_snn_imports_only_quant_and_rng():
    imported = set()
    for node in ast.walk(_parse(os.path.join(SRC, "snn.py"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= ({node.module} if node.module
                         else {alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("synmem"):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.startswith("synmem")}
    assert imported == {"quant", "rng"}
