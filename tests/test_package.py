"""The package's public surface and source rules."""

import ast
import dataclasses
import glob
import importlib
import os
import re

import hybridgc


def test_every_export_resolves_once():
    names = hybridgc.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(hybridgc, name)]
    assert missing == []


def test_no_invariant_is_an_assert():
    """``python -O`` strips asserts; a model invariant must raise ``InvariantError``."""
    package = os.path.dirname(hybridgc.__file__)
    found = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def test_no_unused_import():
    """Every name a module imports is read in it, counting string annotations.

    ``__init__.py`` re-exports what it imports, and ``__future__`` imports
    are directives, so neither is checked.
    """
    package = os.path.dirname(hybridgc.__file__)
    unused = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for annotation in filter(None, _annotations(tree)):
            for node in ast.walk(annotation):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    expr = ast.parse(node.value, mode="eval")
                    used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
        unused += [f"{os.path.basename(path)}:{line} {name}" for name, line in imported.items() if name not in used]
    assert sorted(unused) == []


def test_every_constant_is_read():
    """Each upper-case module-level name that a module binds is read by some module of the package."""
    package = os.path.dirname(hybridgc.__file__)
    bound = []
    read = set()
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    bound.append(f"{os.path.basename(path)}:{node.lineno} {target.id}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert [entry for entry in bound if entry.split()[1] not in read] == []


def test_the_cyclic_collector_is_switched_only_around_a_run():
    """The package's one use of ``gc``: ``run_experiment`` switches it off
    before the ``try`` that holds the whole run, and its ``finally``
    switches it back on only if it was on."""
    package = os.path.dirname(hybridgc.__file__)
    uses = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        module = os.path.basename(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                uses += [(module, "import") for alias in node.names if alias.name == "gc"]
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                uses.append((module, "from-import"))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "gc":
                uses.append((module, node.attr))
        if module == "harness.py":
            (run,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run_experiment"]
    assert sorted(uses) == [
        ("harness.py", "disable"),
        ("harness.py", "enable"),
        ("harness.py", "import"),
        ("harness.py", "isenabled"),
    ]
    docstring, *switch, guarded = run.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [ast.unparse(stmt) for stmt in switch] == ["was_enabled = gc.isenabled()", "gc.disable()"]
    assert isinstance(guarded, ast.Try)
    assert [ast.unparse(stmt) for stmt in guarded.finalbody] == ["if was_enabled:\n    gc.enable()"]


def _memory_tree() -> ast.Module:
    path = os.path.join(os.path.dirname(hybridgc.__file__), "memory.py")
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _memory_defs() -> dict[str, ast.ClassDef | ast.FunctionDef]:
    """The classes and functions that ``memory.py`` defines at module level."""
    return {node.name: node for node in _memory_tree().body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}


def test_a_cache_access_calls_no_method_of_its_own():
    """``MemorySystem.access`` is one frame per access, cached or not: no
    helper method passes bytes through, counts victims, adds keys or
    walks a run."""
    defs = _memory_defs()
    # every method a class of memory.py defines, whatever it is called on
    own = {name for node in defs.values() if isinstance(node, ast.ClassDef) for name in _methods(node)}
    access = _methods(defs["MemorySystem"])["access"]
    calls = [
        ast.unparse(node.func)
        for node in ast.walk(access)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and (node.func.attr in own or ast.unparse(node.func.value) == "self")
    ]
    assert calls == []


def test_memory_counts_per_key_in_lists():
    """``TrafficCounters`` holds its counts in lists indexed by key id, and
    ``memory.py`` stores nothing under a tuple key: no dict of counts by
    ``(instance, kind, space)`` or ``(instance, kind)`` is built."""
    init = _methods(_memory_defs()["TrafficCounters"])["__init__"]
    bound = {}
    for stmt in init.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            bound[ast.unparse(target)] = ast.unparse(stmt.value)
    assert set(bound.values()) <= {"[]", "0"}, bound
    assert bound["self.fills"] == bound["self.writebacks"] == "0"
    tuple_keyed = [
        f"memory.py:{node.lineno}"
        for node in ast.walk(_memory_tree())
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) and isinstance(node.slice, ast.Tuple)
    ]
    assert tuple_keyed == []


def test_memory_knows_no_memory_kind():
    """A counter key means something only to the heap that added it:
    ``memory.py`` imports nothing from ``address_space`` and names no
    ``MemoryKind``."""
    imports, kinds = [], []
    for node in ast.walk(_memory_tree()):
        if isinstance(node, ast.ImportFrom) and "address_space" in (node.module or ""):
            imports.append(ast.unparse(node))
        elif isinstance(node, ast.Import) and any("address_space" in alias.name for alias in node.names):
            imports.append(ast.unparse(node))
        elif (isinstance(node, ast.Name) and node.id == "MemoryKind") or (
            isinstance(node, ast.Attribute) and node.attr == "MemoryKind"
        ):
            kinds.append(f"memory.py:{node.lineno}")
    assert imports == [] and kinds == []


def _nodes_by_scope(tree: ast.Module):
    """``(scope, node)`` for every node of ``tree``: ``scope`` is ``Class.method``,
    ``function`` or ``Class`` for the innermost named definition around it, else ``""``."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope.split('.')[0]}.{child.name}" if scope and "." not in scope else child.name
                yield inner, child
                yield from visit(child, inner)
            else:
                yield scope, child
                yield from visit(child, scope)

    yield from visit(tree, "")


def test_a_space_holds_its_half_and_nothing_looks_it_up_by_kind():
    """The heap maps each space's kind to its half once, when it builds its
    spaces: under ``src/`` only ``HeapInstance.__init__`` calls
    ``free_list_for``, and only the heap keeps and reads a ``layout``, so no
    space or collector reaches the halves through it."""
    package = os.path.dirname(hybridgc.__file__)
    lookups, layouts = [], []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        where = os.path.basename(path)
        for scope, node in _nodes_by_scope(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "free_list_for" and scope != "HeapInstance.__init__":
                    lookups.append(f"{where}:{node.lineno} {scope}")
            elif isinstance(node, ast.Attribute) and node.attr == "layout":
                on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
                if not (on_self and scope.startswith("HeapInstance.")):
                    layouts.append(f"{where}:{node.lineno} {scope} {ast.unparse(node)}")
    assert lookups == [] and layouts == []


def _self_attrs(cls: ast.ClassDef) -> set[str]:
    """Names the methods of ``cls`` assign to ``self``, by ``self.x = ...`` or ``object.__setattr__(self, "x", ...)``."""
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                names.add(node.attr)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__" and len(node.args) > 1:
            if isinstance(node.args[1], ast.Constant):
                names.add(node.args[1].value)
    return names


def test_every_name_the_readme_gives_resolves():
    """A backticked ``Name.attr`` in README.md, where ``Name`` is a module of
    the package or a class it defines, names an attribute of that module or
    class, a dataclass field, or an attribute the class assigns to ``self``.
    A file name such as ``workloads.py`` is not a ``Name.attr``."""
    package = os.path.dirname(hybridgc.__file__)
    modules = {}
    classes = {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        name = os.path.basename(path)[:-3]
        if name == "__init__":
            continue
        modules[name] = importlib.import_module(f"hybridgc.{name}")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (getattr(modules[name], node.name), _self_attrs(node))
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        spans = re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", fh.read())
    checked, unresolved = 0, []
    for owner, attr in spans:
        if attr == "py":
            continue
        if owner in modules:
            found = hasattr(modules[owner], attr)
        elif owner in classes:
            cls, assigned = classes[owner]
            fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
            found = hasattr(cls, attr) or attr in fields or attr in assigned
        else:
            continue
        checked += 1
        if not found:
            unresolved.append(f"{owner}.{attr}")
    assert unresolved == []
    assert checked >= 5  # the README's library section names several
