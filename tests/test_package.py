"""The package's public surface and source rules."""

import ast
import glob
import os

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
