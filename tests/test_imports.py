"""Every name a module imports is read somewhere in that module, and the
exact layer does not import the coding or embedding layers.

Each module of the package (``__init__`` re-exports, so it is left out) and
each script is parsed, and an imported name counts as used when the module
reads it as a name, including as the head of an attribute chain, or lists
it in ``__all__``. ``from __future__`` imports are compiler directives and
are exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "cryptogenography").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
)


def unused_imports(source: str) -> list:
    """The names ``source`` imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read and name not in exported]


def test_the_modules_are_found():
    names = {p.name for p in MODULES}
    assert {"protocols.py", "suspicion.py", "report_digests.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_flags_a_name_read_nowhere():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .probability import ZERO, as_probability\n"
        "__all__ = ['helper']\n"
        "from .protocols import helper\n"
        "x = as_probability(np.int64(1)) + len(os.path.sep)\n"
    )
    assert unused_imports(source) == ["ZERO"]


# the exact layer: it reads neither the window codes nor the embedding
EXACT_LAYER = ("probability", "protocols", "suspicion", "game")


def imported_modules(source: str) -> set:
    """The first component of every module ``source`` imports, anywhere in
    it, with the package prefix and relative dots dropped; ``from X import
    y`` also counts ``X.y``, which catches ``from . import coding``."""
    paths = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            paths += [base] + ["%s.%s" % (base, a.name) for a in node.names]
    found = set()
    for path in paths:
        path = path.lstrip(".").removeprefix("cryptogenography").lstrip(".")
        if path:
            found.add(path.partition(".")[0])
    return found


@pytest.mark.parametrize("name", EXACT_LAYER)
def test_the_exact_layer_imports_no_coding_or_embedding(name):
    source = (ROOT / "src" / "cryptogenography" / (name + ".py")).read_text()
    assert imported_modules(source) & {"coding", "embedding"} == set()


def test_the_layer_scan_sees_every_import_form():
    source = (
        "from .coding import fixed_capacity\n"
        "from . import embedding\n"
        "import cryptogenography.cli\n"
        "from cryptogenography import seeds\n"
        "def f():\n"
        "    from .game import succ_of_protocol\n"
    )
    assert {"coding", "embedding", "cli", "seeds", "game"} <= imported_modules(source)
