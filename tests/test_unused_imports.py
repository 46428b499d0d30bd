"""Every name a module under ``src/`` imports, it uses.

The rule: in a ``.py`` file under ``src/`` other than a package
``__init__.py`` (whose imports are re-exports), every name an
``import`` or ``from ... import`` statement binds — the ``as`` alias
when there is one, the first dotted part of a plain ``import a.b`` —
is read somewhere in the file as a bare name. ``from __future__``
imports bind nothing and are skipped. The check reads a tree passed
as ``root``, so a test can plant an unused import in a scratch tree and
watch the check catch it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(root=ROOT):
    """``(path, line, name)`` of every imported name its module never
    reads."""
    found = []
    for path in sorted((root / "src").rglob("*.py")):
        if path.name == "__init__.py" or "__pycache__" in path.parts:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [
                    (node.lineno, (a.asname or a.name).partition(".")[0])
                    for a in node.names
                ]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [(node.lineno, a.asname or a.name) for a in node.names]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        rel = path.relative_to(root).as_posix()
        found += [(rel, line, name) for line, name in bound if name not in read]
    return found


def test_every_imported_name_is_used():
    assert unused_imports() == []


def test_a_planted_unused_import_is_caught(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .mod import used\n")
    (package / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from typing import List, Tuple\n"
        "from math import floor as round_down\n\n\n"
        "def used(xs: List[int]) -> str:\n"
        "    return codec.dumps(xs)\n"
    )
    assert unused_imports(tmp_path) == [
        ("src/pkg/mod.py", 2, "os"),
        ("src/pkg/mod.py", 4, "Tuple"),
        ("src/pkg/mod.py", 5, "round_down"),
    ]
