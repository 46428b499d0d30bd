"""Every public name in ``repro.engine`` and ``repro.core`` has a caller
that is not its own test.

The rule: a public top-level function or class, or a public method of a
public class, defined under ``src/repro/engine/`` or ``src/repro/core/``,
is *reached* when a ``.py`` file uses it

- under ``src/``, outside its own definition and outside the re-exports
  of a package ``__init__.py``;
- under ``benchmarks/``;
- under ``examples/``.

A use is a name, an attribute, an imported name (an ``as`` alias counts)
or an identifier-shaped string constant (``getattr`` dispatch). Files
under ``tests/`` do not count, and methods of private classes are
skipped. A name nothing reaches is deleted, or it goes on ``ALLOWED``
with the reason a test needs it and the test that uses it. Every check
reads a tree passed as ``root``, so a test can plant a dead function in
a scratch tree and watch the check catch it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: where the names live
DEFINED_IN = ("src/repro/engine", "src/repro/core")
#: where a use counts
USED_IN = ("src", "benchmarks", "examples")

#: name -> (why a test needs it, the test that uses it). Only names that
#: read or drive *another* behaviour qualify; at most ten.
ALLOWED = {
    "parse_statement": (
        "reads the AST one statement parses to",
        "tests/engine/test_parser.py",
    ),
    "find_query": (
        "reads a statement's Query Store entry by its text",
        "tests/engine/test_querystore.py",
    ),
    "plans_for": (
        "reads the plans the Query Store interned for a query",
        "tests/engine/test_querystore.py",
    ),
    "runtime_for": (
        "reads the Query Store's runtime rows for a query",
        "tests/engine/test_querystore.py",
    ),
    "read_all": (
        "reads a blob back to prove the FILESTREAM store kept it",
        "tests/engine/test_filestream.py",
    ),
    "SimpleTvf": (
        "the TVF fixture that drives the table-valued operators",
        "tests/engine/test_planner.py::TestOperatorReachability",
    ),
}


def _py_files(root, top):
    return sorted(
        path for path in (root / top).rglob("*.py")
        if "__pycache__" not in path.parts
    )


def definitions(root=ROOT):
    """``(name, path, first line, last line)`` of every public top-level
    function or class and every public method of a public class."""
    found = []
    for top in DEFINED_IN:
        for path in _py_files(root, top):
            rel = path.relative_to(root).as_posix()
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ) or node.name.startswith("_"):
                    continue
                found.append((node.name, rel, node.lineno, node.end_lineno))
                if not isinstance(node, ast.ClassDef):
                    continue
                for member in node.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not member.name.startswith("_"):
                        found.append(
                            (member.name, rel, member.lineno, member.end_lineno)
                        )
    return found


def _reexports(tree):
    """The nodes of a package ``__init__`` that only re-export names."""
    skipped = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) or (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
        ):
            skipped.update(id(sub) for sub in ast.walk(node))
    return skipped


def uses(root=ROOT):
    """name -> ``[(path, line)]`` of every use under ``USED_IN``."""
    found = {}
    for top in USED_IN:
        for path in _py_files(root, top):
            rel = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"))
            skipped = _reexports(tree) if path.name == "__init__.py" else ()
            for node in ast.walk(tree):
                if id(node) in skipped:
                    continue
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rpartition(".")[2]
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ) and node.value.isidentifier():
                    name = node.value
                else:
                    continue
                line = getattr(node, "lineno", None)
                found.setdefault(name, []).append((rel, line))
    return found


def unreached(root=ROOT):
    """``(name, path, line)`` of every definition with no use outside
    its own body."""
    used = uses(root)
    dead = []
    for name, path, first, last in definitions(root):
        if not any(
            not (where == path and line is not None and first <= line <= last)
            for where, line in used.get(name, ())
        ):
            dead.append((name, path, first))
    return dead


def test_every_public_name_is_reached():
    dead = [hit for hit in unreached() if hit[0] not in ALLOWED]
    assert dead == [], "delete these, or allowlist one a test needs"


def test_every_allowed_name_is_defined_and_unreached():
    # a stale entry would let a dead name of the same spelling back in
    assert {name for name, _p, _l in unreached()} >= set(ALLOWED)


def test_the_allowlist_is_short_and_says_why():
    assert len(ALLOWED) <= 10
    for name, (reason, test) in ALLOWED.items():
        path, _sep, test_class = test.partition("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        assert reason and name in text
        assert not test_class or f"class {test_class}" in text


def test_a_planted_dead_function_is_caught(tmp_path):
    engine = tmp_path / "src" / "repro" / "engine"
    engine.mkdir(parents=True)
    (engine / "planted.py").write_text(
        "def called():\n    return 1\n\n\n"
        "def dead():\n    return dead()\n\n\n"
        "class Box:\n    def used(self):\n        return called()\n\n"
        "    def unused(self):\n        return self.used()\n\n\n"
        "class _Private:\n    def visit(self):\n        pass\n"
    )
    (engine / "__init__.py").write_text(
        "from .planted import Box, dead\n__all__ = ['Box', 'dead']\n"
    )
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text(
        "from repro.engine.planted import Box as B\nB().used()\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_planted.py").write_text(
        "from repro.engine.planted import dead\nBox().unused()\n"
    )
    dead = {name for name, _p, _l in unreached(tmp_path)}
    assert dead == {"dead", "unused"}
