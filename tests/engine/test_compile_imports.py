"""No module import runs per statement on the compile path.

Every function of the planner, the optimizer and the SQL linter runs
for each SELECT an ad hoc workload plans, so an ``import`` inside one of
them is paid on every statement (the interpreter re-resolves the
``from`` list each time). Imports belong at module level; a
function-level import is allowed only where a module-level one would
close an import cycle, and ``ALLOWED`` names that cycle.
"""

import ast
from pathlib import Path

import repro.engine

ENGINE = Path(repro.engine.__file__).resolve().parent

#: the modules whose functions run while one SELECT is compiled
COMPILE_PATH = sorted(
    [ENGINE / "planner.py", ENGINE / "verify" / "sql_lint.py"]
    + list((ENGINE / "optimizer").glob("*.py"))
)

#: ``(path relative to repro/engine, function, imported module)`` →
#: the import cycle a module-level import would close
ALLOWED = {}


def function_level_imports(source: str):
    """Yield ``(function name, imported module)`` for every import
    statement inside a function body of ``source``."""
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield func.name, alias.name
            elif isinstance(node, ast.ImportFrom):
                yield func.name, "." * node.level + (node.module or "")


def unexplained_imports(path: Path, source=None):
    """The function-level imports of ``path`` (or of ``source`` standing
    in for its text) that ``ALLOWED`` does not explain."""
    relative = path.relative_to(ENGINE).as_posix()
    if source is None:
        source = path.read_text()
    return [
        (relative, func, module)
        for func, module in function_level_imports(source)
        if (relative, func, module) not in ALLOWED
    ]


def test_compile_path_modules_are_found():
    names = {path.relative_to(ENGINE).as_posix() for path in COMPILE_PATH}
    assert {"planner.py", "verify/sql_lint.py", "optimizer/cost.py",
            "optimizer/rules.py", "optimizer/logical.py"} <= names


def test_no_function_level_import_on_the_compile_path():
    found = [hit for path in COMPILE_PATH for hit in unexplained_imports(path)]
    assert found == []


def test_every_allowance_is_still_needed():
    present = {
        (path.relative_to(ENGINE).as_posix(), func, module)
        for path in COMPILE_PATH
        for func, module in function_level_imports(path.read_text())
    }
    assert set(ALLOWED) <= present


def test_a_planted_import_is_caught():
    path = ENGINE / "optimizer" / "cost.py"
    source = path.read_text()
    planted = source.replace(
        "    def annotate(self, op):\n",
        "    def annotate(self, op):\n        from ..executor import Filter\n",
    )
    assert planted != source
    assert unexplained_imports(path, source) == []
    assert unexplained_imports(path, planted) == [
        ("optimizer/cost.py", "annotate", "..executor")
    ]
