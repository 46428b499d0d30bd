"""The reach scan lists what no run *calls*, not what nothing *names*.

``benchmarks/reach_scan.py`` runs its run set under a ``sys.setprofile``
hook and lists every outermost function under ``src/`` that no run
called. These tests plant a scratch tree with one runner and watch the
scan catch a function that is only mentioned, keep one that is called
only in a forked child, and catch one whose only caller is a test.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import reach_scan  # noqa: E402

MODULE = """\
import functools


def called():
    return 1


def mentioned():
    return 2


@functools.lru_cache()
def in_child():
    return 3


def tested():
    return 4


def outer():
    def inner():
        return 5
    return inner
"""

RUNNER = """\
import os
from pkg import mod

mod.called()
handle = mod.mentioned
mod.outer()
pid = os.fork()
if pid == 0:
    mod.in_child()
    os._exit(0)
os.waitpid(pid, 0)
"""


@pytest.fixture(scope="module")
def scanned(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "__init__.py").write_text("")
    (root / "src" / "pkg" / "mod.py").write_text(MODULE)
    (root / "examples").mkdir()
    (root / "examples" / "demo.py").write_text(RUNNER)
    (root / "tests").mkdir()
    (root / "tests" / "test_mod.py").write_text(
        "from pkg import mod\n\n\ndef test_tested():\n"
        "    assert mod.tested() == 4\n"
    )
    runs = (("demo", [sys.executable, "examples/demo.py"], {}, (0,)),)
    reached, failures = reach_scan.trace_runs(root, runs)
    assert failures == []
    return {name for _path, name, _f, _l in reach_scan.unreached(root, reached)}


def test_a_mentioned_function_is_listed(scanned):
    assert "mentioned" in scanned


def test_a_function_called_in_a_forked_child_is_not_listed(scanned):
    assert "in_child" not in scanned


def test_a_function_only_a_test_calls_is_listed(scanned):
    assert "tested" in scanned


def test_only_the_uncalled_are_listed(scanned):
    # ``outer`` ran, so its uncalled ``inner`` is listed on its own
    assert scanned == {"mentioned", "tested", "outer.<locals>.inner"}


def test_a_decorated_function_is_keyed_by_its_decorator_line(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text(MODULE)
    first = {name: first for _p, name, first, _l, _i in
             reach_scan.functions(tmp_path)}
    assert first["in_child"] == MODULE.splitlines().index(
        "@functools.lru_cache()"
    ) + 1
