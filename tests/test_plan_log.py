"""The plan log records each test's EXPLAIN texts and lists the plans
that moved between two logs.

``benchmarks/plan_log.py`` is a pytest plugin and a script. These tests
plant a two-test directory, log its plans twice around a change to one
test's statement, and watch the diff name that test and only it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import plan_log  # noqa: E402

PLANTED = """\
from repro.engine import Database


def _plan(sql):
    db = Database()
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    for k in range(10):
        db.execute(f"INSERT INTO t VALUES ({k}, {k})")
    db.query(sql)


def test_seek():
    _plan("SELECT v FROM t WHERE k {op} 5")


def test_scan():
    _plan("SELECT v FROM t WHERE v > 1")
"""


def _log(tmp_path, name, op):
    (tmp_path / "test_planted.py").write_text(PLANTED.replace("{op}", op))
    log = tmp_path / name
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")]),
    )
    subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "plan_log",
            "-p", "no:cacheprovider", "--plan-log", str(log),
            "test_planted.py",
        ],
        cwd=tmp_path, env=env, check=True, capture_output=True,
    )
    return log


def test_the_log_holds_each_tests_plans(tmp_path):
    plans = json.loads(_log(tmp_path, "old.json", "=").read_text())
    assert sorted(plans) == [
        "test_planted.py::test_scan", "test_planted.py::test_seek",
    ]
    (scan,) = plans["test_planted.py::test_scan"]
    (seek,) = plans["test_planted.py::test_seek"]
    assert "Table Scan [t]" in scan and "Filter ((v > 1))" in scan
    assert "Clustered Index Seek [t] ((5,) .. (5,))" in seek


def test_the_diff_lists_only_the_moved_plan(tmp_path, capsys):
    old = _log(tmp_path, "old.json", "=")
    new = _log(tmp_path, "new.json", "<")
    assert plan_log.main([str(old), str(old)]) == 0
    assert plan_log.main([str(old), str(new)]) == 1
    out = capsys.readouterr().out
    assert "== test_planted.py::test_seek" in out
    assert "test_scan" not in out
    seeks = [line for line in out.splitlines() if "Index Seek" in line]
    assert [line[0] for line in seeks] == ["-", "+"]
    assert "[t] ((5,) .. (5,))" in seeks[0]
    assert "[t] (None .. before (5,))" in seeks[1]
    assert out.rstrip().endswith(
        "1 gone and 1 new in 1 test(s); 0 test(s) in one log only"
    )
    assert "2 plan(s) in" in out
