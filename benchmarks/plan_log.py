"""Log the EXPLAIN text of every plan a test run builds, and list the
plans that moved between two such logs.

As a pytest plugin (``benchmarks`` and ``src`` on the import path) it
wraps ``Planner.plan_select`` and records each plan's EXPLAIN text under
the id of the test that built it, in build order::

    PYTHONPATH=src:benchmarks python -m pytest -p plan_log \\
        --plan-log plans.json --hypothesis-seed=1

The fixed Hypothesis seed makes the generated statements, and so the
plans, the same on two trees. As a script it compares two logs::

    python3 benchmarks/plan_log.py OLD.json NEW.json

and prints, per test, the plans only one side built (a plan whose text
changed shows as one of each), then a summary line. It exits 1 when a
test both logs ran moved a plan, 0 otherwise; a test only one log ran
is counted in the summary, not listed.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from typing import Dict, List

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--plan-log", metavar="PATH",
        help="write every Planner.plan_select EXPLAIN text, per test id, "
        "to PATH as JSON",
    )


def pytest_configure(config):
    path = config.getoption("plan_log")
    if path:
        config.pluginmanager.register(PlanLog(path, config))


class PlanLog:
    """The EXPLAIN texts of one run, ``{test id: [text, ...]}`` in the
    order each test built them, written to ``path`` when it ends."""

    def __init__(self, path: str, config):
        from repro.engine.planner import Planner

        self.path = path
        self.plans: Dict[str, List[str]] = {}
        self.test = "(collection)"
        plan_select = Planner.plan_select

        def logged(planner, stmt):
            op = plan_select(planner, stmt)
            self.plans.setdefault(self.test, []).append(op.explain())
            return op

        Planner.plan_select = logged
        config.add_cleanup(lambda: setattr(Planner, "plan_select", plan_select))

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.test = item.nodeid
        yield

    def pytest_sessionfinish(self, session):
        with open(self.path, "w") as out:
            json.dump(self.plans, out, indent=0, sort_keys=True)


def moved(old: Dict[str, List[str]], new: Dict[str, List[str]]):
    """``{test id: (plans only in old, plans only in new)}`` for each
    test both logs ran whose plans differ as multisets."""
    found = {}
    for test in sorted(old.keys() & new.keys()):
        before, after = Counter(old[test]), Counter(new[test])
        if before != after:
            found[test] = (
                list((before - after).elements()),
                list((after - before).elements()),
            )
    return found


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: plan_log.py OLD.json NEW.json", file=sys.stderr)
        return 2
    logs = []
    for path in argv:
        with open(path) as handle:
            logs.append(json.load(handle))
    old, new = logs
    changes = moved(old, new)
    for test, (gone, came) in changes.items():
        print(f"== {test}")
        for sign, plans in (("-", gone), ("+", came)):
            for plan in plans:
                print("\n".join(f"{sign} {line}" for line in plan.splitlines()))
                print()
    gone, came = (
        sum(len(side[i]) for side in changes.values()) for i in (0, 1)
    )
    print(
        f"{sum(map(len, old.values()))} plan(s) in {argv[0]}, "
        f"{sum(map(len, new.values()))} in {argv[1]}; {gone} gone and "
        f"{came} new in {len(changes)} test(s); "
        f"{len(old.keys() ^ new.keys())} test(s) in one log only"
    )
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
