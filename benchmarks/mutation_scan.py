"""Plant mutants in the code that establishes each PLAN-* invariant and
record what catches each one.

    python3 benchmarks/mutation_scan.py [--mutant ID ...] [--no-gates]

The plan sanitizer (``repro.engine.verify.plan_sanitizer``) re-proves,
over a finished plan, facts the planner and the operators' constructors
establish. A rule of it earns its place only if some fault in that
establishing code gets past every other check. Each row of ``MUTANTS``
is one such fault: a source edit of one planner or operator function,
never an edit of a finished plan. Every mutant runs in subprocesses of
this script, planted at interpreter start, so the exchange's forked
workers inherit it:

- **tier-1** — ``pytest -x`` over ``tests/`` with the mutant planted by
  this module as a pytest plugin (``PYTEST_PLUGINS=mutation_scan``, the
  mutant named by ``MUTATION_SCAN_MUTANT``), the sanitizer stubbed to
  find nothing (``MUTATION_SCAN_STUB=1``) and its own test file
  ignored; the record holds the first failing test;
- **sanitizer** — the real sanitizer over ``corpus_plans()``: the rules
  it reports, or the error planning raised first;
- **golden** — ``tests/engine/test_plan_golden.py`` (the EXPLAIN text of
  the corpus and the lookup shapes);
- **gates** — ``counter_gates.py`` over a seed-1, scale-1 ``run.py
  --trace 1`` run of all seven workloads, each workload's child process
  planted the same way (``--no-gates`` skips it).

Mutant ``M00`` plants nothing: every check must pass on it. A mutant
with an ``equivalent`` reason changes no behaviour a program run can
observe; it is recorded, not counted. The verdict table at the end
applies one rule: a PLAN-* rule stays only when some non-equivalent
mutant of its class passes tier-1 and the sanitizer flags it with that
rule. The record is written to ``benchmarks/results/mutation_record.txt``
(``--mutant`` runs print their rows and write nothing). Run it from the
repository root; with ``--jobs 2`` it takes about 40 minutes on 2 CPUs.
"""

from __future__ import annotations

import __future__
import argparse
import importlib
import inspect
import json
import os
import re
import runpy
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "benchmarks" / "results" / "mutation_record.txt"
SANITIZER_TESTS = "tests/engine/test_plan_sanitizer.py"
GOLDEN_TESTS = "tests/engine/test_plan_golden.py"
ENV_MUTANT = "MUTATION_SCAN_MUTANT"
ENV_STUB = "MUTATION_SCAN_STUB"

#: the PLAN-* rules the sanitizer had when this scan was written, in
#: catalog order: the verdict table has one row for each
RULE_CLASSES = (
    "PLAN-ARITY",
    "PLAN-SCHEMA",
    "PLAN-KEY-RANGE",
    "PLAN-EXCHANGE-MERGE",
    "PLAN-EXCHANGE-DOP",
    "PLAN-EXCHANGE-FLOAT-SUM",
    "PLAN-EXCHANGE-SILENT",
    "PLAN-PUSHDOWN-OP",
    "PLAN-PUSHDOWN-RANGE",
    "PLAN-PUSHDOWN-SHAPE",
)


class Edit(NamedTuple):
    """Replace the one occurrence of ``old`` in the source of
    ``target`` (``module:Qualified.name``) with ``new``."""

    target: str
    old: str
    new: str


class Mutant(NamedTuple):
    id: str
    #: the PLAN-* rule whose invariant the edited code establishes
    rule: str
    what: str
    edits: Tuple[Edit, ...]
    #: why no program run can observe the edit ("" when one can)
    equivalent: str = ""


PLANNER = "repro.engine.planner"
OPERATORS = "repro.engine.executor.operators"
JOINS = "repro.engine.executor.joins"
PARALLEL = "repro.engine.executor.parallel"
EXCHANGE = "repro.engine.executor.exchange"
CHEAPEST_ACCESS = f"{PLANNER}:Planner._cheapest_access"
GROUP_BY = f"{PLANNER}:Planner._apply_group_by"

MUTANTS = (
    Mutant("M00", "", "nothing planted (the control)", ()),
    # -- PLAN-ARITY ------------------------------------------------------
    Mutant(
        "M01", "PLAN-ARITY",
        "_apply_order_project drops the last select item's function",
        (Edit(f"{PLANNER}:Planner._apply_order_project",
              "return Project(op, fns, names)",
              "return Project(op, fns[:-1], names)"),),
    ),
    Mutant(
        "M02", "PLAN-ARITY",
        "the same dropped function, and Project built past its arity check",
        (Edit(f"{PLANNER}:Planner._apply_order_project",
              "return Project(op, fns, names)",
              "return Project(op, fns[:-1] if len(fns) > 1 else fns, names)"),
         Edit(f"{OPERATORS}:Project.__init__",
              "if len(fns) != len(names):", "if False:")),
    ),
    Mutant(
        "M03", "PLAN-ARITY",
        "Project.__init__ no longer checks its arity",
        (Edit(f"{OPERATORS}:Project.__init__",
              "if len(fns) != len(names):", "if False:"),),
        equivalent="the planner appends a function and a name per select "
        "item together, so no Project it builds reaches the check",
    ),
    Mutant(
        "M04", "PLAN-ARITY",
        "HashJoin's columns drop the right input's last column",
        (Edit(f"{JOINS}:HashJoin.__init__",
              "self.columns = list(left.columns) + list(right.columns)",
              "self.columns = list(left.columns) + list(right.columns)[:-1]"),),
    ),
    Mutant(
        "M05", "PLAN-ARITY",
        "HashAggregate's columns drop the last aggregate name",
        (Edit(f"{OPERATORS}:HashAggregate.__init__",
              "self.columns = list(group_names) + list(agg_names)",
              "self.columns = list(group_names) + list(agg_names)[:-1]"),),
    ),
    Mutant(
        "M06", "PLAN-ARITY",
        "a projected table leaf names one column fewer than it reads",
        (Edit(f"{OPERATORS}:_TableLeaf.__init__",
              "names = [names[i] for i in self.projection]",
              "names = [names[i] for i in self.projection][:-1]"),),
    ),
    # -- PLAN-SCHEMA -----------------------------------------------------
    Mutant(
        "M07", "PLAN-SCHEMA",
        "Filter reverses its child's columns",
        (Edit(f"{OPERATORS}:Filter.__init__",
              "self.columns = list(child.columns)",
              "self.columns = list(child.columns)[::-1]"),),
    ),
    Mutant(
        "M08", "PLAN-SCHEMA",
        "Distinct reverses its child's columns",
        (Edit(f"{OPERATORS}:Distinct.__init__",
              "self.columns = list(child.columns)",
              "self.columns = list(child.columns)[::-1]"),),
    ),
    Mutant(
        "M09", "PLAN-SCHEMA",
        "Sort reverses its child's columns",
        (Edit(f"{OPERATORS}:Sort.__init__",
              "self.columns = list(child.columns)",
              "self.columns = list(child.columns)[::-1]"),),
    ),
    Mutant(
        "M10", "PLAN-SCHEMA",
        "MergeJoin names the right input's columns first",
        (Edit(f"{JOINS}:MergeJoin.__init__",
              "self.columns = list(left.columns) + list(right.columns)",
              "self.columns = list(right.columns) + list(left.columns)"),),
    ),
    Mutant(
        "M11", "PLAN-SCHEMA",
        "a projected table leaf names each column after its schema "
        "predecessor",
        (Edit(f"{OPERATORS}:_TableLeaf.__init__",
              "names = [names[i] for i in self.projection]",
              "names = [names[i - 1] for i in self.projection]"),),
    ),
    # -- PLAN-KEY-RANGE --------------------------------------------------
    Mutant(
        "M12", "PLAN-KEY-RANGE",
        "_make_join resolves the right key indexes against the left input",
        (Edit(f"{PLANNER}:Planner._make_join",
              "right_key_indexes=[right.scope.resolve(r) for r in right_refs]",
              "right_key_indexes=[left.scope.resolve(r) for r in left_refs]"),),
    ),
    Mutant(
        "M13", "PLAN-KEY-RANGE",
        "_try_key_lookup's outer key positions are off by one",
        (Edit(f"{PLANNER}:Planner._try_key_lookup",
              "positions = [left.scope.resolve(outer_of[c]) for c in key]",
              "positions = [left.scope.resolve(outer_of[c]) + 1 for c in key]"),),
    ),
    Mutant(
        "M14", "PLAN-KEY-RANGE",
        "_apply_group_by's positional group keys are off by one",
        (Edit(GROUP_BY, "group_indexes = indexes",
              "group_indexes = tuple(i + 1 for i in indexes)"),),
    ),
    Mutant(
        "M15", "PLAN-KEY-RANGE",
        "_apply_group_by resolves a column argument one position right",
        (Edit(GROUP_BY, "arg_index = op.scope.find(arg)",
              "arg_index = op.scope.find(arg) + 1"),),
    ),
    # -- PLAN-EXCHANGE-MERGE ---------------------------------------------
    Mutant(
        "M16", "PLAN-EXCHANGE-MERGE",
        "the planner builds the exchange without asking for parallel "
        "safety, and the exchange no longer checks it",
        (Edit(GROUP_BY,
              "if all_parallel_safe and go_parallel and group_fns",
              "if go_parallel and group_fns"),
         Edit(f"{PARALLEL}:ParallelHashAggregate.__init__",
              "if not spec.parallel_safe:", "if False:")),
    ),
    Mutant(
        "M17", "PLAN-EXCHANGE-MERGE",
        "ParallelHashAggregate.__init__ no longer checks parallel safety",
        (Edit(f"{PARALLEL}:ParallelHashAggregate.__init__",
              "if not spec.parallel_safe:", "if False:"),),
    ),
    Mutant(
        "M18", "PLAN-EXCHANGE-MERGE",
        "a UDA's parallel safety ignores whether its merge() was verified",
        (Edit("repro.engine.executor.aggregates:AggregateSpec.parallel_safe",
              'getattr(self.uda_class, "_merge_verified", True)',
              "True"),),
    ),
    # -- PLAN-EXCHANGE-DOP -----------------------------------------------
    Mutant(
        "M19", "PLAN-EXCHANGE-DOP",
        "the planner builds MAXDOP n's exchange at n - 2, past its DOP check",
        (Edit(GROUP_BY, "dop=dop,", "dop=dop - 2,"),
         Edit(f"{PARALLEL}:ParallelHashAggregate.__init__",
              "if dop < 1:", "if dop < -1:")),
    ),
    Mutant(
        "M20", "PLAN-EXCHANGE-DOP",
        "ParallelHashAggregate.__init__ admits a degree of parallelism of 0",
        (Edit(f"{PARALLEL}:ParallelHashAggregate.__init__",
              "if dop < 1:", "if dop < 0:"),),
    ),
    # -- PLAN-EXCHANGE-FLOAT-SUM -----------------------------------------
    Mutant(
        "M21", "PLAN-EXCHANGE-FLOAT-SUM",
        "scan_offload_blocker admits a SUM/AVG over a non-integer column",
        (Edit(f"{EXCHANGE}:scan_offload_blocker",
              "if not sql_type.is_integer:", "if False:"),),
    ),
    Mutant(
        "M22", "PLAN-EXCHANGE-FLOAT-SUM",
        "scan_offload_blocker checks SUM's argument type but not AVG's",
        (Edit(f"{EXCHANGE}:scan_offload_blocker",
              "if spec.name in SUM_LIKE_AGGREGATES and not spec.distinct:",
              'if spec.name == "sum" and not spec.distinct:'),),
    ),
    Mutant(
        "M23", "PLAN-EXCHANGE-FLOAT-SUM",
        "scan_schema_position ignores a heap scan's projection, so the "
        "gate reads the type of another column",
        (Edit(f"{EXCHANGE}:scan_schema_position",
              "return projection[output_index] if projection is not None "
              "else output_index",
              "return output_index"),),
    ),
    # -- PLAN-EXCHANGE-SILENT --------------------------------------------
    Mutant(
        "M24", "PLAN-EXCHANGE-SILENT",
        "the planner drops the exchange tier note",
        (Edit(GROUP_BY, "self._notes.append(note)", "pass"),),
    ),
    Mutant(
        "M25", "PLAN-EXCHANGE-SILENT",
        "a serial ExchangeTier phrases no note",
        (Edit(f"{EXCHANGE}:ExchangeTier.note",
              'return f"exchange will run serially — {self.reason}"',
              "return None"),),
    ),
    # -- PLAN-PUSHDOWN-OP ------------------------------------------------
    Mutant(
        "M26", "PLAN-PUSHDOWN-OP",
        "_cheapest_access pushes < as <= and <= as <",
        (Edit(CHEAPEST_ACCESS,
              "op, values = decoded.op, ",
              'op, values = {"<": "<=", "<=": "<"}.get(decoded.op, '
              "decoded.op), "),),
    ),
    Mutant(
        "M28", "PLAN-PUSHDOWN-OP",
        "_cheapest_access pushes a null test under the other null test's op",
        (Edit(CHEAPEST_ACCESS,
              "op, values = decoded.op, ",
              'op, values = {"isnull": "notnull", "notnull": "isnull"}.get('
              "decoded.op, decoded.op), "),),
    ),
    Mutant(
        "M29", "PLAN-PUSHDOWN-OP",
        "_cheapest_access pushes <> under the spelling the matcher lacks",
        (Edit(CHEAPEST_ACCESS,
              "op, values = decoded.op, ",
              'op, values = decoded.op.replace("<>", "!="), '),),
    ),
    # -- PLAN-PUSHDOWN-RANGE ---------------------------------------------
    Mutant(
        "M30", "PLAN-PUSHDOWN-RANGE",
        "_cheapest_access pushes the output position, not the schema index",
        (Edit(CHEAPEST_ACCESS, "scan.schema_index(position), op, value,",
              "position, op, value,"),),
    ),
    Mutant(
        "M31", "PLAN-PUSHDOWN-RANGE",
        "_cheapest_access pushes the schema index one column right",
        (Edit(CHEAPEST_ACCESS, "scan.schema_index(position), op, value,",
              "scan.schema_index(position) + 1, op, value,"),),
    ),
    Mutant(
        "M32", "PLAN-PUSHDOWN-RANGE",
        "ColumnStoreScan.schema_index ignores the scan's projection",
        (Edit(f"{OPERATORS}:ColumnStoreScan.schema_index",
              "return self.out_positions[output_index]",
              "return output_index"),),
    ),
    # -- PLAN-PUSHDOWN-SHAPE ---------------------------------------------
    Mutant(
        "M33", "PLAN-PUSHDOWN-SHAPE",
        "_cheapest_access pushes a one-element BETWEEN pair",
        (Edit(CHEAPEST_ACCESS, "value = tuple(values)",
              'value = tuple(values) if op == "in" else tuple(values[:1])'),),
    ),
    Mutant(
        "M34", "PLAN-PUSHDOWN-SHAPE",
        "_cheapest_access pushes an IN list's first value, not the set",
        (Edit(CHEAPEST_ACCESS, "value: Any = frozenset(values)",
              "value = values[0]"),),
    ),
    Mutant(
        "M35", "PLAN-PUSHDOWN-SHAPE",
        "_cheapest_access pushes a null test with the literal 0",
        (Edit(CHEAPEST_ACCESS, "value = values[0] if values else None",
              "value = values[0] if values else 0"),),
        equivalent="the segment matcher and the zone maps ignore a null "
        "test's value, and EXPLAIN prints the predicate's label",
    ),
)

BY_ID = {mutant.id: mutant for mutant in MUTANTS}


# ---------------------------------------------------------------------------
# planting
# ---------------------------------------------------------------------------


def _rebind(old, new) -> None:
    """Point every loaded module's global that holds ``old`` (a
    ``from module import name`` copy) at ``new``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for name, value in list(namespace.items()):
            if value is old:
                namespace[name] = new


def _apply(edits: List[Edit]) -> None:
    """Recompile one function with ``edits`` applied to its source and
    install it where the original was."""
    module_name, qualname = edits[0].target.split(":")
    module = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[name]
    func = getattr(raw, "__func__", None) or getattr(raw, "fget", None) or raw
    source = textwrap.dedent(inspect.getsource(func))
    for edit in edits:
        if source.count(edit.old) != 1:
            raise ValueError(f"{edit.target}: {edit.old!r} is not in it once")
        source = source.replace(edit.old, edit.new)
    if path:  # a method: zero-argument super() needs its class cell
        source = source.replace("super().", f"super({owner.__name__}, self).")
    code = compile(
        source, f"<mutant of {edits[0].target}>", "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace: Dict[str, object] = {}
    exec(code, vars(module), namespace)
    setattr(owner, name, namespace[name])
    if not path:
        _rebind(raw, namespace[name])


def plant(mutant_id: str) -> None:
    """Install ``mutant_id``'s edits into the loaded program."""
    import repro.cli  # noqa: F401  (load every module an edit may reach)
    import repro.engine.database  # noqa: F401

    by_target: Dict[str, List[Edit]] = {}
    for edit in BY_ID[mutant_id].edits:
        by_target.setdefault(edit.target, []).append(edit)
    for edits in by_target.values():
        _apply(edits)


def stub_sanitizer() -> None:
    """Make the plan sanitizer find nothing, wherever it is called."""
    from repro.engine.verify import plan_sanitizer

    def sanitize_plan(root, database=None):
        return []

    _rebind(plan_sanitizer.sanitize_plan, sanitize_plan)


def pytest_configure(config):
    """The plugin half: plant what the environment names."""
    if os.environ.get(ENV_STUB):
        stub_sanitizer()
    if os.environ.get(ENV_MUTANT):
        plant(os.environ[ENV_MUTANT])


# ---------------------------------------------------------------------------
# the checks, each in a subprocess
# ---------------------------------------------------------------------------


def _env(mutant: Mutant, stub: bool = False) -> Dict[str, str]:
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            (str(ROOT / "src"), str(ROOT / "benchmarks"))
        ),
        "PYTEST_PLUGINS": "mutation_scan",
        ENV_MUTANT: mutant.id if mutant.edits else "",
        ENV_STUB: "1" if stub else "",
    }


def _pytest(mutant: Mutant, args: List[str], stub: bool, timeout: int):
    command = [
        sys.executable, "-m", "pytest", "-x", "-rfE", "-p", "no:cacheprovider",
        "--hypothesis-seed=1", *args,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=_env(mutant, stub), timeout=timeout,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout} s"
    return done.returncode, done.stdout


def first_failure(output: str) -> str:
    """The first ``FAILED``/``ERROR`` test of a ``-rfE`` summary."""
    for line in output.splitlines():
        match = re.match(r"(FAILED|ERROR) (.+?)(?: - |$)", line)
        if match:
            return f"{match.group(1)} {match.group(2)}"
    tail = [line for line in output.splitlines() if line.strip()][-1:]
    return f"fails ({tail[0].strip() if tail else 'no output'})"


def check_tier1(mutant: Mutant) -> str:
    code, output = _pytest(
        mutant, ["tests", "--ignore", SANITIZER_TESTS], True, 1200
    )
    if code is None:
        return output
    return "passes" if code == 0 else first_failure(output)


def check_golden(mutant: Mutant) -> str:
    code, output = _pytest(mutant, [GOLDEN_TESTS], False, 600)
    if code is None:
        return output
    return "passes" if code == 0 else first_failure(output)


def corpus_findings() -> str:
    """The real sanitizer over the golden corpus, in this process."""
    from collections import Counter

    from repro.engine.verify.plan_corpus import corpus_plans
    from repro.engine.verify.plan_sanitizer import sanitize_plan

    rules: Counter = Counter()
    try:
        for _description, plan, database in corpus_plans():
            rules.update(d.rule for d in sanitize_plan(plan, database))
    except Exception as exc:  # noqa: BLE001 - the mutant's own failure
        message = str(exc).splitlines()[0] if str(exc) else ""
        return f"planning raises {type(exc).__name__}: {message}"[:120]
    if not rules:
        return "no finding"
    return ", ".join(f"{rule} x{count}" for rule, count in sorted(rules.items()))


def check_sanitizer(mutant: Mutant) -> str:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--corpus",
         mutant.id],
        cwd=ROOT, env=_env(mutant), stdout=subprocess.PIPE, text=True,
        timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    return lines[-1] if lines else f"exited {done.returncode}"


def check_gates(mutant: Mutant) -> str:
    """``counter_gates.check`` over a traced seed-1 run, each workload's
    child process planted with the mutant."""
    import counter_gates  # beside this script

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs, failures = [], []
    for workload in (entry["name"] for entry in spec["workloads"]):
        command = [
            sys.executable, str(Path(__file__).resolve()), "--run-child",
            mutant.id, "--child", "--workload", workload, "--seed", "1",
            "--seconds", "3", "--scale", "1", "--trace", "1",
        ]
        try:
            done = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=600,
                env={**_env(mutant), "PYTHONHASHSEED": "0"},
            )
        except subprocess.TimeoutExpired:
            failures.append(f"{workload} timed out")
            continue
        if done.returncode != 0:
            failures.append(f"{workload} exited {done.returncode}")
            continue
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    record = {"trace": 1, "scale": 1.0, "seed": 1, "runs": runs}
    failures += [
        failure for failure in counter_gates.check(record)
        if not failure.endswith(": not in this run")
    ]
    return "passes" if not failures else "fails: " + "; ".join(failures)


# ---------------------------------------------------------------------------
# the record
# ---------------------------------------------------------------------------


def scan_row(mutant: Mutant, gates: bool) -> Dict[str, str]:
    row = {
        "tier1": check_tier1(mutant),
        "sanitizer": check_sanitizer(mutant),
        "golden": check_golden(mutant),
        "gates": check_gates(mutant) if gates else "not run",
    }
    print(render_mutant(mutant, row), flush=True)
    return row


def render_mutant(mutant: Mutant, row: Dict[str, str]) -> str:
    lines = [f"{mutant.id}  {mutant.rule or '-'}  {mutant.what}"]
    for edit in mutant.edits:
        lines += [
            f"    in {edit.target}",
            f"      - {edit.old}",
            f"      + {edit.new}",
        ]
    if mutant.equivalent:
        lines.append(f"    equivalent: {mutant.equivalent}")
    lines += [
        f"    tier-1, sanitizer stubbed: {row['tier1']}",
        f"    sanitizer over corpus_plans(): {row['sanitizer']}",
        f"    golden fixture: {row['golden']}",
        f"    counter_gates.py: {row['gates']}",
    ]
    return "\n".join(lines)


def sanitizer_only(mutant: Mutant, row: Dict[str, str]) -> bool:
    """A non-equivalent mutant tier-1 misses and its own rule flags."""
    return (
        not mutant.equivalent
        and row["tier1"] == "passes"
        and re.search(rf"\b{re.escape(mutant.rule)} x", row["sanitizer"])
        is not None
    )


def verdicts(rows: Dict[str, Dict[str, str]]) -> List[str]:
    """One line per PLAN-* rule: ``keep`` and the mutants only it
    catches, ``test first`` and the live mutants nothing catches, or
    ``delete``."""
    lines = []
    for rule in RULE_CLASSES:
        ids = [m.id for m in MUTANTS if m.rule == rule]
        live = [i for i in ids if not BY_ID[i].equivalent]
        missed = [i for i in live if rows[i]["tier1"] == "passes"]
        only = [i for i in live if sanitizer_only(BY_ID[i], rows[i])]
        if only:
            verdict = f"keep  {' '.join(only)}"
        elif missed:
            verdict = f"test first  {' '.join(missed)}"
        else:
            verdict = "delete"
        lines.append(
            f"{rule:<25}{len(ids):>3} mutants, {len(live):>2} live, "
            f"{len(live) - len(missed):>2} fail tier-1   {verdict}"
        )
    return lines


def render_record(rows: Dict[str, Dict[str, str]], gates: bool) -> str:
    head = (
        "Mutation record of the PLAN-* rules "
        "(written by benchmarks/mutation_scan.py)\n\n"
        "Each mutant edits the source of one function that establishes a "
        "plan invariant,\nplanted at interpreter start in every process of "
        "its checks. tier-1 is `pytest -x\n--hypothesis-seed=1 tests` with "
        f"{SANITIZER_TESTS} ignored and the\nsanitizer stubbed to find "
        "nothing: the first failing test. The sanitizer line is\nthe real "
        "sanitizer over corpus_plans(), with the PLAN-* rules it holds when "
        "the\nscan runs: a rule a record deletes reads `no finding` in every "
        "later record.\ncounter_gates.py reads a seed-1, scale-1 `run.py "
        "--trace 1 --seconds 3` run"
        + ("" if gates else " (not run in this record)")
        + ".\n\n"
    )
    body = "\n\n".join(render_mutant(m, rows[m.id]) for m in MUTANTS)
    table = "\n".join(verdicts(rows))
    return (
        f"{head}== mutants\n\n{body}\n\n== verdicts\n\n"
        "A rule stays only when a live (non-equivalent) mutant of its class "
        "passes tier-1\nand the sanitizer flags it with that rule. A live "
        "mutant nothing catches needs a\ntier-1 test first. A rule goes when "
        "tier-1 fails on every live mutant of its class.\n\n"
        f"{table}\n"
    )


def main(argv: List[str]) -> int:
    if argv[:1] == ["--corpus"]:
        plant(argv[1])
        print(corpus_findings())
        return 0
    if argv[:1] == ["--run-child"]:
        plant(argv[1])
        run_py = ROOT / "benchmarks" / "perf" / "run.py"
        sys.argv = [str(run_py), *argv[2:]]
        runpy.run_path(str(run_py), run_name="__main__")
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mutant", action="append", choices=sorted(BY_ID),
                        help="scan only these mutants; write no record")
    parser.add_argument("--no-gates", action="store_true",
                        help="skip the counter-gate runs")
    parser.add_argument("--jobs", type=int, default=1,
                        help="mutants scanned at once (default 1)")
    args = parser.parse_args(argv)
    selected = [BY_ID[i] for i in args.mutant] if args.mutant else MUTANTS
    with ThreadPoolExecutor(args.jobs) as pool:
        found = pool.map(lambda m: scan_row(m, not args.no_gates), selected)
        rows = {m.id: row for m, row in zip(selected, found)}
    if args.mutant:
        return 0
    RECORD.write_text(render_record(rows, not args.no_gates))
    control = rows["M00"]
    clean = all(
        control[check] in ("passes", "no finding", "not run")
        for check in ("tier1", "sanitizer", "golden", "gates")
    )
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
