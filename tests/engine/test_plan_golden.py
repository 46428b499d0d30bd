"""The EXPLAIN text of every shipped plan shape, held byte for byte.

The 108 plans of the sanitizer's golden corpus and the five lookup
shapes of the repo benchmark render with their ``est. rows`` and
``cost=`` annotations and must match ``tests/fixtures/golden_explain.txt``.
A change meant to leave plans alone (name resolution, cost annotation,
lint) must leave that file untouched. After an intended plan change,
regenerate it from the repo root with::

    PYTHONPATH=src python -m tests.engine.test_plan_golden
"""

from pathlib import Path

from repro.engine import executor
from repro.engine.executor import PhysicalOperator
from repro.engine.optimizer import CostModel
from repro.engine.verify.plan_corpus import corpus_plans

from .lookup_shapes import SHAPES, build_lookup_db, lookup_sql

GOLDEN = Path(__file__).resolve().parents[1] / "fixtures" / "golden_explain.txt"

#: the probe every lookup shape is planned for
LOOKUP_PROBE = 7


def golden_plans():
    """Yield ``(description, plan)`` for the corpus and the lookups."""
    for description, plan, _database in corpus_plans():
        yield description, plan
    with build_lookup_db() as db:
        for shape in range(SHAPES):
            sql = lookup_sql(shape, LOOKUP_PROBE)
            yield f"lookup/shape={shape}: {sql}", db.plan(sql)


def render_golden() -> str:
    return "".join(
        f"=== {description}\n{plan.explain()}\n\n"
        for description, plan in golden_plans()
    )


def test_explain_text_matches_golden():
    text = render_golden()
    assert text.count("\n=== ") + 1 == 108 + SHAPES
    assert text == GOLDEN.read_text(encoding="utf-8")


def test_every_exported_operator_estimates_itself():
    operators = [
        cls
        for cls in map(vars(executor).get, executor.__all__)
        if isinstance(cls, type)
        and issubclass(cls, PhysicalOperator)
        and cls is not PhysicalOperator
    ]
    assert len(operators) >= 19
    for cls in operators:
        assert "estimate" in vars(cls), (
            f"{cls.__name__} inherits estimate() instead of pricing itself"
        )


def reannotated(plan):
    """Strip ``est_rows`` and ``est_cost`` from every node of ``plan``
    and annotate it afresh; returns ``plan``. Every estimate is its
    node's own ``estimate``, so nothing the planner knew is lost."""
    for _path, node in plan.walk():
        node.est_rows = node.est_cost = None
    return CostModel().annotate(plan)


def test_annotating_a_finished_plan_again_changes_nothing():
    checked = 0
    for description, plan in golden_plans():
        nodes = [node for _path, node in plan.walk()]
        before = [(node.est_rows, node.est_cost) for node in nodes]
        assert None not in {value for pair in before for value in pair}
        text = plan.explain()
        reannotated(plan)
        assert [(node.est_rows, node.est_cost) for node in nodes] == before
        assert plan.explain() == text, description
        checked += 1
    assert checked == 108 + SHAPES


if __name__ == "__main__":
    GOLDEN.write_text(render_golden(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
