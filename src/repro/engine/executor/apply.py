"""TVF execution: standalone TVF scans and CROSS APPLY.

These drive the pull-model contract of :class:`TableValuedFunction`
exactly as Figure 5 of the paper shows: the query processor pulls one
internal object at a time from the function's iterator (``MoveNext``) and
converts it into a SQL row with an explicit ``FillRow`` call. The
conversion stays a separate per-row call on purpose — it is the boundary
cost the paper's Section 5.2 experiment isolates.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from ..errors import ExecutionError
from ..udf import TableValuedFunction
from .base import PhysicalOperator
from .vector import batches_from_rows

RowFn = Callable[[Sequence[Any]], Any]


class TvfScan(PhysicalOperator):
    """``SELECT ... FROM SomeTvf(args)`` — TVF as a leaf table source."""

    def __init__(
        self,
        tvf: TableValuedFunction,
        args: Sequence[Any],
        alias: Optional[str] = None,
    ):
        super().__init__()
        self.tvf = tvf
        self.args = list(args)
        name = alias or tvf.name
        self.columns = [f"{name}.{c.name}" for c in tvf.columns]

    def execute(self):
        objects = self.tvf.create(*self.args)
        yield from batches_from_rows(map(self.tvf.fill_row, objects))

    def estimate(self, cost, child_rows):
        rows = self._est_rows(cost.default_tvf_rows)
        return rows, rows * cost.tvf_row_cost

    def explain_node(self):
        return f"Table Valued Function [{self.tvf.name}]", ()


class CrossApply(PhysicalOperator):
    """``... CROSS APPLY Tvf(expr, ...)`` — invoke the TVF once per outer
    row, emitting outer ⨯ TVF-output rows. The lateral-join workhorse of
    the paper's Query 3 (``CROSS APPLY PivotAlignment(pos, seq, quals)``).
    """

    def __init__(
        self,
        outer: PhysicalOperator,
        tvf: TableValuedFunction,
        arg_fns: Sequence[RowFn],
        alias: Optional[str] = None,
    ):
        super().__init__()
        self.outer = outer
        self.tvf = tvf
        self.arg_fns = list(arg_fns)
        name = alias or tvf.name
        self.columns = list(outer.columns) + [
            f"{name}.{c.name}" for c in tvf.columns
        ]
        self.ordering = outer.ordering

    def execute(self):
        tvf = self.tvf
        fill_row = tvf.fill_row
        arg_fns = self.arg_fns
        return batches_from_rows(
            outer_row + fill_row(obj)
            for outer_row in self.outer
            for obj in tvf.create(*[fn(outer_row) for fn in arg_fns])
        )

    def children(self):
        return (self.outer,)

    def estimate(self, cost, child_rows):
        rows = self._est_rows(child_rows[0] * cost.apply_fanout)
        return rows, rows * cost.tvf_row_cost

    def explain_node(self):
        return f"Nested Loops (Cross Apply {self.tvf.name})", (self.outer,)
