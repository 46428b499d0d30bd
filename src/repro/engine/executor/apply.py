"""TVF execution: standalone TVF scans and CROSS APPLY.

Both drive the one batch contract of :class:`TableValuedFunction`:
``batches(*args)`` yields lists of SQL rows, which are re-chunked into
:data:`~.vector.DEFAULT_BATCH_SIZE` batches. A TVF written in the CLR
shape of Figure 5 (``create`` hands out internal objects one
``MoveNext`` at a time, ``fill_row`` converts each) runs through the
base class's adapter; one that converts in bulk, like the FASTQ/FASTA
file wrapper, pays no per-row call — the ``FillRow`` cost the paper's
Section 5.2 experiment isolates.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from ..udf import TableValuedFunction
from .base import PhysicalOperator
from .vector import batches_from_rows, batches_from_runs

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
        yield from batches_from_runs(self.tvf.batches(*self.args))

    def estimate(self, cost, child_rows):
        rows = cost.default_tvf_rows
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
        self.bound_columns = outer.bound_columns

    def execute(self):
        batches = self.tvf.batches
        arg_fns = self.arg_fns
        return batches_from_rows(
            outer_row + row
            for outer_row in self.outer
            for batch in batches(*[fn(outer_row) for fn in arg_fns])
            for row in batch
        )

    def children(self):
        return (self.outer,)

    def estimate(self, cost, child_rows):
        rows = child_rows[0] * cost.apply_fanout
        return rows, rows * cost.tvf_row_cost

    def explain_node(self):
        return f"Nested Loops (Cross Apply {self.tvf.name})", (self.outer,)
