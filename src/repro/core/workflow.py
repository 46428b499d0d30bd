"""The five-phase sequencing workflow driver, with provenance.

Section 2.1 describes the pipeline: sample preparation (−1), sequencer
run (0), primary analysis (1: image analysis → short reads), secondary
analysis (2: alignment), tertiary analysis (3: expression / consensus).
Phases −1 and 0 are physical/instrument phases — here they are the
simulation step. This driver runs phases 1–3 against a
:class:`GenomicsWarehouse` and records *provenance* for every step: when
it ran, which tool and parameters, and how many rows it produced — the
"central questions to control the quality of sequencing results" the
paper's future-work section raises.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Literal, Optional

from ..engine.errors import EngineError
from ..genomics.fastq import FastqRecord
from .warehouse import GenomicsWarehouse

PROVENANCE_DDL = """
CREATE TABLE WorkflowEvent (
    ev_id    BIGINT IDENTITY PRIMARY KEY,
    e_id     INT,
    sg_id    INT,
    s_id     INT,
    phase    INT NOT NULL,
    tool     VARCHAR(100) NOT NULL,
    params   VARCHAR(MAX),
    started  DATETIME,
    finished DATETIME,
    rows_out INT
)
"""


@dataclass
class WorkflowEvent:
    phase: int
    tool: str
    params: Dict[str, Any]
    rows_out: int
    duration: float


class SequencingWorkflow:
    """Drives phases 1–3 for one sample, recording provenance."""

    def __init__(self, warehouse: GenomicsWarehouse):
        self.warehouse = warehouse
        if not warehouse.db.catalog.has_table("WorkflowEvent"):
            warehouse.db.execute(PROVENANCE_DDL)
        self.events: List[WorkflowEvent] = []

    # -- provenance ----------------------------------------------------------------

    def _record(
        self,
        e_id: int,
        sg_id: int,
        s_id: int,
        phase: int,
        tool: str,
        params: Dict[str, Any],
        started: float,
        rows_out: int,
    ) -> WorkflowEvent:
        finished = time.time()
        self.warehouse.db.table("WorkflowEvent").insert(
            (
                None,
                e_id,
                sg_id,
                s_id,
                phase,
                tool,
                json.dumps(params, sort_keys=True),
                started,
                finished,
                rows_out,
            )
        )
        event = WorkflowEvent(
            phase, tool, params, rows_out, finished - started
        )
        self.events.append(event)
        return event

    def provenance(
        self, e_id: int, sg_id: int, s_id: int
    ) -> List[tuple]:
        """Every recorded event for a sample — the navigational query the
        normalized schema makes trivial."""
        return self.warehouse.db.query(
            f"""
            SELECT phase, tool, params, rows_out
              FROM WorkflowEvent
             WHERE e_id = {e_id} AND sg_id = {sg_id} AND s_id = {s_id}
             ORDER BY ev_id
            """
        )

    # -- phase 1: primary analysis output lands as level-1 data ------------------------

    def run_primary(
        self,
        e_id: int,
        sg_id: int,
        s_id: int,
        records: Iterable[FastqRecord],
        sample: Optional[int] = None,
        lane: int = 1,
        hybrid: bool = True,
    ) -> int:
        """Store level-1 reads. ``hybrid=True`` keeps the FASTQ payload
        as a FILESTREAM blob and loads rows through the TVF; otherwise
        rows are imported directly."""
        started = time.time()
        sample = sample if sample is not None else s_id
        records = list(records)
        if hybrid:
            self.warehouse.import_lane_hybrid(sample, lane, records)
            count = self.warehouse.load_reads_from_filestream(
                e_id, sg_id, s_id, sample, lane
            )
            tool = "filestream-import+ListShortReads"
        else:
            count = self.warehouse.import_lane_relational(
                e_id, sg_id, s_id, records, lane=lane
            )
            tool = "relational-import"
        self._record(
            e_id,
            sg_id,
            s_id,
            1,
            tool,
            {"lane": lane, "sample": sample, "hybrid": hybrid},
            started,
            count,
        )
        return count

    # -- phase 2: secondary analysis ---------------------------------------------------

    def run_secondary(
        self,
        e_id: int,
        sg_id: int,
        s_id: int,
        kind: Literal["dge", "resequencing"],
    ) -> int:
        """Alignment. DGE first bins unique tags (Query 1) and aligns
        tags; re-sequencing aligns every read."""
        started = time.time()
        if kind == "dge":
            tags = self.warehouse.bin_unique_tags(e_id, sg_id, s_id)
            self._record(
                e_id, sg_id, s_id, 2, "query1-binning", {}, started, tags
            )
            started = time.time()
            count = self.warehouse.align_tags(e_id, sg_id, s_id)
            tool = "seed-hash-aligner(tags)"
        elif kind == "resequencing":
            count = self.warehouse.align_reads(e_id, sg_id, s_id)
            tool = "seed-hash-aligner(reads)"
        else:
            raise EngineError(f"unknown experiment kind {kind!r}")
        self._record(
            e_id,
            sg_id,
            s_id,
            2,
            tool,
            {"max_mismatches": self.warehouse.aligner.max_mismatches},
            started,
            count,
        )
        return count

    # -- phase 3: tertiary analysis ----------------------------------------------------

    def run_tertiary(
        self,
        e_id: int,
        sg_id: int,
        s_id: int,
        kind: Literal["dge", "resequencing"],
        consensus_method: Literal["sliding", "pivot"] = "sliding",
    ) -> int:
        started = time.time()
        if kind == "dge":
            count = self.warehouse.compute_gene_expression(e_id, sg_id, s_id)
            self._record(
                e_id, sg_id, s_id, 3, "query2-expression", {}, started, count
            )
            return count
        if kind == "resequencing":
            results = self.warehouse.call_consensus(
                e_id, sg_id, s_id, method=consensus_method
            )
            self._record(
                e_id,
                sg_id,
                s_id,
                3,
                "query3-consensus",
                {"method": consensus_method},
                started,
                len(results),
            )
            return len(results)
        raise EngineError(f"unknown experiment kind {kind!r}")

    # -- all phases ----------------------------------------------------------------------

    def run_all(
        self,
        e_id: int,
        sg_id: int,
        s_id: int,
        records: Iterable[FastqRecord],
        kind: Literal["dge", "resequencing"],
        lane: int = 1,
        hybrid: bool = True,
    ) -> Dict[str, int]:
        """Phases 1–3 end to end; returns per-phase row counts."""
        reads = self.run_primary(
            e_id, sg_id, s_id, records, lane=lane, hybrid=hybrid
        )
        aligned = self.run_secondary(e_id, sg_id, s_id, kind)
        tertiary = self.run_tertiary(e_id, sg_id, s_id, kind)
        return {"reads": reads, "alignments": aligned, "tertiary": tertiary}
