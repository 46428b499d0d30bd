"""Data provenance management (future work, Section 6.1).

"When and how were short-reads sequenced, which alignment algorithm with
certain parameters was used to align them against (a specific version
of) the Human reference genome? These are central questions to control
the quality of sequencing results."

This module implements the PROV-style core the paper's future-work
paragraph sketches, *inside the same relational schema* as the science
data (the paper's integration argument):

- **entities** — the data artefacts: a FASTQ blob, a Read-table sample,
  an alignment set, a consensus;
- **activities** — the processing steps, with their tool name and
  JSON-encoded parameters;
- **used / generated** edges — which activity consumed and produced
  which entities.

:meth:`ProvenanceTracker.lineage` answers the paper's question directly:
walk upstream from any entity to every activity and source entity it
derives from — e.g. from a consensus back to the aligner version and the
raw lane blob.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..engine.database import Database
from ..engine.errors import BindError

PROVENANCE_DDL = """
CREATE TABLE ProvEntity (
    ent_id  BIGINT IDENTITY PRIMARY KEY,
    kind    VARCHAR(40) NOT NULL,
    name    VARCHAR(200) NOT NULL,
    created DATETIME
);
CREATE TABLE ProvActivity (
    act_id   BIGINT IDENTITY PRIMARY KEY,
    name     VARCHAR(100) NOT NULL,
    params   VARCHAR(MAX),
    started  DATETIME,
    finished DATETIME
);
CREATE TABLE ProvUsed (
    u_act_id BIGINT,
    u_ent_id BIGINT,
    PRIMARY KEY (u_act_id, u_ent_id),
    FOREIGN KEY (u_act_id) REFERENCES ProvActivity (act_id),
    FOREIGN KEY (u_ent_id) REFERENCES ProvEntity (ent_id)
);
CREATE TABLE ProvGenerated (
    g_act_id BIGINT,
    g_ent_id BIGINT,
    PRIMARY KEY (g_act_id, g_ent_id),
    FOREIGN KEY (g_act_id) REFERENCES ProvActivity (act_id),
    FOREIGN KEY (g_ent_id) REFERENCES ProvEntity (ent_id)
);
"""


@dataclass(frozen=True)
class LineageStep:
    """One upstream derivation: entity ← activity ← source entities."""

    entity: Tuple[int, str, str]  # (ent_id, kind, name)
    activity: Optional[Tuple[int, str, str]]  # (act_id, name, params)
    sources: Tuple[Tuple[int, str, str], ...]


class ProvenanceTracker:
    """Records and queries PROV-style lineage on a database."""

    def __init__(self, database: Database):
        self.db = database
        if not database.catalog.has_table("ProvEntity"):
            database.execute(PROVENANCE_DDL)

    # -- recording ---------------------------------------------------------------

    def new_entity(self, kind: str, name: str) -> int:
        rid = self.db.table("ProvEntity").insert(
            (None, kind, name, time.time())
        )
        return self.db.table("ProvEntity").store.fetch(rid)[0]

    def record_activity(
        self,
        name: str,
        params: Optional[Dict[str, Any]] = None,
        used: Sequence[int] = (),
        generated: Sequence[int] = (),
        started: Optional[float] = None,
    ) -> int:
        """Record one processing step with its inputs and outputs."""
        now = time.time()
        act_table = self.db.table("ProvActivity")
        rid = act_table.insert(
            (
                None,
                name,
                json.dumps(params or {}, sort_keys=True),
                started if started is not None else now,
                now,
            )
        )
        act_id = act_table.store.fetch(rid)[0]
        for ent_id in used:
            self.db.insert_row("ProvUsed", (act_id, ent_id))
        for ent_id in generated:
            self.db.insert_row("ProvGenerated", (act_id, ent_id))
        return act_id

    # -- queries ------------------------------------------------------------------

    def _entity(self, ent_id: int) -> Tuple[int, str, str]:
        row = self.db.table("ProvEntity").get((ent_id,))
        if row is None:
            raise BindError(f"unknown provenance entity {ent_id}")
        return (row[0], row[1], row[2])

    def _generating_activity(self, ent_id: int) -> Optional[int]:
        rows = self.db.query(
            f"SELECT g_act_id FROM ProvGenerated WHERE g_ent_id = {ent_id}"
        )
        return rows[0][0] if rows else None

    def _activity(self, act_id: int) -> Tuple[int, str, str]:
        row = self.db.table("ProvActivity").get((act_id,))
        return (row[0], row[1], row[2])

    def _inputs_of(self, act_id: int) -> List[int]:
        return [
            row[0]
            for row in self.db.query(
                f"SELECT u_ent_id FROM ProvUsed WHERE u_act_id = {act_id}"
            )
        ]

    def lineage(self, ent_id: int) -> List[LineageStep]:
        """The full upstream derivation chain of an entity, breadth
        first — the paper's "which algorithm with which parameters
        against which reference version" question."""
        steps: List[LineageStep] = []
        frontier = [ent_id]
        visited = set()
        while frontier:
            current = frontier.pop(0)
            if current in visited:
                continue
            visited.add(current)
            entity = self._entity(current)
            act_id = self._generating_activity(current)
            if act_id is None:
                steps.append(LineageStep(entity, None, ()))
                continue
            sources = tuple(
                self._entity(src) for src in self._inputs_of(act_id)
            )
            steps.append(
                LineageStep(entity, self._activity(act_id), sources)
            )
            frontier.extend(src[0] for src in sources)
        return steps

    def render_lineage(self, ent_id: int) -> str:
        """Human-readable lineage report."""
        lines = []
        for step in self.lineage(ent_id):
            _eid, kind, name = step.entity
            if step.activity is None:
                lines.append(f"{kind} {name!r}  (source data)")
            else:
                _aid, act_name, params = step.activity
                sources = ", ".join(
                    f"{k} {n!r}" for _i, k, n in step.sources
                )
                lines.append(
                    f"{kind} {name!r}  <- {act_name}({params})  <- [{sources}]"
                )
        return "\n".join(lines)
