"""The storage-efficiency harness behind Tables 1 and 2.

Given one scenario's artefacts (level-1 reads, unique tags, alignments,
analysis results), this module materialises each of the paper's physical
designs and measures the bytes each occupies:

- **Files** — the file-centric zoo (:class:`FileCentricStore` + MAQ text
  map with repeated sequences, as real ``mapview`` output has);
- **FileStream** — the hybrid design (level-1 payload byte-identical in
  the FILESTREAM store; higher-level data normalized-relational);
- **Relational 1:1** — the naive import repeating textual composite IDs;
- **Normalized** — synthetic integer keys, FK links, no compression;
- **Normalized + ROW / PAGE** — engine storage compression;
- **Normalized + DnaSequence UDT** — the bit-packed future-work design.

The output of :func:`measure_storage` feeds ``benchmarks/bench_table1_storage``
and ``bench_table2_storage`` which print the paper-style tables.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..baselines.flat_files import FileCentricStore
from ..engine.database import Database
from ..genomics.aligner import Alignment
from ..genomics.fastq import (
    FastqFormatError,
    FastqRecord,
    fastq_bytes,
    parse_illumina_name,
)
from .schemas import (
    create_filestream_schema,
    create_normalized_schema,
    create_one_to_one_schema,
)
from .wrappers import register_extensions

#: the design columns of Tables 1 and 2, in display order
DESIGNS = (
    "files",
    "filestream",
    "one_to_one",
    "normalized",
    "norm_row",
    "norm_page",
    "norm_column",
    "norm_udt",
)

DESIGN_LABELS = {
    "files": "Files",
    "filestream": "FileStream",
    "one_to_one": "Relational 1:1",
    "normalized": "Normalized",
    "norm_row": "Norm + ROW",
    "norm_page": "Norm + PAGE",
    "norm_column": "Norm + COLUMN",
    "norm_udt": "Norm + DNA UDT",
}


@dataclass
class ScenarioData:
    """Everything one lane produced, format-independent."""

    kind: str  # 'dge' or 'resequencing'
    reads: List[FastqRecord]
    alignments: List[Alignment]
    #: (rank, count, sequence) — DGE only
    ranked_tags: List[Tuple[int, int, str]] = field(default_factory=list)
    #: (gene_name, total_frequency, tag_count) — DGE only
    expression: List[Tuple[str, int, int]] = field(default_factory=list)
    sample: int = 855
    lane: int = 1
    #: alignment read-name → (sequence, quality); overrides the read
    #: lookup when alignments reference tags rather than raw reads
    alignment_sequences: Optional[Dict[str, Tuple[str, str]]] = None

    @property
    def read_lookup(self) -> Dict[str, Tuple[str, str]]:
        if self.alignment_sequences is not None:
            return self.alignment_sequences
        return {r.name: (r.sequence, r.quality) for r in self.reads}


StorageTable = Dict[str, Dict[str, int]]  # artifact -> design -> bytes


def engine_report(db: Database, design: str) -> List[dict]:
    """Per-table storage-engine rows for one measured design: which
    access method backs each table, its stored vs raw bytes (the
    compression ratio), and the dominant encoding per column (column
    store only; heaps report no encodings)."""
    rows: List[dict] = []
    for table in db.catalog.tables():
        store = getattr(table, "store", None)
        if store is None or table.row_count == 0:
            continue
        stored = table.stored_bytes()
        raw = table.uncompressed_bytes()
        rows.append(
            {
                "design": design,
                "table_name": table.schema.name,
                "engine": store.engine_name,
                "rows": table.row_count,
                "stored_bytes": stored,
                "uncompressed_bytes": raw,
                "ratio": round(stored / raw, 3) if raw else None,
                "encodings": store.encoding_summary(),
            }
        )
    return rows


def format_engine_report(rows: List[dict]) -> str:
    """Render :func:`engine_report` rows as an appendix section."""
    lines = [
        "",
        "Storage engines (per table):",
        f"{'Design':<14}{'Table':<20}{'Engine':<8}{'Rows':>8}"
        f"{'Stored':>12}{'Raw':>12}{'Ratio':>7}  Encodings",
    ]
    lines.append("-" * len(lines[-1]))
    for row in rows:
        encodings = ", ".join(
            f"{name}={enc}" for name, enc in sorted(row["encodings"].items())
        )
        ratio = f"{row['ratio']:.2f}" if row["ratio"] is not None else "-"
        lines.append(
            f"{row['design']:<14}{row['table_name']:<20}"
            f"{row['engine']:<8}{row['rows']:>8}"
            f"{row['stored_bytes']:>12,}{row['uncompressed_bytes']:>12,}"
            f"{ratio:>7}  {encodings}"
        )
    return "\n".join(lines)


def _measure_files(scenario: ScenarioData, root: Path) -> Dict[str, int]:
    store = FileCentricStore(root)
    sizes: Dict[str, int] = {}
    fastq = store.store_lane_fastq(scenario.sample, scenario.lane, scenario.reads)
    sizes["short_reads"] = store.size_of(fastq)
    if scenario.ranked_tags:
        tags = store.store_unique_tags(
            scenario.sample, scenario.lane, scenario.ranked_tags
        )
        sizes["unique_tags"] = store.size_of(tags)
    # mapview-style text with repeated sequences — the real file shape
    from ..genomics.maqmap import write_text_map

    map_path = store.map_path(scenario.sample, scenario.lane)
    write_text_map(scenario.alignments, map_path, sequences=scenario.read_lookup)
    sizes["alignments"] = store.size_of(map_path)
    if scenario.expression:
        expr = store.store_expression(
            scenario.sample, scenario.lane, scenario.expression
        )
        sizes["expression"] = store.size_of(expr)
    return sizes


def _measure_filestream(scenario: ScenarioData, data_dir: Path) -> Dict[str, int]:
    """Hybrid design: level-1 FASTQ bytes in the FILESTREAM store."""
    db = Database(data_dir=data_dir)
    register_extensions(db)
    create_filestream_schema(db)
    import uuid

    payload = fastq_bytes(scenario.reads)
    db.table("ShortReadFiles").insert(
        (uuid.uuid4(), scenario.sample, scenario.lane, "FastQ", payload)
    )
    sizes = {
        "short_reads": db.table("ShortReadFiles").filestream_bytes(),
    }
    db.close()
    return sizes


def _tag_textual_name(scenario: ScenarioData, rank: int) -> str:
    return f"{scenario.sample}_s_{scenario.lane}:tag:{rank:07d}"


def _measure_one_to_one(scenario: ScenarioData, data_dir: Path) -> Dict[str, int]:
    db = Database(data_dir=data_dir)
    create_one_to_one_schema(db)
    reads_table = db.table("ReadsFlat")
    reads_table.insert_many(
        (record.name, record.sequence, record.quality)
        for record in scenario.reads
    )
    reads_table.finish_bulk_load()
    sizes = {"short_reads": reads_table.stored_bytes()}
    if scenario.ranked_tags:
        tags_table = db.table("TagsFlat")
        tags_table.insert_many(
            (_tag_textual_name(scenario, rank), seq, count)
            for rank, count, seq in scenario.ranked_tags
        )
        tags_table.finish_bulk_load()
        sizes["unique_tags"] = tags_table.stored_bytes()
    lookup = scenario.read_lookup
    align_table = db.table("AlignmentsFlat")
    align_table.insert_many(
        (
            a.read_name,
            a.reference,
            a.position,
            a.strand,
            a.mapping_quality,
            a.mismatches,
            a.read_length,
            *lookup.get(a.read_name, ("", "")),
        )
        for a in scenario.alignments
    )
    align_table.finish_bulk_load()
    sizes["alignments"] = align_table.stored_bytes()
    if scenario.expression:
        expr_table = db.table("GeneExpressionFlat")
        experiment_name = f"experiment {scenario.sample} lane {scenario.lane}"
        expr_table.insert_many(
            (gene, experiment_name, total, count)
            for gene, total, count in scenario.expression
        )
        expr_table.finish_bulk_load()
        sizes["expression"] = expr_table.stored_bytes()
    db.close()
    return sizes


def _measure_normalized(
    scenario: ScenarioData,
    data_dir: Path,
    compression: str = "NONE",
    sequence_type: str = "VARCHAR(500)",
    storage: str = "HEAP",
    engine_detail: Optional[List[dict]] = None,
    design: str = "",
) -> Dict[str, int]:
    db = Database(data_dir=data_dir)
    register_extensions(db)
    create_normalized_schema(
        db,
        compression=compression,
        sequence_type=sequence_type,
        storage=storage,
    )
    read_table = db.table("Read")
    name_to_rid: Dict[str, int] = {}

    def read_rows():
        for r_id, record in enumerate(scenario.reads, start=1):
            try:
                parsed = parse_illumina_name(record.name)
                lane, tile, x, y = parsed.lane, parsed.tile, parsed.x, parsed.y
            except FastqFormatError:
                lane, tile, x, y = scenario.lane, 0, 0, 0
            name_to_rid[record.name] = r_id
            yield (
                1, 1, 1, r_id, lane, tile, x, y, record.sequence, record.quality
            )

    read_table.insert_many(read_rows())
    read_table.finish_bulk_load()
    sizes = {"short_reads": read_table.stored_bytes()}
    if scenario.ranked_tags:
        tag_table = db.table("Tag")
        tag_table.insert_many(
            (1, 1, 1, rank, seq, count)
            for rank, count, seq in scenario.ranked_tags
        )
        tag_table.finish_bulk_load()
        sizes["unique_tags"] = tag_table.stored_bytes()
    align_table = db.table("Alignment")
    rows = []
    for a_id, a in enumerate(scenario.alignments, start=1):
        rows.append(
            (
                1,
                1,
                1,
                a_id,
                name_to_rid.get(a.read_name),
                None,
                1,  # rs_id resolution is scenario-independent here
                None,
                a.position,
                a.strand,
                a.mismatches,
                a.mapping_quality,
            )
        )
    key_indexes = align_table.schema.key_indexes
    rows.sort(key=lambda r: tuple(r[i] for i in key_indexes))
    align_table.insert_many(rows)
    align_table.finish_bulk_load()
    sizes["alignments"] = align_table.stored_bytes()
    if scenario.expression:
        expr_table = db.table("GeneExpression")
        expr_table.insert_many(
            (g_id, 1, 1, 1, total, count)
            for g_id, (_gene, total, count) in enumerate(
                scenario.expression, start=1
            )
        )
        expr_table.finish_bulk_load()
        sizes["expression"] = expr_table.stored_bytes()
    if engine_detail is not None:
        engine_detail.extend(engine_report(db, design))
    db.close()
    return sizes


def measure_storage(
    scenario: ScenarioData,
    workdir: Optional[Path] = None,
    include_udt: bool = True,
    engine_detail: Optional[List[dict]] = None,
) -> StorageTable:
    """Measure every design; returns ``{artifact: {design: bytes}}``."""
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-storage-")
        workdir = Path(tmp.name)
    else:
        tmp = None
        workdir = Path(workdir)
    try:
        per_design: Dict[str, Dict[str, int]] = {}
        per_design["files"] = _measure_files(scenario, workdir / "files")
        per_design["filestream"] = _measure_filestream(
            scenario, workdir / "fsdb"
        )
        per_design["one_to_one"] = _measure_one_to_one(
            scenario, workdir / "flatdb"
        )
        per_design["normalized"] = _measure_normalized(
            scenario, workdir / "normdb", compression="NONE",
            engine_detail=engine_detail, design="normalized",
        )
        per_design["norm_row"] = _measure_normalized(
            scenario, workdir / "rowdb", compression="ROW"
        )
        per_design["norm_page"] = _measure_normalized(
            scenario, workdir / "pagedb", compression="PAGE",
            engine_detail=engine_detail, design="norm_page",
        )
        per_design["norm_column"] = _measure_normalized(
            scenario, workdir / "coldb", storage="COLUMN",
            engine_detail=engine_detail, design="norm_column",
        )
        if include_udt:
            per_design["norm_udt"] = _measure_normalized(
                scenario,
                workdir / "udtdb",
                compression="NONE",
                sequence_type="DnaSequence",
            )
        # pivot: artifact -> design -> bytes
        table: StorageTable = {}
        for design, sizes in per_design.items():
            for artifact, size in sizes.items():
                table.setdefault(artifact, {})[design] = size
        return table
    finally:
        if tmp is not None:
            tmp.cleanup()


ARTIFACT_ORDER = ("short_reads", "unique_tags", "alignments", "expression")

ARTIFACT_LABELS = {
    "short_reads": "Level-1 short reads",
    "unique_tags": "Unique tags",
    "alignments": "Alignments",
    "expression": "Gene expression",
}


def format_table(table: StorageTable, title: str) -> str:
    """Render the measured sizes in the layout of the paper's tables,
    with each design also shown as a ratio to the original files."""
    designs = [d for d in DESIGNS if any(d in row for row in table.values())]
    header = f"{'Artifact':<22}" + "".join(
        f"{DESIGN_LABELS[d]:>18}" for d in designs
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for artifact in ARTIFACT_ORDER:
        if artifact not in table:
            continue
        sizes = table[artifact]
        base = sizes.get("files")
        cells = []
        for design in designs:
            size = sizes.get(design)
            if size is None:
                cells.append(f"{'-':>18}")
            elif base:
                cells.append(f"{size:>11,}B {size / base:4.2f}x")
            else:
                cells.append(f"{size:>17,}B")
        lines.append(f"{ARTIFACT_LABELS[artifact]:<22}" + "".join(cells))
    return "\n".join(lines)
