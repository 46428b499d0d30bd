"""The genomics warehouse: the paper's data management design as an API.

:class:`GenomicsWarehouse` assembles the pieces — normalized relational
schema, hybrid FILESTREAM storage for level-1 data, registered TVFs/UDAs,
and the analysis queries — into the workflow a sequencing lab would run:

1. register provenance (experiment → sample group → sample, flowcell →
   lane);
2. import level-1 FASTQ lanes, either as FILESTREAM blobs (hybrid) or
   into the ``Read`` table (full relational), or both;
3. bin unique tags (Query 1) into ``Tag``;
4. align reads/tags with the built-in MAQ-like aligner into
   ``Alignment``;
5. tertiary analysis: gene expression (Query 2) or consensus calling
   (Query 3).
"""

from __future__ import annotations

import re
import time
from bisect import bisect_right
from itertools import islice, repeat
from operator import attrgetter
from typing import Dict, Iterable, List, Literal, Optional, Sequence, Tuple

from ..engine.database import Database
from ..engine.errors import BindError, EngineError
from ..engine.table import BATCH_ROWS
from ..genomics.aligner import ALIGN_BATCH_READS, Alignment, ShortReadAligner
from ..genomics.fasta import FastaRecord
from ..genomics.fastq import (
    FastqFormatError,
    FastqRecord,
    fastq_bytes,
    parse_illumina_name,
)
from ..genomics.simulate import GeneAnnotation
from . import queries
from .schemas import (
    AlignmentClustering,
    create_filestream_schema,
    create_normalized_schema,
    create_reference_tables,
    create_workflow_tables,
)
from .wrappers import register_extensions


#: a FastqRecord as the ``(name, sequence, quality)`` triple ``Read``
#: rows are built from
_RECORD_FIELDS = attrgetter("name", "sequence", "quality")

#: the Illumina read names :func:`parse_illumina_name` accepts in their
#: plain form (at most 18 ASCII digits a field, no sign or space), one
#: per line; the groups are lane, tile, x and y
_ILLUMINA_NAME = re.compile(
    r"^[^:\n]*_[0-9]{1,18}"
    r":([0-9]{1,18}):([0-9]{1,18}):([0-9]{1,18}):([0-9]{1,18})$",
    re.MULTILINE,
)


def _name_fields(names: Sequence[str], lane: int) -> List[Sequence[int]]:
    """The lane, tile, x and y columns of a batch of read names: one
    pattern match over the whole batch when every name is a plain
    Illumina name, else :func:`parse_illumina_name` per name, a name it
    rejects reading as tile 0 at (0, 0) of ``lane``."""
    text = "\n".join(names)
    fields = _ILLUMINA_NAME.findall(text)
    if len(fields) == len(names) and text.count("\n") == len(names) - 1:
        return [list(map(int, column)) for column in zip(*fields)]
    parsed = []
    for name in names:
        try:
            read = parse_illumina_name(name)
            parsed.append((read.lane, read.tile, read.x, read.y))
        except FastqFormatError:
            parsed.append((lane, 0, 0, 0))
    return list(zip(*parsed))


class GenomicsWarehouse:
    """A ready-to-use genomics database following the paper's design."""

    def __init__(
        self,
        data_dir=None,
        compression: str = "NONE",
        alignment_clustering: AlignmentClustering = "position",
        sequence_type: str = "VARCHAR(500)",
        chunk_size: int = 256 * 1024,
    ):
        self.db = Database(data_dir=data_dir)
        register_extensions(self.db, chunk_size=chunk_size)
        create_workflow_tables(self.db)
        create_reference_tables(self.db)
        create_normalized_schema(
            self.db,
            compression=compression,
            alignment_clustering=alignment_clustering,
            sequence_type=sequence_type,
        )
        create_filestream_schema(self.db)
        self._reference: List[FastaRecord] = []
        self._rs_ids: Dict[str, int] = {}
        self._gene_index: Dict[str, Tuple[List[int], List[Tuple[int, int]]]] = {}
        self._aligner: Optional[ShortReadAligner] = None
        self._next_alignment_id: Dict[Tuple[int, int, int], int] = {}

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "GenomicsWarehouse":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- provenance --------------------------------------------------------------------

    def register_experiment(
        self,
        e_id: int,
        name: str,
        kind: Literal["resequencing", "dge"],
        description: str = "",
    ) -> None:
        self.db.insert_row(
            "Experiment", (e_id, name, kind, description, time.time())
        )

    def register_sample_group(self, e_id: int, sg_id: int, name: str) -> None:
        self.db.insert_row("SampleGroup", (e_id, sg_id, name))

    def register_sample(
        self,
        e_id: int,
        sg_id: int,
        s_id: int,
        name: str,
        organism: str = "Homo sapiens",
    ) -> None:
        self.db.insert_row("Sample", (e_id, sg_id, s_id, name, organism))

    def register_flowcell(
        self, fc_id: int, instrument: str = "Illumina GA"
    ) -> None:
        self.db.insert_row("Flowcell", (fc_id, instrument, time.time()))

    def register_lane(
        self,
        fc_id: int,
        lane: int,
        e_id: int,
        sg_id: int,
        s_id: int,
        is_control: bool = False,
    ) -> None:
        self.db.insert_row(
            "Lane", (fc_id, lane, e_id, sg_id, s_id, 1 if is_control else 0)
        )

    # -- reference data --------------------------------------------------------------------

    def load_reference(self, reference: Sequence[FastaRecord]) -> None:
        """Load chromosomes into ``ReferenceSequence`` and build the
        in-process aligner index."""
        self._reference = list(reference)
        rows = [
            (i, record.name, len(record.sequence), record.sequence)
            for i, record in enumerate(self._reference, start=1)
        ]
        self.db.table("ReferenceSequence").insert_many(rows)
        self._rs_ids.update((name, i) for i, name, _length, _seq in rows)
        self._aligner = None  # rebuilt lazily

    def load_genes(self, genes: Sequence[GeneAnnotation]) -> None:
        rows = []
        per_chromosome: Dict[str, List[GeneAnnotation]] = {}
        for gene in genes:
            rs_id = self._rs_ids.get(gene.chromosome)
            if rs_id is None:
                raise BindError(
                    f"gene {gene.name} references unknown chromosome "
                    f"{gene.chromosome!r}"
                )
            rows.append(
                (gene.gene_id, rs_id, gene.name, gene.start, gene.end, gene.strand)
            )
            per_chromosome.setdefault(gene.chromosome, []).append(gene)
        self.db.table("Gene").insert_many(rows)
        for chromosome, chrom_genes in per_chromosome.items():
            chrom_genes.sort(key=lambda g: g.start)
            starts = [g.start for g in chrom_genes]
            spans = [(g.end, g.gene_id) for g in chrom_genes]
            self._gene_index[chromosome] = (starts, spans)

    def gene_at(self, chromosome: str, position: int) -> Optional[int]:
        """Gene id covering ``position``, or None (intergenic)."""
        entry = self._gene_index.get(chromosome)
        if entry is None:
            return None
        starts, spans = entry
        i = bisect_right(starts, position) - 1
        if i < 0:
            return None
        end, gene_id = spans[i]
        return gene_id if position < end else None

    @property
    def aligner(self) -> ShortReadAligner:
        if self._aligner is None:
            if not self._reference:
                raise EngineError("load_reference() before aligning")
            self._aligner = ShortReadAligner(self._reference)
        return self._aligner

    @property
    def reference_names(self) -> Dict[str, int]:
        return dict(self._rs_ids)

    # -- level-1 import --------------------------------------------------------------------

    def import_lane_hybrid(
        self,
        sample: int,
        lane: int,
        records: Iterable[FastqRecord],
        fmt: str = "FastQ",
    ):
        """Hybrid design: store the lane's FASTQ bytes as a FILESTREAM
        blob in ``ShortReadFiles``; returns the blob GUID."""
        import uuid as _uuid

        payload = fastq_bytes(records)
        guid = _uuid.uuid4()
        self.db.table("ShortReadFiles").insert(
            (guid, sample, lane, fmt, payload)
        )
        # the payload is stored under its own blob GUID; fetch it back
        row = self.db.table("ShortReadFiles").get((guid,))
        return row[self.db.table("ShortReadFiles").schema.column_index("reads")]

    def import_lane_relational(
        self,
        e_id: int,
        sg_id: int,
        s_id: int,
        records: Iterable[FastqRecord],
        lane: int = 1,
    ) -> int:
        """Full-relational design: parse the lane into ``Read`` rows with
        synthetic ids (the normalization step of Section 3.2)."""
        return self._insert_reads(
            e_id, sg_id, s_id, map(_RECORD_FIELDS, records), lane
        )

    def load_reads_from_filestream(
        self, e_id: int, sg_id: int, s_id: int, sample: int, lane: int
    ) -> int:
        """ETL from the hybrid store into ``Read`` via the
        ``ListShortReads`` TVF — FILESTREAM in, relational rows out."""
        rows = self.db.query(
            f"SELECT * FROM ListShortReads({sample}, {lane}, 'FastQ')"
        )
        return self._insert_reads(e_id, sg_id, s_id, rows, lane)

    def _insert_reads(
        self,
        e_id: int,
        sg_id: int,
        s_id: int,
        reads: Iterable[Tuple[str, str, str]],
        lane: int,
    ) -> int:
        """Store ``(name, sequence, quality)`` triples as ``Read`` rows,
        :data:`BATCH_ROWS` at a time: each batch's columns are checked
        and its read names parsed in bulk, then the rows are zipped."""
        table = self.db.table("Read")
        reads = iter(reads)
        count = 0
        while batch := list(islice(reads, BATCH_ROWS)):
            names, sequences, qualities = zip(*batch)
            if list(map(len, sequences)) != list(map(len, qualities)):
                # FastqRecord's check, raised for the first bad read
                for name, sequence, quality in batch:
                    FastqRecord(name, sequence, quality)
            lanes, tiles, xs, ys = _name_fields(names, lane)
            count += table.insert_many(
                list(
                    zip(
                        repeat(e_id),
                        repeat(sg_id),
                        repeat(s_id),
                        range(count + 1, count + len(batch) + 1),
                        lanes,
                        tiles,
                        xs,
                        ys,
                        sequences,
                        qualities,
                    )
                )
            )
        table.finish_bulk_load()
        return count

    # -- secondary analysis --------------------------------------------------------------------

    def bin_unique_tags(self, e_id: int, sg_id: int, s_id: int) -> int:
        """Run Query 1 and materialise the result into ``Tag``."""
        ranked = queries.execute_query1(self.db, e_id, sg_id, s_id)
        table = self.db.table("Tag")
        table.insert_many(
            [
                (e_id, sg_id, s_id, rank, sequence, frequency)
                for rank, frequency, sequence in ranked
            ]
        )
        table.finish_bulk_load()
        return len(ranked)

    def _alignment_id(self, e_id: int, sg_id: int, s_id: int) -> int:
        key = (e_id, sg_id, s_id)
        value = self._next_alignment_id.get(key)
        if value is None:
            # resume above whatever is already stored for this sample
            # (e.g. rows written by usp_align_sample)
            value = max(
                (
                    row[3]
                    for row in self.db.table("Alignment").scan()
                    if (row[0], row[1], row[2]) == key
                ),
                default=0,
            )
        value += 1
        self._next_alignment_id[key] = value
        return value

    def align_tags(self, e_id: int, sg_id: int, s_id: int) -> int:
        """Align each unique tag; write ``Alignment`` rows carrying the
        tag link and the covering gene (DGE scenario)."""
        tag_table = self.db.table("Tag")
        rows = [
            row
            for row in tag_table.scan()
            if row[0] == e_id and row[1] == sg_id and row[2] == s_id
        ]
        hits = self.aligner.align_many([
            FastqRecord(f"tag_{row[3]}", row[4], "I" * len(row[4]))
            for row in rows
        ])
        alignment_rows = [
            self._alignment_row(e_id, sg_id, s_id, hit, t_id=row[3])
            for row, hit in zip(rows, hits)
            if hit is not None
        ]
        return self._store_alignments(alignment_rows)

    def align_reads(self, e_id: int, sg_id: int, s_id: int) -> int:
        """Align every ``Read`` row of a sample (re-sequencing scenario)."""
        key = (e_id, sg_id, s_id)
        rows = self.db.table("Read").seek(key, key)
        alignment_rows = []
        while chunk := list(islice(rows, ALIGN_BATCH_READS)):
            hits = self.aligner.align_many([
                FastqRecord(f"r_{row[3]}", row[8], row[9]) for row in chunk
            ])
            alignment_rows += [
                self._alignment_row(e_id, sg_id, s_id, hit, r_id=row[3])
                for row, hit in zip(chunk, hits)
                if hit is not None
            ]
        return self._store_alignments(alignment_rows)

    def load_alignments(
        self,
        e_id: int,
        sg_id: int,
        s_id: int,
        alignments: Sequence[Alignment],
        read_ids: Dict[str, int],
    ) -> int:
        """Bulk-load precomputed alignments (e.g. imported from a MAQ
        map file), mapping read names to ``Read.r_id`` via ``read_ids``."""
        rows = [
            self._alignment_row(
                e_id, sg_id, s_id, hit, r_id=read_ids[hit.read_name]
            )
            for hit in alignments
            if hit.read_name in read_ids
        ]
        return self._store_alignments(rows)

    def _alignment_row(
        self,
        e_id: int,
        sg_id: int,
        s_id: int,
        hit: Alignment,
        r_id: Optional[int] = None,
        t_id: Optional[int] = None,
    ) -> tuple:
        rs_id = self._rs_ids[hit.reference]
        g_id = self.gene_at(hit.reference, hit.position)
        return (
            e_id,
            sg_id,
            s_id,
            self._alignment_id(e_id, sg_id, s_id),
            r_id,
            t_id,
            rs_id,
            g_id,
            hit.position,
            hit.strand,
            hit.mismatches,
            hit.mapping_quality,
        )

    def _store_alignments(self, rows: List[tuple]) -> int:
        table = self.db.table("Alignment")
        # bulk-load in clustered order so pages fill sequentially
        key_indexes = table.schema.key_indexes
        rows.sort(key=lambda r: tuple(r[i] for i in key_indexes))
        table.insert_many(rows)
        table.finish_bulk_load()
        return len(rows)

    # -- tertiary analysis --------------------------------------------------------------------

    def compute_gene_expression(
        self, e_id: int, sg_id: int, s_id: int
    ) -> int:
        """Query 2: populate ``GeneExpression``."""
        return queries.execute_query2(self.db, e_id, sg_id, s_id)

    def call_consensus(
        self,
        e_id: int,
        sg_id: int,
        s_id: int,
        method: Literal["sliding", "pivot"] = "sliding",
    ) -> List[tuple]:
        """Query 3: per-chromosome consensus pieces, also stored in
        ``Consensus``."""
        if method == "sliding":
            results = queries.execute_query3_sliding(self.db, e_id, sg_id, s_id)
        elif method == "pivot":
            results = queries.execute_query3_pivot(self.db, e_id, sg_id, s_id)
        else:
            raise EngineError(f"unknown consensus method {method!r}")
        table = self.db.table("Consensus")
        table.delete_where(
            lambda row: row[0] == e_id and row[1] == sg_id and row[2] == s_id
        )
        table.insert_many(
            [
                (e_id, sg_id, s_id, rs_id, piece.start, piece.sequence)
                for rs_id, piece in results
            ]
        )
        return results

    def call_variants(
        self,
        e_id: int,
        sg_id: int,
        s_id: int,
        min_quality: int = 20,
    ) -> List["Snp"]:
        """SNP calling: compare the sample's consensus against the
        reference, storing confident disagreements in ``Variant`` (the
        1000-Genomes tertiary analysis of Section 2.1.1)."""
        from ..genomics.variants import Snp, call_snps

        results = queries.execute_query3_sliding(self.db, e_id, sg_id, s_id)
        id_to_name = {v: k for k, v in self._rs_ids.items()}
        sequences = {r.name: r.sequence for r in self._reference}
        table = self.db.table("Variant")
        table.delete_where(
            lambda row: row[0] == e_id and row[1] == sg_id and row[2] == s_id
        )
        all_snps: List[Snp] = []
        rows = []
        for rs_id, piece in results:
            name = id_to_name[rs_id]
            snps = call_snps(
                sequences[name],
                piece,
                chromosome=name,
                min_quality=min_quality,
            )
            rows.extend(
                (
                    e_id,
                    sg_id,
                    s_id,
                    rs_id,
                    snp.position,
                    snp.ref_base,
                    snp.alt_base,
                    snp.quality,
                )
                for snp in snps
            )
            all_snps.extend(snps)
        table.insert_many(rows)
        table.finish_bulk_load()
        return all_snps

    # -- reporting --------------------------------------------------------------------

    def storage_report(self) -> List[dict]:
        return self.db.storage_report()
