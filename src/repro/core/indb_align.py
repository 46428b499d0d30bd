"""In-database alignment and sequence search.

Section 5.3.2: "Alternatively, we can implement the alignment algorithms
directly in the DBMS as stored procedures. Previous work showed that
this is possible, although with limited scalability [13]." And §6.1
flags indexing as the missing piece for in-database sequence search.

This module supplies both:

- :class:`AlignShortReadsTvf` — ``SELECT * FROM AlignShortReads(e, sg,
  s, max_mismatches)`` aligns a sample's ``Read`` rows against the
  loaded ``ReferenceSequence`` table, entirely inside the engine; an
  ``INSERT INTO Alignment SELECT ...`` completes the paper's
  "secondary analysis in the DBMS" story;
- ``usp_align_sample`` — the same as a compiled stored procedure that
  also writes the ``Alignment`` rows (clustered bulk load included);
- :class:`SearchShortReadsTvf` — q-gram-indexed substring/approximate
  search over the ``Read`` table: ``SELECT * FROM
  SearchShortReads('ACGTACGT', 1)`` returns the reads containing the
  pattern with ≤ 1 mismatch (Section 6.1's indexing future work).

Both TVFs build their index lazily and cache it per database, keyed by
the source table's ``data_cookie``, which moves on every insert, update
and delete: an edited reference or read set is never served stale.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..engine.database import Database
from ..engine.errors import UdfError
from ..engine.schema import Column
from ..engine.types import char_type, int_type, varchar_type, bigint_type
from ..engine.udf import TableValuedFunction
from ..genomics.aligner import ALIGN_BATCH_READS, ShortReadAligner
from ..genomics.fasta import FastaRecord
from ..genomics.fastq import FastqRecord
from ..genomics.qgram import QGramIndex


class AlignShortReadsTvf(TableValuedFunction):
    """Align one sample's reads against the reference, as a relation."""

    name = "AlignShortReads"
    #: scans SequenceReads / ReferenceGenome tables while streaming
    permission_set = "EXTERNAL_ACCESS"
    columns = (
        Column("r_id", bigint_type()),
        Column("rs_id", int_type()),
        Column("pos", int_type()),
        Column("strand", char_type(1)),
        Column("mismatches", int_type()),
        Column("mapq", int_type()),
    )

    def __init__(self, database: Database):
        self._db = database
        self._aligner: Optional[ShortReadAligner] = None
        self._aligner_cookie: Optional[Tuple[int, int]] = None
        self._rs_ids: Dict[str, int] = {}

    def _reference_aligner(self, max_mismatches: int) -> ShortReadAligner:
        table = self._db.table("ReferenceSequence")
        cookie = table.store.data_cookie()
        if (
            self._aligner is None
            or self._aligner_cookie != cookie
            or self._aligner.max_mismatches != max_mismatches
        ):
            records = []
            self._rs_ids = {}
            for rs_id, name, _length, seq in table.scan():
                if seq is None:
                    raise UdfError(
                        f"reference sequence {name!r} has no stored bases"
                    )
                records.append(FastaRecord(name, seq))
                self._rs_ids[name] = rs_id
            if not records:
                raise UdfError("ReferenceSequence table is empty")
            self._aligner = ShortReadAligner(
                records, max_mismatches=max_mismatches
            )
            self._aligner_cookie = cookie
        return self._aligner

    def batches(
        self, e_id: int, sg_id: int, s_id: int, max_mismatches: int = 2
    ) -> Iterator[List[Tuple[Any, ...]]]:
        aligner = self._reference_aligner(int(max_mismatches))
        rs_ids = self._rs_ids
        key = (e_id, sg_id, s_id)

        def generate():
            reads = self._db.table("Read").seek(key, key)
            # one align_many call per batch of reads, one batch of rows out
            while chunk := list(islice(reads, ALIGN_BATCH_READS)):
                hits = aligner.align_many(
                    [FastqRecord(f"r_{row[3]}", row[8], row[9]) for row in chunk]
                )
                yield [
                    (
                        row[3],
                        rs_ids[hit.reference],
                        hit.position,
                        hit.strand,
                        hit.mismatches,
                        hit.mapping_quality,
                    )
                    for row, hit in zip(chunk, hits)
                    if hit is not None
                ]

        return generate()


class SearchShortReadsTvf(TableValuedFunction):
    """Q-gram-indexed pattern search over the ``Read`` table."""

    name = "SearchShortReads"
    #: scans the Read table to build and probe the q-gram index
    permission_set = "EXTERNAL_ACCESS"
    columns = (
        Column("r_id", bigint_type()),
        Column("short_read_seq", varchar_type(500)),
        Column("match_pos", int_type()),
        Column("mismatches", int_type()),
    )

    def __init__(self, database: Database, q: int = 8):
        self._db = database
        self._q = q
        self._index: Optional[QGramIndex] = None
        self._index_cookie: Optional[Tuple[int, int]] = None

    def _read_index(self) -> QGramIndex:
        table = self._db.table("Read")
        cookie = table.store.data_cookie()
        if self._index is None or self._index_cookie != cookie:
            index = QGramIndex(q=self._q)
            for row in table.scan():
                r_id, seq = row[3], row[8]
                if seq:
                    index.add(r_id, seq)
            self._index = index
            self._index_cookie = cookie
        return self._index

    def create(self, pattern: str, max_mismatches: int = 0) -> Iterator[Any]:
        if not pattern:
            raise UdfError("SearchShortReads requires a pattern")
        index = self._read_index()

        def generate():
            for match in index.search_approximate(
                pattern, int(max_mismatches)
            ):
                yield (
                    match.sequence_id,
                    index.sequence(match.sequence_id),
                    match.position,
                    match.mismatches,
                )

        return generate()


def _usp_align_sample(
    database: Database,
    e_id: int,
    sg_id: int,
    s_id: int,
    max_mismatches: int = 2,
) -> int:
    """Compiled stored procedure: align a sample and bulk-load the
    ``Alignment`` table in clustered order. Returns the row count."""
    tvf = database.catalog.functions.tvf("AlignShortReads")
    if tvf is None:
        raise UdfError("AlignShortReads TVF is not registered")
    table = database.table("Alignment")
    rows: List[tuple] = []
    # continue above any alignment ids this sample already has
    a_id = max(
        (
            row[3]
            for row in table.scan()
            if (row[0], row[1], row[2]) == (e_id, sg_id, s_id)
        ),
        default=0,
    )
    for r_id, rs_id, pos, strand, mismatches, mapq in tvf.rows(
        e_id, sg_id, s_id, max_mismatches
    ):
        a_id += 1
        rows.append(
            (e_id, sg_id, s_id, a_id, r_id, None, rs_id, None, pos,
             strand, mismatches, mapq)
        )
    key = table.schema.key_indexes
    rows.sort(key=lambda r: tuple(r[i] for i in key))
    table.insert_many(rows)
    table.finish_bulk_load()
    return len(rows)


def register_alignment_extensions(database: Database, q: int = 8) -> None:
    """Install the in-database alignment TVF + procedure and the q-gram
    search TVF. Requires the normalized schema (``ReferenceSequence``,
    ``Read``, ``Alignment``) to exist."""
    database.register_tvf(AlignShortReadsTvf(database))
    database.register_tvf(SearchShortReadsTvf(database, q=q))
    database.procedures.register_compiled("usp_align_sample", _usp_align_sample)
