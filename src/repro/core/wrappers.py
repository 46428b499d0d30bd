"""The paper's extensibility artefacts: file-wrapper TVFs, analysis UDAs,
and the DNA sequence UDT.

This module is the reproduction of Sections 4.1 and 4.2.3:

- :class:`ChunkedBlobReader` — the Figure 5 machinery: scan a FileStream
  BLOB in large chunks (``ReadChunk``), split the complete entries out of
  an internal byte buffer (:func:`split_fastq`, :func:`split_fasta`),
  and page incomplete tail entries to the buffer start when a chunk
  boundary splits an entry;
- :class:`ListShortReadsTvf` — the ``ListShortReads(sample, lane, 'FastQ')``
  wrapper that surfaces a stored FASTQ/FASTA/SRF blob as a relation. It
  converts a buffer of entries at once through the batch TVF contract,
  so the per-row ``FillRow`` conversion the paper identifies as the
  bottleneck is not paid per row;
- :class:`PivotAlignmentTvf`, :class:`CallBaseUda`,
  :class:`AssembleSequenceUda`, :class:`AssembleConsensusUda` — the
  building blocks of Query 3, including the sliding-window optimisation;
- the ``DnaSequence`` UDT — the bit-packed sequence type the paper's
  future-work section projects a ~4× saving for.

:func:`register_extensions` installs everything on a database.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter, sub
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..engine.database import Database
from ..engine.errors import UdfError
from ..engine.filestream import FileStreamStore
from ..engine.schema import Column
from ..engine.types import UdtCodec, char_type, int_type, varchar_type
from ..engine.udf import TableValuedFunction, UserDefinedAggregate
from ..genomics.consensus import SlidingWindowConsensus, rank_votes
from ..genomics.quality import PHRED33
from ..genomics.sequences import PackedDna

#: default ReadChunk size (the A2 ablation sweeps this)
DEFAULT_CHUNK_SIZE = 256 * 1024


# ---------------------------------------------------------------------------
# chunked FileStream scanning (paper Figure 5 / Section 4.1)
# ---------------------------------------------------------------------------


class ChunkedBlobReader:
    """Streams entries out of a FileStream BLOB via chunked reads.

    The split callback receives the ASCII text of the buffer's valid
    bytes and whether the blob is exhausted, and returns ``(rows,
    consumed)``: the SQL rows of the complete entries at the start of
    the text and how many characters they span. What is left — an entry
    a chunk boundary split — triggers the paging algorithm: the
    incomplete tail is copied to the buffer start and the remainder of
    the buffer refilled from the file.
    """

    def __init__(
        self,
        store: FileStreamStore,
        guid,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        sequential: bool = True,
    ):
        if chunk_size < 256:
            raise UdfError(f"chunk size {chunk_size} is too small")
        self._store = store
        self._guid = guid
        self._buffer = bytearray(chunk_size)
        self._file_pos = 0
        self._buffer_offset = 0  # carried-over tail bytes at buffer start
        self._at_eof = False
        self.chunks_read = 0

    def _read_chunk(self) -> int:
        """The paper's ``ReadChunk()``: refill the buffer after any
        carried-over bytes; returns the number of valid bytes."""
        length = len(self._buffer) - self._buffer_offset
        read = self._store.get_bytes(
            self._guid,
            self._file_pos,
            self._buffer,
            self._buffer_offset,
            length,
            sequential=True,
            prefetch=max(len(self._buffer), 1 << 20),
        )
        self._file_pos += read
        self.chunks_read += 1
        if read == 0:
            self._at_eof = True
            carried = self._buffer_offset
            self._buffer_offset = 0
            return carried
        if self._buffer_offset > 0:
            read += self._buffer_offset
            self._buffer_offset = 0
        return read

    def batches(
        self, split: Callable[[str, bool], Tuple[List[tuple], int]]
    ) -> Iterator[List[tuple]]:
        """The paper's ``MoveNext()`` loop, a buffer at a time: one list
        of rows per buffer that holds a complete entry."""
        bytes_read = self._read_chunk()
        while bytes_read > 0:
            try:
                text = self._buffer[:bytes_read].decode("ascii")
            except UnicodeDecodeError as exc:
                # the buffer holds the blob's bytes up to the read position
                offset = self._file_pos - bytes_read + exc.start
                raise UdfError(
                    f"non-ASCII byte 0x{self._buffer[exc.start]:02x} at "
                    f"byte {offset} of the FileStream blob"
                ) from None
            rows, consumed = split(text, self._at_eof)
            if rows:
                yield rows
            if consumed < bytes_read:
                if self._at_eof:
                    raise UdfError(
                        "malformed trailing entry in FileStream blob"
                    )
                # paging algorithm: move the incomplete entry to the start
                tail = bytes_read - consumed
                if tail >= len(self._buffer):
                    raise UdfError(
                        f"entry larger than the {len(self._buffer)}-byte "
                        "buffer"
                    )
                self._buffer[0:tail] = self._buffer[consumed:bytes_read]
                self._buffer_offset = tail
            elif self._at_eof:
                return
            bytes_read = self._read_chunk()


#: a header line without its marker character
_DROP_MARKER = itemgetter(slice(1, None))


def split_fastq(text: str, at_eof: bool) -> Tuple[List[tuple], int]:
    """The ``(name, sequence, quality)`` rows of the complete 4-line
    FASTQ entries at the start of ``text``, split in bulk; at EOF the
    last quality line may lack its newline."""
    lines = text.split("\n")
    end = (len(lines) - 1) // 4 * 4
    rest = lines[end:]
    if at_eof and len(rest) == 4 and rest[3]:
        end += 4
        consumed = len(text)
    else:
        consumed = len(text) - len("\n".join(rest))
    headers = lines[0:end:4]
    pluses = lines[2:end:4]
    if not (
        all(map(str.startswith, headers, repeat("@")))
        and all(map(str.startswith, pluses, repeat("+")))
    ):
        for i, (header, plus) in enumerate(zip(headers, pluses)):
            if not (header.startswith("@") and plus.startswith("+")):
                pos = sum(map(len, lines[: 4 * i])) + 4 * i
                raise UdfError(
                    f"malformed FASTQ entry near byte {pos} "
                    f"({header.encode()[:20]!r} / {plus.encode()[:10]!r})"
                )
    return (
        list(zip(map(_DROP_MARKER, headers), lines[1:end:4], lines[3:end:4])),
        consumed,
    )


def split_fasta(text: str, at_eof: bool) -> Tuple[List[tuple], int]:
    """The ``(name, sequence, '')`` rows of the complete FASTA entries
    at the start of ``text``: an entry is its ``>`` header line and the
    sequence lines up to the next line that starts with ``>`` (or EOF),
    joined."""
    if not text.startswith(">"):
        raise UdfError("expected '>' at byte 0")
    cut = text.rfind("\n>")
    if at_eof and "\n" in text[cut + 1 :]:
        body, consumed = text, len(text)
    elif cut > 0:
        body, consumed = text[:cut], cut + 1
    else:  # no entry is known to be complete yet
        return [], 0
    lines = body.split("\n")
    headers = lines[0::2]
    if len(lines) == 2 * (body.count("\n>") + 1) and all(
        map(str.startswith, headers, repeat(">"))
    ):
        # one sequence line per entry: the lines alternate
        names, sequences = map(_DROP_MARKER, headers), lines[1::2]
    else:
        entries = [entry.partition("\n") for entry in body[1:].split("\n>")]
        names = [name for name, _nl, _seq in entries]
        sequences = [seq.replace("\n", "") for _name, _nl, seq in entries]
    return list(zip(names, sequences, repeat(""))), consumed


# ---------------------------------------------------------------------------
# ListShortReads TVF (the hybrid design's relational window onto FASTQ)
# ---------------------------------------------------------------------------


class ListShortReadsTvf(TableValuedFunction):
    """``SELECT * FROM ListShortReads(sample, lane, 'FastQ')``.

    Finds the ``ShortReadFiles`` row for (sample, lane), then streams
    the blob through :class:`ChunkedBlobReader`, converting each
    buffer's complete FASTQ/FASTA entries into SQL rows at once. An SRF
    container goes through the per-record ``create``/``fill_row``
    adapter.
    """

    name = "ListShortReads"
    #: reads the ShortReadFiles table and FILESTREAM blobs
    permission_set = "EXTERNAL_ACCESS"
    columns = (
        Column("read_name", varchar_type(80)),
        Column("short_read_seq", varchar_type(500)),
        Column("quals", varchar_type(500)),
    )

    def __init__(
        self,
        database: Database,
        table_name: str = "ShortReadFiles",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        self._db = database
        self._table_name = table_name
        self.chunk_size = chunk_size

    def _find_blob(self, sample: int, lane: int):
        table = self._db.table(self._table_name)
        schema = table.schema
        sample_i = schema.column_index("sample")
        lane_i = schema.column_index("lane")
        guid_i = schema.column_index("reads")
        for row in table.scan():
            if row[sample_i] == sample and row[lane_i] == lane:
                return row[guid_i]
        raise UdfError(
            f"no short-read file for sample={sample}, lane={lane}"
        )

    def batches(self, sample: int, lane: int, fmt: str = "FastQ"):
        """One list of rows per ``ReadChunk`` buffer of a FASTQ/FASTA
        blob; an SRF container through :meth:`create`."""
        split = _SPLITTERS.get((fmt or "FastQ").lower())
        if split is None:
            yield from super().batches(sample, lane, fmt)
            return
        reader = ChunkedBlobReader(
            self._db.filestream,
            self._find_blob(sample, lane),
            chunk_size=self.chunk_size,
        )
        yield from reader.batches(split)

    def create(self, sample: int, lane: int, fmt: str) -> Iterator[Any]:
        if fmt.lower() != "srf":
            raise UdfError(f"unsupported short-read format {fmt!r}")
        guid = self._find_blob(sample, lane)
        # SRF containers are length-prefixed binary; stream them
        # through the container reader over the managed file handle
        # (Section 5.3.1: "our hybrid approach would however
        # naturally extend to encapsulate SRF files as FileStreams")
        from ..genomics.srf import read_srf

        def srf_rows():
            with self._db.filestream.open_stream(guid) as handle:
                for record in read_srf(handle):
                    yield (record.name, record.sequence, record.quality)

        return srf_rows()


#: the bulk entry splitter of each text format ListShortReads reads
_SPLITTERS = {"fastq": split_fastq, "fasta": split_fasta}


# ---------------------------------------------------------------------------
# PivotAlignment TVF (Query 3, conceptually clean version)
# ---------------------------------------------------------------------------


class PivotAlignmentTvf(TableValuedFunction):
    """``CROSS APPLY PivotAlignment(a_pos, short_read_seq, quals)`` —
    pivot one aligned read into (position, base, quality) rows, all of
    them in one batch: a base past the end of ``quals`` scores 0."""

    name = "PivotAlignment"
    columns = (
        Column("pos", int_type()),
        Column("base", char_type(1)),
        Column("qual", int_type()),
    )

    def __init__(self, quality_offset: int = PHRED33):
        self._offset = quality_offset

    def batches(self, pos: int, seq: str, quals: str) -> Iterator[List[tuple]]:
        if seq is None:
            return
        size = len(seq)
        codes = map(ord, (quals or "")[:size])
        scores = list(map(sub, codes, repeat(self._offset)))
        scores += [0] * (size - len(scores))
        yield list(zip(range(pos, pos + size), seq, scores))


# ---------------------------------------------------------------------------
# UDAs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsensusPiece:
    """A called consensus fragment: genome start + sequence (the large
    in-aggregate BLOB result Section 5.3.3 worries about).

    ``qualities`` carries per-base consensus quality when the producing
    aggregate computes it (the sliding-window UDA does; the pivot
    pipeline's ``AssembleSequence`` does not) — SNP calling filters on
    it."""

    start: int
    sequence: str
    qualities: Tuple[int, ...] = ()

    def __eq__(self, other) -> bool:
        # equality ignores qualities so the pivot and sliding-window
        # pipelines (which agree on the called bases) compare equal
        if not isinstance(other, ConsensusPiece):
            return NotImplemented
        return (self.start, self.sequence) == (other.start, other.sequence)

    def __hash__(self) -> int:
        return hash((self.start, self.sequence))


class CallBaseUda(UserDefinedAggregate):
    """``CallBase(base, qual)`` — quality-weighted consensus base for one
    (chromosome, position) group."""

    name = "CallBase"
    arity = 2
    parallel_safe = True
    permission_set = "SAFE"

    def init(self) -> None:
        self._votes: dict = {}

    def accumulate(self, base: str, qual: int) -> None:
        self.accumulate_batch((base,), (qual,))

    def accumulate_batch(
        self, bases: Sequence[str], quals: Sequence[int]
    ) -> None:
        votes = self._votes
        for base, qual in zip(bases, quals):
            if base is not None and base != "N":
                votes[base] = votes.get(base, 0) + max(int(qual or 0), 0)

    def merge(self, other: "CallBaseUda") -> None:
        for base, score in other._votes.items():
            self._votes[base] = self._votes.get(base, 0) + score

    def terminate(self) -> str:
        return rank_votes(self._votes)[0]


class AssembleSequenceUda(UserDefinedAggregate):
    """``AssembleSequence(pos, b)`` — concatenate called bases into the
    consensus string (the inverse of PivotAlignment). Buffers all
    (position, base) pairs: O(consensus length) state, the "large
    internal BLOB result" limitation the paper discusses."""

    name = "AssembleSequence"
    arity = 2
    parallel_safe = True
    permission_set = "SAFE"

    def init(self) -> None:
        self._calls: List[Tuple[int, str]] = []

    def accumulate(self, pos: int, base: str) -> None:
        self.accumulate_batch((pos,), (base,))

    def accumulate_batch(
        self, positions: Sequence[int], bases: Sequence[str]
    ) -> None:
        self._calls.extend(
            (pos, base or "N")
            for pos, base in zip(positions, bases)
            if pos is not None
        )

    def merge(self, other: "AssembleSequenceUda") -> None:
        self._calls.extend(other._calls)

    def terminate(self) -> ConsensusPiece:
        if not self._calls:
            return ConsensusPiece(0, "")
        self._calls.sort(key=lambda pb: pb[0])
        start = self._calls[0][0]
        end = self._calls[-1][0]
        bases = ["N"] * (end - start + 1)
        for pos, base in self._calls:
            bases[pos - start] = base
        return ConsensusPiece(start, "".join(bases))


class AssembleConsensusUda(UserDefinedAggregate):
    """``AssembleConsensus(pos, seq, quals)`` — the optimised one-pass
    consensus: combines base calling and assembly over alignments that
    arrive ordered by position, with O(window) state (Section 4.2.3's
    proposed sliding-window processing technique). A run of rows goes
    to the window as whole columns, and the window decodes the Phred
    text itself (``SlidingWindowConsensus.add_phred``)."""

    name = "AssembleConsensus"
    arity = 3
    permission_set = "SAFE"
    parallel_safe = False  # partial windows overlap partition borders
    requires_ordered_input = True

    quality_offset = PHRED33

    def init(self) -> None:
        self._window: Optional[SlidingWindowConsensus] = None

    def accumulate(self, pos: int, seq: str, quals: str) -> None:
        self.accumulate_batch([pos], [seq], [quals])

    def accumulate_batch(
        self,
        positions: Sequence[int],
        sequences: Sequence[str],
        qualities: Sequence[Optional[str]],
    ) -> None:
        # a row without a position or a sequence votes nothing; one score
        # per base: a short ``quals`` is padded with 0, a long one cut
        if None in positions or None in sequences:
            kept = [
                pos is not None and seq is not None
                for pos, seq in zip(positions, sequences)
            ]
            positions = list(compress(positions, kept))
            sequences = list(compress(sequences, kept))
            qualities = list(compress(qualities, kept))
        if not positions:
            return
        if self._window is None:
            self._window = SlidingWindowConsensus("", length=None)
        self._window.add_phred(
            positions, sequences, qualities, self.quality_offset
        )

    def merge(self, other: "AssembleConsensusUda") -> None:
        raise UdfError(
            "AssembleConsensus cannot merge partial states: alignments "
            "overlapping a partition border would be split (the paper's "
            "partitioning problem); partition by chromosome instead"
        )

    def terminate(self) -> ConsensusPiece:
        if self._window is None:
            return ConsensusPiece(0, "")
        result = self._window.finish()
        return ConsensusPiece(
            result.start, result.sequence, tuple(result.qualities)
        )


# ---------------------------------------------------------------------------
# DnaSequence UDT
# ---------------------------------------------------------------------------


def _dna_serialize(value: Any) -> bytes:
    if isinstance(value, PackedDna):
        return value.serialize()
    if isinstance(value, str):
        return PackedDna(value).serialize()
    raise UdfError(f"DnaSequence takes str or PackedDna, got {type(value).__name__}")


DNA_SEQUENCE_UDT = UdtCodec(
    name="DnaSequence",
    serialize=_dna_serialize,
    deserialize=PackedDna.deserialize,
    to_string=lambda v: str(v),
    probe="ACGTACGT",
)


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------


def register_extensions(
    database: Database, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> None:
    """Install the paper's UDFs, TVFs, UDAs, and UDT on a database."""
    from ..genomics.sequences import reverse_complement

    database.register_scalar(
        "ReverseComplement",
        reverse_complement,
        returns_null_on_null_input=True,
        deterministic=True,
    )
    database.register_tvf(ListShortReadsTvf(database, chunk_size=chunk_size))
    database.register_tvf(PivotAlignmentTvf())
    database.register_uda(CallBaseUda)
    database.register_uda(AssembleSequenceUda)
    database.register_uda(AssembleConsensusUda)
    database.register_udt(DNA_SEQUENCE_UDT)
