"""File-wrapper TVFs, chunked reading, UDAs, and the DNA UDT."""

import io
import itertools
import uuid

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.wrappers import (
    AssembleConsensusUda,
    AssembleSequenceUda,
    CallBaseUda,
    ChunkedBlobReader,
    ConsensusPiece,
    DEFAULT_CHUNK_SIZE,
    DNA_SEQUENCE_UDT,
    ListShortReadsTvf,
    PivotAlignmentTvf,
    register_extensions,
    split_fasta,
    split_fastq,
)
from repro.core.schemas import create_filestream_schema
from repro.engine import Database
from repro.engine.errors import UdfError
from repro.genomics.consensus import SlidingWindowConsensus
from repro.genomics.fasta import read_fasta
from repro.genomics.fastq import FastqRecord, fastq_bytes, read_fastq
from repro.genomics.quality import PHRED33, PHRED64
from repro.genomics.sequences import PackedDna


@pytest.fixture
def db():
    with Database() as database:
        register_extensions(database)
        create_filestream_schema(database)
        yield database


def sample_records(n=50):
    return [
        FastqRecord(
            f"IL4_855:1:{i}:10:{i * 3}",
            "ACGTACGTACGTACGTACGTACGTACGTACGTACGT"[: 20 + (i % 16)],
            "I" * (20 + (i % 16)),
        )
        for i in range(n)
    ]


def read_all(reader, split):
    """Every row the reader's batches hold, in order."""
    return [row for batch in reader.batches(split) for row in batch]


def import_lane(db, records, sample=855, lane=1):
    import uuid

    payload = fastq_bytes(records)
    db.table("ShortReadFiles").insert(
        (uuid.uuid4(), sample, lane, "FastQ", payload)
    )


class TestChunkedBlobReader:
    @pytest.mark.parametrize("chunk_size", [256, 300, 1024, 65536])
    def test_fastq_parse_equals_reference(self, db, chunk_size):
        """The paging algorithm must be invisible: any chunk size yields
        exactly the records a whole-file parse yields."""
        records = sample_records(80)
        guid = db.filestream.create(fastq_bytes(records))
        reader = ChunkedBlobReader(db.filestream, guid, chunk_size=chunk_size)
        parsed = read_all(reader, split_fastq)
        assert parsed == [
            (r.name, r.sequence, r.quality) for r in records
        ]

    def test_chunk_boundary_inside_entry(self, db):
        """Choose a chunk size guaranteed to split records."""
        records = sample_records(10)
        payload = fastq_bytes(records)
        guid = db.filestream.create(payload)
        # prime-sized chunks never align with the 4-line records
        reader = ChunkedBlobReader(db.filestream, guid, chunk_size=257)
        assert len(read_all(reader, split_fastq)) == 10

    def test_fasta_entries(self, db):
        text = ">r1\nACGT\nACGT\n>r2\nGGGG\n"
        guid = db.filestream.create(text.encode())
        reader = ChunkedBlobReader(db.filestream, guid, chunk_size=256)
        entries = read_all(reader, split_fasta)
        assert entries == [("r1", "ACGTACGT", ""), ("r2", "GGGG", "")]

    def test_missing_final_newline_tolerated(self, db):
        guid = db.filestream.create(b"@r\nAC\n+\nII")  # no trailing newline
        reader = ChunkedBlobReader(db.filestream, guid, chunk_size=256)
        entries = read_all(reader, split_fastq)
        assert len(entries) == 1
        assert entries[0][2] == "II"

    def test_malformed_entry_raises(self, db):
        guid = db.filestream.create(b"not fastq at all\njunk\njunk\njunk\n")
        reader = ChunkedBlobReader(db.filestream, guid, chunk_size=256)
        with pytest.raises(UdfError):
            read_all(reader, split_fastq)

    def test_tiny_chunk_rejected(self, db):
        guid = db.filestream.create(b"x")
        with pytest.raises(UdfError):
            ChunkedBlobReader(db.filestream, guid, chunk_size=16)

    def test_chunks_counted(self, db):
        guid = db.filestream.create(fastq_bytes(sample_records(100)))
        reader = ChunkedBlobReader(db.filestream, guid, chunk_size=512)
        read_all(reader, split_fastq)
        assert reader.chunks_read > 2


class TestListShortReadsTvf:
    def test_via_sql(self, db):
        records = sample_records(30)
        import_lane(db, records)
        rows = db.query("SELECT * FROM ListShortReads(855, 1, 'FastQ')")
        assert len(rows) == 30
        assert rows[0] == (
            records[0].name,
            records[0].sequence,
            records[0].quality,
        )

    def test_count_star(self, db):
        import_lane(db, sample_records(25))
        assert (
            db.scalar("SELECT COUNT(*) FROM ListShortReads(855, 1, 'FastQ')")
            == 25
        )

    def test_missing_lane_raises(self, db):
        import_lane(db, sample_records(5))
        with pytest.raises(UdfError):
            db.query("SELECT * FROM ListShortReads(855, 9, 'FastQ')")

    def test_unsupported_format(self, db):
        import_lane(db, sample_records(5))
        with pytest.raises(UdfError):
            db.query("SELECT * FROM ListShortReads(855, 1, 'SFF')")

    def test_where_over_tvf(self, db):
        import_lane(db, sample_records(40))
        rows = db.query(
            """
            SELECT short_read_seq FROM ListShortReads(855, 1, 'FastQ')
            WHERE CHARINDEX('N', short_read_seq) = 0
            """
        )
        assert len(rows) == 40  # no Ns in the synthetic records


class TestPivotAlignment:
    def test_pivots_positions(self):
        tvf = PivotAlignmentTvf()
        rows = list(tvf.rows(100, "ACG", "!#%"))
        assert rows == [
            (100, "A", 0),
            (101, "C", 2),
            (102, "G", 4),
        ]

    def test_null_sequence_yields_nothing(self):
        tvf = PivotAlignmentTvf()
        assert list(tvf.rows(5, None, None)) == []

    def test_missing_quality_padded_zero(self):
        tvf = PivotAlignmentTvf()
        rows = list(tvf.rows(0, "AC", ""))
        assert [r[2] for r in rows] == [0, 0]


class TestUdas:
    def test_call_base_lifecycle(self):
        uda = CallBaseUda()
        uda.init()
        for base, qual in [("A", 30), ("C", 10), ("A", 5)]:
            uda.accumulate(base, qual)
        assert uda.terminate() == "A"

    def test_call_base_merge(self):
        left, right = CallBaseUda(), CallBaseUda()
        left.init()
        right.init()
        left.accumulate("A", 10)
        right.accumulate("C", 30)
        left.merge(right)
        assert left.terminate() == "C"

    def test_call_base_ignores_n(self):
        uda = CallBaseUda()
        uda.init()
        uda.accumulate("N", 99)
        assert uda.terminate() == "N"  # no evidence at all

    def test_assemble_sequence_sorts_and_fills_gaps(self):
        uda = AssembleSequenceUda()
        uda.init()
        for pos, base in [(7, "T"), (3, "A"), (5, "G")]:
            uda.accumulate(pos, base)
        piece = uda.terminate()
        assert piece == ConsensusPiece(3, "ANGNT")

    def test_assemble_sequence_empty(self):
        uda = AssembleSequenceUda()
        uda.init()
        assert uda.terminate() == ConsensusPiece(0, "")

    def test_assemble_consensus_streams(self):
        uda = AssembleConsensusUda()
        uda.init()
        uda.accumulate(10, "ACGT", "IIII")
        uda.accumulate(12, "GTTT", "IIII")
        piece = uda.terminate()
        assert piece.start == 10
        assert piece.sequence == "ACGTTT"

    @pytest.mark.parametrize(
        "quals",
        [
            "II5+",  # one score per base
            "I5",  # shorter than seq: the tail scores 0
            "II5+II",  # longer than seq: the excess is dropped
            "",
            None,
            "I !+",  # ' ' is below the offset: scores 0, not -1
            "I\u00ff5\u4e2d",  # 'ÿ' is Latin-1 (222); U+4E2D is not (19 948)
        ],
    )
    @pytest.mark.parametrize("offset", [PHRED33, PHRED64])
    def test_assemble_consensus_decodes_phred(self, quals, offset):
        """The table decode equals the per-character one, whatever the
        length and content of ``quals``, at the class's own offset."""

        class Uda(AssembleConsensusUda):
            quality_offset = offset

        alignments = [(7, "ACGT", quals), (7, "ATGA", "5555"), (9, "CT", "+I")]
        uda = Uda()
        uda.init()
        reference = SlidingWindowConsensus("", length=None)
        for pos, seq, text in alignments:
            uda.accumulate(pos, seq, text)
            scores = [max(ord(ch) - offset, 0) for ch in (text or "")]
            scores = (scores + [0] * len(seq))[: len(seq)]
            reference.add_alignment(pos, seq, scores)
        piece = uda.terminate()
        expected = reference.finish()
        assert (piece.start, piece.sequence) == (7, expected.sequence)
        assert piece.qualities == tuple(expected.qualities)
        assert all(type(quality) is int for quality in piece.qualities)

    def test_assemble_consensus_scores(self):
        """Hand-checked: 'I' is 40 at Phred+33 and 9 at Phred+64, and a
        missing quality votes 0 without losing the base."""
        for offset, margin in ((PHRED33, 40 - 20), (PHRED64, 9 - 0)):

            class Uda(AssembleConsensusUda):
                quality_offset = offset

            uda = Uda()
            uda.init()
            uda.accumulate(0, "AC", "I")
            uda.accumulate(0, "T", "5")  # 20 at +33; below the +64 offset
            piece = uda.terminate()
            assert piece.sequence == "AC"
            assert piece.qualities == (margin, 0)

    def test_assemble_consensus_skips_null_rows(self):
        uda = AssembleConsensusUda()
        uda.init()
        uda.accumulate(None, "ACGT", "IIII")
        uda.accumulate(3, None, "IIII")
        assert uda.terminate() == ConsensusPiece(0, "")

    def test_assemble_consensus_refuses_merge(self):
        a, b = AssembleConsensusUda(), AssembleConsensusUda()
        a.init()
        b.init()
        with pytest.raises(UdfError):
            a.merge(b)

    def test_assemble_consensus_flags(self):
        assert AssembleConsensusUda.requires_ordered_input
        assert not AssembleConsensusUda.parallel_safe
        assert AssembleSequenceUda.parallel_safe


class TestDnaUdt:
    def test_codec_round_trip(self):
        raw = DNA_SEQUENCE_UDT.serialize("ACGTN")
        assert DNA_SEQUENCE_UDT.deserialize(raw) == PackedDna("ACGTN")

    def test_accepts_packed(self):
        packed = PackedDna("ACGT")
        assert DNA_SEQUENCE_UDT.deserialize(
            DNA_SEQUENCE_UDT.serialize(packed)
        ) == packed

    def test_rejects_other_types(self):
        with pytest.raises(UdfError):
            DNA_SEQUENCE_UDT.serialize(1234)

    def test_usable_as_column_type(self, db):
        db.execute(
            "CREATE TABLE seqs (id INT PRIMARY KEY, seq DnaSequence)"
        )
        db.table("seqs").insert((1, "ACGTACGT"))
        row = db.query("SELECT seq FROM seqs")[0]
        assert str(row[0]) == "ACGTACGT"

    def test_udt_column_is_smaller_than_varchar(self, db):
        db.execute("CREATE TABLE a (id INT PRIMARY KEY, seq VARCHAR(100))")
        db.execute("CREATE TABLE b (id INT PRIMARY KEY, seq DnaSequence)")
        for i in range(100):
            db.table("a").insert((i, "ACGT" * 16))
            db.table("b").insert((i, "ACGT" * 16))
        db.table("a").finish_bulk_load()
        db.table("b").finish_bulk_load()
        assert db.table("b").stored_bytes() < db.table("a").stored_bytes() * 0.55


class TestSrfFormat:
    def test_srf_blob_via_tvf(self, db):
        """Section 5.3.1: SRF containers wrap as FileStreams too."""
        import io
        import uuid

        from repro.genomics.srf import SrfRecord, write_srf

        records = [
            SrfRecord(f"r{i}", "ACGTACGT", "IIIIIIII", 100.0 + i, 12.5)
            for i in range(20)
        ]
        buffer = io.BytesIO()
        write_srf(records, buffer)
        db.table("ShortReadFiles").insert(
            (uuid.uuid4(), 900, 1, "SRF", buffer.getvalue())
        )
        rows = db.query("SELECT * FROM ListShortReads(900, 1, 'SRF')")
        assert rows == [(r.name, r.sequence, r.quality) for r in records]

    def test_srf_count_star(self, db):
        import io
        import uuid

        from repro.genomics.srf import SrfRecord, write_srf

        buffer = io.BytesIO()
        write_srf(
            [SrfRecord(f"x{i}", "AC", "II") for i in range(7)], buffer
        )
        db.table("ShortReadFiles").insert(
            (uuid.uuid4(), 901, 2, "SRF", buffer.getvalue())
        )
        assert (
            db.scalar("SELECT COUNT(*) FROM ListShortReads(901, 2, 'SRF')")
            == 7
        )


class TestChunkBoundaryEdges:
    def test_entry_larger_than_buffer_raises(self, db):
        big_seq = "A" * 2000
        payload = f"@huge\n{big_seq}\n+\n{'I' * 2000}\n".encode()
        guid = db.filestream.create(payload)
        reader = ChunkedBlobReader(db.filestream, guid, chunk_size=512)
        with pytest.raises(UdfError):
            read_all(reader, split_fastq)

    def test_fasta_entry_spanning_many_chunks(self, db):
        # one record larger than a chunk is an error; several records
        # each smaller than the chunk but crossing boundaries are fine
        text = "".join(
            f">r{i}\n{'ACGT' * 30}\n" for i in range(50)
        )
        guid = db.filestream.create(text.encode())
        reader = ChunkedBlobReader(db.filestream, guid, chunk_size=256)
        entries = read_all(reader, split_fasta)
        assert len(entries) == 50
        assert all(seq == "ACGT" * 30 for _n, seq, _q in entries)

    @pytest.mark.parametrize(
        "fmt, payload, message",
        [
            ("FastQ", b"@r1\nAC\n+\nII\nbad\nAC\n+x\nII\n",
             "malformed FASTQ entry near byte 12 (b'bad' / b'+x')"),
            # the byte is counted from the start of the buffer
            ("FastQ", b"@r1\nAC\n+\nII\n" * 30 + b"@r2\nAC\n-\nII\n",
             "malformed FASTQ entry near byte 108 (b'@r2' / b'-')"),
            ("FastQ", b"@r\nAC\n+\nII\n@s\nA",
             "malformed trailing entry in FileStream blob"),
            ("FastQ", b"@r\nAC\n+\nII\n\n",
             "malformed trailing entry in FileStream blob"),
            ("FastQ", b"@r\nAC\n+\nII\n@s\n\n+\n",
             "malformed trailing entry in FileStream blob"),
            ("FastQ", b"@huge\n" + b"A" * 300 + b"\n+\n" + b"I" * 300 + b"\n",
             "entry larger than the 256-byte buffer"),
            ("FastA", b"r1\nACGT\n", "expected '>' at byte 0"),
            ("FastA", b">r1\nACGT\n>r2",
             "malformed trailing entry in FileStream blob"),
            ("FastQ", "@r\u00e9\nAC\n+\nII\n".encode(),
             "non-ASCII byte 0xc3 at byte 2 of the FileStream blob"),
            # the byte is counted from the start of the blob, not the
            # buffer: the second buffer holds it
            ("FastQ", b"@r1\nAC\n+\nII\n" * 30 + "@r\u00e9\n".encode(),
             "non-ASCII byte 0xc3 at byte 362 of the FileStream blob"),
        ],
    )
    def test_error_texts(self, fmt, payload, message):
        with Database() as database:
            register_extensions(database, chunk_size=256)
            create_filestream_schema(database)
            database.table("ShortReadFiles").insert(
                (uuid.uuid4(), 1, 1, fmt, payload)
            )
            with pytest.raises(UdfError) as error:
                database.query(f"SELECT * FROM ListShortReads(1, 1, '{fmt}')")
        assert str(error.value) == message

    def test_fasta_header_without_sequence(self, db):
        """A header line followed by another is an entry with an empty
        sequence, as ``read_fasta`` reads it (the per-entry parser took
        the next header into the sequence)."""
        text = ">a\n>b\n>c\nGG\n>d\n\n>e\nT\n"
        reader = ChunkedBlobReader(
            db.filestream, db.filestream.create(text.encode()), chunk_size=256
        )
        rows = read_all(reader, split_fasta)
        assert rows == [
            ("a", "", ""), ("b", "", ""), ("c", "GG", ""), ("d", "", ""),
            ("e", "T", ""),
        ]
        assert rows == [
            (r.name, r.sequence, "") for r in read_fasta(io.StringIO(text))
        ]

    def test_empty_blob_yields_nothing(self, db):
        guid = db.filestream.create(b"")
        reader = ChunkedBlobReader(db.filestream, guid, chunk_size=256)
        assert read_all(reader, split_fastq) == []




def model_chunk_reads(text, ends, chunk, fasta):
    """``ReadChunk`` calls of the per-entry reader the batch reader
    replaced, from the file offsets where the entries end: each fill
    reads until the buffer holds ``chunk`` bytes from the first entry
    not yet parsed, and the next fill starts after the last entry known
    to be complete then (a FASTQ entry once its fourth newline is in, a
    FASTA entry once the next header's ``>`` is); at EOF the carried
    tail is the last entry."""
    reads, start, pos = 0, 0, 0
    while True:
        got = min(start + chunk, len(text)) - pos
        reads += 1
        pos += got
        if got == 0:
            return reads
        for end in ends:
            seen = end + 1 if fasta else end
            if start < end and seen <= pos and (fasta or text[end - 1] == "\n"):
                start = end


_names = st.text(alphabet="ABCXYZabcxyz0123456789_:.-", min_size=1, max_size=20)
_bases = st.text(alphabet="ACGTN", min_size=1, max_size=60)


@st.composite
def fastq_entries(draw):
    """FASTQ entries and their ``(name, sequence, quality)`` records."""
    entries, records = [], []
    for name in draw(st.lists(_names, max_size=40)):
        sequence = draw(_bases)
        quality = draw(
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=len(sequence),
                max_size=len(sequence),
            )
        )
        entries.append(f"@{name}\n{sequence}\n+\n{quality}\n")
        records.append((name, sequence, quality))
    return entries, records


@st.composite
def fasta_entries(draw):
    """FASTA entries with sequences wrapped at a random width, and their
    ``(name, sequence, '')`` records."""
    entries, records = [], []
    for name in draw(st.lists(_names, max_size=40)):
        sequence = draw(st.text(alphabet="ACGTN", min_size=1, max_size=100))
        width = draw(st.integers(1, 80))
        wrapped = "\n".join(
            sequence[i : i + width] for i in range(0, len(sequence), width)
        )
        entries.append(f">{name}\n{wrapped}\n")
        records.append((name, sequence, ""))
    return entries, records

class TestChunkParserProperty:
    """Random FASTQ/FASTA payloads, with and without a trailing newline
    and with multi-line FASTA sequences, at chunk sizes that split
    entries anywhere: ``ListShortReads`` returns what the stream readers
    of ``repro.genomics`` parse from the same bytes, and the reader makes
    the ``ReadChunk`` calls of the per-entry reader it replaced."""

    CHUNK_SIZES = (256, 257, 512, 4096, DEFAULT_CHUNK_SIZE)

    @pytest.fixture(scope="class")
    def dbs(self):
        databases = {}
        for chunk_size in self.CHUNK_SIZES:
            database = Database()
            register_extensions(database, chunk_size=chunk_size)
            create_filestream_schema(database)
            databases[chunk_size] = database
        yield databases
        for database in databases.values():
            database.close()

    samples = itertools.count(1000)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        fasta=st.booleans(),
        data=st.data(),
        trailing_newline=st.booleans(),
        chunk_size=st.sampled_from(CHUNK_SIZES),
    )
    def test_rows_and_chunk_reads_match(
        self, dbs, fasta, data, trailing_newline, chunk_size
    ):
        entries, records = data.draw(fasta_entries() if fasta else fastq_entries())
        text = "".join(entries)
        ends = list(itertools.accumulate(map(len, entries)))
        if not trailing_newline and text:
            text, ends[-1] = text[:-1], ends[-1] - 1
        if fasta:
            oracle = [(r.name, r.sequence, "") for r in read_fasta(io.StringIO(text))]
        else:
            oracle = [
                (r.name, r.sequence, r.quality)
                for r in read_fastq(io.StringIO(text))
            ]
        assert oracle == records
        payload = text.encode("ascii")
        db = dbs[chunk_size]
        sample, fmt = next(self.samples), "FastA" if fasta else "FastQ"
        db.table("ShortReadFiles").insert((uuid.uuid4(), sample, 1, fmt, payload))
        assert db.query(
            f"SELECT * FROM ListShortReads({sample}, 1, '{fmt}')"
        ) == records

        reader = ChunkedBlobReader(
            db.filestream, db.filestream.create(payload), chunk_size=chunk_size
        )
        split = split_fasta if fasta else split_fastq
        assert read_all(reader, split) == records
        assert reader.chunks_read == model_chunk_reads(
            text, ends, chunk_size, fasta
        )
