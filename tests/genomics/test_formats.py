"""FASTA, FASTQ, MAQ map, and SRF format round trips."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.genomics.aligner import Alignment
from repro.genomics.fasta import (
    FastaFormatError,
    FastaRecord,
    read_fasta,
    write_fasta,
)
from repro.genomics.fastq import (
    FastqFormatError,
    FastqRecord,
    count_records,
    fastq_bytes,
    parse_illumina_name,
    read_fastq,
    write_fastq,
)
from repro.genomics.maqmap import (
    MapFormatError,
    read_binary_map,
    read_text_map,
    write_binary_map,
    write_text_map,
)
from repro.genomics.srf import SrfFormatError, SrfRecord, read_srf, write_srf


class TestFasta:
    RECORDS = [
        FastaRecord("chr1", "ACGT" * 50, "synthetic chromosome 1"),
        FastaRecord("chr2", "GGCC"),
    ]

    def test_round_trip_via_file(self, tmp_path):
        path = tmp_path / "ref.fasta"
        assert write_fasta(self.RECORDS, path) == 2
        assert list(read_fasta(path)) == self.RECORDS

    def test_sixty_column_wrapping(self, tmp_path):
        path = tmp_path / "ref.fasta"
        write_fasta([FastaRecord("x", "A" * 150)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == ">x"
        assert [len(l) for l in lines[1:]] == [60, 60, 30]

    def test_reads_any_wrap_width(self):
        text = ">x desc here\nACG\nTACG\nT\n"
        records = list(read_fasta(io.StringIO(text)))
        assert records == [FastaRecord("x", "ACGTACGTT"[:8], "desc here")]

    def test_data_before_header_rejected(self):
        with pytest.raises(FastaFormatError):
            list(read_fasta(io.StringIO("ACGT\n>x\n")))

    def test_empty_header_rejected(self):
        with pytest.raises(FastaFormatError):
            list(read_fasta(io.StringIO(">\nACGT\n")))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcXYZ123", min_size=1, max_size=10),
                st.text(alphabet="ACGTN", max_size=200),
            ),
            max_size=5,
        )
    )
    def test_round_trip_property(self, pairs):
        # unique names required for a sensible file
        records = [
            FastaRecord(f"{name}_{i}", seq) for i, (name, seq) in enumerate(pairs)
        ]
        buffer = io.StringIO()
        write_fasta(records, buffer)
        buffer.seek(0)
        assert list(read_fasta(buffer)) == records


class TestFastq:
    RECORDS = [
        FastqRecord("IL4_855:1:1:954:659", "GTTT", ">>>>"),
        FastqRecord("IL4_855:1:1:497:759", "ACGTN", "IIII!"),
    ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "lane.fastq"
        assert write_fastq(self.RECORDS, path) == 2
        assert list(read_fastq(path)) == self.RECORDS

    def test_figure3_format_shape(self):
        payload = fastq_bytes(self.RECORDS[:1]).decode()
        lines = payload.splitlines()
        assert lines[0].startswith("@")
        assert lines[2] == "+"
        assert len(lines) == 4

    def test_length_mismatch_rejected(self):
        with pytest.raises(FastqFormatError):
            FastqRecord("x", "ACGT", "II")

    def test_missing_plus_rejected(self):
        bad = io.StringIO("@x\nACGT\nIIII\nACGT\n")
        with pytest.raises(FastqFormatError):
            list(read_fastq(bad))

    def test_bad_header_rejected(self):
        bad = io.StringIO("x\nACGT\n+\nIIII\n")
        with pytest.raises(FastqFormatError):
            list(read_fastq(bad))

    def test_count_records(self, tmp_path):
        path = tmp_path / "lane.fastq"
        write_fastq(self.RECORDS, path)
        assert count_records(path) == 2

    def test_illumina_name_round_trip(self):
        parsed = parse_illumina_name("IL4_855:1:293:426:864")
        assert (parsed.machine, parsed.run_id) == ("IL4", 855)
        assert (parsed.lane, parsed.tile, parsed.x, parsed.y) == (1, 293, 426, 864)
        assert parsed.format() == "IL4_855:1:293:426:864"

    def test_bad_illumina_name(self):
        with pytest.raises(FastqFormatError):
            parse_illumina_name("not-a-read-name")

    def test_scores_accessor(self):
        record = FastqRecord("x", "AC", "!I")
        assert record.scores() == [0, 40]


ALIGNMENTS = [
    Alignment("read1", "chr1", 100, "+", 0, 60, 36),
    Alignment("read2", "chr2", 0, "-", 2, 17, 36),
    Alignment("r:with:colons", "chr10", 99999, "+", 1, 0, 50),
]


class TestMaqMap:
    def test_binary_round_trip(self, tmp_path):
        path = tmp_path / "aln.map"
        assert write_binary_map(ALIGNMENTS, path) == 3
        assert list(read_binary_map(path)) == ALIGNMENTS

    def test_binary_magic_check(self, tmp_path):
        path = tmp_path / "bogus.map"
        path.write_bytes(b"NOTAMAP")
        with pytest.raises(MapFormatError):
            list(read_binary_map(path))

    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "aln.txt"
        write_text_map(ALIGNMENTS, path)
        assert list(read_text_map(path)) == ALIGNMENTS

    def test_text_positions_one_based(self, tmp_path):
        path = tmp_path / "aln.txt"
        write_text_map(ALIGNMENTS[:1], path)
        assert path.read_text().split("\t")[2] == "101"

    def test_text_with_sequences(self, tmp_path):
        path = tmp_path / "aln.txt"
        write_text_map(
            ALIGNMENTS[:1], path, sequences={"read1": ("ACGT", "IIII")}
        )
        fields = path.read_text().rstrip("\n").split("\t")
        assert fields[-2:] == ["ACGT", "IIII"]
        # reader tolerates the extended form
        assert list(read_text_map(path)) == ALIGNMENTS[:1]

    def test_text_field_count_checked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("only\tthree\tfields\n")
        with pytest.raises(MapFormatError):
            list(read_text_map(path))


class TestSrf:
    RECORDS = [
        SrfRecord("r1", "ACGT", "IIII", 812.5, 14.25),
        SrfRecord("r2", "GGTA", "!!!!", 0.0, 0.0),
    ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "lane.srf"
        assert write_srf(self.RECORDS, path) == 2
        result = list(read_srf(path))
        assert [(r.name, r.sequence, r.quality) for r in result] == [
            ("r1", "ACGT", "IIII"),
            ("r2", "GGTA", "!!!!"),
        ]
        assert result[0].intensity == pytest.approx(812.5)
        assert result[0].signal_to_noise == pytest.approx(14.25)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "bogus.srf"
        path.write_bytes(b"JUNKJUNK")
        with pytest.raises(SrfFormatError):
            list(read_srf(path))

    def test_fastq_conversion(self):
        record = self.RECORDS[0]
        fastq = record.to_fastq()
        assert (fastq.name, fastq.sequence) == ("r1", "ACGT")
        back = SrfRecord.from_fastq(fastq, 1.0, 2.0)
        assert back.intensity == 1.0
