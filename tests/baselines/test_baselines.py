"""File-centric baselines: flat files, the Perl-style script, MAQ tool,
and resource traces."""

from collections import Counter

import pytest

from repro.baselines import (
    FileCentricStore,
    MaqTool,
    ResourceTrace,
    run_binning_script,
)
from repro.genomics.aligner import Alignment
from repro.genomics.fasta import write_fasta
from repro.genomics.fastq import write_fastq
from repro.genomics.maqmap import read_binary_map, read_text_map


class TestFileCentricStore:
    def test_lane_fastq_round_trip(self, tmp_path, dge_reads):
        store = FileCentricStore(tmp_path)
        path = store.store_lane_fastq(855, 1, dge_reads[:50])
        from repro.genomics.fastq import read_fastq

        assert list(read_fastq(path)) == dge_reads[:50]

    def test_naming_convention(self, tmp_path):
        store = FileCentricStore(tmp_path)
        assert store.fastq_path(855, 1).name == "855_s_1.fastq"

    def test_unique_tags_file(self, tmp_path):
        store = FileCentricStore(tmp_path)
        path = store.store_unique_tags(
            855, 1, [(1, 100, "ACGT"), (2, 50, "GGTT")]
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "1\t100\tACGT"

    def test_alignment_files(self, tmp_path):
        store = FileCentricStore(tmp_path)
        alignments = [Alignment("r1", "chr1", 5, "+", 0, 60, 36)]
        text = store.store_alignments(855, 1, alignments)
        binary = store.store_alignments(855, 1, alignments, binary=True)
        assert list(read_text_map(text)) == alignments
        assert list(read_binary_map(binary)) == alignments

    def test_size_accounting(self, tmp_path, dge_reads):
        store = FileCentricStore(tmp_path)
        store.store_lane_fastq(855, 1, dge_reads[:10])
        sizes = store.file_sizes()
        assert "855_s_1.fastq" in sizes
        assert store.total_bytes() == sum(sizes.values())


class TestPerlBinningScript:
    def test_matches_reference_counter(self, tmp_path, dge_reads):
        path = tmp_path / "lane.fastq"
        write_fastq(dge_reads, path)
        ranked, _trace = run_binning_script(path)
        expected = Counter(
            r.sequence for r in dge_reads if "N" not in r.sequence
        )
        assert {seq: count for _rank, count, seq in ranked} == dict(expected)

    def test_ranks_descend_by_frequency(self, tmp_path, dge_reads):
        path = tmp_path / "lane.fastq"
        write_fastq(dge_reads, path)
        ranked, _trace = run_binning_script(path)
        freqs = [count for _rank, count, _seq in ranked]
        assert freqs == sorted(freqs, reverse=True)

    def test_output_file_written(self, tmp_path, dge_reads):
        source = tmp_path / "lane.fastq"
        out = tmp_path / "tags.txt"
        write_fastq(dge_reads[:100], source)
        ranked, trace = run_binning_script(source, out)
        assert len(out.read_text().splitlines()) == len(ranked)
        assert [p.name for p in trace.phases] == ["read", "process", "write"]

    def test_trace_shows_sequential_profile(self, tmp_path, dge_reads):
        path = tmp_path / "lane.fastq"
        write_fastq(dge_reads, path)
        _ranked, trace = run_binning_script(path, cores=4)
        # one core of four: mean utilisation must sit well below 50%
        assert trace.mean_utilization() < 0.5


class TestMaqTool:
    @pytest.fixture
    def inputs(self, tmp_path, reference, reseq_reads):
        fasta = tmp_path / "ref.fasta"
        fastq = tmp_path / "lane.fastq"
        write_fasta(reference, fasta)
        write_fastq(reseq_reads[:150], fastq)
        return MaqTool(tmp_path / "work"), fasta, fastq

    def test_bfq_round_trip(self, inputs, reseq_reads):
        tool, _fasta, fastq = inputs
        bfq = tool.fastq2bfq(fastq)
        assert list(tool.read_bfq(bfq)) == reseq_reads[:150]

    def test_bfa_round_trip(self, inputs, reference):
        tool, fasta, _fastq = inputs
        bfa = tool.fasta2bfa(fasta)
        records = tool.read_bfa(bfa)
        assert [(r.name, r.sequence) for r in records] == [
            (r.name, r.sequence) for r in reference
        ]

    def test_pipeline_produces_all_artifacts(self, inputs):
        tool, fasta, fastq = inputs
        artifacts = tool.pipeline(fastq, fasta)
        assert set(artifacts) == {"bfq", "bfa", "map", "mapview"}
        sizes = tool.artifact_sizes(artifacts)
        assert all(size > 0 for size in sizes.values())

    def test_pipeline_matches_direct_alignment(
        self, inputs, reference, reseq_reads, aligner
    ):
        tool, fasta, fastq = inputs
        artifacts = tool.pipeline(fastq, fasta)
        via_files = {
            (a.read_name, a.reference, a.position, a.strand)
            for a in read_text_map(artifacts["mapview"])
        }
        direct = {
            (hit.read_name, hit.reference, hit.position, hit.strand)
            for _r, hit in aligner.align_all(reseq_reads[:150])
            if hit is not None
        }
        assert via_files == direct

    def test_binary_intermediates_smaller_than_text(self, inputs):
        """4-bit packing: the .bfq must beat the FASTQ it came from."""
        tool, _fasta, fastq = inputs
        bfq = tool.fastq2bfq(fastq)
        assert bfq.stat().st_size < fastq.stat().st_size

    def test_bad_magic_rejected(self, inputs, tmp_path):
        from repro.baselines.maq_tool import MaqToolError

        tool, _fasta, _fastq = inputs
        bogus = tmp_path / "bogus.bfq"
        bogus.write_bytes(b"XXXX")
        with pytest.raises(MaqToolError):
            list(tool.read_bfq(bogus))


class TestResourceTrace:
    def test_phases_recorded_in_order(self):
        trace = ResourceTrace("test", cores=4)
        with trace.record("one", busy_cores=1):
            pass
        with trace.record("two", busy_cores=4):
            pass
        assert [p.name for p in trace.phases] == ["one", "two"]
        assert trace.phases[0].utilization == 0.25
        assert trace.phases[1].utilization == 1.0

    def test_render_contains_bars(self):
        trace = ResourceTrace("demo", cores=4)
        trace.add_phase("work", 0.0, 2.0, busy_cores=4, detail="all cores")
        text = trace.render()
        assert "demo" in text and "work" in text and "#" in text

    def test_mean_utilization(self):
        trace = ResourceTrace("m", cores=2)
        trace.add_phase("a", 0.0, 1.0, busy_cores=2)
        trace.add_phase("b", 1.0, 3.0, busy_cores=1)
        assert trace.mean_utilization() == pytest.approx((1.0 + 2 * 0.5) / 3)

    def test_empty_trace(self):
        trace = ResourceTrace("empty")
        assert trace.total_time == 0.0
        assert trace.mean_utilization() == 0.0

    def test_chrome_payload_goes_through_the_engine_writer(self):
        # a phase is an engine TraceSpan; payload and chart are what the
        # pre-PR-16 span model produced for the same trace, byte for byte
        from repro.engine.tracing import TraceSpan

        trace = ResourceTrace("demo", cores=4)
        trace.add_phase("read", 10.0, 10.5, busy_cores=0.6, detail="slurp")
        trace.add_phase("process", 10.5, 12.0, busy_cores=4)
        assert all(isinstance(p, TraceSpan) for p in trace.phases)
        assert trace.to_chrome_payload(pid=3) == {
            "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": 3, "tid": 0,
                 "args": {"name": "demo"}},
                {"name": "read", "ph": "X", "ts": 0.0, "dur": 500000.0,
                 "pid": 3, "tid": 0, "cat": "phase",
                 "args": {"utilization": 0.15, "detail": "slurp"}},
                {"name": "process", "ph": "X", "ts": 500000.0,
                 "dur": 1500000.0, "pid": 3, "tid": 0, "cat": "phase",
                 "args": {"utilization": 1.0, "detail": ""}},
            ],
            "displayTimeUnit": "ms",
        }
        assert trace.render() == (
            "demo  (total 2.00s, mean CPU 79% of 4 cores)\n"
            "  read       |##" + "." * 14 + " " * 48 + "|   0.50s @  15% CPU"
            "  (slurp)\n"
            "  process    |" + "#" * 48 + " " * 16 + "|   1.50s @ 100% CPU"
        )
