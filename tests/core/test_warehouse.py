"""GenomicsWarehouse: imports, alignment, physical design options."""

import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import core as core_package
from repro.core import GenomicsWarehouse
from repro.engine import database as database_module
from repro.engine.errors import BindError, EngineError, TypeMismatchError
from repro.genomics.fastq import (
    FastqFormatError,
    FastqRecord,
    parse_illumina_name,
)


@pytest.fixture
def empty_warehouse():
    wh = GenomicsWarehouse()
    yield wh
    wh.close()


@pytest.fixture
def loaded(empty_warehouse, reference, genes):
    wh = empty_warehouse
    wh.load_reference(reference)
    wh.load_genes(genes)
    wh.register_experiment(1, "exp", "dge")
    wh.register_sample_group(1, 1, "grp")
    wh.register_sample(1, 1, 1, "smp")
    return wh


class TestProvenanceTables:
    def test_experiment_rows(self, loaded):
        rows = loaded.db.query("SELECT e_id, name, kind FROM Experiment")
        assert rows == [(1, "exp", "dge")]

    def test_fk_chain_enforced(self, loaded):
        from repro.engine.errors import ConstraintViolation

        with pytest.raises(ConstraintViolation):
            loaded.register_sample_group(99, 1, "orphan")

    def test_flowcell_and_lane(self, loaded):
        loaded.register_flowcell(7, "Illumina GA II")
        loaded.register_lane(7, 1, 1, 1, 1, is_control=True)
        rows = loaded.db.query(
            "SELECT l_fc_id, l_lane, is_control FROM Lane"
        )
        assert rows == [(7, 1, 1)]

    def test_navigational_join(self, loaded):
        """The paper's pitch: explore experiment context with one query."""
        rows = loaded.db.query(
            """
            SELECT Experiment.name, Sample.name FROM Experiment
            JOIN SampleGroup ON (e_id = sg_e_id)
            JOIN Sample ON (sg_e_id = s_e_id AND sg_id = s_sg_id)
            """
        )
        assert rows == [("exp", "smp")]


class TestReferenceLoading:
    def test_reference_rows(self, loaded, reference):
        rows = loaded.db.query(
            "SELECT rs_id, name, length FROM ReferenceSequence ORDER BY rs_id"
        )
        assert [r[1] for r in rows] == [r.name for r in reference]

    def test_gene_rows_link_chromosomes(self, loaded, genes):
        count = loaded.db.scalar("SELECT COUNT(*) FROM Gene")
        assert count == len(genes)

    def test_gene_at_lookup(self, loaded, genes):
        gene = genes[0]
        middle = (gene.start + gene.end) // 2
        assert loaded.gene_at(gene.chromosome, middle) == gene.gene_id
        assert loaded.gene_at(gene.chromosome, gene.end + 1) != gene.gene_id

    def test_gene_with_unknown_chromosome_rejected(self, loaded):
        from repro.genomics.simulate import GeneAnnotation

        with pytest.raises(BindError):
            loaded.load_genes(
                [GeneAnnotation(999, "X", "chr99", 0, 10, "+")]
            )

    def test_aligner_requires_reference(self, empty_warehouse):
        with pytest.raises(EngineError):
            _ = empty_warehouse.aligner


class TestImports:
    def test_relational_import(self, loaded, dge_reads):
        count = loaded.import_lane_relational(1, 1, 1, dge_reads[:100])
        assert count == 100
        assert loaded.db.scalar("SELECT COUNT(*) FROM [Read]") == 100

    def test_read_rows_decompose_illumina_names(self, loaded, dge_reads):
        loaded.import_lane_relational(1, 1, 1, dge_reads[:10])
        rows = loaded.db.query("SELECT lane, tile, x, y FROM [Read]")
        assert all(tile >= 1 for _lane, tile, _x, _y in rows)

    def test_hybrid_import_and_etl(self, loaded, dge_reads):
        loaded.import_lane_hybrid(sample=855, lane=1, records=dge_reads[:50])
        assert loaded.db.scalar("SELECT COUNT(*) FROM ShortReadFiles") == 1
        count = loaded.load_reads_from_filestream(1, 1, 1, sample=855, lane=1)
        assert count == 50
        # payload survives byte-for-byte through the TVF path
        rows = loaded.db.query("SELECT short_read_seq FROM [Read]")
        assert {r[0] for r in rows} == {r.sequence for r in dge_reads[:50]}

    def test_hybrid_blob_matches_fastq_bytes(self, loaded, dge_reads):
        from repro.genomics.fastq import fastq_bytes

        guid = loaded.import_lane_hybrid(855, 2, dge_reads[:20])
        assert loaded.db.filestream.read_all(guid) == fastq_bytes(
            dge_reads[:20]
        )


    #: Python calls into the engine and ``repro.core`` per read of a
    #: lane loaded through ``ListShortReads``: the statement's fixed
    #: cost and the per-batch and per-page calls (validation, encoding,
    #: page runs, B+tree leaves) spread over the lane; no call is paid
    #: per row. A ceiling, not a figure: per-row glue may go, none may
    #: come back (the per-entry parser, FastqRecord, name parse and row
    #: validation cost 22 calls a read, and the per-row encoder, page
    #: fit and append and key form 5).
    CALLS_PER_READ = 0.6

    def test_hybrid_load_calls_per_read(self, loaded, dge_reads):
        loaded.import_lane_hybrid(sample=855, lane=1, records=dge_reads)
        roots = (
            str(Path(database_module.__file__).parent),
            str(Path(core_package.__file__).parent),
        )
        count = 0

        def profile(frame, event, _arg):
            nonlocal count
            if event == "call" and frame.f_code.co_filename.startswith(roots):
                count += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            reads = loaded.load_reads_from_filestream(1, 1, 1, 855, 1)
        finally:
            sys.setprofile(previous)
        assert reads == len(dge_reads) > 1000
        assert count / reads <= self.CALLS_PER_READ, count / reads

    def test_unequal_quality_raises_for_the_first_bad_read(self, loaded):
        import uuid

        payload = b"@a:1\nACGT\n+\nIIII\n@b:2\nACGT\n+\nIII\n@c\nA\n+\n\n"
        loaded.db.table("ShortReadFiles").insert(
            (uuid.uuid4(), 855, 3, "FastQ", payload)
        )
        with pytest.raises(FastqFormatError) as error:
            loaded.load_reads_from_filestream(1, 1, 1, 855, 3)
        with pytest.raises(FastqFormatError) as expected:
            FastqRecord("b:2", "ACGT", "III")
        assert str(error.value) == str(expected.value)
        assert loaded.db.scalar("SELECT COUNT(*) FROM [Read]") == 0


#: fields of an Illumina-like name: plain numbers and what ``int()``
#: also reads (sign, space, padding, underscores, other digits) or not
_name_fields = st.one_of(
    st.integers(0, 3000).map(str),
    st.sampled_from(
        ["007", "+5", " 5", "-3", "\u0663", "1_0", "9" * 19, "x", "",
         "2\n", "\n3", "4\nx"]
    ),
)
_plain_names = st.builds(
    "IL4_{}:{}:{}:{}:{}".format, *[st.integers(0, 3000)] * 5
)
_odd_names = st.one_of(
    st.text(max_size=30),
    # a plain name with something inserted anywhere
    st.builds(
        lambda name, at, piece: name[:at] + piece + name[at:],
        _plain_names,
        st.integers(0, 30),
        st.sampled_from(
            [":", "\n", "x\n", "\nx", "_", " ", "+", "-", "x", "9" * 19,
             "\u0663"]
        ),
    ),
    st.builds(
        lambda machine, run, fields: f"{machine}_{run}:" + ":".join(fields),
        st.text(alphabet="IL4_x:\n ", max_size=6),
        _name_fields,
        st.lists(_name_fields, min_size=3, max_size=5),
    ),
)


@st.composite
def _name_batches(draw):
    """Plain Illumina names with up to two odd ones among them (a batch
    of plain names is parsed by the one pattern), or odd names only."""
    if draw(st.booleans()):
        return draw(st.lists(_odd_names, max_size=20))
    names = draw(st.lists(_plain_names, max_size=20))
    for odd in draw(st.lists(_odd_names, max_size=2)):
        names.insert(draw(st.integers(0, len(names))), odd)
    return names


class TestReadNameBatches:
    """``Read`` rows built a batch at a time carry, for every read name,
    what :func:`parse_illumina_name` gives it one record at a time: its
    lane, tile, x and y, or tile 0 at (0, 0) of the import's lane."""

    @pytest.fixture(scope="class")
    def warehouse(self):
        wh = GenomicsWarehouse()
        wh.register_experiment(1, "exp", "dge")
        wh.register_sample_group(1, 1, "grp")
        yield wh
        wh.close()

    samples = itertools.count(1)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(names=_name_batches())
    # one line of a name would match as a plain name; int() rejects "5\nx"
    @example(names=["IL4_855:1:2:3:5\nx", "IL4_855:1:5:6:7"])
    @example(names=["IL4_855:1:2:3:4 4", "IL4_855:1:5:6:7"])
    def test_rows_match_per_record_parse(self, warehouse, names):
        s_id = next(self.samples)
        warehouse.register_sample(1, 1, s_id, f"s{s_id}")
        expected = []
        for r_id, name in enumerate(names, start=1):
            try:
                read = parse_illumina_name(name)
                fields = (read.lane, read.tile, read.x, read.y)
            except FastqFormatError:
                fields = (7, 0, 0, 0)
            expected.append((1, 1, s_id, r_id) + fields + ("A", "I"))
        records = [FastqRecord(name, "A", "I") for name in names]
        if any(
            not -(2**31) <= value < 2**31
            for row in expected
            for value in row[4:8]
        ):
            with pytest.raises(TypeMismatchError):
                warehouse.import_lane_relational(1, 1, s_id, records, lane=7)
            return
        assert warehouse.import_lane_relational(
            1, 1, s_id, records, lane=7
        ) == len(names)
        rows = warehouse.db.query(
            f"SELECT * FROM [Read] WHERE r_s_id = {s_id} ORDER BY r_id"
        )
        assert rows == expected


class TestSecondaryAnalysis:
    @pytest.fixture
    def with_reads(self, loaded, dge_reads):
        loaded.import_lane_relational(1, 1, 1, dge_reads)
        return loaded

    def test_binning_populates_tag(self, with_reads):
        count = with_reads.bin_unique_tags(1, 1, 1)
        assert count == with_reads.db.scalar("SELECT COUNT(*) FROM Tag")
        total = with_reads.db.scalar("SELECT SUM(t_frequency) FROM Tag")
        clean = with_reads.db.scalar(
            "SELECT COUNT(*) FROM [Read] WHERE CHARINDEX('N', short_read_seq) = 0"
        )
        assert total == clean

    def test_align_tags_links_tags_and_genes(self, with_reads):
        with_reads.bin_unique_tags(1, 1, 1)
        aligned = with_reads.align_tags(1, 1, 1)
        assert aligned > 0
        rows = with_reads.db.query(
            "SELECT a_t_id, a_r_id, a_g_id FROM Alignment"
        )
        assert all(t is not None and r is None for t, r, _g in rows)
        assert sum(1 for _t, _r, g in rows if g is not None) > len(rows) * 0.8

    def test_alignment_ids_unique(self, with_reads):
        with_reads.bin_unique_tags(1, 1, 1)
        with_reads.align_tags(1, 1, 1)
        ids = [row[3] for row in with_reads.db.table("Alignment").scan()]
        assert len(ids) == len(set(ids))


class TestPhysicalDesignOptions:
    def test_read_clustering_enables_merge_join(self, reference, reseq_reads):
        wh = GenomicsWarehouse(alignment_clustering="read")
        try:
            wh.load_reference(reference)
            wh.register_experiment(1, "x", "resequencing")
            wh.register_sample_group(1, 1, "g")
            wh.register_sample(1, 1, 1, "s")
            wh.import_lane_relational(1, 1, 1, reseq_reads[:300])
            wh.align_reads(1, 1, 1)
            plan = wh.db.explain(
                """
                SELECT a_id, short_read_seq FROM Alignment
                JOIN [Read] ON (a_e_id = r_e_id AND a_sg_id = r_sg_id
                                AND a_s_id = r_s_id AND a_r_id = r_id)
                WHERE a_e_id = 1 AND a_sg_id = 1 AND a_s_id = 1
                """
            )
            assert "Merge Join" in plan
        finally:
            wh.close()

    def test_position_clustering_uses_hash_join(self, reference, reseq_reads):
        wh = GenomicsWarehouse(alignment_clustering="position")
        try:
            wh.load_reference(reference)
            wh.register_experiment(1, "x", "resequencing")
            wh.register_sample_group(1, 1, "g")
            wh.register_sample(1, 1, 1, "s")
            wh.import_lane_relational(1, 1, 1, reseq_reads[:300])
            wh.align_reads(1, 1, 1)
            plan = wh.db.explain(
                """
                SELECT a_id, short_read_seq FROM Alignment
                JOIN [Read] ON (a_e_id = r_e_id AND a_sg_id = r_sg_id
                                AND a_s_id = r_s_id AND a_r_id = r_id)
                WHERE a_e_id = 1 AND a_sg_id = 1 AND a_s_id = 1
                """
            )
            assert "Hash Match (Inner Join)" in plan
        finally:
            wh.close()

    def test_both_clusterings_same_join_result(self, reference, reseq_reads):
        results = {}
        for clustering in ("read", "position"):
            wh = GenomicsWarehouse(alignment_clustering=clustering)
            try:
                wh.load_reference(reference)
                wh.register_experiment(1, "x", "resequencing")
                wh.register_sample_group(1, 1, "g")
                wh.register_sample(1, 1, 1, "s")
                wh.import_lane_relational(1, 1, 1, reseq_reads[:200])
                wh.align_reads(1, 1, 1)
                rows = wh.db.query(
                    """
                    SELECT a_r_id, a_rs_id, a_pos FROM Alignment
                    JOIN [Read] ON (a_e_id = r_e_id AND a_sg_id = r_sg_id
                                    AND a_s_id = r_s_id AND a_r_id = r_id)
                    """
                )
                results[clustering] = sorted(rows)
            finally:
                wh.close()
        assert results["read"] == results["position"]

    def test_compression_option_applies(self, reference):
        wh = GenomicsWarehouse(compression="PAGE")
        try:
            assert wh.db.table("Read").schema.compression == "PAGE"
        finally:
            wh.close()

    def test_bad_clustering_rejected(self):
        with pytest.raises(ValueError):
            GenomicsWarehouse(alignment_clustering="bogus")
