"""The repro-genomics command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-data")
    assert (
        main(
            [
                "simulate",
                "--kind",
                "dge",
                "--out-dir",
                str(out),
                "--reads",
                "3000",
                "--chromosomes",
                "2",
                "--chromosome-length",
                "25000",
                "--genes",
                "25",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    return out


class TestSimulate:
    def test_files_created(self, dataset):
        assert (dataset / "reference.fasta").exists()
        assert (dataset / "genes.tsv").exists()
        assert (dataset / "lane.fastq").exists()

    def test_fastq_has_requested_reads(self, dataset):
        from repro.genomics.fastq import count_records

        assert count_records(dataset / "lane.fastq") == 3000

    def test_genes_tsv_parses(self, dataset):
        from repro.cli import _read_genes

        genes = _read_genes(dataset / "genes.tsv")
        assert len(genes) == 25
        assert genes[0].chromosome.startswith("chr")

    def test_resequencing_kind(self, tmp_path):
        assert (
            main(
                [
                    "simulate",
                    "--kind",
                    "resequencing",
                    "--out-dir",
                    str(tmp_path),
                    "--reads",
                    "500",
                    "--chromosome-length",
                    "20000",
                    "--genes",
                    "10",
                ]
            )
            == 0
        )
        from repro.genomics.fastq import count_records

        assert count_records(tmp_path / "lane.fastq") == 500


class TestPipeline:
    def test_dge_pipeline(self, dataset, tmp_path, capsys):
        code = main(
            [
                "pipeline",
                "--kind",
                "dge",
                "--fastq",
                str(dataset / "lane.fastq"),
                "--reference",
                str(dataset / "reference.fasta"),
                "--genes",
                str(dataset / "genes.tsv"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "tags.txt").exists()
        assert (tmp_path / "expression.txt").exists()
        assert (tmp_path / "provenance.txt").exists()
        out = capsys.readouterr().out
        assert "3000 reads" in out

    def test_dge_requires_genes(self, dataset, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "pipeline",
                    "--kind",
                    "dge",
                    "--fastq",
                    str(dataset / "lane.fastq"),
                    "--reference",
                    str(dataset / "reference.fasta"),
                    "--out-dir",
                    str(tmp_path),
                ]
            )

    def test_resequencing_pipeline_writes_consensus(
        self, tmp_path_factory
    ):
        data = tmp_path_factory.mktemp("reseq-data")
        main(
            [
                "simulate",
                "--kind",
                "resequencing",
                "--out-dir",
                str(data),
                "--reads",
                "2000",
                "--chromosomes",
                "1",
                "--chromosome-length",
                "15000",
                "--genes",
                "5",
            ]
        )
        out = tmp_path_factory.mktemp("reseq-out")
        code = main(
            [
                "pipeline",
                "--kind",
                "resequencing",
                "--fastq",
                str(data / "lane.fastq"),
                "--reference",
                str(data / "reference.fasta"),
                "--out-dir",
                str(out),
                "--no-hybrid",
            ]
        )
        assert code == 0
        from repro.genomics.fasta import read_fasta

        consensus = list(read_fasta(out / "consensus.fasta"))
        assert consensus and len(consensus[0].sequence) > 10_000


class TestSearch:
    def test_search_finds_pattern(self, dataset, capsys):
        from repro.genomics.fastq import read_fastq

        first = next(read_fastq(dataset / "lane.fastq"))
        code = main(
            [
                "search",
                "--fastq",
                str(dataset / "lane.fastq"),
                "--pattern",
                first.sequence[:14],
                "--mismatches",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "matches" in out
        assert "0 matches" not in out


class TestStorageReport:
    def test_report_prints_table(self, dataset, capsys):
        code = main(
            [
                "storage-report",
                "--fastq",
                str(dataset / "lane.fastq"),
                "--reference",
                str(dataset / "reference.fasta"),
                "--kind",
                "dge",
                "--no-udt",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FileStream" in out
        assert "Normalized" in out


class TestTrace:
    def test_demo_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        assert main(["trace", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "sys_dm_os_wait_stats" in stdout
        assert "sys_dm_query_store_runtime_stats" in stdout
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "M" for e in events)

    def test_custom_sql_last_only(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        code = main(
            [
                "trace",
                "--sql",
                "CREATE TABLE t (a INT PRIMARY KEY)",
                "--sql",
                "INSERT INTO t VALUES (1), (2), (3)",
                "--sql",
                "SELECT COUNT(*) FROM t",
                "--out",
                str(out),
                "--last-only",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        names = [e.get("name", "") for e in payload["traceEvents"]]
        assert any("COUNT" in n for n in names)
        assert not any("INSERT" in n for n in names)  # last trace only
