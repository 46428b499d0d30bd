"""Experiment S52 — Section 5.2: file wrapping performance.

``SELECT COUNT(*)`` over a FASTA short-read file through five access
paths, reproducing the paper's in-text table::

    Command line program (C#)                 ~ 5 secs
    T-SQL Stored Procedure              several minutes
    CLR-based Stored Procedure with StreamReader  21 secs
    CLR-based Stored Procedure with Chunking       7 secs
    CLR-based TVF with Chunking                   14 secs

Report: ``benchmarks/results/filewrap_s52.txt``.

Expected shape: interpreted procedure ≫ line-at-a-time procedure >
chunked TVF > chunked procedure ≈ command-line program. Absolute numbers
differ (the paper's file had 5M lines, ours is scaled; both the engine
and the "command line program" here are Python), but the ordering is
architectural and must hold.
"""

import time
import uuid

import pytest

from bench_common import SCALE
from repro.core.filewrap import (
    count_records_chunked,
    count_records_command_line,
    count_records_interpreted,
    count_records_streamreader,
    count_records_tvf,
)
from repro.core.schemas import create_filestream_schema
from repro.core.wrappers import register_extensions
from repro.engine import Database
from repro.genomics.fasta import FastaRecord, write_fasta

#: FASTA records in the scanned file (2 lines each)
N_RECORDS = int(60_000 * SCALE)


@pytest.fixture(scope="module")
def setup(tmp_path_factory, reseq_reads):
    tmp = tmp_path_factory.mktemp("filewrap")
    pool = reseq_reads
    records = [
        FastaRecord(f"read_{i}", pool[i % len(pool)].sequence)
        for i in range(N_RECORDS)
    ]
    fasta_path = tmp / "lane.fasta"
    write_fasta(records, fasta_path)
    db = Database(data_dir=tmp / "db")
    register_extensions(db)
    create_filestream_schema(db)
    db.bulk_insert_filestream(
        "ShortReadFiles",
        {"guid": uuid.uuid4(), "sample": 855, "lane": 1, "fmt": "FastA"},
        "reads",
        fasta_path,
    )
    guid = db.query("SELECT reads FROM ShortReadFiles")[0][0]
    yield db, fasta_path, guid
    db.close()


def test_s52_report(setup, save_report):
    """Run the five variants back to back, once each, and print the
    §5.2 table."""
    db, path, guid = setup
    timings = {}
    for name, variant, args in (
        ("Command line program", count_records_command_line, (path,)),
        ("T-SQL-style interpreted procedure",
         count_records_interpreted, (db, guid)),
        ("Stored procedure, line reader",
         count_records_streamreader, (db, guid)),
        ("Stored procedure, chunking", count_records_chunked, (db, guid)),
        ("TVF, chunking", count_records_tvf, (db, 855, 1, "FastA")),
    ):
        start = time.perf_counter()
        count = variant(*args)
        timings[name] = time.perf_counter() - start
        assert count == N_RECORDS, name

    baseline = timings["Stored procedure, chunking"]
    lines = [
        "Section 5.2 (reproduced): COUNT(*) over a "
        f"{N_RECORDS * 2:,}-line FASTA short-read file",
        "=" * 74,
        f"{'Access path':<40}{'seconds':>12}{'vs chunked proc':>18}",
        "-" * 74,
    ]
    for name, seconds in timings.items():
        lines.append(f"{name:<40}{seconds:>12.3f}{seconds / baseline:>17.1f}x")
    lines.append("-" * 74)
    lines.append(
        "Paper:   ~5s | several minutes | 21s | 7s | 14s  (5,028,052 lines)"
    )
    save_report("filewrap_s52.txt", "\n".join(lines))

    # the architectural ordering must hold
    assert timings["T-SQL-style interpreted procedure"] > timings[
        "Stored procedure, line reader"
    ]
    assert timings["Stored procedure, line reader"] > timings[
        "Stored procedure, chunking"
    ]
    assert timings["TVF, chunking"] > timings["Stored procedure, chunking"]
