"""The seven workloads of the perf benchmark.

Each workload builds its inputs from the seed, exposes a fixed list of
operations per repetition, the call a user would make for one operation
(``execute``), the same operation staged layer by layer (``staged``), an
oracle (``check``, run outside every timer) and its per-layer probes.
README.md says why each workload exists and what it bypasses.
"""

from __future__ import annotations

import random
import statistics
import zlib
from collections import Counter
from typing import Any, Dict, Iterator, List, Tuple

from harness import Recorder, perf_counter
from layers import (
    compile_probes,
    exchange_stats,
    io_snapshot,
    plan_probe,
    scan_rows_per_s,
    seek_us,
    staged_query,
    stored_bytes,
)

from repro.core import GenomicsWarehouse, queries
from repro.core.workflow import SequencingWorkflow
from repro.engine import Database
from repro.engine.metrics import Counters
from repro.genomics.aligner import ShortReadAligner
from repro.genomics.fastq import FastqRecord, fastq_bytes
from repro.genomics.simulate import (
    annotate_genes,
    generate_reference,
    simulate_dge_lane,
    simulate_resequencing_lane,
)


class Workload:
    name = ""
    #: what ``items_per_s`` counts
    item = ""

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.scale = scale
        #: seconds of set-up spent in the read simulator
        self.simulate_s = 0.0
        #: sizes, recorded in the output file
        self.params: Dict[str, Any] = {}
        self.items_per_rep = 0
        self.input_bytes = 0

    def size(self, at_scale_1: int, floor: int) -> int:
        return max(int(at_scale_1 * self.scale), floor)

    def setup(self) -> None:
        """Everything before the first timed operation."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def ops(self, rep: int) -> Iterator[Any]:
        """The operations of repetition ``rep``, in order."""
        raise NotImplementedError

    def execute(self, op) -> Any:
        raise NotImplementedError

    def staged(self, op, rec: Recorder) -> Any:
        raise NotImplementedError

    def check(self, op, result) -> bool:
        raise NotImplementedError

    def snapshot(self) -> Counters:
        """Every public counter the workload's databases expose, now."""
        raise NotImplementedError

    def stored_bytes(self) -> int:
        raise NotImplementedError

    def probes(self) -> Dict[str, float]:
        """Per-layer metrics measured by calling into single layers."""
        raise NotImplementedError


def _simulate(workload: Workload, kind: str, n_reads: int, chromosome_length: int):
    """Reference, genes (DGE only) and one lane, all from the seed."""
    start = perf_counter()
    seed = workload.seed
    reference = generate_reference(
        n_chromosomes=3, chromosome_length=chromosome_length, seed=seed
    )
    if kind == "dge":
        genes = annotate_genes(
            reference, n_genes=120, gene_length=(400, 1500), seed=seed + 1
        )
        records = list(simulate_dge_lane(reference, genes, n_reads, seed=seed + 2))
    else:
        genes = []
        records = list(simulate_resequencing_lane(reference, n_reads, seed=seed + 2))
    workload.simulate_s = perf_counter() - start
    payload = fastq_bytes(records)
    workload.input_bytes = len(payload)
    workload.params.update(
        reads=n_reads, chromosome_length=chromosome_length,
        inputs_crc32=zlib.crc32(payload),
    )
    return reference, genes, records


def _warehouse(reference, genes, kind: str, **options) -> GenomicsWarehouse:
    wh = GenomicsWarehouse(**options)
    wh.load_reference(reference)
    if genes:
        wh.load_genes(genes)
    wh.register_experiment(1, "perf", kind)
    wh.register_sample_group(1, 1, "grp")
    wh.register_sample(1, 1, 1, "smp")
    return wh


def _aligner_reads_per_s(aligner: ShortReadAligner, records: List[FastqRecord]) -> float:
    start = perf_counter()
    for record in records:
        aligner.align(record)
    return len(records) / (perf_counter() - start)


# ---------------------------------------------------------------------------
# pipeline_dge
# ---------------------------------------------------------------------------


class PipelineDge(Workload):
    """The whole DGE pipeline of section 5.3.2 on a fresh warehouse: the
    only workload that writes."""

    name = "pipeline_dge"
    item = "reads"

    def setup(self) -> None:
        n_reads = self.size(10_000, 500)
        self.reference, self.genes, self.records = _simulate(
            self, "dge", n_reads, 60_000
        )
        self.items_per_rep = n_reads
        self.counters = Counters()
        self.stored = 0
        #: the row counts of the warm-up pipeline, which every later one
        #: must repeat
        self.expected = None
        for op in self.ops(0):
            self.check(op, self.execute(op))

    def close(self) -> None:
        pass

    def ops(self, rep: int):
        # the fresh warehouse is prepared and closed outside the timer
        wh = _warehouse(self.reference, self.genes, "dge")
        try:
            yield wh, SequencingWorkflow(wh)
        finally:
            wh.close()

    def execute(self, op):
        _wh, workflow = op
        return workflow.run_all(1, 1, 1, self.records, kind="dge", hybrid=True)

    def staged(self, op, rec: Recorder):
        _wh, workflow = op
        with rec.span("core.primary"):
            reads = workflow.run_primary(1, 1, 1, self.records, hybrid=True)
        with rec.span("core.secondary"):
            alignments = workflow.run_secondary(1, 1, 1, "dge")
        with rec.span("core.tertiary"):
            tertiary = workflow.run_tertiary(1, 1, 1, "dge")
        return {"reads": reads, "alignments": alignments, "tertiary": tertiary}

    def check(self, op, result) -> bool:
        wh, _workflow = op
        self.counters.merge(io_snapshot(wh.db))
        self.stored = stored_bytes(wh.db)
        if self.expected is None:
            self.expected = result
        return result == self.expected and result["reads"] == len(self.records)

    def snapshot(self) -> Counters:
        return self.counters.snapshot()

    def stored_bytes(self) -> int:
        return self.stored

    def probes(self) -> Dict[str, float]:
        out = {"genomics.simulate_s": self.simulate_s}
        payload = fastq_bytes(self.records)
        megabytes = len(payload) / 1e6
        for wh, workflow in self.ops(0):
            self.execute((wh, workflow))
            tags = [
                FastqRecord(f"tag_{row[3]}", row[4], "I" * len(row[4]))
                for row in wh.db.table("Tag").scan()
            ]
            out["genomics.aligner_reads_per_s"] = _aligner_reads_per_s(
                wh.aligner, tags
            )
            # the paper's FillRow seam: blob chunks in, rows out
            start = perf_counter()
            rows = wh.db.scalar("SELECT COUNT(*) FROM ListShortReads(1, 1, 'FastQ')")
            out["core.tvf_rows_per_s"] = rows / (perf_counter() - start)
            store = wh.db.filestream
            start = perf_counter()
            guid = store.create(payload)
            out["filestream.write_mb_per_s"] = megabytes / (perf_counter() - start)
            buffer = bytearray(256 * 1024)
            offset = 0
            start = perf_counter()
            while True:
                got = store.get_bytes(guid, offset, buffer, 0, len(buffer))
                if not got:
                    break
                offset += got
            out["filestream.read_mb_per_s"] = megabytes / (perf_counter() - start)
        for wh, _workflow in self.ops(0):
            table = wh.db.table("Read")
            rows = [
                (1, 1, 1, r_id, 1, 0, 0, 0, record.sequence, record.quality)
                for r_id, record in enumerate(self.records, start=1)
            ]
            start = perf_counter()
            for row in rows:
                table.insert(row)
            table.finish_bulk_load()
            out["storage.insert_rows_per_s"] = len(rows) / (perf_counter() - start)
        return out


# ---------------------------------------------------------------------------
# SQL workloads
# ---------------------------------------------------------------------------


class SqlWorkload(Workload):
    """A workload whose operations are SELECT statements on one
    database; an operation is ``(sql, tag)`` and ``tag`` is the oracle's."""

    db: Database

    def execute(self, op):
        return self.db.query(op[0])

    def staged(self, op, rec: Recorder):
        return staged_query(self.db, op[0], rec)

    def snapshot(self) -> Counters:
        totals = io_snapshot(self.db)
        totals.merge(self.db.plan_cache.stats_dict(), prefix="plancache_")
        return totals

    def stored_bytes(self) -> int:
        return stored_bytes(self.db)

    def close(self) -> None:
        self.db.close()


class Binning(SqlWorkload):
    """Query 1 over a loaded, warmed DGE warehouse, serial."""

    name = "binning"
    item = "reads"
    maxdop = 1
    ops_per_rep = 10
    warm_ops = 2

    def setup(self) -> None:
        n_reads = self.size(24_000, 1_000)
        reference, genes, records = _simulate(self, "dge", n_reads, 60_000)
        self.wh = _warehouse(reference, genes, "dge")
        self.db = self.wh.db
        self.wh.import_lane_relational(1, 1, 1, records)
        # warm the buffer pool, as the paper's measurements do
        for _row in self.db.table("Read").scan():
            pass
        counts = Counter(r.sequence for r in records if "N" not in r.sequence)
        self.ranking = sorted((count, seq) for seq, count in counts.items())
        self.items_per_rep = n_reads * self.ops_per_rep
        self.sql = queries.query1_binning_sql(1, 1, 1, self.maxdop)
        self.warm_times = []
        for _ in range(self.warm_ops):
            start = perf_counter()
            self.db.query(self.sql)
            self.warm_times.append(perf_counter() - start)

    def close(self) -> None:
        self.wh.close()

    def ops(self, rep: int):
        return [(self.sql, None)] * self.ops_per_rep

    def check(self, op, rows) -> bool:
        frequencies = [frequency for _rank, frequency, _seq in rows]
        return (
            [rank for rank, _f, _s in rows] == list(range(1, len(rows) + 1))
            and frequencies == sorted(frequencies, reverse=True)
            and sorted((f, s) for _rank, f, s in rows) == self.ranking
        )

    def probes(self) -> Dict[str, float]:
        out = compile_probes(self.db, [self.sql])
        self.plan, exec_ms, q_error, examined = plan_probe(self.db, self.sql)
        out.update({
            "genomics.simulate_s": self.simulate_s,
            "executor.q1_exec_ms": exec_ms,
            "optimizer.q_error_max": q_error,
            "executor.rows_examined_per_row_returned": examined,
            "storage.heap_scan_rows_per_s": scan_rows_per_s(self.db.table("Read")),
        })
        return out


class BinningDop2(Binning):
    """The same statement with ``OPTION (MAXDOP 2)``: Figure 9's plan on
    the worker pool."""

    name = "binning_dop2"
    maxdop = 2
    ops_per_rep = 5
    #: the pool spawns and worker slice caches fill over the first ops
    warm_ops = 5

    def setup(self) -> None:
        super().setup()
        self.serial_rows = queries.execute_query1(self.db, maxdop=1)

    def check(self, op, rows) -> bool:
        # byte for byte the serial result, which the ranking oracle checks
        return rows == self.serial_rows and super().check(op, rows)

    def probes(self) -> Dict[str, float]:
        out = super().probes()
        stats = exchange_stats(self.plan)
        returned = max(len(self.serial_rows), 1)
        out.update({
            "workers.pool_spawn_s": self.warm_times[0]
            - statistics.median(self.warm_times[1:]),
            "exchange.parallel_wall_s": stats.measured_parallel_wall,
            "exchange.scan_s": stats.scan_time,
            "exchange.partition_s": stats.partition_time,
            "exchange.gather_s": stats.gather_time,
            "exchange.bytes_shipped": stats.bytes_shipped,
            "exchange.bytes_returned": stats.bytes_returned,
            "exchange.bytes_shipped_per_row_returned": stats.bytes_shipped / returned,
            "exchange.fallbacks": 1 if stats.fallback_reason else 0,
        })
        return out


class Consensus(SqlWorkload):
    """Query 3, sliding window, over a position-clustered re-sequencing
    warehouse."""

    name = "consensus"
    item = "alignments"
    ops_per_rep = 2

    def setup(self) -> None:
        n_reads = self.size(10_000, 300)
        # 36-base reads over 3 chromosomes of 2 * n_reads bases: 6x coverage
        reference, _genes, self.records = _simulate(
            self, "resequencing", n_reads, 2 * n_reads
        )
        self.reference = reference
        self.wh = _warehouse(
            reference, None, "resequencing", alignment_clustering="position"
        )
        self.db = self.wh.db
        self.wh.import_lane_relational(1, 1, 1, self.records)
        alignments = self.wh.align_reads(1, 1, 1)
        for name in ("Read", "Alignment"):
            for _row in self.db.table(name).scan():
                pass
        self.items_per_rep = alignments * self.ops_per_rep
        self.params["alignments"] = alignments
        self.sql = queries.query3_sliding_window_sql(1, 1, 1)
        self.first = self.db.query(self.sql)
        self.accurate = self._accuracy(self.first) >= 0.999

    def close(self) -> None:
        self.wh.close()

    def _accuracy(self, rows) -> float:
        """Share of covered positions where the consensus equals the
        simulated reference."""
        covered = agree = 0
        for rs_id, piece in rows:
            chromosome = self.reference[rs_id - 1].sequence
            for offset, base in enumerate(piece.sequence):
                if base != "N":
                    covered += 1
                    agree += base == chromosome[piece.start + offset]
        return agree / max(covered, 1)

    def ops(self, rep: int):
        return [(self.sql, None)] * self.ops_per_rep

    def check(self, op, rows) -> bool:
        return self.accurate and rows == self.first

    def probes(self) -> Dict[str, float]:
        out = compile_probes(self.db, [self.sql])
        _plan, exec_ms, q_error, examined = plan_probe(self.db, self.sql, rounds=3)
        out.update({
            "genomics.simulate_s": self.simulate_s,
            "genomics.aligner_reads_per_s": _aligner_reads_per_s(
                self.wh.aligner, self.records[:2_000]
            ),
            "executor.q3_exec_ms": exec_ms,
            "optimizer.q_error_max": q_error,
            "executor.rows_examined_per_row_returned": examined,
            "storage.heap_scan_rows_per_s": scan_rows_per_s(self.db.table("Read")),
        })
        return out


# ---------------------------------------------------------------------------
# lookups
# ---------------------------------------------------------------------------

ORGANISMS = ("human", "mouse", "rat")


def _lookup(shape: int, p: int, rows: int, alias: str = "") -> Tuple[str, list]:
    """Statement ``shape`` for probe ``p`` and the rows the generator's
    closed form predicts. ``alias`` names the last output column."""
    g = p % 23
    if shape == 0:
        sql = f"SELECT g_id, hits{alias} FROM probe WHERE p_id = {p}"
        return sql, [(g, p * 7 % 101)]
    if shape == 1:
        sql = f"SELECT p_id{alias} FROM probe WHERE tag = 'tag{p % 199}'"
        return sql, [(i,) for i in range(p % 199, rows, 199)]
    if shape == 2:
        sql = (
            f"SELECT p.p_id, g.name, f.fname{alias} FROM probe p "
            "JOIN gene g ON p.g_id = g.g_id "
            "JOIN fam f ON g.f_id = f.f_id "
            f"WHERE p.p_id = {p}"
        )
        return sql, [(p, f"g{g}", f"f{g % 5}")]
    if shape == 3:
        sql = (
            f"SELECT p.p_id, g.name, f.fname, o.oname{alias} FROM probe p "
            "JOIN gene g ON p.g_id = g.g_id "
            "JOIN fam f ON g.f_id = f.f_id "
            "JOIN org o ON f.o_id = o.o_id "
            f"WHERE p.p_id = {p}"
        )
        return sql, [(p, f"g{g}", f"f{g % 5}", ORGANISMS[g % 5 % 3])]
    sql = (
        f"SELECT COUNT(*), SUM(p.hits){alias} FROM probe p "
        "JOIN gene g ON p.g_id = g.g_id "
        f"WHERE p.p_id = {p} AND g.f_id >= 0"
    )
    return sql, [(1, p * 7 % 101)]


class LookupHot(SqlWorkload):
    """Five parameterized annotation-lookup shapes, plan cache warm."""

    name = "lookup_hot"
    item = "statements"
    statements_per_rep = 2_000
    warm_statements = 500

    def setup(self) -> None:
        self.rows = rows = self.size(10_000, 500)
        per_rep = self.size(self.statements_per_rep, 100)
        self.params.update(probes=rows, statements_per_rep=per_rep)
        self.items_per_rep = per_rep
        self.db = db = Database()
        db.execute("CREATE TABLE org (o_id INT PRIMARY KEY, oname VARCHAR(16))")
        db.execute(
            "INSERT INTO org VALUES "
            + ", ".join(f"({i}, '{name}')" for i, name in enumerate(ORGANISMS))
        )
        db.execute("CREATE TABLE fam (f_id INT PRIMARY KEY, fname VARCHAR(16), o_id INT)")
        db.execute(
            "INSERT INTO fam VALUES "
            + ", ".join(f"({i}, 'f{i}', {i % 3})" for i in range(5))
        )
        db.execute("CREATE TABLE gene (g_id INT PRIMARY KEY, name VARCHAR(16), f_id INT)")
        db.execute(
            "INSERT INTO gene VALUES "
            + ", ".join(f"({i}, 'g{i}', {i % 5})" for i in range(23))
        )
        db.execute(
            "CREATE TABLE probe (p_id INT PRIMARY KEY, g_id INT, "
            "tag VARCHAR(16), hits INT)"
        )
        for base in range(0, rows, 1_000):
            db.execute(
                "INSERT INTO probe VALUES "
                + ", ".join(
                    f"({i}, {i % 23}, 'tag{i % 199}', {i * 7 % 101})"
                    for i in range(base, min(base + 1_000, rows))
                )
            )
        db.execute("CREATE INDEX ix_tag ON probe (tag)")
        for table in ("org", "fam", "gene", "probe"):
            db.execute(f"UPDATE STATISTICS {table}")
        self.input_bytes = sum(t.uncompressed_bytes() for t in db.catalog.tables())
        rng = random.Random(self.seed)
        self.probe_ids = [rng.randrange(rows) for _ in range(per_rep)]
        self.params["inputs_crc32"] = zlib.crc32(repr(self.probe_ids).encode())
        for op in list(self.ops(-1))[: self.size(self.warm_statements, 130)]:
            self.execute(op)

    def ops(self, rep: int):
        return [
            _lookup(i % 5, p, self.rows) for i, p in enumerate(self.probe_ids)
        ]

    def check(self, op, rows) -> bool:
        return sorted(rows) == op[1]

    def probes(self) -> Dict[str, float]:
        statements = [sql for sql, _expected in list(self.ops(0))[:5]]
        out = compile_probes(self.db, statements)
        out["index.seek_us"] = seek_us(
            self.db.table("probe"), [(p,) for p in self.probe_ids]
        )
        return out


class LookupAdhoc(LookupHot):
    """The same traffic, each statement under a never-seen column alias:
    the literal-masking normaliser yields a new shape, so the plan cache
    misses by construction and evicts at capacity, with no knob flipped."""

    name = "lookup_adhoc"
    statements_per_rep = 500
    #: more than the cache's capacity of 128, so eviction is steady
    warm_statements = 200

    def ops(self, rep: int):
        # rep -1 is the warm-up; aliases never repeat across repetitions
        base = (rep + 1) * len(self.probe_ids)
        for i, p in enumerate(self.probe_ids):
            yield _lookup(i % 5, p, self.rows, alias=f" AS c{base + i}")


# ---------------------------------------------------------------------------
# colscan
# ---------------------------------------------------------------------------


class ColScan(SqlWorkload):
    """A selective and a full aggregate, each on a heap table and on its
    columnstore twin."""

    name = "colscan"
    item = "statements"
    rounds_per_rep = 10
    kinds = ("sel_heap", "sel_col", "full_heap", "full_col")

    def setup(self) -> None:
        n_rows = self.size(48_000, 2_048)
        segment_rows = n_rows // 32
        self.db = db = Database()
        columns = "(m_id INT PRIMARY KEY, grp INT, amount INT, price FLOAT)"
        db.execute(f"CREATE TABLE measurements_heap {columns}")
        db.execute(
            f"CREATE TABLE measurements_col {columns} "
            f"WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = {segment_rows})"
        )
        rng = random.Random(self.seed)
        data = [
            (i, rng.randrange(23), rng.randrange(50), rng.randrange(13) * 2.5)
            for i in range(n_rows)
        ]
        self.params.update(
            rows=n_rows, segment_rows=segment_rows,
            inputs_crc32=zlib.crc32(repr(data).encode()),
        )
        for name in ("measurements_heap", "measurements_col"):
            table = db.table(name)
            for row in data:
                table.insert(row)
            table.finish_bulk_load()
            db.execute(f"UPDATE STATISTICS {name}")
        self.input_bytes = sum(t.uncompressed_bytes() for t in db.catalog.tables())
        low = n_rows // 2
        high = low + n_rows // 10
        select = "SELECT grp, COUNT(*), SUM(amount) FROM measurements_{t} "
        where = f"WHERE m_id BETWEEN {low} AND {high} "
        tail = "GROUP BY grp OPTION (MAXDOP 1)"
        self.sql = {
            "sel_heap": select.format(t="heap") + where + tail,
            "sel_col": select.format(t="col") + where + tail,
            "full_heap": select.format(t="heap") + tail,
            "full_col": select.format(t="col") + tail,
        }
        self.expected = {
            "sel": self._aggregate(data[low : high + 1]),
            "full": self._aggregate(data),
        }
        self.items_per_rep = len(self.kinds) * self.rounds_per_rep
        for op in self.ops(0):
            self.execute(op)

    @staticmethod
    def _aggregate(data) -> list:
        groups: Dict[int, List[int]] = {}
        for _m_id, grp, amount, _price in data:
            entry = groups.setdefault(grp, [0, 0])
            entry[0] += 1
            entry[1] += amount
        return sorted((grp, n, total) for grp, (n, total) in groups.items())

    def ops(self, rep: int):
        # one op is a round of the four statements: with an even number
        # of statement kinds pooled, the median would fall between two
        return [self.kinds] * self.rounds_per_rep

    def execute(self, op):
        return [self.db.query(self.sql[kind]) for kind in op]

    def staged(self, op, rec: Recorder):
        return [staged_query(self.db, self.sql[kind], rec) for kind in op]

    def check(self, op, results) -> bool:
        rows = dict(zip(op, results))
        return all(
            rows[f"{query}_col"] == rows[f"{query}_heap"]
            and sorted(rows[f"{query}_heap"]) == self.expected[query]
            for query in ("sel", "full")
        )

    def probes(self) -> Dict[str, float]:
        out = compile_probes(self.db, list(self.sql.values()))
        for kind, sql in self.sql.items():
            _plan, exec_ms, q_error, examined = plan_probe(self.db, sql)
            out[f"executor.colscan_{kind}_ms"] = exec_ms
            if kind == "sel_col":
                out["optimizer.q_error_max"] = q_error
                out["executor.rows_examined_per_row_returned"] = examined
        out["storage.heap_scan_rows_per_s"] = scan_rows_per_s(
            self.db.table("measurements_heap")
        )
        out["storage.col_scan_rows_per_s"] = scan_rows_per_s(
            self.db.table("measurements_col")
        )
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (
        PipelineDge, Binning, BinningDop2, Consensus, LookupHot, LookupAdhoc, ColScan
    )
}
