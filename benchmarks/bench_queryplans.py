"""Experiments F9 + F10 — Figures 9 and 10: the query plans.

The paper's figures are showplan screenshots; we regenerate them as text
plans from the same queries:

- **Figure 9** — the parallel plan for Query 1 (unique-read binning):
  per-worker seek slice → filter → partial hash aggregate, gather
  streams, merge → sequence project (ROW_NUMBER);
- **Figure 10** — the plan for Query 3 (consensus): ordered access to
  the alignments (clustered index), a join with the Read table, and a
  streaming aggregate — "a non-blocking, parallelized query plan ...
  processing the alignments in order". Both physical designs are shown:
  read-id clustering yields the paper's parallel *merge join*; position
  clustering feeds the sliding-window UDA with no sort.

Reports: ``benchmarks/results/figure9_query1_plan.txt`` and
``figure10_query3_plan.txt``.
"""

from repro.core import GenomicsWarehouse, queries


def test_figure9_query1_plan(dge_warehouse, save_report):
    plan = dge_warehouse.db.explain(
        queries.query1_binning_sql(1, 1, 1, maxdop=4)
    )
    text = (
        "Figure 9 (reproduced): Parallel Query Plan for "
        "Unique-Read Binning in SQL (Query 1)\n"
        + "=" * 72 + "\n" + plan
    )
    save_report("figure9_query1_plan.txt", text)
    assert "Gather Streams" in plan
    assert "Partial Aggregate" in plan
    assert "note:" not in plan  # the workers run it: nothing to excuse
    assert "ROW_NUMBER" in plan
    assert "Clustered Index Seek [Read]" in plan
    assert "est. rows=" in plan and "cost=" in plan


def test_figure10_query3_plan(
    reseq_warehouse, reference, reseq_reads, save_report
):
    position_plan = reseq_warehouse.db.explain(
        queries.query3_sliding_window_sql(1, 1, 1)
    )
    # the read-clustered design: the paper's parallel merge join
    read_clustered = GenomicsWarehouse(alignment_clustering="read")
    try:
        read_clustered.load_reference(reference)
        read_clustered.register_experiment(1, "x", "resequencing")
        read_clustered.register_sample_group(1, 1, "g")
        read_clustered.register_sample(1, 1, 1, "s")
        read_clustered.import_lane_relational(1, 1, 1, reseq_reads[:2000])
        read_clustered.align_reads(1, 1, 1)
        merge_plan = read_clustered.db.explain(
            """
            SELECT a_id, short_read_seq, quals FROM Alignment
            JOIN [Read] ON (a_e_id = r_e_id AND a_sg_id = r_sg_id
                            AND a_s_id = r_s_id AND a_r_id = r_id)
            WHERE a_e_id = 1 AND a_sg_id = 1 AND a_s_id = 1
            """
        )
    finally:
        read_clustered.close()
    text = (
        "Figure 10 (reproduced): Plans for Consensus Building in SQL "
        "(Query 3)\n" + "=" * 72 + "\n\n"
        "(a) Alignment clustered by position: ordered seek feeds the\n"
        "    sliding-window UDA through a Stream Aggregate, no Sort:\n\n"
        + position_plan
        + "\n\n(b) Alignment clustered by read id: the alignment-read join\n"
        "    runs as the paper's merge join over both clustered orders:\n\n"
        + merge_plan
    )
    save_report("figure10_query3_plan.txt", text)
    assert "Stream Aggregate" in position_plan
    assert "Sort" not in position_plan
    assert "Merge Join" in merge_plan
    assert "est. rows=" in merge_plan and "cost=" in merge_plan


def test_estimates_track_actuals(reseq_warehouse):
    """Estimate quality: with fresh statistics, the access-path estimates
    of Query 3's plan stay within 4x of the actual row counts that
    EXPLAIN ANALYZE observes."""
    db = reseq_warehouse.db
    db.execute("UPDATE STATISTICS Alignment")
    db.execute("UPDATE STATISTICS [Read]")
    op = db.plan(queries.query3_sliding_window_sql(1, 1, 1))
    for _ in op:
        pass
    assert "actual rows=" in op.explain(analyze=True)
    checked = 0
    for node in op.nodes():
        if list(node.children()) or node.est_rows is None:
            continue  # drift is judged at the leaves (access paths)
        est, actual = node.est_rows, node.rows_out
        assert est <= max(actual, 1) * 4, (node, est, actual)
        assert actual <= max(est, 1) * 4, (node, est, actual)
        checked += 1
    assert checked > 0
