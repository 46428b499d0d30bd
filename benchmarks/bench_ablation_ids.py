"""Ablation A1 — why normalization wins: textual composite IDs vs
synthetic integer keys (the design choice behind Sections 3.2 / 5.1).

The paper attributes the 1:1 import's blow-up to "materialized composite
primary keys": the read name repeats machine + run + lane + tile + x + y
as text in every table that references a read. This ablation stores the
same alignments with (a) the textual read name as the key and (b) a
synthetic BIGINT key, sweeping the read-name length, and reports the
storage ratio.

Report: ``benchmarks/results/ablation_ids.txt``.
"""

from repro.engine import Database

N_ROWS = 20_000


def _textual_schema(db, name_length):
    db.execute(
        f"""
        CREATE TABLE AlnText (
            read_name VARCHAR({name_length + 10}),
            ref_name  VARCHAR(50),
            a_pos     INT,
            a_mapq    INT,
            PRIMARY KEY (read_name)
        )
        """
    )


def _synthetic_schema(db):
    db.execute(
        """
        CREATE TABLE AlnInt (
            a_r_id BIGINT,
            a_rs_id INT,
            a_pos  INT,
            a_mapq INT,
            PRIMARY KEY (a_r_id)
        )
        """
    )


def _measure(name_length):
    """Bytes per alignment row under each keying, at one name length."""
    machine = "IL4_855"
    with Database() as db:
        _textual_schema(db, name_length)
        table = db.table("AlnText")
        for i in range(N_ROWS):
            # unique counter first so truncation never collides, then the
            # composite machine:run:lane:tile:x:y filler the real names carry
            name = f"{i:08d}:{machine}:1:{i % 300}:{i % 2048}:{i % 1777}"
            name = (name + "x" * name_length)[:name_length]
            table.insert((name, "chr1", i, 60))
        table.finish_bulk_load()
        textual = table.stored_bytes()
    with Database() as db:
        _synthetic_schema(db)
        table = db.table("AlnInt")
        for i in range(N_ROWS):
            table.insert((i, 1, i, 60))
        table.finish_bulk_load()
        synthetic = table.stored_bytes()
    return textual, synthetic


def test_ablation_ids_report(save_report):
    results = {length: _measure(length) for length in (16, 24, 32, 48, 64)}
    lines = [
        f"Ablation A1: textual composite keys vs synthetic integer keys "
        f"({N_ROWS:,} alignment rows)",
        "=" * 72,
        f"{'name length':>12}{'textual key':>16}{'synthetic key':>16}{'ratio':>10}",
        "-" * 72,
    ]
    for length, (textual, synthetic) in sorted(results.items()):
        lines.append(
            f"{length:>12}{textual:>15,}B{synthetic:>15,}B"
            f"{textual / synthetic:>9.2f}x"
        )
    lines.append("-" * 72)
    lines.append(
        "Longer materialized names inflate every referencing row; the\n"
        "synthetic key is constant-size — the normalization payoff of §5.1."
    )
    save_report("ablation_ids.txt", "\n".join(lines))

    for length, (textual, synthetic) in results.items():
        assert textual > synthetic
    # the ratio must grow with the name length
    ratios = [
        results[length][0] / results[length][1]
        for length in sorted(results)
    ]
    assert ratios[-1] > ratios[0]
