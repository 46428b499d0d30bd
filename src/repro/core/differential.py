"""Differential expression analysis (the DGE tertiary analysis).

Section 2.1.2: "As tertiary data analysis, one performs a differential
expression analysis of different samples, e.g. comparing healthy cells
with cancer cells." And Section 2.1 phase 3: "this is based on
statistical analysis."

:func:`differential_expression` runs that comparison over two samples'
``GeneExpression`` rows — the SQL self-join produces the per-gene count
pairs, the statistics decide which differences are real:

- **log2 fold change** on library-size-normalised counts;
- a **two-proportion z-test** (equivalently the chi-squared test on the
  2×2 table of gene count vs. rest-of-library count) giving a p-value
  per gene — the classic test for SAGE/DGE tag counts (Kal et al. 1999).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..engine.database import Database
from ..engine.errors import EngineError


@dataclass(frozen=True)
class DifferentialResult:
    """One gene's differential-expression verdict."""

    gene_id: int
    gene_name: str
    count_a: int
    count_b: int
    log2_fold_change: float
    p_value: float

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05


def _normal_sf(z: float) -> float:
    """Survival function of the standard normal (no scipy dependency in
    the hot path; erfc is exact)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def two_proportion_p_value(
    count_a: int, total_a: int, count_b: int, total_b: int
) -> float:
    """Two-sided two-proportion z-test for tag counts.

    Tests whether a gene's share of library A differs from its share of
    library B. Returns 1.0 when a test is not meaningful (empty
    libraries or zero counts on both sides).
    """
    if total_a <= 0 or total_b <= 0:
        return 1.0
    if count_a == 0 and count_b == 0:
        return 1.0
    p_a = count_a / total_a
    p_b = count_b / total_b
    pooled = (count_a + count_b) / (total_a + total_b)
    denominator = pooled * (1 - pooled) * (1 / total_a + 1 / total_b)
    if denominator <= 0:
        return 1.0
    z = abs(p_a - p_b) / math.sqrt(denominator)
    return 2.0 * _normal_sf(z)


def log2_fold_change(
    count_a: int, total_a: int, count_b: int, total_b: int,
    pseudocount: float = 0.5,
) -> float:
    """log2 of the normalised expression ratio, with a pseudo-count so
    zero-count genes stay finite."""
    rate_a = (count_a + pseudocount) / max(total_a, 1)
    rate_b = (count_b + pseudocount) / max(total_b, 1)
    return math.log2(rate_a / rate_b)


DIFFERENTIAL_SQL = """
SELECT a.ga AS gene_id, name, a.freq_a, b.freq_b
  FROM (SELECT ge_g_id AS ga, total_freq AS freq_a
          FROM GeneExpression
         WHERE ge_e_id = {e_id} AND ge_sg_id = {sg_id}
               AND ge_s_id = {sample_a}) AS a
  JOIN (SELECT ge_g_id AS gb, total_freq AS freq_b
          FROM GeneExpression
         WHERE ge_e_id = {e_id} AND ge_sg_id = {sg_id}
               AND ge_s_id = {sample_b}) AS b
    ON (a.ga = b.gb)
  JOIN Gene ON (g_id = a.ga)
"""


def differential_expression(
    db: Database,
    e_id: int,
    sg_id: int,
    sample_a: int,
    sample_b: int,
    min_total: int = 5,
) -> List[DifferentialResult]:
    """Compare two samples' gene expression; most-significant first.

    Genes expressed in only one of the samples are included with a zero
    count on the other side (a LEFT/RIGHT union done as two passes, since
    the engine speaks inner joins). ``min_total`` drops genes whose
    combined count is too small to test.
    """
    totals = {}
    for s_id in (sample_a, sample_b):
        totals[s_id] = db.scalar(
            f"""
            SELECT SUM(total_freq) FROM GeneExpression
            WHERE ge_e_id = {e_id} AND ge_sg_id = {sg_id}
                  AND ge_s_id = {s_id}
            """
        ) or 0
    if totals[sample_a] == 0 and totals[sample_b] == 0:
        raise EngineError(
            f"no GeneExpression rows for samples {sample_a}/{sample_b}"
        )

    counts = {}
    names = {}
    for s_index, s_id in ((0, sample_a), (1, sample_b)):
        for gene_id, name, freq in db.query(
            f"""
            SELECT ge_g_id, name, total_freq FROM GeneExpression
            JOIN Gene ON (g_id = ge_g_id)
            WHERE ge_e_id = {e_id} AND ge_sg_id = {sg_id}
                  AND ge_s_id = {s_id}
            """
        ):
            entry = counts.setdefault(gene_id, [0, 0])
            entry[s_index] = freq
            names[gene_id] = name

    results = []
    for gene_id, (count_a, count_b) in counts.items():
        if count_a + count_b < min_total:
            continue
        results.append(
            DifferentialResult(
                gene_id=gene_id,
                gene_name=names[gene_id],
                count_a=count_a,
                count_b=count_b,
                log2_fold_change=log2_fold_change(
                    count_a, totals[sample_a], count_b, totals[sample_b]
                ),
                p_value=two_proportion_p_value(
                    count_a, totals[sample_a], count_b, totals[sample_b]
                ),
            )
        )
    results.sort(key=lambda r: (r.p_value, -abs(r.log2_fold_change)))
    return results
