"""SNP calling (the tertiary analysis of the 1000 Genomes scenario).

Section 2.1.1: "The tertiary data analysis phase finally calls the
consensus over all alignments, and looks for variations between
individual genomes (single nucleotide polymorphisms (SNPs))."

Two halves:

- :func:`mutate_reference` — simulate an *individual's* genome by
  planting substitutions into the reference at a given rate, returning
  the mutated chromosomes and the ground-truth SNP list (so calls can be
  scored for precision/recall);
- :func:`call_snps` — compare a called consensus against the reference:
  every confidently-called disagreement is a SNP candidate, filtered by
  consensus quality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.errors import EngineError
from .consensus import ConsensusResult
from .fasta import FastaRecord
from .sequences import DNA_ALPHABET


class VariantError(EngineError):
    pass


@dataclass(frozen=True)
class Snp:
    """One single-nucleotide polymorphism."""

    chromosome: str
    position: int  # 0-based
    ref_base: str
    alt_base: str
    quality: int = 0


def mutate_reference(
    reference: Sequence[FastaRecord],
    mutation_rate: float = 0.001,
    seed: int = 97,
) -> Tuple[List[FastaRecord], List[Snp]]:
    """Plant random substitutions; returns (mutated genome, truth SNPs).

    ``mutation_rate`` ≈ 0.001 matches the human SNP density the 1000
    Genomes project was built to chart (~1 variant per kb).
    """
    if not 0.0 <= mutation_rate < 1.0:
        raise VariantError(f"bad mutation rate {mutation_rate}")
    rng = random.Random(seed)
    mutated: List[FastaRecord] = []
    truth: List[Snp] = []
    for record in reference:
        bases = list(record.sequence)
        n_mutations = int(len(bases) * mutation_rate)
        positions = rng.sample(range(len(bases)), min(n_mutations, len(bases)))
        for position in sorted(positions):
            ref_base = bases[position]
            if ref_base not in DNA_ALPHABET:
                continue
            alt_base = rng.choice(
                [b for b in DNA_ALPHABET if b != ref_base]
            )
            bases[position] = alt_base
            truth.append(
                Snp(record.name, position, ref_base, alt_base)
            )
        mutated.append(
            FastaRecord(
                record.name,
                "".join(bases),
                f"{record.description} (+{len(positions)} SNPs)".strip(),
            )
        )
    return mutated, truth


def call_snps(
    reference_sequence: str,
    consensus: ConsensusResult,
    chromosome: Optional[str] = None,
    min_quality: int = 20,
) -> List[Snp]:
    """SNPs where the consensus confidently disagrees with the reference.

    Positions the consensus could not call (``N``) or called below
    ``min_quality`` are skipped — low-coverage disagreements are noise,
    not variants.
    """
    name = chromosome or consensus.chromosome
    snps: List[Snp] = []
    start = consensus.start
    for offset, called in enumerate(consensus.sequence):
        if called == "N":
            continue
        position = start + offset
        if position >= len(reference_sequence):
            break
        quality = (
            consensus.qualities[offset]
            if offset < len(consensus.qualities)
            else 0
        )
        if quality < min_quality:
            continue
        ref_base = reference_sequence[position]
        if called != ref_base:
            snps.append(Snp(name, position, ref_base, called, quality))
    return snps


def score_calls(
    called: Sequence[Snp], truth: Sequence[Snp]
) -> Dict[str, float]:
    """Precision/recall of called SNPs against the planted truth
    (matching on chromosome+position+alt base)."""
    called_set = {(s.chromosome, s.position, s.alt_base) for s in called}
    truth_set = {(s.chromosome, s.position, s.alt_base) for s in truth}
    true_positives = len(called_set & truth_set)
    precision = true_positives / len(called_set) if called_set else 1.0
    recall = true_positives / len(truth_set) if truth_set else 1.0
    return {
        "called": float(len(called_set)),
        "truth": float(len(truth_set)),
        "true_positives": float(true_positives),
        "precision": precision,
        "recall": recall,
    }
