"""Synthetic genomes and Illumina-like short reads.

The paper's experiments run on data we cannot ship (Sanger Institute
production lanes). This module generates the closest synthetic
equivalents; what matters for the reproduced experiments is preserved:

- **record structure** — 36 bp reads, Phred+33 quality strings, Illumina
  composite read names (machine_run:lane:tile:x:y on a 300-tile lane);
- **re-sequencing statistics** (Table 2 workload) — reads drawn
  uniformly across a multi-chromosome reference at a target coverage,
  so almost all reads are unique;
- **digital-gene-expression statistics** (Table 1 workload) — tags drawn
  from a Zipf-distributed expression profile over annotated genes, so a
  small set of tags repeats heavily (565 k uniques out of millions in
  the paper's lane);
- **quality decay** — scores fall off along the read as on real
  instruments, and base-call errors are sampled from those scores.

Everything is deterministic under a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..engine.errors import EngineError
from .fasta import FastaRecord
from .fastq import FastqRecord, IlluminaReadName
from .quality import MAX_SCORE, phred_to_error_probability
from .sequences import DNA_ALPHABET, reverse_complement

#: tiles per lane (paper Section 2.1: "about 300 tiles")
TILES_PER_LANE = 300

#: typical early-Illumina read length
DEFAULT_READ_LENGTH = 36


class SimulationError(EngineError):
    pass


# ---------------------------------------------------------------------------
# reference genomes
# ---------------------------------------------------------------------------


def generate_reference(
    n_chromosomes: int = 3,
    chromosome_length: int = 100_000,
    gc: float = 0.41,
    repeat_fraction: float = 0.05,
    seed: int = 7,
) -> List[FastaRecord]:
    """Generate a reference of ``n_chromosomes`` random chromosomes.

    ``gc`` sets the G+C fraction (human ≈ 0.41); ``repeat_fraction`` of
    each chromosome is filled by copying earlier segments, giving the
    aligner realistic repetitive regions.
    """
    if not 0.0 < gc < 1.0:
        raise SimulationError(f"gc must be in (0,1), got {gc}")
    rng = random.Random(seed)
    weights = [(1 - gc) / 2, gc / 2, gc / 2, (1 - gc) / 2]  # A C G T
    records = []
    for chrom in range(1, n_chromosomes + 1):
        bases = rng.choices(DNA_ALPHABET, weights=weights, k=chromosome_length)
        # paste repeats: copy random earlier windows over later positions
        repeat_budget = int(chromosome_length * repeat_fraction)
        while repeat_budget > 0 and chromosome_length > 2000:
            length = rng.randint(200, 1000)
            src = rng.randrange(0, chromosome_length - length)
            dst = rng.randrange(src + length, max(src + length + 1, chromosome_length - length))
            bases[dst : dst + length] = bases[src : src + length]
            repeat_budget -= length
        records.append(
            FastaRecord(
                name=f"chr{chrom}",
                sequence="".join(bases),
                description=f"synthetic chromosome {chrom}",
            )
        )
    return records


# ---------------------------------------------------------------------------
# gene annotation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneAnnotation:
    """A gene locus on the reference (the ``Gene`` table's rows)."""

    gene_id: int
    name: str
    chromosome: str
    start: int  # 0-based inclusive
    end: int  # 0-based exclusive
    strand: str  # '+' or '-'


def annotate_genes(
    reference: Sequence[FastaRecord],
    n_genes: int = 200,
    gene_length: Tuple[int, int] = (500, 3000),
    seed: int = 11,
) -> List[GeneAnnotation]:
    """Place non-overlapping gene annotations across the reference."""
    rng = random.Random(seed)
    genes: List[GeneAnnotation] = []
    occupied = {record.name: [] for record in reference}
    attempts = 0
    while len(genes) < n_genes and attempts < n_genes * 50:
        attempts += 1
        record = rng.choice(list(reference))
        length = rng.randint(*gene_length)
        if len(record.sequence) <= length + 1:
            continue
        start = rng.randrange(0, len(record.sequence) - length)
        end = start + length
        if any(s < end and start < e for s, e in occupied[record.name]):
            continue
        occupied[record.name].append((start, end))
        gene_id = len(genes) + 1
        genes.append(
            GeneAnnotation(
                gene_id=gene_id,
                name=f"GENE{gene_id:05d}",
                chromosome=record.name,
                start=start,
                end=end,
                strand=rng.choice("+-"),
            )
        )
    if len(genes) < n_genes:
        raise SimulationError(
            f"could only place {len(genes)} of {n_genes} genes; "
            "enlarge the reference"
        )
    return genes


# ---------------------------------------------------------------------------
# error / quality model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QualityModel:
    """Position-dependent quality decay, Illumina-like.

    Quality starts near ``start_q`` and decays linearly by ``decay`` per
    cycle with ``jitter`` noise; base-call errors are then sampled from
    the per-base error probability those scores imply.
    """

    start_q: int = 35
    decay: float = 0.35
    jitter: int = 3

    def scores(self, length: int, rng: random.Random) -> List[int]:
        out = []
        for i in range(length):
            q = self.start_q - self.decay * i + rng.randint(-self.jitter, self.jitter)
            out.append(max(2, min(MAX_SCORE, round(q))))
        return out

    def corrupt(
        self, fragment: str, scores: Sequence[int], rng: random.Random
    ) -> str:
        bases = list(fragment)
        for i, score in enumerate(scores):
            if rng.random() < phred_to_error_probability(score):
                if rng.random() < 0.02:
                    bases[i] = "N"  # no-call
                else:
                    bases[i] = rng.choice(
                        [b for b in DNA_ALPHABET if b != bases[i]]
                    )
        return "".join(bases)


# ---------------------------------------------------------------------------
# name generation
# ---------------------------------------------------------------------------


class _NameFactory:
    """Generates Illumina-style composite read names for one lane."""

    def __init__(self, machine: str, run_id: int, lane: int, rng: random.Random):
        self.machine = machine
        self.run_id = run_id
        self.lane = lane
        self._rng = rng

    def next_name(self) -> str:
        return IlluminaReadName(
            machine=self.machine,
            run_id=self.run_id,
            lane=self.lane,
            tile=self._rng.randint(1, TILES_PER_LANE),
            x=self._rng.randint(0, 2047),
            y=self._rng.randint(0, 2047),
        ).format()


# ---------------------------------------------------------------------------
# re-sequencing reads (1000 Genomes workload)
# ---------------------------------------------------------------------------


def simulate_resequencing_lane(
    reference: Sequence[FastaRecord],
    n_reads: int,
    read_length: int = DEFAULT_READ_LENGTH,
    machine: str = "IL4",
    run_id: int = 855,
    lane: int = 1,
    quality_model: Optional[QualityModel] = None,
    seed: int = 23,
) -> Iterator[FastqRecord]:
    """Reads drawn uniformly over the reference — mostly unique reads,
    the Table 2 / consensus-calling workload."""
    qm = quality_model or QualityModel()
    rng = random.Random(seed)
    names = _NameFactory(machine, run_id, lane, rng)
    chromosomes = [
        r for r in reference if len(r.sequence) >= read_length
    ]
    if not chromosomes:
        raise SimulationError("no chromosome is long enough for the read length")
    weights = [len(r.sequence) for r in chromosomes]
    for _ in range(n_reads):
        record = rng.choices(chromosomes, weights=weights, k=1)[0]
        position = rng.randrange(0, len(record.sequence) - read_length + 1)
        fragment = record.sequence[position : position + read_length]
        if rng.random() < 0.5:
            fragment = reverse_complement(fragment)
        scores = qm.scores(read_length, rng)
        sequence = qm.corrupt(fragment, scores, rng)
        yield FastqRecord.from_scores(names.next_name(), sequence, scores)


# ---------------------------------------------------------------------------
# digital gene expression tags (Table 1 workload)
# ---------------------------------------------------------------------------


def expression_profile(
    genes: Sequence[GeneAnnotation],
    zipf_s: float = 1.2,
    expressed_fraction: float = 0.6,
    seed: int = 31,
) -> List[Tuple[GeneAnnotation, float]]:
    """Assign each expressed gene a Zipf-distributed relative activity.

    Gene expression is famously heavy-tailed: a few genes produce most
    of the mRNA. ``expressed_fraction`` of genes are active at all
    ("only a fraction of the genome is active in a cell").
    """
    rng = random.Random(seed)
    expressed = [g for g in genes if rng.random() < expressed_fraction]
    if not expressed:
        expressed = list(genes[:1])
    rng.shuffle(expressed)
    weights = [1.0 / (rank**zipf_s) for rank in range(1, len(expressed) + 1)]
    total = sum(weights)
    return [
        (gene, weight / total) for gene, weight in zip(expressed, weights)
    ]


def simulate_dge_lane(
    reference: Sequence[FastaRecord],
    genes: Sequence[GeneAnnotation],
    n_reads: int,
    read_length: int = DEFAULT_READ_LENGTH,
    machine: str = "IL4",
    run_id: int = 855,
    lane: int = 1,
    zipf_s: float = 1.2,
    quality_model: Optional[QualityModel] = None,
    seed: int = 31,
) -> Iterator[FastqRecord]:
    """Tags sampled from gene tag-sites under a Zipf expression profile.

    Each gene has one canonical tag site near its 3' end (as in
    LongSAGE-style digital expression), so reads from the same gene are
    (error-free case) identical — producing the heavy tag repetition
    that makes the Table 1 data compress so well.
    """
    qm = quality_model or QualityModel()
    rng = random.Random(seed)
    names = _NameFactory(machine, run_id, lane, rng)
    by_name = {record.name: record.sequence for record in reference}
    profile = expression_profile(genes, zipf_s=zipf_s, seed=seed)
    gene_list = [gene for gene, _ in profile]
    weights = [weight for _, weight in profile]
    tag_sites = {}
    for gene in gene_list:
        chrom_seq = by_name[gene.chromosome]
        # tag site: read_length window ending ~20 bp before the gene end
        site_end = min(gene.end - 20, len(chrom_seq))
        site_start = max(gene.start, site_end - read_length)
        if site_end - site_start < read_length:
            site_start = gene.start
            site_end = site_start + read_length
        tag_sites[gene.gene_id] = (gene.chromosome, site_start)
    for _ in range(n_reads):
        gene = rng.choices(gene_list, weights=weights, k=1)[0]
        chromosome, start = tag_sites[gene.gene_id]
        fragment = by_name[chromosome][start : start + read_length]
        if gene.strand == "-":
            fragment = reverse_complement(fragment)
        scores = qm.scores(read_length, rng)
        sequence = qm.corrupt(fragment, scores, rng)
        yield FastqRecord.from_scores(names.next_name(), sequence, scores)
