"""Genomics substrate: sequences, formats, simulation, alignment,
consensus calling."""

from .aligner import Alignment, ReferenceIndex, ShortReadAligner
from .consensus import (
    ConsensusResult,
    Pileup,
    SlidingWindowConsensus,
    call_base,
)
from .fasta import FastaRecord, read_fasta, write_fasta
from .fastq import (
    FastqRecord,
    IlluminaReadName,
    parse_illumina_name,
    read_fastq,
    write_fastq,
)
from .quality import decode_phred, encode_phred
from .sequences import PackedDna, reverse_complement
from .variants import Snp, call_snps, mutate_reference, score_calls
from .simulate import (
    GeneAnnotation,
    QualityModel,
    annotate_genes,
    generate_reference,
    simulate_dge_lane,
    simulate_resequencing_lane,
)

__all__ = [
    "Alignment",
    "ConsensusResult",
    "FastaRecord",
    "FastqRecord",
    "GeneAnnotation",
    "IlluminaReadName",
    "PackedDna",
    "Pileup",
    "QualityModel",
    "ReferenceIndex",
    "ShortReadAligner",
    "SlidingWindowConsensus",
    "annotate_genes",
    "call_base",
    "decode_phred",
    "encode_phred",
    "generate_reference",
    "parse_illumina_name",
    "read_fasta",
    "read_fastq",
    "reverse_complement",
    "Snp",
    "call_snps",
    "mutate_reference",
    "score_calls",
    "simulate_dge_lane",
    "simulate_resequencing_lane",
    "write_fasta",
    "write_fastq",
]
