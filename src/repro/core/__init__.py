"""The paper's contribution layer: schemas, extensibility wrappers,
canonical queries, and the warehouse facade."""

from . import differential, filewrap, indb_align, probabilistic, provenance, queries, schemas, storage_report
from .warehouse import GenomicsWarehouse
from .differential import differential_expression
from .indb_align import register_alignment_extensions
from .probabilistic import (
    ProbabilisticSequence,
    register_probabilistic_extensions,
)
from .provenance import ProvenanceTracker
from .workflow import SequencingWorkflow
from .wrappers import (
    AssembleConsensusUda,
    AssembleSequenceUda,
    CallBaseUda,
    ChunkedBlobReader,
    ConsensusPiece,
    DNA_SEQUENCE_UDT,
    ListShortReadsTvf,
    PivotAlignmentTvf,
    register_extensions,
    split_fasta,
    split_fastq,
)

__all__ = [
    "AssembleConsensusUda",
    "AssembleSequenceUda",
    "CallBaseUda",
    "ChunkedBlobReader",
    "ConsensusPiece",
    "DNA_SEQUENCE_UDT",
    "GenomicsWarehouse",
    "ListShortReadsTvf",
    "PivotAlignmentTvf",
    "differential",
    "differential_expression",
    "filewrap",
    "indb_align",
    "probabilistic",
    "provenance",
    "ProbabilisticSequence",
    "ProvenanceTracker",
    "register_alignment_extensions",
    "register_probabilistic_extensions",
    "queries",
    "register_extensions",
    "schemas",
    "storage_report",
    "SequencingWorkflow",
    "split_fasta",
    "split_fastq",
]
