"""Probabilistic sequence support (future work, Section 6.1).

"Short-read sequence data is probabilistic data as represented by the
quality values associated with each read. However, so far many
algorithms simply ignore those quality values ... An approach with
probabilistic databases hence seems natural."

This module supplies the building blocks such an approach needs inside
the engine:

- the ``ProbSequence`` UDT — one value holding bases *and* their
  per-base error probabilities (fixing the paper's own self-criticism
  that its model keeps them "in separate attributes");
- scalar UDFs over quality strings, usable in any query:
  ``BaseErrorProbability``, ``ExpectedMismatches``,
  ``SequenceReliability``, and the probabilistic equality
  ``ProbMatch(seq, quals, candidate)``;
- :func:`probabilistic_query1_sql` — Query 1 upgraded to weight each
  tag by the probability it was read correctly, yielding an *expected
  true count* next to the raw count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..engine.database import Database
from ..engine.errors import UdfError
from ..engine.types import UdtCodec
from ..genomics.quality import PHRED33, decode_phred, phred_to_error_probability
from ..genomics.sequences import pack_4bit, unpack_4bit


@dataclass(frozen=True)
class ProbabilisticSequence:
    """A DNA sequence together with its per-base error probabilities."""

    bases: str
    quality: str  # phred+33 string, same length as bases

    def __post_init__(self):
        if len(self.bases) != len(self.quality):
            raise UdfError(
                "ProbabilisticSequence requires equal base/quality lengths"
            )

    @property
    def error_probabilities(self) -> List[float]:
        return [
            phred_to_error_probability(score)
            for score in decode_phred(self.quality, PHRED33)
        ]

    def match_probability(self, candidate: str) -> float:
        """P(true sequence == candidate) under the independent per-base
        error model: a matching base contributes (1-p), a mismatching
        base contributes p/3 (the error landed on that specific base)."""
        if len(candidate) != len(self.bases):
            return 0.0
        result = 1.0
        for base, cand, p in zip(
            self.bases, candidate, self.error_probabilities
        ):
            if base == cand:
                result *= 1.0 - p
            else:
                result *= p / 3.0
            if result == 0.0:
                return 0.0
        return result

    # -- UDT serialisation --------------------------------------------------------

    def serialize(self) -> bytes:
        packed = pack_4bit(self.bases)
        quals = self.quality.encode("ascii")
        return struct.pack("<HH", len(packed), len(quals)) + packed + quals

    @staticmethod
    def deserialize(raw: bytes) -> "ProbabilisticSequence":
        seq_len, qual_len = struct.unpack_from("<HH", raw, 0)
        offset = struct.calcsize("<HH")
        bases = unpack_4bit(raw[offset : offset + seq_len])
        quality = raw[offset + seq_len : offset + seq_len + qual_len].decode(
            "ascii"
        )
        return ProbabilisticSequence(bases, quality)


def _prob_serialize(value) -> bytes:
    if isinstance(value, ProbabilisticSequence):
        return value.serialize()
    if isinstance(value, tuple) and len(value) == 2:
        return ProbabilisticSequence(*value).serialize()
    raise UdfError(
        f"ProbSequence takes ProbabilisticSequence or (bases, quality), "
        f"got {type(value).__name__}"
    )


PROB_SEQUENCE_UDT = UdtCodec(
    name="ProbSequence",
    serialize=_prob_serialize,
    deserialize=ProbabilisticSequence.deserialize,
    to_string=str,
    probe=("ACGT", "IIII"),
)


# ---------------------------------------------------------------------------
# scalar UDFs
# ---------------------------------------------------------------------------


def _base_error_probability(quals: Optional[str], index: Optional[int]):
    """1-based per-base error probability from a quality string."""
    if quals is None or index is None:
        return None
    i = int(index) - 1
    if i < 0 or i >= len(quals):
        return None
    return phred_to_error_probability(ord(quals[i]) - PHRED33)


def _expected_mismatches(quals: Optional[str]):
    if quals is None:
        return None
    return sum(
        phred_to_error_probability(ord(c) - PHRED33) for c in quals
    )


def _sequence_reliability(quals: Optional[str]):
    if quals is None:
        return None
    result = 1.0
    for c in quals:
        result *= 1.0 - phred_to_error_probability(ord(c) - PHRED33)
    return result


def _prob_match(seq: Optional[str], quals: Optional[str], candidate: Optional[str]):
    if seq is None or quals is None or candidate is None:
        return None
    return ProbabilisticSequence(seq, quals).match_probability(candidate)


def register_probabilistic_extensions(database: Database) -> None:
    """Install the probabilistic UDT and UDFs on a database."""
    database.register_udt(PROB_SEQUENCE_UDT)
    database.register_scalar(
        "BaseErrorProbability", _base_error_probability, deterministic=True
    )
    database.register_scalar(
        "ExpectedMismatches", _expected_mismatches, deterministic=True
    )
    database.register_scalar(
        "SequenceReliability", _sequence_reliability, deterministic=True
    )
    database.register_scalar("ProbMatch", _prob_match, deterministic=True)


# ---------------------------------------------------------------------------
# probabilistic Query 1
# ---------------------------------------------------------------------------


def probabilistic_query1_sql(e_id: int, sg_id: int, s_id: int) -> str:
    """Query 1 with quality awareness: next to the raw frequency, the
    *expected number of correct observations* of each tag — reads with
    shaky quality contribute less than clean ones."""
    return f"""
SELECT short_read_seq,
       COUNT(*) AS frequency,
       SUM(SequenceReliability(quals)) AS expected_true_count
  FROM [Read]
 WHERE r_e_id = {e_id} AND r_sg_id = {sg_id} AND r_s_id = {s_id}
       AND CHARINDEX('N', short_read_seq) = 0
 GROUP BY short_read_seq
 ORDER BY expected_true_count DESC
"""


def execute_probabilistic_query1(
    db: Database, e_id: int = 1, sg_id: int = 1, s_id: int = 1
) -> List[Tuple[str, int, float]]:
    return db.query(probabilistic_query1_sql(e_id, sg_id, s_id))
