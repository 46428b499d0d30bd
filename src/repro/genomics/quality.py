"""Phred quality scores.

Short-read sequences are probabilistic data: each called base carries an
error probability from the image-analysis phase. FASTQ stores these as
*Phred* scores, ``Q = -10 * log10(p_error)``, shifted into printable
ASCII. Two shifts exist in the wild: Sanger/Phred+33 and the Illumina
Phred+64 variant current when the paper was written; both are supported.
"""

from __future__ import annotations

from typing import List, Sequence

from ..engine.errors import TypeMismatchError

#: offsets for the two common ASCII encodings
PHRED33 = 33
PHRED64 = 64

#: the practical score range (the paper cites 0..100; instruments emit
#: lower maxima, but the codec accepts the full range)
MIN_SCORE = 0
MAX_SCORE = 93  # chr(33 + 93) == '~', the last printable ASCII character


def phred_to_error_probability(score: int) -> float:
    """``p_error = 10 ** (-Q / 10)``, the error a score stands for."""
    if score < MIN_SCORE:
        raise TypeMismatchError(f"negative phred score {score}")
    return 10.0 ** (-score / 10.0)


def encode_phred(scores: Sequence[int], offset: int = PHRED33) -> str:
    """Scores → the printable quality string of a FASTQ record."""
    out = []
    for score in scores:
        if not MIN_SCORE <= score <= MAX_SCORE:
            raise TypeMismatchError(f"phred score {score} out of range")
        code = score + offset
        if code > 126:
            raise TypeMismatchError(
                f"score {score} not representable at offset {offset}"
            )
        out.append(chr(code))
    return "".join(out)


def decode_phred(text: str, offset: int = PHRED33) -> List[int]:
    """Quality string → scores; raises on characters below the offset."""
    scores = []
    for ch in text:
        score = ord(ch) - offset
        if score < 0:
            raise TypeMismatchError(
                f"quality character {ch!r} invalid for offset {offset}"
            )
        scores.append(score)
    return scores
