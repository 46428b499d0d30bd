"""DNA sequence primitives.

Plain-string sequence utilities (complement, reverse complement, GC
content) plus the bit-packed encodings the paper's future-work section
calls for ("a bit-encoding of the sequences could reduce the size to
just about a quarter"): a 2-bit encoding for pure ACGT strings and a
4-bit encoding that also covers IUPAC ambiguity codes such as ``N``.

:class:`PackedDna` is the payload object behind the ``DnaSequence`` UDT
registered by :func:`repro.core.wrappers.register_extensions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..engine.errors import TypeMismatchError

DNA_ALPHABET = "ACGT"

#: IUPAC nucleotide codes (subset used in practice for short reads)
IUPAC_CODES = "ACGTNRYSWKM"

_COMPLEMENT = str.maketrans("ACGTNRYSWKMacgtn", "TGCANYRSWMKtgcan")

_TWO_BIT = {"A": 0, "C": 1, "G": 2, "T": 3}
_TWO_BIT_REV = "ACGT"

_FOUR_BIT = {base: i for i, base in enumerate(IUPAC_CODES)}
_FOUR_BIT_REV = IUPAC_CODES


def complement(seq: str) -> str:
    """Base-wise complement."""
    return seq.translate(_COMPLEMENT)


def reverse_complement(seq: str) -> str:
    """Reverse complement (the minus-strand reading of ``seq``)."""
    return complement(seq)[::-1]


def is_unambiguous(seq: str) -> bool:
    """True when the sequence contains only A/C/G/T."""
    return all(base in _TWO_BIT for base in seq)


def kmers(seq: str, k: int) -> Iterator[str]:
    """All overlapping k-mers of ``seq`` in order."""
    for i in range(len(seq) - k + 1):
        yield seq[i : i + k]


# ---------------------------------------------------------------------------
# bit packing
# ---------------------------------------------------------------------------


def pack_2bit(seq: str) -> bytes:
    """Pack a pure-ACGT sequence at 2 bits/base.

    Layout: 4-byte big-endian length, then bases packed 4 per byte,
    most-significant pair first. Raises on ambiguous symbols.
    """
    out = bytearray(len(seq).to_bytes(4, "big"))
    acc = 0
    bits = 0
    for base in seq:
        try:
            code = _TWO_BIT[base]
        except KeyError:
            raise TypeMismatchError(
                f"cannot 2-bit pack ambiguous base {base!r}"
            ) from None
        acc = (acc << 2) | code
        bits += 2
        if bits == 8:
            out.append(acc)
            acc, bits = 0, 0
    if bits:
        out.append(acc << (8 - bits))
    return bytes(out)


def unpack_2bit(raw: bytes) -> str:
    length = int.from_bytes(raw[:4], "big")
    bases = []
    for byte in raw[4:]:
        for shift in (6, 4, 2, 0):
            bases.append(_TWO_BIT_REV[(byte >> shift) & 0b11])
            if len(bases) == length:
                return "".join(bases)
    if length == 0:
        return ""
    return "".join(bases[:length])


def pack_4bit(seq: str) -> bytes:
    """Pack an IUPAC sequence at 4 bits/base (handles ``N`` etc.)."""
    out = bytearray(len(seq).to_bytes(4, "big"))
    acc = 0
    half = False
    for base in seq:
        try:
            code = _FOUR_BIT[base]
        except KeyError:
            raise TypeMismatchError(f"unknown base {base!r}") from None
        if half:
            out.append(acc | code)
            half = False
        else:
            acc = code << 4
            half = True
    if half:
        out.append(acc)
    return bytes(out)


def unpack_4bit(raw: bytes) -> str:
    length = int.from_bytes(raw[:4], "big")
    bases = []
    for byte in raw[4:]:
        bases.append(_FOUR_BIT_REV[byte >> 4])
        if len(bases) == length:
            break
        bases.append(_FOUR_BIT_REV[byte & 0x0F])
        if len(bases) == length:
            break
    return "".join(bases[:length])


@dataclass(frozen=True)
class PackedDna:
    """A DNA sequence stored bit-packed (the ``DnaSequence`` UDT payload).

    Chooses 2-bit packing when the sequence is pure ACGT and falls back
    to 4-bit for ambiguous sequences; the first byte of the serialised
    form records which.
    """

    sequence: str

    def serialize(self) -> bytes:
        if is_unambiguous(self.sequence):
            return b"\x02" + pack_2bit(self.sequence)
        return b"\x04" + pack_4bit(self.sequence)

    @staticmethod
    def deserialize(raw: bytes) -> "PackedDna":
        if not raw:
            raise TypeMismatchError("empty DnaSequence payload")
        mode, payload = raw[0], raw[1:]
        if mode == 2:
            return PackedDna(unpack_2bit(payload))
        if mode == 4:
            return PackedDna(unpack_4bit(payload))
        raise TypeMismatchError(f"bad DnaSequence mode byte {mode}")

    def __len__(self) -> int:
        return len(self.sequence)

    def __str__(self) -> str:
        return self.sequence
