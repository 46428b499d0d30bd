"""Consensus calling: base calls, pileup vs sliding window, ordering."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.wrappers import AssembleConsensusUda, CallBaseUda
from repro.genomics.consensus import (
    MAX_CONSENSUS_QUALITY,
    ConsensusError,
    Pileup,
    SlidingWindowConsensus,
    call_base,
    rank_votes,
)
from repro.genomics.quality import PHRED33, PHRED64


class TestCallBase:
    def test_unanimous(self):
        assert call_base([("A", 30), ("A", 20)]) == ("A", 50)

    def test_majority_by_quality(self):
        base, quality = call_base([("A", 40), ("C", 10), ("C", 10)])
        assert base == "A" and quality == 20

    def test_quality_outvotes_count(self):
        base, _q = call_base([("A", 60), ("C", 10), ("C", 10), ("C", 10)])
        assert base == "A"

    def test_tie_breaks_lexicographically(self):
        base, quality = call_base([("T", 20), ("G", 20)])
        assert base == "G" and quality == 0

    def test_n_observations_ignored(self):
        assert call_base([("N", 40), ("C", 10)]) == ("C", 10)

    def test_no_usable_evidence(self):
        assert call_base([]) == ("N", 0)
        assert call_base([("N", 40)]) == ("N", 0)

    def test_quality_capped(self):
        base, quality = call_base([("A", 90), ("A", 90), ("A", 90)])
        assert quality <= 93


def window_call(observations):
    """One position called by the sliding window: every observation
    arrives as its own one-base alignment."""
    window = SlidingWindowConsensus("chr", length=None)
    for base, quality in observations:
        window.add_alignment(0, base, [quality])
    result = window.finish()
    assert len(result.sequence) == 1
    return result.sequence, result.qualities[0]


def call_base_uda(observations):
    uda = CallBaseUda()
    uda.init()
    for base, quality in observations:
        uda.accumulate(base, quality)
    return uda.terminate()


class TestOneRanking:
    """``call_base``, the window and ``CallBaseUda`` rank through
    :func:`rank_votes`, so one vote table has one answer."""

    TABLES = [
        ([("A", 30), ("A", 20)], ("A", 50)),
        ([("A", 40), ("C", 10), ("C", 10)], ("A", 20)),
        ([("T", 20), ("G", 20)], ("G", 0)),  # two-way tie: smaller letter
        ([("T", 20), ("G", 20), ("c", 20)], ("G", 0)),  # 'G' < 'T' < 'c'
        ([("N", 40), ("C", 10)], ("C", 10)),
        ([("N", 40)], ("N", 0)),
        ([("A", 0)], ("A", 0)),  # seen only at quality 0: still beats no-call
        ([("A", -3), ("A", 5)], ("A", 5)),  # clamped per observation, not on the sum
        ([("A", 2.7), ("C", -40)], ("A", 2)),
        ([("A", 90), ("A", 90), ("C", 1)], ("A", MAX_CONSENSUS_QUALITY)),
        ([("a", 30), ("A", 10)], ("a", 20)),  # case is not folded
    ]

    @pytest.mark.parametrize("observations,expected", TABLES)
    def test_three_callers_agree(self, observations, expected):
        assert call_base(observations) == expected
        assert window_call(observations) == expected
        assert call_base_uda(observations) == expected[0]

    def test_rank_votes(self):
        assert rank_votes({}) == ("N", 0)
        assert rank_votes({"A": 7}) == ("A", 7)
        assert rank_votes({"T": 20, "G": 20}) == ("G", 0)
        assert rank_votes({"A": 300, "C": 100}) == ("A", MAX_CONSENSUS_QUALITY)


def apply_alignments(consumer, alignments):
    for pos, seq, quals in alignments:
        consumer.add_alignment(pos, seq, quals)


#: a quality as a caller may hand it over: 0, negative, fractional, and
#: beyond both the Phred range (93) and one byte
QUALITY = st.one_of(
    st.integers(-5, 45),
    st.sampled_from([0, 93, 94, 200, 300]),
    st.floats(-3, 60, allow_nan=False),
)


@st.composite
def alignment_sets(draw):
    """Alignments ordered by position: ``ACGTN`` in both cases, starts
    below zero and reads hanging over position 60, qualities as a list
    of ``QUALITY`` or as ``bytes``."""
    raw = draw(
        st.lists(
            st.tuples(
                st.integers(-15, 70),
                st.text(alphabet="ACGTNacgtn", min_size=0, max_size=12),
            ),
            min_size=1,
            max_size=30,
        )
    )
    alignments = []
    for pos, seq in sorted(raw):
        if draw(st.booleans()):
            quals = draw(st.binary(min_size=len(seq), max_size=len(seq)))
        else:
            quals = draw(st.lists(QUALITY, min_size=len(seq), max_size=len(seq)))
        alignments.append((pos, seq, quals))
    return alignments


class TestPileup:
    def test_simple_overlap(self):
        pileup = Pileup("chr", 10)
        pileup.add_alignment(0, "ACGT", [30] * 4)
        pileup.add_alignment(2, "GTAA", [30] * 4)
        result = pileup.call()
        assert result.sequence == "ACGTAANNNN"
        assert result.covered_positions == 6
        assert result.total_observations == 8

    def test_disagreement_resolved_by_quality(self):
        pileup = Pileup("chr", 4)
        pileup.add_alignment(0, "AAAA", [10] * 4)
        pileup.add_alignment(0, "CCCC", [40] * 4)
        assert pileup.call().sequence == "CCCC"

    def test_out_of_bounds_clipped(self):
        pileup = Pileup("chr", 5)
        pileup.add_alignment(3, "ACGT", [30] * 4)
        result = pileup.call()
        assert result.sequence == "NNNAC"

    def test_observation_count_tracks_pivot_size(self):
        pileup = Pileup("chr", 100)
        for i in range(10):
            pileup.add_alignment(i, "ACGT", [30] * 4)
        assert pileup.observation_count() == 40

    def test_length_mismatch_rejected(self):
        pileup = Pileup("chr", 10)
        with pytest.raises(ConsensusError):
            pileup.add_alignment(0, "ACGT", [30])


class TestSlidingWindow:
    def test_matches_pileup_simple(self):
        alignments = [(0, "ACGT", [30] * 4), (2, "GTAA", [30] * 4)]
        pileup = Pileup("chr", 10)
        window = SlidingWindowConsensus("chr", 10)
        apply_alignments(pileup, alignments)
        apply_alignments(window, alignments)
        assert window.finish().sequence == pileup.call().sequence

    def test_unordered_input_rejected(self):
        window = SlidingWindowConsensus("chr", 10)
        window.add_alignment(5, "AC", [30, 30])
        with pytest.raises(ConsensusError):
            window.add_alignment(3, "AC", [30, 30])

    def test_window_stays_small(self):
        window = SlidingWindowConsensus("chr", 10_000)
        for pos in range(0, 9_000, 10):
            window.add_alignment(pos, "ACGTACGTACGTACGTACGT", [30] * 20)
        # one read length: the positions still open, not the 10k of the
        # chromosome and not the 18k observations
        assert window.peak_window == 20
        result = window.finish()
        assert result.covered_positions == 9_010
        assert result.total_observations == 18_000

    def test_n_only_position_is_covered_but_not_called(self):
        window = SlidingWindowConsensus("chr", 3)
        window.add_alignment(0, "NA", [40, 40])
        window.add_alignment(0, "N", [40])
        result = window.finish()
        assert result.sequence == "NAN"
        assert result.qualities == [0, 40, 0]
        assert result.covered_positions == 2
        assert result.total_observations == 3

    def test_first_alignment_may_start_below_zero(self):
        bounded = SlidingWindowConsensus("chr", 4)
        bounded.add_alignment(-5, "ACGTACG", [30] * 7)  # covers 0 and 1
        assert bounded.finish().sequence == "CGNN"
        unbounded = SlidingWindowConsensus("chr", length=None)
        unbounded.add_alignment(-5, "AC", [30, 30])
        result = unbounded.finish()
        assert (result.start, result.sequence) == (-5, "AC")

    @pytest.mark.parametrize("length", [None, 12])
    @pytest.mark.parametrize(
        "rejected",
        [
            (2, "ACGT", [30] * 4),  # out of order
            (9, "ACGT", [30] * 3),  # qualities too short
            (9, "ACGT", [30] * 5),  # qualities too long
            (9, "ACGT", [30, None, 30, 30]),  # not a number
        ],
    )
    def test_rejected_alignment_leaves_no_trace(self, length, rejected):
        """A rejected alignment must not flush, advance or vote: the
        window ends up equal to one that never saw it."""
        before = [(3, "ACGT", [30] * 4), (5, "GTTT", [20] * 4)]
        after = [(5, "CC", [40, 40]), (10, "AAAA", [30] * 4)]
        clean = SlidingWindowConsensus("chr", length)
        apply_alignments(clean, before + after)
        window = SlidingWindowConsensus("chr", length)
        apply_alignments(window, before)
        with pytest.raises((ConsensusError, TypeError)):
            window.add_alignment(*rejected)
        apply_alignments(window, after)
        assert window.finish() == clean.finish()
        assert window.peak_window == clean.peak_window

    def test_errors_surface_ordering_first(self):
        window = SlidingWindowConsensus("chr", 10)
        window.add_alignment(5, "AC", [30, 30])
        with pytest.raises(ConsensusError, match="ordered by start"):
            window.add_alignment(3, "AC", [30])
        with pytest.raises(ConsensusError, match="length mismatch"):
            window.add_alignment(5, "AC", [30])

    def test_gap_between_alignments_uncovered(self):
        window = SlidingWindowConsensus("chr", 20)
        window.add_alignment(0, "AAAA", [30] * 4)
        window.add_alignment(10, "CCCC", [30] * 4)
        result = window.finish()
        assert result.sequence == "AAAA" + "N" * 6 + "CCCC" + "N" * 6

    def test_unbounded_mode_starts_at_first_alignment(self):
        window = SlidingWindowConsensus("chr", length=None)
        window.add_alignment(100, "ACGT", [30] * 4)
        window.add_alignment(102, "GTTT", [30] * 4)
        result = window.finish()
        assert result.start == 100
        assert result.sequence == "ACGTTT"

    def test_unbounded_empty(self):
        window = SlidingWindowConsensus("chr", length=None)
        result = window.finish()
        assert result.sequence == "" and result.start == 0

    @pytest.mark.parametrize("length", [None, 3_000])
    def test_long_lane_matches_pileup(self, length):
        """Thousands of positions: closed positions leave the window a
        block at a time, and reads that disagree with it (a mismatch, an
        'N', a gap, a read hanging past ``length``) still call exactly
        what the pileup calls."""
        rng = random.Random(17)
        reference = "".join(rng.choice("ACGT") for _ in range(3_100))
        alignments = []
        pos = -5
        while pos < 3_050:
            seq = list(reference[max(pos, 0) : max(pos, 0) + rng.randint(12, 40)])
            for _ in range(rng.choice([0, 0, 0, 1, 3])):
                seq[rng.randrange(len(seq))] = rng.choice("ACGTN")
            quals = [rng.randint(0, 45) for _ in seq]
            alignments.append((pos, "".join(seq), quals))
            pos += 60 if rng.random() < 0.01 else rng.choice([0, 1, 2, 5, 9])
        window = SlidingWindowConsensus("chr", length)
        apply_alignments(window, alignments)
        actual = window.finish()
        shift = 0 if length is not None else alignments[0][0]
        span = max(p + len(seq) for p, seq, _q in alignments)
        pileup = Pileup("chr", length if length is not None else span - shift)
        apply_alignments(
            pileup, [(p - shift, seq, quals) for p, seq, quals in alignments]
        )
        expected = pileup.call()
        assert (actual.start, actual.sequence) == (shift, expected.sequence)
        assert actual.qualities == expected.qualities
        assert actual.covered_positions == expected.covered_positions
        assert window.peak_window <= 40

    @settings(max_examples=150, deadline=None)
    @given(alignment_sets(), st.sampled_from([None, 60]))
    def test_equivalence_with_pileup_property(self, alignments, length):
        """The streaming algorithm must produce exactly the pivot-based
        result, qualities included, for any ordered alignment set:
        bounded (reads clipped at both edges) and unbounded (against a
        pileup shifted to the first alignment's position)."""
        window = SlidingWindowConsensus("chr", length)
        apply_alignments(window, alignments)
        actual = window.finish()
        if length is None:
            shift = alignments[0][0]
            span = max(pos + len(seq) for pos, seq, _quals in alignments)
            pileup = Pileup("chr", span - shift)
        else:
            shift = 0
            pileup = Pileup("chr", length)
        apply_alignments(
            pileup, [(pos - shift, seq, quals) for pos, seq, quals in alignments]
        )
        expected = pileup.call()
        assert actual.start == shift
        assert actual.sequence == expected.sequence
        assert actual.qualities == expected.qualities
        assert all(type(quality) is int for quality in actual.qualities)
        assert actual.covered_positions == expected.covered_positions
        assert actual.total_observations == expected.total_observations
        assert window.peak_window <= 12  # the longest read


#: a Phred quality character: in range, below either offset, past '~',
#: beyond Latin-1 and outside the BMP (two UTF-16 code units)
PHRED_CHAR = st.one_of(
    st.characters(min_codepoint=33, max_codepoint=126),
    st.sampled_from(
        ["\x00", " ", "5", "@", "\x7f", "\xff", "\u4e2d", "\U0001f600", "\U0010ffff"]
    ),
)


@st.composite
def phred_lanes(draw):
    """Alignments ordered by position with Phred text qualities of any
    length (or None), piles deep enough to overflow a 16-bit lane (705
    reads of score 93) or a 32-bit one (a wide character piled up), gaps,
    reads over both edges of a bounded window, and the points at which
    the stream is cut into batches."""
    raw = draw(
        st.lists(
            st.tuples(
                st.integers(-10, 80),
                st.text(alphabet="ACGTN", min_size=0, max_size=10),
                st.one_of(st.none(), st.text(alphabet=PHRED_CHAR, max_size=12)),
            ),
            min_size=1,
            max_size=25,
        )
    )
    pile = draw(st.sampled_from([0, 0, 0, 705, 1200]))
    if pile:
        pos = draw(st.integers(-5, 70))
        text = draw(st.sampled_from(["~~~~~~", "~" * 9, "\u4e2d\u4e2d"]))
        # one disagreeing base in the pile ranks against the lane's sum
        raw += [(pos, "ACGTAC", text)] * pile + [(pos, "ACTTAC", text)]
    alignments = sorted(raw, key=lambda read: read[0])
    cuts = sorted(draw(st.lists(st.integers(0, len(alignments)), max_size=6)))
    return alignments, cuts


def phred_scores(seq, text, offset):
    """The scores a read votes with, one per base, the slow way."""
    scores = [max(ord(ch) - offset, 0) for ch in (text or "")[: len(seq)]]
    return scores + [0] * (len(seq) - len(scores))


def result_fields(window):
    result = window.finish()
    return (
        result.start,
        result.sequence,
        result.qualities,
        result.covered_positions,
        result.total_observations,
        window.peak_window,
    )


class TestLanes:
    """The window's lanes against the pileup, a read at a time and any
    batch split: no answer depends on how the stream is cut."""

    @settings(max_examples=60, deadline=None)
    @given(
        phred_lanes(),
        st.sampled_from([None, 60]),
        st.sampled_from([PHRED33, PHRED64]),
    )
    def test_batches_match_pileup_and_single_reads(self, drawn, length, offset):
        alignments, cuts = drawn
        batched = SlidingWindowConsensus("chr", length)
        for lo, hi in zip([0, *cuts], [*cuts, len(alignments)]):
            batch = alignments[lo:hi]  # may be empty
            batched.add_phred(
                [pos for pos, _seq, _text in batch],
                [seq for _pos, seq, _text in batch],
                [text for _pos, _seq, text in batch],
                offset,
            )
        single = SlidingWindowConsensus("chr", length)
        scored = SlidingWindowConsensus("chr", length)
        for pos, seq, text in alignments:
            single.add_phred([pos], [seq], [text], offset)
            scored.add_alignment(pos, seq, phred_scores(seq, text, offset))
        expected = result_fields(scored)
        assert result_fields(batched) == expected
        assert result_fields(single) == expected

        shift = alignments[0][0] if length is None else 0
        span = max(pos + len(seq) for pos, seq, _text in alignments) - shift
        pileup = Pileup("chr", span if length is None else length)
        for pos, seq, text in alignments:
            pileup.add_alignment(pos - shift, seq, phred_scores(seq, text, offset))
        reference = pileup.call()
        start, sequence, qualities, covered, observations, _peak = expected
        assert start == shift
        if length is None:
            # the window ends at its last covered position
            sequence = sequence + "N" * (len(reference.sequence) - len(sequence))
            qualities = qualities + [0] * (len(reference.qualities) - len(qualities))
        assert sequence == reference.sequence
        assert qualities == reference.qualities
        assert covered == reference.covered_positions
        assert observations == reference.total_observations

    def test_a_deep_pile_widens_the_lanes(self):
        """705 reads of score 93 at one position overflow a 16-bit lane;
        the window widens before the carry could reach the next lane."""
        window = SlidingWindowConsensus("chr", length=None)
        window.add_phred([0] * 705, ["AC"] * 705, ["~!"] * 705)
        window.add_phred([0], ["CC"], ["~!"])
        result = window.finish()
        assert window._width == 32
        assert result.sequence == "AC"  # 'C' seen only at score 0
        assert result.qualities == [93, 0]

    def test_piled_wide_characters_take_64_bit_lanes(self):
        """U+10FFFF scores 1 114 078 at Phred+33: 3 856 of them overflow
        a 32-bit lane."""
        window = SlidingWindowConsensus("chr", length=None)
        window.add_phred([7] * 3900, ["G"] * 3900, ["\U0010ffff"] * 3900)
        window.add_phred([7], ["T"], ["\U0010ffff"])
        result = window.finish()
        assert window._width == 64
        assert (result.start, result.sequence, result.qualities) == (7, "G", [93])

    def test_out_of_order_batch_votes_its_prefix(self):
        clean = SlidingWindowConsensus("chr", length=None)
        clean.add_phred([3, 5], ["AC", "GT"], ["II", "II"])
        window = SlidingWindowConsensus("chr", length=None)
        with pytest.raises(ConsensusError, match="ordered by start"):
            window.add_phred([3, 5, 4, 9], ["AC", "GT", "AA", "CC"], ["II"] * 4)
        assert result_fields(window) == result_fields(clean)

    def test_uda_batches_skip_null_rows_as_rows_do(self):
        rows = [(4, "ACGT", "II5+"), (None, "AC", "II"), (5, None, "II"),
                (6, "GGA", None), (6, "GTA", "I\u4e2dI")]
        by_row, by_batch = AssembleConsensusUda(), AssembleConsensusUda()
        by_row.init()
        by_batch.init()
        for row in rows:
            by_row.accumulate(*row)
        by_batch.accumulate_batch(*map(list, zip(*rows)))
        expected, piece = by_row.terminate(), by_batch.terminate()
        assert piece.start == expected.start == 4
        assert piece.sequence == expected.sequence
        assert piece.qualities == expected.qualities


class TestReconstruction:
    def test_recovers_reference_from_clean_reads(self):
        """High-coverage error-free reads must reconstruct the genome."""
        rng = random.Random(42)
        genome = "".join(rng.choices("ACGT", k=400))
        alignments = []
        for _ in range(300):
            pos = rng.randrange(0, len(genome) - 30)
            alignments.append((pos, genome[pos : pos + 30], [35] * 30))
        alignments.sort()
        window = SlidingWindowConsensus("g", len(genome))
        apply_alignments(window, alignments)
        result = window.finish()
        matches = sum(
            1 for a, b in zip(result.sequence, genome) if a == b
        )
        assert matches / len(genome) > 0.97  # only coverage gaps miss
