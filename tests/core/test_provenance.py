"""PROV-style provenance tracking (future-work feature)."""

import pytest

from repro.core.provenance import ProvenanceTracker
from repro.engine import Database
from repro.engine.errors import BindError, ConstraintViolation


@pytest.fixture
def tracker():
    with Database() as db:
        yield ProvenanceTracker(db)


@pytest.fixture
def pipeline(tracker):
    """lane + reference -> align -> alignments -> consensus."""
    lane = tracker.new_entity("fastq-lane", "855_s_1.fastq")
    reference = tracker.new_entity("reference", "GRCh-synthetic v1")
    alignments = tracker.new_entity("alignment-set", "sample 1")
    tracker.record_activity(
        "maq-align",
        {"version": "0.7.1", "max_mismatches": 2},
        used=[lane, reference],
        generated=[alignments],
    )
    consensus = tracker.new_entity("consensus", "sample 1 consensus")
    tracker.record_activity(
        "consensus-call",
        {"method": "sliding"},
        used=[alignments],
        generated=[consensus],
    )
    return {
        "lane": lane,
        "reference": reference,
        "alignments": alignments,
        "consensus": consensus,
    }


class TestRecording:
    def test_entities_get_distinct_ids(self, tracker):
        a = tracker.new_entity("x", "one")
        b = tracker.new_entity("x", "two")
        assert a != b

    def test_edges_enforce_fk(self, tracker):
        with pytest.raises(ConstraintViolation):
            tracker.record_activity("bad", used=[9999])

    def test_tables_created_once(self, tracker):
        # constructing a second tracker on the same db must not fail
        ProvenanceTracker(tracker.db)


class TestLineage:
    def test_full_chain(self, tracker, pipeline):
        steps = tracker.lineage(pipeline["consensus"])
        kinds = [step.entity[1] for step in steps]
        assert kinds[0] == "consensus"
        assert set(kinds) == {
            "consensus",
            "alignment-set",
            "fastq-lane",
            "reference",
        }

    def test_activity_params_preserved(self, tracker, pipeline):
        steps = tracker.lineage(pipeline["consensus"])
        align_step = next(
            s for s in steps if s.entity[1] == "alignment-set"
        )
        assert "0.7.1" in align_step.activity[2]

    def test_derived_from(self, tracker, pipeline):
        def ancestry(ent_id):
            return {step.entity[0] for step in tracker.lineage(ent_id)}

        assert pipeline["lane"] in ancestry(pipeline["consensus"])
        assert pipeline["reference"] in ancestry(pipeline["consensus"])
        assert pipeline["consensus"] not in ancestry(pipeline["lane"])

    def test_source_entities_terminate_chain(self, tracker, pipeline):
        steps = tracker.lineage(pipeline["lane"])
        assert len(steps) == 1
        assert steps[0].activity is None

    def test_unknown_entity_rejected(self, tracker):
        with pytest.raises(BindError):
            tracker.lineage(424242)

    def test_render(self, tracker, pipeline):
        text = tracker.render_lineage(pipeline["consensus"])
        assert "consensus-call" in text
        assert "855_s_1.fastq" in text
        assert "(source data)" in text

    def test_diamond_lineage_visited_once(self, tracker):
        source = tracker.new_entity("src", "s")
        left = tracker.new_entity("mid", "l")
        right = tracker.new_entity("mid", "r")
        sink = tracker.new_entity("out", "o")
        tracker.record_activity("split-l", used=[source], generated=[left])
        tracker.record_activity("split-r", used=[source], generated=[right])
        tracker.record_activity(
            "merge", used=[left, right], generated=[sink]
        )
        steps = tracker.lineage(sink)
        ids = [step.entity[0] for step in steps]
        assert len(ids) == len(set(ids)) == 4
