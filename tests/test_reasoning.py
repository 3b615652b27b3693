from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcagent.backend import ImagePart, TextPart
from gcagent.errors import (
    InvariantViolation,
    MissingPerception,
    UnparseableAnswer,
)
from gcagent.memory import build_memory
from gcagent.perception import Query, perceive
from gcagent.reasoning import (
    ABLATION_ROWS,
    EvidenceConfig,
    act,
    assemble_evidence,
    parse_answer,
)
from gcagent.reference import ScriptedBackend, pick_best_option

from conftest import make_transcript

OPTIONS = (("A", "Walk away"), ("B", "Prepare to mix and taste"), ("C", "Call a friend"))


class TestEvidenceConfig:
    def test_all_none_rejected(self):
        with pytest.raises(InvariantViolation):
            EvidenceConfig(vision="none", text="none", memory="none")

    def test_unknown_choice_rejected(self):
        with pytest.raises(InvariantViolation):
            EvidenceConfig(vision="zoom", text="none", memory="schematic")

    def test_ablation_grid_has_ten_rows(self):
        assert len(ABLATION_ROWS) == 10
        assert ABLATION_ROWS["uniform_baseline"] == EvidenceConfig("uniform", "none", "none")
        final = ABLATION_ROWS["qr_segment_qr_transcript_memory_narrative"]
        assert final == EvidenceConfig("qr_segment", "qr_transcript", "schematic_plus_narrative")


def _fixture(reference):
    t = make_transcript(
        [
            (0.0, 2.0, "Alice greets Bob warmly"),
            (10.0, 12.0, "they throw food into a big bowl to mix"),
            (13.0, 15.0, "everyone takes a taste from the bowl"),
        ],
        duration=20.0,
    )
    memory = build_memory(t, reference)
    query = Query(text="why do they throw food in a big bowl", options=OPTIONS)
    perception = perceive(query, t, memory, reference)
    return t, memory, query, perception


class TestAssembleEvidence:
    def test_full_transcript_only(self, reference):
        t, memory, query, _ = _fixture(reference)
        request = assemble_evidence(
            EvidenceConfig(vision="none", text="full_transcript", memory="none"),
            query, t, memory,
        )
        texts = [p.text for p in request.user_parts if isinstance(p, TextPart)]
        assert any(s.startswith("<transcript>") for s in texts)
        assert not any("<memory>" in s for s in texts)
        assert not request.has_images()
        assert "<question>" in texts[-1]

    def test_full_composition_has_all_blocks_in_order(self, reference):
        t, memory, query, perception = _fixture(reference)
        request = assemble_evidence(
            EvidenceConfig("qr_segment", "qr_transcript", "schematic_plus_narrative"),
            query, t, memory, perception,
        )
        kinds = []
        for part in request.user_parts:
            if isinstance(part, ImagePart):
                kinds.append("frame")
            elif part.text.startswith("<memory>"):
                kinds.append("memory")
            elif part.text.startswith("<transcript>"):
                kinds.append("transcript")
            elif part.text.startswith("<frames>") or part.text.startswith("</frames>"):
                kinds.append("frames-marker")
            elif "<question>" in part.text:
                kinds.append("question")
        assert kinds[0] == "memory"
        assert kinds[1] == "transcript"
        assert kinds[2] == "frames-marker" and kinds[-2] == "frames-marker"
        assert "frame" in kinds
        assert kinds[-1] == "question"

    def test_schematic_memory_omits_narrative_fields(self, reference):
        t, memory, query, perception = _fixture(reference)
        schematic = assemble_evidence(
            EvidenceConfig("none", "none", "schematic"), query, t, memory
        )
        narrative = assemble_evidence(
            EvidenceConfig("none", "none", "schematic_plus_narrative"), query, t, memory
        )
        schematic_block = schematic.user_parts[0].text
        narrative_block = narrative.user_parts[0].text
        assert "introduction" not in schematic_block
        assert "precedes" not in schematic_block
        assert "introduction" in narrative_block

    def test_qr_without_perception_rejected(self, reference):
        t, memory, query, _ = _fixture(reference)
        with pytest.raises(MissingPerception):
            assemble_evidence(
                EvidenceConfig("none", "qr_transcript", "none"), query, t, memory, None
            )

    def test_frames_strictly_increasing(self, reference):
        t, memory, query, perception = _fixture(reference)
        request = assemble_evidence(
            EvidenceConfig("qr_segment", "none", "none"), query, t, memory, perception
        )
        stamps = [p.timestamp_s for p in request.user_parts if isinstance(p, ImagePart)]
        assert stamps == sorted(stamps)
        assert len(stamps) <= 32

    def test_uniform_vision_uses_video_duration(self, reference):
        t, memory, query, _ = _fixture(reference)
        request = assemble_evidence(
            EvidenceConfig("uniform", "none", "none"), query, t, memory, max_frames=4
        )
        stamps = [p.timestamp_s for p in request.user_parts if isinstance(p, ImagePart)]
        assert stamps == [2.5, 7.5, 12.5, 17.5]


class TestParseAnswer:
    def test_answer_keyword_with_parens(self):
        answer, evidence = parse_answer(
            "Answer: (C) Prepare to mix and taste. Evidence: the bowl scene.", OPTIONS
        )
        assert answer == "C"
        assert evidence == "the bowl scene."

    def test_the_answer_is(self):
        answer, _ = parse_answer("The answer is (B).", OPTIONS)
        assert answer == "B"

    def test_final_keyword_beats_first_paren(self):
        answer, _ = parse_answer("(A) and (B) both plausible, final: (B)", OPTIONS)
        assert answer == "B"

    def test_first_standalone_paren_without_keyword(self):
        answer, _ = parse_answer("Consider (B) against (C) carefully", OPTIONS)
        assert answer == "B"

    def test_bare_letter_response(self):
        assert parse_answer("B", OPTIONS)[0] == "B"
        assert parse_answer("(B)", OPTIONS)[0] == "B"
        assert parse_answer("B.", OPTIONS)[0] == "B"

    def test_option_text_substring(self):
        answer, _ = parse_answer("They clearly prepare to mix and taste.", OPTIONS)
        assert answer == "B"

    def test_no_option_named(self):
        with pytest.raises(UnparseableAnswer):
            parse_answer("none of these", OPTIONS)

    def test_invalid_letter_not_accepted(self):
        with pytest.raises(UnparseableAnswer):
            parse_answer("Answer: (Z)", OPTIONS)

    def test_evidence_defaults_to_full_response(self):
        _, evidence = parse_answer("The answer is (B).", OPTIONS)
        assert evidence == "The answer is (B)."


class TestAct:
    def test_reference_argmax_over_overlap(self, reference):
        t, memory, query, perception = _fixture(reference)
        request = assemble_evidence(
            EvidenceConfig("none", "qr_transcript", "schematic_plus_narrative"),
            query, t, memory, perception,
        )
        result = act(query, request, reference)
        assert result.answer_id == "B"
        assert result.evidence == "they throw food into a big bowl to mix"

    def test_unparseable_raises(self, reference):
        t, memory, query, perception = _fixture(reference)
        request = assemble_evidence(
            EvidenceConfig("none", "full_transcript", "none"), query, t, memory
        )
        backend = ScriptedBackend(["I cannot decide between these."])
        with pytest.raises(UnparseableAnswer):
            act(query, request, backend)

    def test_closed_world_answers(self, reference):
        t, memory, query, perception = _fixture(reference)
        request = assemble_evidence(
            EvidenceConfig("none", "full_transcript", "none"), query, t, memory
        )
        backend = ScriptedBackend(["Answer: (B)\nEvidence: fine."])
        result = act(query, request, backend)
        assert result.answer_id in query.labels


class TestPickBestOption:
    def test_tie_goes_to_lowest_label(self):
        assert pick_best_option({"A": 1.0, "B": 1.0, "C": 0.0}) == "A"

    @given(
        st.dictionaries(
            st.sampled_from(["A", "B", "C", "D"]),
            st.integers(min_value=0, max_value=50).map(float),
            min_size=2,
        ),
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    )
    def test_argmax_invariant_under_positive_scaling(self, scores, factor):
        scaled = {k: v * factor for k, v in scores.items()}
        assert pick_best_option(scores) == pick_best_option(scaled)
