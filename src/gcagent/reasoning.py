"""Evidence assembly and answer extraction for the reasoning stage.

An :class:`EvidenceConfig` names which blocks the reasoner sees: frames
(uniformly sampled or query-related clip), transcript text (full or the
retrieved excerpt), and memory (schematic form or with the narrative
layer). ``assemble_evidence`` builds the request in a fixed block order,
``act`` runs it, and ``parse_answer`` extracts the predicted option and
supporting evidence from free-form responses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .backend import (
    Backend,
    ChatRequest,
    ImagePart,
    PromptTemplate,
    TextPart,
    complete_text,
    render_template,
)
from .errors import (
    FrameBudgetExceeded,
    InvariantViolation,
    MissingDuration,
    MissingPerception,
    UnparseableAnswer,
)
from .memory import Context, EpisodicMemory, memory_text
from .perception import DEFAULT_MAX_FRAMES, PerceptionResult, uniform_clip
from .prompts import (
    SYSTEM_REASONER,
    close_marker,
    format_options,
    lookup_template,
    open_marker,
    transcript_block,
    wrap_block,
)
from .transcript import Transcript

VISION_CHOICES = ("none", "uniform", "qr_segment")
TEXT_CHOICES = ("none", "full_transcript", "qr_transcript")
MEMORY_CHOICES = ("none", "schematic", "schematic_plus_narrative")


@dataclass(frozen=True)
class EvidenceConfig:
    vision: str = "qr_segment"
    text: str = "qr_transcript"
    memory: str = "schematic_plus_narrative"

    def __post_init__(self):
        if self.vision not in VISION_CHOICES:
            raise InvariantViolation(f"vision must be one of {VISION_CHOICES}")
        if self.text not in TEXT_CHOICES:
            raise InvariantViolation(f"text must be one of {TEXT_CHOICES}")
        if self.memory not in MEMORY_CHOICES:
            raise InvariantViolation(f"memory must be one of {MEMORY_CHOICES}")
        if (self.vision, self.text, self.memory) == ("none", "none", "none"):
            raise InvariantViolation("at least one evidence source is required")

    def needs_perception(self) -> bool:
        return self.vision == "qr_segment" or self.text == "qr_transcript"

    def to_dict(self) -> dict:
        return {"vision": self.vision, "text": self.text, "memory": self.memory}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "EvidenceConfig":
        return cls(
            vision=doc.get("vision", "none"),
            text=doc.get("text", "none"),
            memory=doc.get("memory", "none"),
        )


# The ablation grid: named input compositions for the reasoning stage, from
# the uniform-sampling baseline up to the full composition with narrative
# structure.
ABLATION_ROWS: dict[str, EvidenceConfig] = {
    "uniform_baseline": EvidenceConfig(vision="uniform", text="none", memory="none"),
    "qr_segment": EvidenceConfig(vision="qr_segment", text="none", memory="none"),
    "full_transcript": EvidenceConfig(vision="none", text="full_transcript", memory="none"),
    "qr_transcript": EvidenceConfig(vision="none", text="qr_transcript", memory="none"),
    "full_transcript_memory": EvidenceConfig(
        vision="none", text="full_transcript", memory="schematic"
    ),
    "qr_transcript_memory": EvidenceConfig(
        vision="none", text="qr_transcript", memory="schematic"
    ),
    "qr_segment_qr_transcript": EvidenceConfig(
        vision="qr_segment", text="qr_transcript", memory="none"
    ),
    "qr_segment_memory": EvidenceConfig(vision="qr_segment", text="none", memory="schematic"),
    "qr_segment_qr_transcript_memory": EvidenceConfig(
        vision="qr_segment", text="qr_transcript", memory="schematic"
    ),
    "qr_segment_qr_transcript_memory_narrative": EvidenceConfig(
        vision="qr_segment", text="qr_transcript", memory="schematic_plus_narrative"
    ),
}


@dataclass(frozen=True)
class ActionResult:
    answer_id: str
    evidence: str
    raw_response: str
    config: EvidenceConfig

    def __post_init__(self):
        if not self.evidence.strip():
            raise InvariantViolation("evidence must be non-empty")


def assemble_evidence(
    config: EvidenceConfig,
    query,
    transcript: Transcript,
    memory: EpisodicMemory,
    perception: PerceptionResult | None = None,
    max_frames: int = DEFAULT_MAX_FRAMES,
    templates: Mapping[str, PromptTemplate] | None = None,
    context: Context | None = None,
) -> ChatRequest:
    """Build the reasoning request. Block order is fixed: memory, then
    transcript, then frames, then the question. The memory block holds the
    episodes of `context`, the context the session retrieved for this
    query; without one, the whole memory. The full-transcript block is
    always the whole transcript."""
    if config.needs_perception() and perception is None:
        raise MissingPerception(f"config {config.to_dict()} requires perception output")
    parts: list = []
    if config.memory != "none":
        narrative = config.memory == "schematic_plus_narrative"
        if context is None:
            block = wrap_block("memory", memory_text(memory, include_narrative=narrative))
        else:
            block = context.memory_block if narrative else context.schematic_block()
        parts.append(TextPart(block))
    if config.text == "full_transcript":
        parts.append(TextPart(transcript.block))
    elif config.text == "qr_transcript":
        parts.append(TextPart(transcript_block(perception.selected_lines)))
    if config.vision != "none":
        if config.vision == "uniform":
            duration = transcript.duration_s
            if duration <= 0:
                raise MissingDuration("uniform sampling needs a positive video duration")
            clip = uniform_clip(duration, max_frames)
        else:
            clip = perception.clip
        if len(clip.frame_timestamps_s) > max_frames:
            raise FrameBudgetExceeded(
                f"{len(clip.frame_timestamps_s)} frames exceed budget {max_frames}"
            )
        parts.append(TextPart(open_marker("frames")))
        parts.extend(
            ImagePart(uri=f"frame://{ts:.3f}", timestamp_s=ts)
            for ts in clip.frame_timestamps_s
        )
        parts.append(TextPart(close_marker("frames")))
    parts.append(
        TextPart(
            render_template(
                lookup_template(templates, "action"),
                {
                    "query": " ".join(query.text.split()),
                    "options": format_options(query.options),
                },
            )
        )
    )
    return ChatRequest(
        system=SYSTEM_REASONER,
        user_parts=tuple(parts),
        context={"stage": "action", "evidence_config": config.to_dict()},
    )


def act(query, evidence_request: ChatRequest, backend: Backend) -> ActionResult:
    """Run the reasoning request and extract (answer, evidence)."""
    raw = complete_text(backend, evidence_request)
    answer_id, evidence = parse_answer(raw, query.options)
    config_doc = evidence_request.context.get("evidence_config")
    config = EvidenceConfig.from_dict(config_doc) if config_doc else EvidenceConfig()
    return ActionResult(
        answer_id=answer_id,
        evidence=evidence if evidence.strip() else raw,
        raw_response=raw,
        config=config,
    )


# pass 1: a letter announced by an answer/final keyword
_KEYWORD_LETTER = re.compile(
    r"\b(?i:answer|final)\b(?:\s*(?i:is|:|=|-))*\s*\(?([A-Z])\)?(?![A-Za-z])"
)
# pass 2: first standalone parenthesized letter
_PAREN_LETTER = re.compile(r"\(([A-Z])\)")
_EVIDENCE_MARKER = re.compile(r"\bevidence\s*:\s*", re.IGNORECASE)


def parse_answer(text: str, options) -> tuple[str, str]:
    """Extract the predicted option label and evidence from a response.

    Parse passes, in order: bare label (the whole response is one option
    letter), keyword-announced letter ("Answer: (C)", "final: B"), first
    standalone "(X)", exact option-text substring. A letter only counts when
    it is a real option label; otherwise UnparseableAnswer is raised.
    """
    labels = {label for label, _ in options}
    if not labels:
        raise InvariantViolation("options must be non-empty")
    evidence = text
    m = _EVIDENCE_MARKER.search(text)
    if m:
        evidence = text[m.end() :].strip() or text
    stripped = text.strip().rstrip(".)")
    if stripped.lstrip("(") in labels:
        return stripped.lstrip("("), evidence
    keyword_hits = [m.group(1) for m in _KEYWORD_LETTER.finditer(text) if m.group(1) in labels]
    if keyword_hits:
        return keyword_hits[-1], evidence
    for m in _PAREN_LETTER.finditer(text):
        if m.group(1) in labels:
            return m.group(1), evidence
    lowered = text.lower()
    substring_hits = [
        (len(opt_text), label)
        for label, opt_text in options
        if opt_text and opt_text.lower() in lowered
    ]
    if substring_hits:
        # most specific option text wins; earlier label on ties
        substring_hits.sort(key=lambda item: (-item[0], item[1]))
        return substring_hits[0][1], evidence
    raise UnparseableAnswer("response names no valid option")
