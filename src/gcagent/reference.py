"""Deterministic reference backend.

Stands in for both agents during offline runs and tests. Instead of
generating text, it applies small hand-traceable rules per pipeline stage,
reading the same prompts a live model would receive:

- segmentation: new unit when the silence gap between consecutive lines
  reaches ``gap_threshold_s``; units never exceed ``max_lines`` lines.
- abstraction: summary is "Event N:" plus the unit text truncated to the
  token budget; entities are capitalized non-function-word tokens in order
  of first occurrence.
- narrative: first unit is the introduction and the last the resolution;
  middles are conflict when their summary contains a conflict-lexicon token,
  else development. Every unit k>0 precedes-links to k-1, and unit k gains a
  refers_back link to each earlier unit j <= k-2 whose summary shares at
  least ``refers_back_overlap`` distinct content tokens with its own
  (an overlap of 1 or less means any shared token), targets ascending.
- perception: per-line score is the content-token overlap with the query
  plus options; the top_k scoring lines win, earlier lines on ties.
- action: picks the option with the greatest content-token overlap against
  the provided transcript excerpt and memory summaries (lowest label on
  ties); evidence is the best-scoring transcript line verbatim.
- reflection: summary is "(label) evidence" truncated to the token budget.

Every response is a pure function of the request, so identical requests
produce byte-identical responses.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Sequence

from .backend import BackendProfile, ChatRequest, ChatResponse
from .errors import CapabilityMismatch
from .memory import CONFLICT_LEXICON, reference_note_summary
from .prompts import (
    extract_block,
    parse_episode_lines,
    parse_question_block,
    parse_transcript_block,
)
from .text import capitalized_entities, content_tokens, raw_tokens, truncate_tokens


def pick_best_option(scores: Mapping[str, float]) -> str:
    """Highest score wins; ties go to the lowest label."""
    return min(scores, key=lambda label: (-scores[label], label))


def _has_conflict_token(summary: str) -> bool:
    low = summary.lower()
    if not any(word in low for word in CONFLICT_LEXICON):
        return False  # cheap substring screen before exact token matching
    return bool(CONFLICT_LEXICON & set(raw_tokens(summary)))


class ReferenceBackend:
    """Pure-rule backend. Multimodal by default so frame parts are accepted
    (and ignored); pass multimodal=False to model a text-only endpoint."""

    def __init__(self, multimodal: bool = True, name: str = "reference"):
        self.profile = BackendProfile(name=name, multimodal=multimodal, deterministic=True)

    # -- dispatch ---------------------------------------------------------

    def complete(self, request: ChatRequest) -> ChatResponse:
        if request.has_images() and not self.profile.multimodal:
            raise CapabilityMismatch("text-only reference backend received image parts")
        stage = request.context.get("stage")
        payload = request.text_payload()
        handlers = {
            "memory_segmentation": self._segment,
            "memory_abstraction": self._abstract,
            "memory_narrative": self._narrate,
            "perception": self._perceive,
            "action": self._act,
            "reflection": self._reflect,
        }
        handler = handlers.get(stage)
        if handler is None:
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
            text = f"reference:{digest}"
        else:
            text = handler(request, payload)
        return ChatResponse(
            text=text,
            prompt_tokens=len(payload.split()),
            completion_tokens=len(text.split()),
        )

    # -- stage rules --------------------------------------------------------

    def _segment(self, request: ChatRequest, payload: str) -> str:
        gap = float(request.context.get("gap_threshold_s", 5.0))
        max_lines = int(request.context.get("max_lines", 20))
        rows = parse_transcript_block(extract_block(payload, "transcript") or "")
        units: list[list[int]] = []
        prev_end: float | None = None
        length = 0
        for idx, start, end, _ in rows:
            boundary = prev_end is not None and (start - prev_end >= gap or length >= max_lines)
            if prev_end is None or boundary:
                units.append([idx, idx])
                length = 1
            else:
                units[-1][1] = idx
                length += 1
            prev_end = end
        return json.dumps({"units": units})

    def _abstract(self, request: ChatRequest, payload: str) -> str:
        ordinal = int(request.context.get("ordinal", 1))
        budget = int(request.context.get("summary_budget", 30))
        rows = parse_transcript_block(extract_block(payload, "transcript") or "")
        unit_text = " ".join(text for _, _, _, text in rows)
        summary = f"Event {ordinal}: {truncate_tokens(unit_text, budget)}".strip()
        return json.dumps(
            {"summary": summary, "entities": capitalized_entities(unit_text)},
            ensure_ascii=False,
        )

    def _narrate(self, request: ChatRequest, payload: str) -> str:
        levels_needed = max(int(request.context.get("refers_back_overlap", 3)), 1)
        episodes = parse_episode_lines(extract_block(payload, "memory") or "")
        n = len(episodes)
        # bit j of bits[token] is set when episode position j has that token;
        # level[i] collects the positions sharing more than i tokens with k, so
        # the top level holds those sharing at least levels_needed
        bits: dict[str, int] = {}
        fold = range(levels_needed - 1, 0, -1)
        out = []
        for k, ep in enumerate(episodes):
            if k == 0:
                role = "introduction"
            elif k == n - 1:
                role = "resolution"
            elif _has_conflict_token(ep["summary"]):
                role = "conflict"
            else:
                role = "development"
            links = []
            if k > 0:
                links.append({"target_id": episodes[k - 1]["id"], "relation": "precedes"})
            mark = 1 << k
            level = [0] * levels_needed
            for token in set(content_tokens(ep["summary"])):
                b = bits.get(token, 0)
                bits[token] = b | mark
                if b:
                    for i in fold:
                        level[i] |= level[i - 1] & b
                    level[0] |= b
            hit = level[-1] & ((1 << max(k - 1, 0)) - 1)  # non-adjacent: j <= k-2
            while hit:
                low = hit & -hit
                links.append(
                    {"target_id": episodes[low.bit_length() - 1]["id"], "relation": "refers_back"}
                )
                hit ^= low
            out.append({"id": ep["id"], "narrative_role": role, "causal_links": links})
        return json.dumps({"episodes": out})

    def _perceive(self, request: ChatRequest, payload: str) -> str:
        top_k = int(request.context.get("top_k", 5))
        query, options = parse_question_block(extract_block(payload, "question") or "")
        needle = set(content_tokens(query))
        for _, option_text in options:
            needle.update(content_tokens(option_text))
        rows = parse_transcript_block(extract_block(payload, "transcript") or "")
        scored = []
        for idx, _, _, text in rows:
            score = len(needle & set(content_tokens(text)))
            if score > 0:
                scored.append((-score, idx))
        scored.sort()
        hits = sorted(idx for _, idx in scored[:top_k])
        return json.dumps({"line_indices": hits})

    def _act(self, request: ChatRequest, payload: str) -> str:
        query, options = parse_question_block(extract_block(payload, "question") or "")
        rows = parse_transcript_block(extract_block(payload, "transcript") or "")
        summaries = [
            ep["summary"] for ep in parse_episode_lines(extract_block(payload, "memory") or "")
        ]
        pool: set[str] = set()
        for _, _, _, text in rows:
            pool.update(content_tokens(text))
        for summary in summaries:
            pool.update(content_tokens(summary))
        scores = {
            label: float(len(pool & set(content_tokens(option_text))))
            for label, option_text in options
        }
        if not scores:
            return "Answer: (?)"
        best = pick_best_option(scores)
        needle = set(content_tokens(query))
        for _, option_text in options:
            needle.update(content_tokens(option_text))
        evidence = ""
        if rows:
            line_scores = [
                (-len(needle & set(content_tokens(text))), idx, text)
                for idx, _, _, text in rows
            ]
            line_scores.sort(key=lambda item: (item[0], item[1]))
            evidence = line_scores[0][2]
        elif summaries:
            summary_scores = [
                (-len(needle & set(content_tokens(summary))), i, summary)
                for i, summary in enumerate(summaries)
            ]
            summary_scores.sort(key=lambda item: (item[0], item[1]))
            evidence = summary_scores[0][2]
        if not evidence:
            evidence = "No textual evidence available."
        return f"Answer: ({best})\nEvidence: {evidence}"

    def _reflect(self, request: ChatRequest, payload: str) -> str:
        answer_id = str(request.context.get("answer_id", "?"))
        budget = int(request.context.get("summary_budget", 30))
        evidence = extract_block(payload, "evidence") or ""
        summary = reference_note_summary(answer_id, " ".join(evidence.split()), budget)
        return json.dumps({"summary": summary}, ensure_ascii=False)


class ScriptedBackend:
    """Returns canned responses in order; repeats the last one. Useful for
    fault injection in tests."""

    def __init__(self, responses: Sequence[str], multimodal: bool = True):
        self._responses = list(responses)
        self._cursor = 0
        self.profile = BackendProfile(name="scripted", multimodal=multimodal, deterministic=True)

    def complete(self, request: ChatRequest) -> ChatResponse:
        text = self._responses[min(self._cursor, len(self._responses) - 1)]
        self._cursor += 1
        return ChatResponse(text=text)
