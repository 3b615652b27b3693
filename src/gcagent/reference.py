"""Deterministic reference backend.

Stands in for both agents during offline runs and tests. Instead of
generating text, it applies small hand-traceable rules per pipeline stage,
reading the same prompts a live model would receive:

- segmentation: new unit when the silence gap between consecutive lines
  reaches ``gap_threshold_s``; units never exceed ``max_lines`` lines.
- abstraction: one request lists a batch of units in a ``<units>`` block
  (``N: first-last``) over one ``<transcript>`` block. For each listed unit,
  in listing order, the unit text is the text of the transcript rows whose
  index lies in first..last, joined by spaces; its summary is that text
  truncated to the token budget (the ordinal is not repeated in it), and its
  entities are the capitalized non-function-word tokens in order of first
  occurrence. The response is ``{"units": [{"summary", "entities"}, ...]}``.
- narrative: first unit is the introduction and the last the resolution;
  middles are conflict when their summary contains a conflict-lexicon token,
  else development. Every unit k>0 precedes-links to k-1. Overlap counts the
  distinct content tokens two summaries share. Unit k gains a refers_back
  link to earlier units j <= k-2 whose summary shares at least
  ``refers_back_overlap`` tokens with its own (an overlap of 1 or less means
  any shared token), at most ``REFERS_BACK_LIMIT`` (8) of them: those with
  the greatest overlap, ties to the lowest position, targets ascending. The
  narrative response thus grows linearly with the number of units.
- perception: per-line score is the number of distinct content tokens the
  line shares with the query plus options; the top_k lines scoring above 0
  win, lower line indices on ties.
- action: picks the option with the greatest content-token overlap against
  the provided transcript excerpt and memory summaries (lowest label on
  ties). The evidence, scored the same way as perception scores lines, is
  the best transcript line verbatim (lowest line index, then earliest line,
  on ties); with no transcript lines, the best memory summary (earliest on
  ties, the first one when none shares a token); else, or when that line
  or summary is empty, "No textual evidence available."
- reflection: summary is "(label) evidence" truncated to the token budget.

Every response is a pure function of the request, so identical requests
produce byte-identical responses. The backend keeps no state between
requests: each rule reads the blocks of the request it is handling.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Iterable, Mapping, Sequence

from .backend import BackendProfile, ChatRequest, ChatResponse
from .errors import CapabilityMismatch
from .memory import CONFLICT_LEXICON, reference_note_summary
from .prompts import (
    extract_block,
    parse_episode_lines,
    parse_question_block,
    parse_transcript_block,
    parse_units_block,
)
from .text import (
    capitalized_entities,
    content_tokens,
    needle,
    raw_tokens,
    truncate_tokens,
)


REFERS_BACK_LIMIT = 8  # refers_back links per episode, at most

_json_str = json.encoder.encode_basestring  # a string as json.dumps(ensure_ascii=False) writes it
_CONFLICT_SCREEN = re.compile("|".join(map(re.escape, sorted(CONFLICT_LEXICON))))


def pick_best_option(scores: Mapping[str, float]) -> str:
    """Highest score wins; ties go to the lowest label."""
    return min(scores, key=lambda label: (-scores[label], label))


def _best(wanted: set[str], token_sets: Sequence[set[str]], keys: Sequence[int]) -> int:
    """The position whose token set shares the most of `wanted`; ties, and
    the case where none shares any, go to the lowest key, then the lowest
    position. `token_sets` is not empty."""
    return min(
        range(len(token_sets)),
        key=lambda pos: (-len(wanted & token_sets[pos]), keys[pos], pos),
    )


def _strongest(hit: int, bitsets: Iterable[int], limit: int) -> int:
    """The `limit` positions of bitset `hit`, which holds more than `limit`,
    that are set in the most of `bitsets`, ties to the lowest position."""
    # bit-sliced counters: bit p of planes[i] is bit i of position p's count
    planes: list[int] = []
    for bitset in bitsets:
        carry, i = bitset & hit, 0
        while carry:
            if i == len(planes):
                planes.append(carry)
                break
            planes[i], carry = planes[i] ^ carry, planes[i] & carry
            i += 1
    # radix select from the highest count bit down; `hit` keeps the positions
    # whose count is still tied with the ones yet to pick, always >= need
    kept, need = 0, limit
    for plane in reversed(planes):
        ones = hit & plane
        count = ones.bit_count()
        if count >= need:
            hit = ones
        else:
            kept |= ones
            need -= count
            hit ^= ones
    for _ in range(need):
        low = hit & -hit
        kept |= low
        hit ^= low
    return kept


def _has_conflict_token(summary: str) -> bool:
    if not _CONFLICT_SCREEN.search(summary.lower()):
        return False  # cheap substring screen before exact token matching
    return bool(CONFLICT_LEXICON & set(raw_tokens(summary)))


class ReferenceBackend:
    """Pure-rule backend. Multimodal by default so frame parts are accepted
    (and ignored); pass multimodal=False to model a text-only endpoint."""

    def __init__(self, multimodal: bool = True, name: str = "reference"):
        self.profile = BackendProfile(name=name, multimodal=multimodal, deterministic=True)

    # -- dispatch ---------------------------------------------------------

    def complete(self, request: ChatRequest) -> ChatResponse:
        """The stage rule's response. Its usage, `prompt_tokens` and
        `completion_tokens`, is 0 (not reported), as from an HTTP endpoint
        that sends no usage."""
        if request.has_images() and not self.profile.multimodal:
            raise CapabilityMismatch("text-only reference backend received image parts")
        payload = request.text_payload()
        handler = self._HANDLERS.get(request.context.get("stage"))
        if handler is None:
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
            text = f"reference:{digest}"
        else:
            text = handler(self, request, payload)
        return ChatResponse(text=text)

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
        budget = int(request.context.get("summary_budget", 30))
        rows = parse_transcript_block(extract_block(payload, "transcript") or "")
        texts = {idx: text for idx, _, _, text in rows}
        top = max(texts, default=0)
        out = []  # written as json.dumps writes {"units": [...]}
        for _, first, last in parse_units_block(extract_block(payload, "units") or ""):
            unit_text = " ".join(
                texts[idx] for idx in range(first, min(last, top) + 1) if idx in texts
            )
            summary = truncate_tokens(unit_text, budget)
            entities = ", ".join(map(_json_str, capitalized_entities(unit_text)))
            out.append(f'{{"summary": {_json_str(summary)}, "entities": [{entities}]}}')
        return '{"units": [' + ", ".join(out) + "]}"

    def _narrate(self, request: ChatRequest, payload: str) -> str:
        levels_needed = max(int(request.context.get("refers_back_overlap", 3)), 1)
        episodes = parse_episode_lines(extract_block(payload, "memory") or "")
        ids = [ep["id"] for ep in episodes]
        n = len(episodes)
        # bit j of bits[token] is set when episode position j has that token;
        # level[i] collects the positions sharing more than i tokens with k, so
        # the top level holds those sharing at least levels_needed
        bits: dict[str, int] = {}
        fold = range(levels_needed - 1, 0, -1)
        out = []  # written as json.dumps writes {"episodes": [...]}
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
                links.append(f'{{"target_id": {ids[k - 1]}, "relation": "precedes"}}')
            mark = 1 << k
            tokens = set(content_tokens(ep["summary"]))
            shared = tokens & bits.keys()
            bits.update(dict.fromkeys(tokens - shared, mark))  # first seen: no fold
            if len(shared) < levels_needed:  # too few for any refers_back link
                for token in shared:
                    bits[token] |= mark
            else:
                level = [0] * levels_needed
                for token in shared:
                    b = bits[token]
                    bits[token] = b | mark
                    for i in fold:
                        level[i] |= level[i - 1] & b
                    level[0] |= b
                hit = level[-1] & ((1 << max(k - 1, 0)) - 1)  # non-adjacent: j <= k-2
                if hit.bit_count() > REFERS_BACK_LIMIT:
                    # bits[token] has gained bit k, which `hit` never holds
                    hit = _strongest(hit, [bits[token] for token in shared], REFERS_BACK_LIMIT)
                while hit:
                    low = hit & -hit
                    links.append(
                        f'{{"target_id": {ids[low.bit_length() - 1]}, "relation": "refers_back"}}'
                    )
                    hit ^= low
            links_json = ", ".join(links)
            out.append(
                f'{{"id": {ids[k]}, "narrative_role": "{role}", "causal_links": [{links_json}]}}'
            )
        return '{"episodes": [' + ", ".join(out) + "]}"

    def _perceive(self, request: ChatRequest, payload: str) -> str:
        top_k = int(request.context.get("top_k", 5))
        wanted = needle(*parse_question_block(extract_block(payload, "question") or ""))
        scored = []
        for idx, _, _, text in parse_transcript_block(extract_block(payload, "transcript") or ""):
            score = len(wanted.intersection(content_tokens(text)))
            if score:
                scored.append((-score, idx))
        hits = sorted(idx for _, idx in sorted(scored)[:top_k])
        return json.dumps({"line_indices": hits})

    def _act(self, request: ChatRequest, payload: str) -> str:
        query, options = parse_question_block(extract_block(payload, "question") or "")
        if not options:
            return "Answer: (?)"
        rows = parse_transcript_block(extract_block(payload, "transcript") or "")
        block = extract_block(payload, "memory") or ""
        row_tokens = [set(content_tokens(text)) for _, _, _, text in rows]
        option_tokens = [set(content_tokens(option_text)) for _, option_text in options]
        seen = set().union(*row_tokens)
        if rows:
            # The summaries only add the option tokens the rows lack, so only
            # the lines that can hold one are read. The screen is exact:
            # `content_tokens` lowers before it splits, so each token of a
            # summary is a substring of the summary's lowercase, and that of
            # its line's and the block's. `str.lower` maps only Σ by context
            # (final sigma), so a line holding Σ is always read, and a token
            # holding σ or ς is kept when the block holds Σ.
            low = block.lower()
            sigma = "Σ" in block
            missing = [
                tok
                for tok in set().union(*option_tokens) - seen
                if tok in low or (sigma and ("σ" in tok or "ς" in tok))
            ]
            block = "\n".join(
                line
                for line, line_low in zip(block.split("\n"), low.split("\n"))
                if "Σ" in line or any(tok in line_low for tok in missing)
            )
        summaries = [ep["summary"] for ep in parse_episode_lines(block)]
        summary_tokens = [set(content_tokens(summary)) for summary in summaries]
        seen.update(*summary_tokens)
        scores = {
            label: float(len(seen & tokens))
            for (label, _), tokens in zip(options, option_tokens)
        }
        best = pick_best_option(scores)
        wanted = needle(query, options)
        evidence = ""
        if rows:
            evidence = rows[_best(wanted, row_tokens, [idx for idx, _, _, _ in rows])][3]
        elif summaries:
            evidence = summaries[_best(wanted, summary_tokens, range(len(summaries)))]
        return f"Answer: ({best})\nEvidence: {evidence or 'No textual evidence available.'}"

    def _reflect(self, request: ChatRequest, payload: str) -> str:
        answer_id = str(request.context.get("answer_id", "?"))
        budget = int(request.context.get("summary_budget", 30))
        evidence = extract_block(payload, "evidence") or ""
        summary = reference_note_summary(answer_id, " ".join(evidence.split()), budget)
        return f'{{"summary": {_json_str(summary)}}}'

    _HANDLERS = {
        "memory_segmentation": _segment,
        "memory_abstraction": _abstract,
        "memory_narrative": _narrate,
        "perception": _perceive,
        "action": _act,
        "reflection": _reflect,
    }
