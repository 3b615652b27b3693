from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gcagent.backend import ChatRequest, TextPart
from gcagent.memory import CONFLICT_LEXICON
from gcagent.prompts import (
    format_episode_line,
    format_speech_line,
    parse_transcript_block,
    wrap_block,
)
from gcagent.reference import ReferenceBackend
from gcagent.text import (
    STOPWORDS,
    capitalized_entities,
    content_tokens,
    raw_tokens,
    strip_edges,
    truncate_tokens,
)
from gcagent.transcript import SpeechLine

# dense on purpose: stopwords, conflict words, punctuation and case variants,
# so summaries share tokens often and some share only their ordinal
WORDS = (
    "the", "a", "of", "but", "However,", "problem", "wrong.", "fail",
    "crimson", "Crimson!", "pigment", "palette", "event", "Event", "river", "stone",
)
MALFORMED = (
    "garbage line outside the listing format",
    "「x | 0.00-1.00 | Event 9: crimson pigment」",
    "「3 | 0.00-1.00」",
    "「4 | a-b | Event 9: crimson pigment」",
)


def _oracle(entries, overlap):
    """Brute force over every pair: j links back to k when j <= k-2 and the
    summaries share at least max(overlap, 1) distinct content tokens."""
    kept = [(eid, summary) for kind, eid, summary in entries if kind == "ok"]
    token_sets = [set(content_tokens(summary)) for _, summary in kept]
    out = []
    for k, (eid, summary) in enumerate(kept):
        if k == 0:
            role = "introduction"
        elif k == len(kept) - 1:
            role = "resolution"
        elif CONFLICT_LEXICON & set(raw_tokens(summary)):
            role = "conflict"
        else:
            role = "development"
        links = [{"target_id": kept[k - 1][0], "relation": "precedes"}] if k else []
        links += [
            {"target_id": kept[j][0], "relation": "refers_back"}
            for j in range(k - 1)
            if len(token_sets[j] & token_sets[k]) >= max(overlap, 1)
        ]
        out.append({"id": eid, "narrative_role": role, "causal_links": links})
    return {"episodes": out}


@st.composite
def listings(draw):
    entries = []
    for pos in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 9)) == 0:
            entries.append(("bad", None, draw(st.sampled_from(MALFORMED))))
            continue
        words = draw(st.lists(st.sampled_from(WORDS), max_size=8))
        eid = pos + draw(st.integers(0, 3))  # ids need not equal list positions
        ordinal = draw(st.integers(1, 4))  # repeated ordinals share a token
        entries.append(("ok", eid, " ".join([f"Event {ordinal}:", *words])))
    return entries


def _narrate_text(entries, overlap):
    lines = [
        format_episode_line(eid, 0.0, 1.0, summary) if kind == "ok" else summary
        for kind, eid, summary in entries
    ]
    request = ChatRequest(
        system="s",
        user_parts=(TextPart(wrap_block("memory", "\n".join(lines))),),
        context={"stage": "memory_narrative", "refers_back_overlap": overlap},
    )
    return ReferenceBackend().complete(request).text


def _narrate(entries, overlap):
    return json.loads(_narrate_text(entries, overlap))


@settings(max_examples=300, deadline=None)
@given(entries=listings(), overlap=st.integers(0, 4))
def test_refers_back_matches_pairwise_oracle(entries, overlap):
    assert _narrate(entries, overlap) == _oracle(entries, overlap)


def test_ordinal_only_summaries_link_on_any_overlap():
    entries = [("ok", i, f"Event {i + 1}: the of a") for i in range(4)]
    out = _narrate(entries, 1)["episodes"]
    # "event" is each summary's one content token besides its ordinal
    assert [l["target_id"] for l in out[3]["causal_links"]] == [2, 0, 1]
    assert _narrate(entries, 2) == _oracle(entries, 2)
    assert all(len(ep["causal_links"]) <= 1 for ep in _narrate(entries, 2)["episodes"])


@settings(max_examples=100, deadline=None)
@given(entries=listings(), overlap=st.integers(0, 4))
def test_narrative_text_is_what_json_dumps_writes(entries, overlap):
    assert _narrate_text(entries, overlap) == json.dumps(_oracle(entries, overlap))


# one line of transcript text: any character but the line break and surrogates
LINE_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), min_size=1
).map(lambda t: f"Word {t}")


def _complete(stage, block, inner, **context):
    request = ChatRequest(
        system="s",
        user_parts=(TextPart(wrap_block(block, inner)),),
        context={"stage": stage, **context},
    )
    return ReferenceBackend().complete(request).text


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(LINE_TEXT, min_size=1, max_size=4), budget=st.integers(1, 12))
def test_abstraction_text_is_what_json_dumps_writes(texts, budget):
    lines = [
        SpeechLine(index=i + 1, start_s=float(i), end_s=i + 0.5, text=text)
        for i, text in enumerate(texts)
    ]
    inner = "\n".join(format_speech_line(line) for line in lines)
    text = _complete("memory_abstraction", "transcript", inner, ordinal=2, summary_budget=budget)
    unit_text = " ".join(row[3] for row in parse_transcript_block(inner))
    expected = {
        "summary": f"Event 2: {truncate_tokens(unit_text, budget)}".strip(),
        "entities": capitalized_entities(unit_text),
    }
    assert text == json.dumps(expected, ensure_ascii=False)


@settings(max_examples=100, deadline=None)
@given(evidence=LINE_TEXT)
def test_reflection_text_is_what_json_dumps_writes(evidence):
    text = _complete("reflection", "evidence", evidence, answer_id="B", summary_budget=6)
    summary = truncate_tokens(f"(B) {' '.join(evidence.split())}", 6)
    assert text == json.dumps({"summary": summary}, ensure_ascii=False)


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(
    list(" \t\n\x1c\x85\u3000.,:;!?\"'()“”‘’…¿¡-") + ["İ", "ß", "A", "b", "The", "AND", "w01"]
)).map("".join))
def test_tokenizers_trim_each_token_then_lower_it(text):
    trimmed = [strip_edges(raw).lower() for raw in text.split()]
    assert raw_tokens(text) == [tok for tok in trimmed if tok]
    assert content_tokens(text) == [tok for tok in trimmed if tok and tok not in STOPWORDS]
