from __future__ import annotations

import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import gcagent.reference as reference
from gcagent.backend import ChatRequest, TextPart
from gcagent.memory import CONFLICT_LEXICON
from gcagent.prompts import (
    format_episode_line,
    format_note_line,
    format_options,
    format_speech_line,
    parse_episode_lines,
    parse_question_block,
    parse_transcript_block,
    rendered_transcript_block,
    units_block,
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
# so summaries share tokens often and some share only stopwords
WORDS = (
    "the", "a", "of", "but", "However,", "problem", "wrong.", "fail",
    "crimson", "Crimson!", "pigment", "palette", "event", "Event", "river", "stone",
)
MALFORMED = (
    "garbage line outside the listing format",
    "「x | 0.00-1.00 | crimson pigment」",
    "「3 | 0.00-1.00」",
    "「4 | a-b | crimson pigment」",
)


def _candidates(entries, overlap):
    """Per kept episode k: {j: shared tokens} for every j <= k-2 whose
    summary shares at least max(overlap, 1) distinct content tokens with k's."""
    kept = [summary for kind, _, summary in entries if kind == "ok"]
    token_sets = [set(content_tokens(summary)) for summary in kept]
    out = []
    for k, tokens in enumerate(token_sets):
        shared = {j: len(token_sets[j] & tokens) for j in range(k - 1)}
        out.append({j: n for j, n in shared.items() if n >= max(overlap, 1)})
    return out


def _oracle(entries, overlap):
    """Brute force over every pair: k links back to the 8 candidates j that
    share the most summary tokens with it, ties to the lowest j, ascending."""
    kept = [(eid, summary) for kind, eid, summary in entries if kind == "ok"]
    out = []
    for k, ((eid, summary), shared) in enumerate(zip(kept, _candidates(entries, overlap))):
        if k == 0:
            role = "introduction"
        elif k == len(kept) - 1:
            role = "resolution"
        elif CONFLICT_LEXICON & set(raw_tokens(summary)):
            role = "conflict"
        else:
            role = "development"
        links = [{"target_id": kept[k - 1][0], "relation": "precedes"}] if k else []
        strongest = sorted(shared, key=lambda j: (-shared[j], j))[:8]
        links += [
            {"target_id": kept[j][0], "relation": "refers_back"} for j in sorted(strongest)
        ]
        out.append({"id": eid, "narrative_role": role, "causal_links": links})
    return {"episodes": out}


@st.composite
def listings(draw):
    entries = []
    for pos in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 9)) == 0:
            entries.append(("bad", None, draw(st.sampled_from(MALFORMED))))
            continue
        words = draw(st.lists(st.sampled_from(WORDS), max_size=8))
        eid = pos + draw(st.integers(0, 3))  # ids need not equal list positions
        entries.append(("ok", eid, " ".join(words)))
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
    if any(len(shared) > 8 for shared in _candidates(entries, overlap)):
        event("more than 8 refers_back candidates")
    assert _narrate(entries, overlap) == _oracle(entries, overlap)


def _refers_back(episode):
    return [l["target_id"] for l in episode["causal_links"] if l["relation"] == "refers_back"]


def test_strongest_eight_candidates_win_ties_to_the_lowest_position():
    # episode 11 shares 1 token with episodes 0-5, 2 with 6-8 and 3 with 9
    summaries = ["river"] * 6 + ["river stone"] * 3 + ["river stone pigment"] * 3
    summaries[10] = ""
    entries = [("ok", i, summary) for i, summary in enumerate(summaries)]
    assert len(_candidates(entries, 1)[11]) == 10
    out = _narrate(entries, 1)
    assert out == _oracle(entries, 1)
    assert _refers_back(out["episodes"][11]) == [0, 1, 2, 3, 6, 7, 8, 9]
    assert _refers_back(_narrate(entries, 2)["episodes"][11]) == [6, 7, 8, 9]


def test_refers_back_links_stay_bounded_when_every_body_shares_a_word():
    # at overlap 1 every episode j <= k-2 is a candidate of episode k: about
    # E²/2 links without the limit, 8 per episode with it
    texts = {}
    for n in (1000, 2000):
        entries = [("ok", i, "crimson") for i in range(n)]
        texts[n] = _narrate_text(entries, 1)
        episodes = json.loads(texts[n])["episodes"]
        assert [_refers_back(ep) for ep in episodes] == [
            list(range(min(k - 1, 8))) if k > 1 else [] for k in range(n)
        ]
    assert len(texts[2000]) < 2.05 * len(texts[1000])


@settings(max_examples=100, deadline=None)
@given(entries=listings(), overlap=st.integers(0, 4))
def test_narrative_text_is_what_json_dumps_writes(entries, overlap):
    assert _narrate_text(entries, overlap) == json.dumps(_oracle(entries, overlap))


# one line of transcript text: any character but the line break and surrogates
LINE_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), min_size=1
).map(lambda t: f"Word {t}")


def _respond(stage, block, inner, **context):
    request = ChatRequest(
        system="s",
        user_parts=(TextPart(wrap_block(block, inner)),),
        context={"stage": stage, **context},
    )
    return ReferenceBackend().complete(request)


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(LINE_TEXT, min_size=1, max_size=4),
    cut=st.integers(0, 4),
    budget=st.integers(1, 12),
)
def test_abstraction_text_is_what_json_dumps_writes(texts, cut, budget):
    lines = [
        SpeechLine(index=i + 1, start_s=float(i), end_s=i + 0.5, text=text)
        for i, text in enumerate(texts)
    ]
    n = len(lines)
    units = [(1, cut), (cut + 1, n)] if 0 < cut < n else [(1, n)]
    inner = "\n".join(format_speech_line(line) for line in lines)
    payload = units_block(units, 2) + "\n" + wrap_block("transcript", inner)
    request = ChatRequest(
        system="s",
        user_parts=(TextPart(payload),),
        context={"stage": "memory_abstraction", "summary_budget": budget},
    )
    text = ReferenceBackend().complete(request).text
    rows = parse_transcript_block(inner)
    expected = []
    for a, b in units:
        unit_text = " ".join(row[3] for row in rows if a <= row[0] <= b)
        expected.append({
            "summary": truncate_tokens(unit_text, budget),
            "entities": capitalized_entities(unit_text),
        })
    assert text == json.dumps({"units": expected}, ensure_ascii=False)


@settings(max_examples=100, deadline=None)
@given(evidence=LINE_TEXT)
def test_reflection_text_is_what_json_dumps_writes(evidence):
    response = _respond("reflection", "evidence", evidence, answer_id="B", summary_budget=6)
    summary = truncate_tokens(f"(B) {' '.join(evidence.split())}", 6)
    assert response.text == json.dumps({"summary": summary}, ensure_ascii=False)
    # like an endpoint that sends no usage
    assert (response.prompt_tokens, response.completion_tokens) == (0, 0)


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(
    list(" \t\n\x1c\x85\u3000.,:;!?\"'()“”‘’…¿¡-") + ["İ", "ß", "A", "b", "The", "AND", "w01"]
)).map("".join))
def test_tokenizers_trim_each_token_then_lower_it(text):
    trimmed = [strip_edges(raw).lower() for raw in text.split()]
    assert raw_tokens(text) == [tok for tok in trimmed if tok]
    assert content_tokens(text) == [tok for tok in trimmed if tok and tok not in STOPWORDS]


# --- perception and action against a per-row scan ----------------------------------

# few words, so lines repeat tokens, tie often and share tokens with options;
# "zebra" appears only in options, so some options overlap nothing. The rest
# test action's substring screen of the memory block: option words inside a
# longer text word ("stone" in "milestone", "quartz" in "quartzite", "ς" in
# "ΟΔΟΣ"), behind edge punctuation ("(stone)", "“quartz”"), lowered by
# context (final sigma: "ΟΔΟΣ" is "οδος"; "İstanbul" is "i̇stanbul", so
# "istanbul" is not in it)
TEXT_WORDS = (
    "the", "of", "crimson", "Crimson!", "pigment", "palette", "river", "stone.", "event",
    "milestone", "quartzite", "(stone)", "“quartz”", "ΟΔΟΣ", "İstanbul",
)
OPTION_WORDS = TEXT_WORDS + ("zebra", "quartz", "stone", "οδος", "ς", "istanbul")
MALFORMED_ROWS = (
    "[x] 0.00-1.00: crimson river",
    "crimson pigment without a timestamp",
    "[3] 1.00: river stone",
    "[4] 0.00-1.00 river without a colon",
)
ROLES = ("introduction", "development", "conflict", "resolution")

_text = st.lists(st.sampled_from(TEXT_WORDS), max_size=6).map(" ".join)


@st.composite
def transcript_rows(draw):
    """Lines of a transcript block: duplicate and out-of-order `[idx]`,
    empty texts and malformed lines included."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 7)) == 0:
            rows.append(draw(st.sampled_from(MALFORMED_ROWS)))
        else:
            idx = draw(st.integers(1, 8))
            rows.append(f"[{idx}] {idx:.2f}-{idx + 0.5:.2f}: {draw(_text)}")
    return rows


@st.composite
def episode_listings(draw):
    """Lines of a memory block: schematic (3-field) or narrative (5-field)
    episode lines, reflection notes and malformed lines."""
    narrative = draw(st.booleans())
    lines = []
    for eid in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(MALFORMED)))
            continue
        role = draw(st.sampled_from(ROLES)) if narrative else None
        links = [("precedes", eid - 1)] if narrative and eid else None
        lines.append(format_episode_line(eid, float(eid), eid + 1.0, draw(_text), role, links))
        if kind == 1:
            lines.append(format_note_line(2, "B", draw(_text)))
    return lines


@st.composite
def questions(draw):
    """(query, options): the query may hold only stopwords, so the needle
    can be empty."""
    words = st.lists(st.sampled_from(OPTION_WORDS), max_size=4).map(" ".join)
    query = draw(words)
    n = draw(st.integers(2, 4))
    options = [(chr(ord("A") + i), draw(words) or "zebra") for i in range(n)]
    return query, options


def _question_block(query, options):
    return wrap_block("question", f"Question: {query}\nOptions:\n{format_options(options)}")


def _request(stage, question, rows, listing, **context):
    query, options = question
    blocks = {
        "question": _question_block(query, options),
        "memory": wrap_block("memory", "\n".join(listing)),
        "transcript": rendered_transcript_block(rows),
    }
    order = ("question", "memory", "transcript")
    if stage == "action":
        order = ("memory", "transcript", "question")  # assemble_evidence's order
    return ChatRequest(
        system="s",
        user_parts=tuple(TextPart(blocks[name]) for name in order),
        context={"stage": stage, **context},
    )


def _needle_oracle(query, options):
    needle = set(content_tokens(query))
    for _, option_text in options:
        needle.update(content_tokens(option_text))
    return needle


def _perceive_oracle(question, rows, top_k):
    """Every row scored on its own."""
    needle = _needle_oracle(*question)
    scored = []
    for idx, _, _, text in parse_transcript_block(rendered_transcript_block(rows)):
        score = len(needle & set(content_tokens(text)))
        if score > 0:
            scored.append((-score, idx))
    scored.sort()
    return json.dumps({"line_indices": sorted(idx for _, idx in scored[:top_k])})


def _act_oracle(question, rows, listing):
    """Every row and summary scored on its own."""
    query, options = question
    parsed = parse_transcript_block(rendered_transcript_block(rows))
    summaries = [ep["summary"] for ep in parse_episode_lines("\n".join(listing))]
    pool = set()
    for _, _, _, text in parsed:
        pool.update(content_tokens(text))
    for summary in summaries:
        pool.update(content_tokens(summary))
    scores = {label: len(pool & set(content_tokens(text))) for label, text in options}
    best = min(scores, key=lambda label: (-scores[label], label))
    needle = _needle_oracle(query, options)
    evidence = ""
    if parsed:
        evidence = sorted(
            ((-len(needle & set(content_tokens(text))), idx, text) for idx, _, _, text in parsed),
            key=lambda item: (item[0], item[1]),
        )[0][2]
    elif summaries:
        evidence = sorted(
            ((-len(needle & set(content_tokens(s))), i, s) for i, s in enumerate(summaries)),
            key=lambda item: (item[0], item[1]),
        )[0][2]
    return f"Answer: ({best})\nEvidence: {evidence or 'No textual evidence available.'}"


SHARED = ReferenceBackend()  # reused across examples: no request may change a later response


@settings(max_examples=250, deadline=None)
@given(question=questions(), rows=transcript_rows(), listing=episode_listings(),
       top_k=st.integers(1, 4))
def test_perception_matches_per_row_scan(question, rows, listing, top_k):
    request = _request("perception", question, rows, listing, top_k=top_k)
    expected = _perceive_oracle(question, rows, top_k)
    assert ReferenceBackend().complete(request).text == expected
    assert SHARED.complete(request).text == expected


@settings(max_examples=250, deadline=None)
@given(question=questions(), rows=transcript_rows(), listing=episode_listings())
def test_action_matches_per_row_scan(question, rows, listing):
    request = _request("action", question, rows, listing)
    expected = _act_oracle(question, rows, listing)
    assert ReferenceBackend().complete(request).text == expected
    assert SHARED.complete(request).text == expected


@pytest.mark.parametrize(
    "summaries, option, evidence",
    [
        (["river stone", "crimson pigment", "crimson"], "crimson pigment", "crimson pigment"),
        (["crimson", "pigment", "crimson palette"], "crimson", "crimson"),  # tie: lowest position
        (["river stone", "palette"], "zebra", "river stone"),  # nothing overlaps: position 0
        (["", "river"], "zebra", "No textual evidence available."),  # empty first summary
        ([], "zebra", "No textual evidence available."),
    ],
)
@pytest.mark.parametrize("narrative", [False, True])
def test_action_without_rows_quotes_best_summary(summaries, option, evidence, narrative):
    listing = [
        format_episode_line(i, 0.0, 1.0, s, "development" if narrative else None)
        for i, s in enumerate(summaries)
    ]
    request = _request("action", ("", [("A", option), ("B", "quartz")]), [], listing)
    assert ReferenceBackend().complete(request).text.split("\n")[1] == f"Evidence: {evidence}"


@pytest.fixture
def parse_calls(monkeypatch):
    """Counts the reference backend's parses of each block kind."""
    calls = {"transcript": 0, "memory": 0}

    def counting(kind, parse):
        def wrapper(inner):
            calls[kind] += 1
            return parse(inner)
        return wrapper

    monkeypatch.setattr(reference, "parse_transcript_block",
                        counting("transcript", parse_transcript_block))
    monkeypatch.setattr(reference, "parse_episode_lines",
                        counting("memory", parse_episode_lines))
    return calls


QUESTION = ("which crimson stone", [("A", "river pigment"), ("B", "palette stone")])


def test_alternating_transcripts_use_the_right_index():
    backend = ReferenceBackend()
    videos = [["[1] 0.00-1.00: crimson river", "[2] 1.00-2.00: stone"],
              ["[1] 0.00-1.00: palette", "[2] 1.00-2.00: crimson stone", "[3] 2.00-3.00: river"]]
    for _ in range(3):
        for rows in videos:
            request = _request("perception", QUESTION, rows, [], top_k=1)
            assert backend.complete(request).text == ReferenceBackend().complete(request).text
            assert backend.complete(request).text == _perceive_oracle(QUESTION, rows, 1)


def _listing(summaries):
    return [
        format_episode_line(i, float(i), i + 1.0, summary, "development", [])
        for i, summary in enumerate(summaries)
    ]


def test_changed_episode_line_rebuilds_the_memory_index(parse_calls):
    backend = ReferenceBackend()
    first = _request("action", QUESTION, [], _listing(["river stone", "crimson pigment palette"]))
    second = _request("action", QUESTION, [], _listing(["river stone", "palette"]))
    assert backend.complete(first).text.endswith("Evidence: crimson pigment palette")
    assert backend.complete(second).text.endswith("Evidence: river stone")
    assert parse_calls["memory"] == 2
    assert backend.complete(second).text == ReferenceBackend().complete(second).text


@settings(max_examples=150, deadline=None)
@given(question=questions(), rows=transcript_rows(), listing=episode_listings())
def test_action_on_perceptions_transcript_matches_per_row_scan(question, rows, listing):
    """Action answers as a fresh backend would after perception read the
    same `<transcript>` block, as in the full-transcript compositions."""
    backend = ReferenceBackend()
    backend.complete(_request("perception", question, rows, listing, top_k=2))
    request = _request("action", question, rows, listing)
    assert backend.complete(request).text == _act_oracle(question, rows, listing)


@pytest.mark.parametrize(
    "summary, option, best",
    [
        ("ΟΔΟΣ river", "οδος", "A"),  # final sigma: the summary's token is "οδος"
        ("river ΟΔΟΣ.", "οδος", "A"),
        ("ΟΔΟΣ", "ς", "B"),  # "ς" is in the lowercase but is no token of it
        ("milestone", "stone", "B"),  # a substring only
        ("quartzite “quartz”", "quartz", "A"),
        ("(stone)", "stone", "A"),
        ("İstanbul", "istanbul", "B"),  # lowers to "i̇stanbul"
        ("İstanbul", "İstanbul", "A"),
    ],
)
def test_action_reads_the_memory_lines_an_option_word_can_be_in(summary, option, best):
    """Option A overlaps only through the summary, B only through the row,
    so A wins its tie exactly when the summary holds A's word as a token."""
    rows = ["[1] 0.00-1.00: palette"]
    listing = _listing(["crimson", summary])
    question = ("which", [("A", option), ("B", "palette")])
    text = ReferenceBackend().complete(_request("action", question, rows, listing)).text
    assert text == _act_oracle(question, rows, listing)
    assert text.startswith(f"Answer: ({best})")
