from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcagent.errors import (
    EmptyFile,
    EncodingError,
    InvariantViolation,
    MalformedCue,
    MalformedRecord,
    MissingHeader,
    ParseError,
    UnreadableFile,
)
from gcagent.transcript import (
    Transcript,
    count_tokens,
    load_transcript,
    parse_caption_doc,
    parse_srt,
    parse_vtt,
    transcript_digest,
)

from helpers import srt_of, vtt_of


class TestParseSrt:
    def test_single_cue(self):
        t = parse_srt(b"1\n00:00:01,000 --> 00:00:02,500\nhello")
        assert len(t.lines) == 1
        line = t.lines[0]
        assert (line.index, line.start_s, line.end_s, line.text) == (1, 1.0, 2.5, "hello")

    def test_reversed_times_rejected(self):
        with pytest.raises(MalformedCue) as exc:
            parse_srt(b"1\n00:00:02,500 --> 00:00:01,000\nhello")
        assert exc.value.cue_ordinal == 1

    def test_out_of_order_cues_resorted(self):
        data = (
            b"1\n00:00:10,000 --> 00:00:11,000\nsecond\n\n"
            b"2\n00:00:01,000 --> 00:00:02,000\nfirst\n"
        )
        t = parse_srt(data)
        assert [l.text for l in t.lines] == ["first", "second"]
        assert [l.index for l in t.lines] == [1, 2]

    def test_multiline_text_joined_and_tags_stripped(self):
        data = b"1\n00:00:01,000 --> 00:00:02,000\n<i>hello</i>\nthere {\\an8}friend"
        t = parse_srt(data)
        assert t.lines[0].text == "hello there friend"

    def test_empty_file(self):
        with pytest.raises(EmptyFile):
            parse_srt(b"   \n\n ")

    def test_bad_timestamp_reports_ordinal(self):
        data = (
            b"1\n00:00:01,000 --> 00:00:02,000\nfine\n\n"
            b"2\n00:00:xx,000 --> 00:00:04,000\nbroken\n"
        )
        with pytest.raises(MalformedCue) as exc:
            parse_srt(data)
        assert exc.value.cue_ordinal == 2

    def test_invalid_utf8(self):
        with pytest.raises(EncodingError):
            parse_srt(b"1\n00:00:01,000 --> 00:00:02,000\n\xff\xfe broken")

    def test_bom_and_crlf(self):
        data = b"\xef\xbb\xbf1\r\n00:00:01,000 --> 00:00:02,000\r\nhello\r\n"
        assert parse_srt(data).lines[0].text == "hello"


class TestParseVtt:
    def test_minimal_cue(self):
        t = parse_vtt(b"WEBVTT\n\n00:01.000 --> 00:02.000\nhi")
        line = t.lines[0]
        assert (line.index, line.start_s, line.end_s, line.text) == (1, 1.0, 2.0, "hi")

    def test_missing_header(self):
        with pytest.raises(MissingHeader):
            parse_vtt(b"00:01.000 --> 00:02.000\nhi")

    def test_voice_tag_stripped(self):
        t = parse_vtt(b"WEBVTT\n\n00:01.000 --> 00:02.000\n<v Bob>hi</v>")
        assert t.lines[0].text == "hi"

    def test_note_and_style_blocks_skipped(self):
        data = (
            b"WEBVTT\n\nNOTE a comment\nspanning lines\n\n"
            b"STYLE\n::cue { color: red }\n\n"
            b"id-7\n00:00:01.000 --> 00:00:02.000 align:start\nhello\n"
        )
        t = parse_vtt(data)
        assert [l.text for l in t.lines] == ["hello"]

    def test_hours_optional(self):
        t = parse_vtt(b"WEBVTT\n\n01:00:01.000 --> 01:00:02.000\nlate cue")
        assert t.lines[0].start_s == 3601.0


class TestParseCaptionDoc:
    def test_single_record(self):
        t = parse_caption_doc(b'{"t": 10.0, "caption": "a man cooks"}')
        line = t.lines[0]
        assert (line.index, line.start_s, line.end_s, line.text) == (1, 10.0, 10.0, "a man cooks")
        assert t.source_kind == "caption"

    def test_empty_file(self):
        with pytest.raises(EmptyFile):
            parse_caption_doc(b"\n\n")

    def test_three_records_ordered(self):
        data = b"\n".join(
            b'{"t": %d, "caption": "frame %d"}' % (t, t) for t in (0, 10, 20)
        )
        t = parse_caption_doc(data)
        assert [l.start_s for l in t.lines] == [0.0, 10.0, 20.0]
        assert [l.index for l in t.lines] == [1, 2, 3]

    def test_bad_record_reports_line(self):
        data = b'{"t": 1.0, "caption": "ok"}\n{"t": "soon", "caption": "bad"}'
        with pytest.raises(MalformedRecord) as exc:
            parse_caption_doc(data)
        assert exc.value.line_number == 2


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("").count == 0

    def test_whitespace_collapse(self):
        assert count_tokens("a  b\tc").count == 3

    def test_punctuation_attached(self):
        assert count_tokens("hello world, again.").count == 3

    def test_method_recorded(self):
        assert count_tokens("x").method == "whitespace"

    @given(
        st.text(min_size=1, max_size=40),
        st.text(min_size=1, max_size=40),
    )
    def test_additive_across_space_join(self, a, b):
        assert count_tokens(a + " " + b).count == count_tokens(a).count + count_tokens(b).count


_word = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789'",
    min_size=1,
    max_size=8,
)
_cue_text = st.lists(_word, min_size=1, max_size=8).map(" ".join)


@st.composite
def _transcripts(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    rows = []
    for _ in range(n):
        start_ms = draw(st.integers(min_value=0, max_value=3_600_000))
        dur_ms = draw(st.integers(min_value=0, max_value=8_000))
        rows.append((start_ms / 1000.0, (start_ms + dur_ms) / 1000.0, draw(_cue_text)))
    return Transcript.from_lines(rows)


class TestRoundTrip:
    @settings(max_examples=60)
    @given(_transcripts())
    def test_srt_round_trip(self, transcript):
        assert parse_srt(srt_of(transcript)) == transcript

    @settings(max_examples=60)
    @given(_transcripts())
    def test_vtt_round_trip(self, transcript):
        assert parse_vtt(vtt_of(transcript)) == transcript

    @settings(max_examples=40)
    @given(_transcripts())
    def test_caption_round_trip(self, transcript):
        zero_width = Transcript.from_lines(
            [(l.start_s, l.start_s, l.text) for l in transcript.lines],
            source_kind="caption",
        )
        doc = "".join(
            json.dumps({"t": line.start_s, "caption": line.text}, ensure_ascii=False) + "\n"
            for line in zero_width.lines
        )
        assert parse_caption_doc(doc.encode("utf-8")) == zero_width

    @settings(max_examples=60)
    @given(_transcripts())
    def test_monotonic_start_times(self, transcript):
        starts = [l.start_s for l in transcript.lines]
        assert starts == sorted(starts)

    @settings(max_examples=40)
    @given(_transcripts())
    def test_digest_stable(self, transcript):
        assert transcript_digest(transcript) == transcript_digest(
            parse_srt(srt_of(transcript))
        )


class TestInvariants:
    def test_duration_must_cover_lines(self):
        with pytest.raises(InvariantViolation):
            Transcript.from_lines([(0.0, 5.0, "x")], video_duration_s=4.0)

    def test_negative_start_rejected(self):
        with pytest.raises(InvariantViolation):
            Transcript.from_lines([(-1.0, 2.0, "x")])

    @pytest.mark.parametrize("text", ["hello\nworld", "\nabc"])
    def test_line_break_in_text_rejected(self, text):
        # a line break would split the line's `[idx] start-end: text` rendering
        with pytest.raises(InvariantViolation, match="line break"):
            Transcript.from_lines([(0.0, 1.0, text), (1.0, 2.0, "next")])

    def test_with_duration_returns_new_value(self, cooking_transcript):
        longer = cooking_transcript.with_duration(99.0)
        assert longer.video_duration_s == 99.0
        assert cooking_transcript.video_duration_s == 20.0


class TestLoadTranscript:
    @pytest.mark.parametrize("name", ["missing.srt", "folder.srt"])
    def test_unreadable_file_is_a_parse_error_naming_the_path(self, tmp_path, name):
        (tmp_path / "folder.srt").mkdir()
        path = str(tmp_path / name)
        with pytest.raises(UnreadableFile) as exc:
            load_transcript(path)
        assert isinstance(exc.value, ParseError)
        assert exc.value.path == path
        assert str(exc.value).startswith(f"{path}: ")
