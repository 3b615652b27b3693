"""The warm per-video session: files are re-read on every question, parsed
again only when their bytes change, and never served stale."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gcagent.memory
from gcagent.errors import MemoryFileError, SchemaViolation, StageError, TornLineWarning
from gcagent.harness import BackendPair, RunConfig, evaluate, load_manifest, run_pipeline
from gcagent.memory import (
    CausalLink,
    Episode,
    EpisodicMemory,
    MemoryStore,
    ReflectionNote,
    VideoSession,
    load_memory,
    memory_text,
    reflect,
    save_memory,
)
from gcagent.prompts import wrap_block
from gcagent.reference import ReferenceBackend
from gcagent.transcript import count_tokens, load_transcript

from conftest import FIXTURES

MANIFEST = FIXTURES / "manifest.jsonl"
# `gcagent eval` on the fixture manifest with the reference backends and
# reflection on; regenerate only for a change that explains the diff
GOLDEN_REPORT = FIXTURES / "golden_report.json"

pytestmark = pytest.mark.filterwarnings(
    "ignore::gcagent.errors.NoRelevantContentWarning"
)


@pytest.fixture
def backends():
    return BackendPair(manager=ReferenceBackend(), reasoner=ReferenceBackend())


@pytest.fixture
def vid01(tmp_path):
    """The two vid01 manifest items, pointed at a private copy of the SRT."""
    srt = tmp_path / "vid01.srt"
    shutil.copy(FIXTURES / "videos" / "vid01.srt", srt)
    items = [i for i in load_manifest(MANIFEST) if i.video_id == "vid01"]
    return srt, [dataclasses.replace(i, subtitle_path=str(srt)) for i in items]


def _notes(memory) -> list[tuple[int, str]]:
    return sorted(
        (note.created_version, note.summary)
        for ep in memory.episodes
        for note in ep.reflections
    )


def _count_calls(monkeypatch, module, name) -> list:
    """Wrap `module.name` in every gcagent module that holds it; the
    returned list gets one entry per call."""
    original = getattr(module, name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "gcagent" or mod_name.startswith("gcagent."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


class TestInvalidation:
    def test_memory_rewritten_behind_the_store(self, tmp_path, vid01, backends):
        _, items = vid01
        store = MemoryStore(tmp_path / "mem")
        path = store.path("vid01")
        run_pipeline(items[0], RunConfig(), backends, store)
        current = load_memory(path.read_bytes())
        assert current.version == 2
        (version, summary), = _notes(current)

        # same size: the note line's summary changed in place, length kept
        edited = summary[:-1] + ("x" if summary[-1] != "x" else "y")
        data = path.read_bytes()
        same_size = data.replace(summary.encode(), edited.encode())
        assert same_size != data and len(same_size) == len(data)
        path.write_bytes(same_size)
        run_pipeline(items[1], RunConfig(), backends, store)
        after = load_memory(path.read_bytes())
        assert after.version == 3
        assert (version, edited) in _notes(after)
        assert (version, summary) not in _notes(after)

        # different size: the file goes back to the version-1 memory
        base = dataclasses.replace(
            current,
            version=1,
            episodes=tuple(dataclasses.replace(ep, reflections=()) for ep in current.episodes),
        )
        path.write_bytes(save_memory(base))
        run_pipeline(items[1], RunConfig(), backends, store)
        after = load_memory(path.read_bytes())
        assert after.version == 2
        assert [v for v, _ in _notes(after)] == [2]

    def test_deleted_memory_is_built_again(self, tmp_path, vid01, backends, monkeypatch):
        _, items = vid01
        store = MemoryStore(tmp_path / "mem")
        builds = _count_calls(monkeypatch, gcagent.memory, "build_memory")
        run_pipeline(items[0], RunConfig(), backends, store)
        run_pipeline(items[1], RunConfig(), backends, store)
        assert len(builds) == 1
        store.path("vid01").unlink()
        run_pipeline(items[1], RunConfig(), backends, store)
        assert len(builds) == 2
        assert load_memory(store.path("vid01").read_bytes()).version == 2

    def test_edited_transcript_is_parsed_again_and_memory_rebuilt(
        self, tmp_path, vid01, backends, monkeypatch
    ):
        srt, items = vid01
        store = MemoryStore(tmp_path / "mem")
        parses = _count_calls(monkeypatch, gcagent.memory, "load_transcript")
        run_pipeline(items[0], RunConfig(), backends, store)
        run_pipeline(items[1], RunConfig(), backends, store)
        assert len(parses) == 1
        old_digest = load_memory(store.path("vid01").read_bytes()).source_digest

        data = srt.read_bytes()
        assert b"Bob" in data
        srt.write_bytes(data.replace(b"Bob", b"Rob"))
        run_pipeline(items[1], RunConfig(), backends, store)
        assert len(parses) == 2
        rebuilt = load_memory(store.path("vid01").read_bytes())
        expected = load_transcript(str(srt), video_duration_s=items[1].duration_s)
        assert rebuilt.source_digest == expected.digest != old_digest
        assert rebuilt.version == 2

    def test_second_store_appends_and_first_continues(self, tmp_path, vid01, backends):
        _, items = vid01
        first = MemoryStore(tmp_path / "mem")
        second = MemoryStore(tmp_path / "mem")
        run_pipeline(items[0], RunConfig(), backends, first)
        run_pipeline(items[1], RunConfig(), backends, second)
        run_pipeline(items[0], RunConfig(), backends, first)
        final = load_memory(first.path("vid01").read_bytes())
        assert final.version == 4
        assert [v for v, _ in _notes(final)] == [2, 3, 4]

    def test_parallel_evaluate_matches_serial_and_golden(self, tmp_path, backends):
        serial = evaluate(MANIFEST, RunConfig(workers=1), backends, tmp_path / "m1")
        parallel = evaluate(MANIFEST, RunConfig(workers=4), backends, tmp_path / "m2")
        golden = GOLDEN_REPORT.read_bytes()
        assert serial.to_json_bytes() == golden
        assert parallel.to_json_bytes() == golden


def test_warm_questions_parse_once_and_render_once(tmp_path, vid01, backends, monkeypatch):
    _, items = vid01
    store = MemoryStore(tmp_path / "mem")
    parses = _count_calls(monkeypatch, gcagent.memory, "load_transcript")
    loads = _count_calls(monkeypatch, gcagent.memory, "load_memory")
    texts = _count_calls(monkeypatch, gcagent.memory, "memory_text")
    saves = _count_calls(monkeypatch, gcagent.memory, "save_memory")
    text_renders = _count_calls(monkeypatch, gcagent.memory, "_episode_text")
    questions = [
        dataclasses.replace(items[k % 2], question_id=f"q{k}") for k in range(10)
    ]
    for k, item in enumerate(questions, start=1):
        run_pipeline(item, RunConfig(), backends, store)
        if k == 1:
            episodes = len(load_memory(store.path("vid01").read_bytes()).episodes)
            assert episodes > 1
        # every episode once for the first question (the first memory
        # block), then the one reflected episode's text per question, whose
        # note is appended as a line; reflection's prompt also renders its
        # target episode
        assert len(text_renders) == episodes + 2 * k
    assert len(parses) == 1
    assert len(loads) == 0
    assert len(texts) == 0
    assert len(saves) == 1  # the build's snapshot; each note is a line
    final = load_memory(store.path("vid01").read_bytes())
    assert final.version == 11
    assert [v for v, _ in _notes(final)] == list(range(2, 12))


def _assert_session_renders(session: VideoSession) -> None:
    """What the session renders equals the one-shot functions."""
    text = memory_text(session.memory)
    whole = session.context(set(), sys.maxsize)  # a budget larger than any video
    assert whole.memory_block == wrap_block("memory", text)
    assert whole.episodes == session.memory.episodes
    assert session.memory_tokens() == count_tokens(text).count


def _same(a: EpisodicMemory, b: EpisodicMemory) -> bool:
    """Equal memories, nan spans included (nan != nan as a float)."""
    return save_memory(a) == save_memory(b)


def _assert_file_holds(path: Path, session: VideoSession) -> None:
    """The file is the bytes the session read or wrote, and holds its memory."""
    data = path.read_bytes()
    assert data == session.memory_bytes
    assert _same(load_memory(data), session.memory)


def _note_line(memory: EpisodicMemory) -> bytes:
    """The note line of `memory`'s newest note, as the file format defines it."""
    (position, note), = [
        (i, note)
        for i, ep in enumerate(memory.episodes)
        for note in ep.reflections
        if note.created_version == memory.version
    ]
    doc = {
        "episode": position,
        "query": note.query,
        "answer_id": note.answer_id,
        "summary": note.summary,
        "created_version": note.created_version,
    }
    return (json.dumps(doc, ensure_ascii=False) + "\n").encode("utf-8")


def _assert_appended(before: bytes, path: Path, session: VideoSession) -> None:
    """The file is `before` plus exactly the newest note's line, and holds
    the session's memory."""
    assert path.read_bytes() == before + _note_line(session.memory)
    _assert_file_holds(path, session)


_WORDS = st.sampled_from(["pan", "Bob", "caf\u00e9", '"q"', "back\\slash", "|", "\u2028", "eggs"])
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["reflect", "reflect", "reload", "second_store", "switch", "cli"]),
        st.tuples(st.floats(0.0, 25.0), st.floats(0.0, 8.0)),
        st.lists(_WORDS, min_size=1, max_size=4),
    ),
    max_size=10,
)


@pytest.mark.filterwarnings("ignore::gcagent.errors.DegenerateOutputWarning")
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=_STEPS)
def test_session_renders_equal_one_shot_functions(steps):
    reference = ReferenceBackend()
    sources = {vid: str(FIXTURES / "videos" / f"{vid}.srt") for vid in ("vid01", "vid02")}

    def open_session(store, vid):
        session = store.session(vid, sources[vid])
        store.get_or_build(vid, session.transcript, reference)
        return session

    def reflected(memory, span, words):
        lo, width = span
        return reflect(
            "q " + " ".join(words), (("A", "a"), ("B", "b")), "A", "ev " + " ".join(words),
            memory, [(lo, lo + width)], reference,
        )

    with tempfile.TemporaryDirectory() as root:
        store = MemoryStore(Path(root) / "mem")
        vid = "vid01"
        session = open_session(store, vid)
        base = store.path(vid).read_bytes()
        for action, span, words in steps:
            if action == "reflect":
                before = store.path(vid).read_bytes()
                session.commit(reflected(session.memory, span, words))
                _assert_appended(before, store.path(vid), session)
            elif action == "reload":  # rewritten behind the session
                store.path(vid).write_bytes(base)
            elif action == "second_store":
                other = MemoryStore(Path(root) / "mem")
                other_session = open_session(other, vid)
                before = other.path(vid).read_bytes()
                other_session.commit(reflected(other_session.memory, span, words))
                _assert_appended(before, other.path(vid), other_session)
                _assert_session_renders(other_session)
            elif action == "switch":
                vid = "vid02" if vid == "vid01" else "vid01"
                base = None
            else:  # `ask --memory FILE`: a store at the file's directory, any file name
                path = Path(root) / "cli.memory"
                path.write_bytes(save_memory(session.memory))
                cli = MemoryStore(path.parent).open(path, session.transcript)
                for _ in range(2):
                    before = path.read_bytes()
                    cli.commit(reflected(cli.memory, span, words))
                    _assert_appended(before, path, cli)
                    _assert_session_renders(cli)
            session = open_session(store, vid)
            if base is None:
                base = store.path(vid).read_bytes()
            _assert_file_holds(store.path(vid), session)
            _assert_session_renders(session)


_ODD_WORDS = st.sampled_from(
    ["caf\u00e9", "\u300cx\u300d", "\u2028", '"q"', "back\\slash", "\U0001f600", "|", "eggs"]
)
_NAN, _INF = float("nan"), float("inf")
_SPANS = st.lists(
    st.one_of(
        st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 5.0)).map(lambda p: (p[0], p[0] + p[1])),
        st.sampled_from([(_NAN, _NAN), (_NAN, 3.0), (-_INF, _INF), (0.0, _INF)]),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(
    spans=_SPANS,
    words=st.lists(_ODD_WORDS, min_size=1, max_size=3),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["reflect", "reflect", "reflect", "first", "reloaded", "shorter"]),
            st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 8.0)),
            st.lists(_ODD_WORDS, min_size=1, max_size=3),
        ),
        max_size=8,
    ),
)
def test_store_writes_snapshots_and_note_lines_over_reflections(spans, words, steps):
    """Each reflection appends exactly its note line, and any other memory
    is written as its `save_memory` snapshot: non-ASCII summaries, entities
    and notes, inf and nan spans, versions gaining a digit, and memories
    whose episodes are all other objects or fewer. The file always loads as
    the session's memory."""
    text = " ".join(words)
    memory = EpisodicMemory(
        episodes=tuple(
            Episode(
                id=i,
                span=span,
                line_range=(i + 1, i + 1),
                schematic_summary=f"Event {i + 1}: {text}",
                entities=(text,),
            )
            for i, span in enumerate(spans)
        ),
        version=8,
        source_digest=text,
    )
    first, reference = memory, ReferenceBackend()
    with tempfile.TemporaryDirectory() as root:
        store = MemoryStore(Path(root))
        path = store.path("v")
        store.save("v", memory)
        session = store.session("v", str(FIXTURES / "videos" / "vid01.srt"))
        assert path.read_bytes() == save_memory(session.memory)
        for action, (lo, width), note_words in steps:
            before = path.read_bytes()
            if action == "reflect":
                note = " ".join(note_words)
                session.commit(
                    reflect(
                        note, (("A", "a"), ("B", "b")), "A", "ev " + note, session.memory,
                        [(lo, lo + width)], reference,
                    )
                )
                _assert_appended(before, path, session)
                continue
            if action == "first":
                memory = first
            elif action == "reloaded":  # equal content, every episode a new object
                memory = load_memory(before)
            else:
                current = session.memory
                memory = dataclasses.replace(current, episodes=current.episodes[:-1] or current.episodes)
            session.commit(memory)
            assert path.read_bytes() == save_memory(memory)
            _assert_file_holds(path, session)
            _assert_session_renders(session)


_OPTIONS = (("A", "a"), ("B", "b"))
_RELOAD_SPANS = st.sampled_from([(0.0, 1.5), (2.0, 7.25), (2, 7), (1.0, 1.0), (_NAN, _NAN), (0.5, _INF)])
_REWRITES = st.sampled_from(
    [
        "note", "unnote", "summary", "count", "base", "indent4", "sort_keys", "item_keys",
        "bad_item", "bad_json", "future_note", "appended", "torn",
    ]
)


def _rewritten(memory: EpisodicMemory, base: EpisodicMemory, action: str, k: int) -> bytes:
    """A memory file that another writer made from `memory`, the store's
    current memory, as `action` says; `k` picks the episode it changes."""
    doc = json.loads(save_memory(memory))
    episodes = doc["episodes"]
    item = episodes[k % len(episodes)]
    layout = {"indent": 2}
    if action in ("note", "future_note"):
        doc["version"] += action == "note"  # else a note above the file's version
        note = {"query": "q", "answer_id": "B", "summary": "another writer"}
        item["reflections"].append({**note, "created_version": memory.version + 1})
    elif action == "unnote":
        item["reflections"] = []
    elif action == "summary":  # edited in place, its length kept
        item["schematic_summary"] = item["schematic_summary"][::-1]
    elif action == "count" and len(episodes) > 1:
        episodes.pop()
    elif action == "count":
        episodes.append({**item, "id": 1, "line_range": [2, 2], "causal_links": []})
    elif action == "base":
        return save_memory(base)
    elif action == "indent4":
        layout = {"indent": 4}
    elif action == "sort_keys":
        layout = {"indent": 2, "sort_keys": True}
    elif action == "item_keys":  # the file's layout, one item's keys in reverse
        episodes[k % len(episodes)] = dict(reversed(list(item.items())))
    elif action == "bad_item":
        item["narrative_role"] = 7
    else:  # bad_json: one item is cut short
        item["narrative_role"] = "\u0000cut"
        data = (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
        return data.replace(b'"\\u0000cut"', b'"')
    return (json.dumps(doc, ensure_ascii=False, **layout) + "\n").encode("utf-8")


@pytest.mark.filterwarnings("ignore::gcagent.errors.DegenerateOutputWarning")
@settings(max_examples=60, deadline=None)
@given(
    spans=st.lists(_RELOAD_SPANS, min_size=1, max_size=6),
    steps=st.lists(
        st.tuples(_REWRITES, st.integers(0, 5), st.booleans(), st.floats(0.0, 10.0)),
        min_size=1,
        max_size=8,
    ),
)
def test_reload_after_a_rewrite_equals_a_full_parse(spans, steps):
    """A memory file rewritten behind the store, given note lines by a
    second store or left with a torn last line opens as `load_memory` of its
    bytes, renders as the one-shot functions do, and the next reflection
    appends one line to its whole lines; a torn line is dropped with one
    warning per read. An invalid file raises the error a full parse gives,
    and a later valid one is read again."""
    transcript = load_transcript(str(FIXTURES / "videos" / "vid01.srt"))
    reference = ReferenceBackend()
    base = EpisodicMemory(
        episodes=tuple(
            Episode(
                id=i,
                span=span,
                line_range=(i + 1, i + 1),
                schematic_summary=f"Event {i + 1}: caf\u00e9 \"pan\"",
                entities=("Bob",),
                causal_links=(CausalLink(i - 1, "precedes"),) if i else (),
            )
            for i, span in enumerate(spans)
        ),
        version=1,
        source_digest=transcript.digest,
    )
    with tempfile.TemporaryDirectory() as root:
        store = MemoryStore(Path(root))
        path = store.path("v")
        store.save("v", base)
        memory = held = base  # the last valid memory; the one the session holds
        for action, k, reflects, at in steps:
            previous = path.read_bytes()
            if action == "appended":  # a second store appends a note line
                try:
                    with warnings.catch_warnings():  # it drops and cuts a torn line
                        warnings.simplefilter("ignore", TornLineWarning)
                        other = MemoryStore(Path(root)).open("v", transcript)
                        other.commit(
                            reflect("q2", _OPTIONS, "B", "ev other", other.memory, [(at, at)], reference)
                        )
                except MemoryFileError:  # the file is invalid: it stays so
                    pass
                data = path.read_bytes()
            else:
                data = previous + b'{"episode": 0, "query": "cut' if action == "torn" else (
                    _rewritten(memory, base, action, k)
                )
                path.write_bytes(data)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", TornLineWarning)
                try:
                    expected = load_memory(data)
                except SchemaViolation as exc:
                    with pytest.raises(MemoryFileError) as info:
                        store.open("v", transcript)
                    assert str(info.value) == f"{path}: {exc}"
                    held = None
                    continue
                session = store.open("v", transcript)
            # dropped by `load_memory` and again by the store, which holds
            # only the whole lines
            torn = not data.endswith(b"\n")
            assert [w.category for w in caught] == [TornLineWarning] * (2 * torn)
            if data == previous and held is not None:  # not read again
                assert session.memory is held
            else:
                assert save_memory(session.memory) == save_memory(expected)
            _assert_session_renders(session)
            memory = held = session.memory
            if reflects:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", TornLineWarning)
                    session.commit(
                        reflect("q", _OPTIONS, "A", "ev pan", memory, [(at, at + 1.0)], reference)
                    )
                assert [w.category for w in caught] == [TornLineWarning] * torn  # and cut
                memory = held = session.memory
                _assert_appended(data[: data.rfind(b"\n") + 1], path, session)


def test_reset_to_the_base_parses_nothing(tmp_path, monkeypatch):
    """A file reset to its version-1 snapshot after 50 note lines, as the
    benchmark does each round, is the snapshot's memory the session holds:
    nothing is parsed, and the next note is appended to the snapshot."""
    transcript = load_transcript(str(FIXTURES / "videos" / "vid01.srt"))
    reference = ReferenceBackend()
    base = EpisodicMemory(
        episodes=tuple(
            Episode(
                id=i,
                span=(float(i), i + 0.5),
                line_range=(i + 1, i + 1),
                schematic_summary=f"Event {i + 1}: pan",
            )
            for i in range(200)
        ),
        version=1,
        source_digest=transcript.digest,
    )
    store = MemoryStore(tmp_path)
    store.save("v", base)
    base_bytes = store.path("v").read_bytes()
    session = store.open("v", transcript)
    for k in range(50):
        at = 4 * k + 0.1  # episode 4k alone overlaps
        session.commit(
            reflect(f"q{k}", _OPTIONS, "A", f"ev {k}", session.memory, [(at, at + 0.3)], reference)
        )
    noted = session.memory.episodes
    assert sum(1 for ep in noted if ep.reflections) == 50
    parses = _count_calls(monkeypatch, gcagent.memory, "_load_episode")
    loads = _count_calls(monkeypatch, gcagent.memory, "load_memory")
    store.path("v").write_bytes(base_bytes)
    reset = store.open("v", transcript)
    assert len(parses) == 0
    assert not loads
    assert reset.memory is base
    assert all((ep is old) == (not old.reflections) for ep, old in zip(reset.memory.episodes, noted))
    reset.commit(reflect("q", _OPTIONS, "A", "ev", reset.memory, [(0.1, 0.4)], reference))
    _assert_appended(base_bytes, store.path("v"), reset)


def test_each_reflection_appends_one_line(tmp_path, vid01, backends):
    """After every reflection the memory file is the previous bytes plus
    exactly that note's line, and it loads as the session's memory."""
    srt, items = vid01
    store = MemoryStore(tmp_path / "mem")
    path = store.path("vid01")
    run_pipeline(items[0], RunConfig(reflect=False), backends, store)
    snapshot = path.read_bytes()
    assert snapshot == save_memory(load_memory(snapshot))
    for k in range(6):
        before = path.read_bytes()
        run_pipeline(dataclasses.replace(items[k % 2], question_id=f"q{k}"), RunConfig(), backends, store)
        session = store.session("vid01", str(srt), items[k % 2].duration_s)
        assert session.memory.version == k + 2
        _assert_appended(before, path, session)
    assert path.read_bytes().startswith(snapshot)


def test_indent2_snapshot_with_note_lines_takes_one_more_line(tmp_path):
    """A file whose snapshot spans several lines (`indent=2`, as earlier
    versions wrote it), followed by note lines, opens as `load_memory` of
    its bytes, and the next reflection appends exactly its note line to it
    instead of rewriting the file."""
    transcript = load_transcript(str(FIXTURES / "videos" / "vid01.srt"))
    base = EpisodicMemory(
        episodes=tuple(
            Episode(
                id=i,
                span=(float(i), i + 0.5),
                line_range=(i + 1, i + 1),
                schematic_summary=f"café pan {i}",
                entities=("Bob",),
                causal_links=(CausalLink(i - 1, "refers_back"),) if i else (),
            )
            for i in range(4)
        ),
        version=1,
        source_digest=transcript.digest,
    )
    noted = _reflect_on(_reflect_on(base, 1), 3)
    snapshot = json.dumps(json.loads(save_memory(base)), indent=2, ensure_ascii=False) + "\n"
    data = snapshot.encode("utf-8") + _note_line(_reflect_on(base, 1)) + _note_line(noted)
    assert data.count(b"\n") > 3
    store = MemoryStore(tmp_path)
    path = store.path("v")
    path.write_bytes(data)
    session = store.open("v", transcript)
    assert session.memory == load_memory(data) == noted
    _assert_session_renders(session)
    session.commit(_reflect_on(session.memory, 2))
    assert session.memory.version == 4
    _assert_appended(data, path, session)


def _reflect_on(memory: EpisodicMemory, k: int) -> EpisodicMemory:
    return reflect(f"q{k}", _OPTIONS, "A", f"ev {k}", memory, [(k % 20, k % 20 + 1.0)], ReferenceBackend())


def test_torn_last_line_is_dropped_then_cut(tmp_path):
    """A file cut mid-line, as a writer that stopped mid-append leaves it,
    opens with that line dropped and counted; the next reflection cuts the
    fragment and appends a whole line."""
    transcript = load_transcript(str(FIXTURES / "videos" / "vid01.srt"))
    store = MemoryStore(tmp_path)
    session = store.build("v", transcript, ReferenceBackend())
    for k in range(2):
        session.commit(_reflect_on(session.memory, k))
    path = store.path("v")
    data = path.read_bytes()
    whole = data[: data.rfind(b"\n", 0, -1) + 1]  # without the last note line
    path.write_bytes(data[:-10])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        session = MemoryStore(tmp_path).open("v", transcript)
        assert [w.category for w in caught] == [TornLineWarning]
        assert session.memory.version == 2
        assert _same(session.memory, load_memory(whole))
        session.commit(_reflect_on(session.memory, 2))
        assert [w.category for w in caught] == [TornLineWarning] * 2  # read again, and cut
    assert session.memory.version == 3
    _assert_appended(whole, path, session)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_memory(path.read_bytes()).version == 3


def test_bad_line_before_the_last_names_the_file(tmp_path):
    transcript = load_transcript(str(FIXTURES / "videos" / "vid01.srt"))
    store = MemoryStore(tmp_path)
    session = store.build("v", transcript, ReferenceBackend())
    snapshot = store.path("v").read_bytes()
    session.commit(_reflect_on(session.memory, 0))
    line = store.path("v").read_bytes()[len(snapshot) :]
    for bad in (b"not a note\n", b'{"episode": 9999}\n', line):  # the last: version 2 twice
        store.path("v").write_bytes(snapshot + line + bad + line.replace(b": 2}", b": 3}"))
        with pytest.raises(MemoryFileError) as exc:
            MemoryStore(tmp_path).open("v", transcript)
        assert exc.value.path == str(store.path("v"))
        assert "note line 2" in str(exc.value)


class _Rebuilding:
    """The reference backend; before its first reflection answer, another
    store builds the memory file anew."""

    def __init__(self, store, transcript):
        self.inner = ReferenceBackend()
        self.profile = self.inner.profile
        self.store, self.transcript, self.rebuilt = store, transcript, None

    def complete(self, request):
        if request.context["stage"] == "reflection" and self.rebuilt is None:
            self.store.build("vid01", self.transcript, self.inner)
            self.rebuilt = self.store.path("vid01").read_bytes()
        return self.inner.complete(request)


def test_rebuild_between_open_and_commit_fails_the_memory_stage(tmp_path, vid01, backends):
    srt, items = vid01
    store = MemoryStore(tmp_path / "mem")
    run_pipeline(items[0], RunConfig(), backends, store)
    transcript = load_transcript(str(srt), video_duration_s=items[1].duration_s)
    rebuilding = _Rebuilding(MemoryStore(tmp_path / "mem"), transcript)
    with pytest.raises(StageError) as exc:
        run_pipeline(items[1], RunConfig(), BackendPair(rebuilding, backends.reasoner), store)
    assert exc.value.stage == "memory"
    assert isinstance(exc.value.cause, MemoryFileError)
    assert exc.value.cause.path == str(store.path("vid01"))
    assert store.path("vid01").read_bytes() == rebuilding.rebuilt
    run_pipeline(items[1], RunConfig(), backends, store)  # the next question reads it again
    assert load_memory(store.path("vid01").read_bytes()).version == 2


_WRITER = """
import sys, time
from pathlib import Path
from gcagent.memory import MemoryStore, reflect
from gcagent.reference import ReferenceBackend
from gcagent.transcript import load_transcript

path, srt, name, count = Path(sys.argv[1]), sys.argv[2], sys.argv[3], int(sys.argv[4])
session = MemoryStore(path.parent).open(path, load_transcript(srt))
(path.parent / f"ready-{name}").touch()
while not (path.parent / "go").exists():
    time.sleep(0.001)
for k in range(count):
    evidence = f"ev {name} {k}"
    spans = [(k % 20, k % 20 + 1.0)]
    session.commit(
        reflect(f"{name} q{k}", (("A", "a"),), "A", evidence, session.memory, spans, ReferenceBackend())
    )
"""


def test_four_processes_keep_every_note(tmp_path):
    """Four processes, each with its own store, commit M reflections to one
    file at once: every note is kept, with versions 2..4M+1."""
    count, srt = 25, str(FIXTURES / "videos" / "vid01.srt")
    path = tmp_path / "shared.json"
    MemoryStore(tmp_path).build(path, load_transcript(srt), ReferenceBackend())
    package = str(Path(gcagent.memory.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package, os.environ.get("PYTHONPATH")]))}
    names = [f"w{i}" for i in range(4)]
    writers = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(path), srt, name, str(count)], env=env)
        for name in names
    ]
    try:
        deadline = time.monotonic() + 60
        while len(list(tmp_path.glob("ready-*"))) < 4 and time.monotonic() < deadline:
            if any(w.poll() is not None for w in writers):
                break
            time.sleep(0.01)
        (tmp_path / "go").touch()
        codes = [w.wait(timeout=120) for w in writers]
    finally:
        for w in writers:
            if w.poll() is None:
                w.kill()
                w.wait()
    assert codes == [0] * 4
    memory = load_memory(path.read_bytes())
    notes = [note for ep in memory.episodes for note in ep.reflections]
    assert memory.version == 4 * count + 1
    assert sorted(n.created_version for n in notes) == list(range(2, 4 * count + 2))
    assert sorted(n.query for n in notes) == sorted(f"{w} q{k}" for w in names for k in range(count))
