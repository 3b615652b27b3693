"""The warm per-video session: files are re-read on every question, parsed
again only when their bytes change, and never served stale."""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gcagent.memory
from gcagent.harness import BackendPair, RunConfig, evaluate, load_manifest, run_pipeline
from gcagent.memory import (
    Episode,
    EpisodicMemory,
    MemoryStore,
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

        # same size: one note summary changed in place, length kept
        edited = summary[:-1] + ("x" if summary[-1] != "x" else "y")
        episodes = tuple(
            dataclasses.replace(
                ep,
                reflections=tuple(dataclasses.replace(n, summary=edited) for n in ep.reflections),
            )
            for ep in current.episodes
        )
        same_size = save_memory(dataclasses.replace(current, episodes=episodes))
        assert len(same_size) == len(path.read_bytes())
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
    json_renders = _count_calls(monkeypatch, gcagent.memory, "_episode_json")
    text_renders = _count_calls(monkeypatch, gcagent.memory, "_episode_text")
    questions = [
        dataclasses.replace(items[k % 2], question_id=f"q{k}") for k in range(10)
    ]
    for k, item in enumerate(questions, start=1):
        run_pipeline(item, RunConfig(), backends, store)
        if k == 1:
            episodes = len(load_memory(store.path("vid01").read_bytes()).episodes)
            assert episodes > 1
        # every episode once for the first question (the build's write and
        # the first memory block), then the one reflected episode per
        # question; reflection's prompt also renders its target episode
        assert len(json_renders) == episodes + k
        assert len(text_renders) == episodes + 2 * k
    assert len(parses) == 1
    assert len(loads) == 0
    assert len(texts) == len(saves) == 0
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
    assert session.serialize(session.memory) == save_memory(session.memory)


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
                session.commit(reflected(session.memory, span, words))
            elif action == "reload":  # rewritten behind the session
                store.path(vid).write_bytes(base)
            elif action == "second_store":
                other = MemoryStore(Path(root) / "mem")
                other_session = open_session(other, vid)
                other_session.commit(reflected(other_session.memory, span, words))
                _assert_session_renders(other_session)
            elif action == "switch":
                vid = "vid02" if vid == "vid01" else "vid01"
                base = None
            else:  # `ask --memory FILE`: a store at the file's directory, any file name
                path = Path(root) / "cli.memory"
                path.write_bytes(save_memory(session.memory))
                cli = MemoryStore(path.parent).open(path, session.transcript)
                for _ in range(2):
                    cli.commit(reflected(cli.memory, span, words))
                    assert path.read_bytes() == save_memory(cli.memory)
                    _assert_session_renders(cli)
            session = open_session(store, vid)
            if base is None:
                base = store.path(vid).read_bytes()
            assert store.path(vid).read_bytes() == save_memory(session.memory)
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
def test_serialize_matches_save_memory_over_reflections(spans, words, steps):
    """Byte for byte `save_memory`, whether the session copies unchanged
    items from its last file or renders all of them: non-ASCII summaries,
    entities and notes, inf and nan spans, versions gaining a digit, and
    memories whose episodes are all other objects or fewer."""
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
    first, reference, session = memory, ReferenceBackend(), VideoSession()
    assert session.serialize(memory) == save_memory(memory)
    for action, (lo, width), note_words in steps:
        if action == "reflect":
            note = " ".join(note_words)
            memory = reflect(
                note, (("A", "a"), ("B", "b")), "A", "ev " + note, memory,
                [(lo, lo + width)], reference,
            )
        elif action == "first":
            memory = first
        elif action == "reloaded":  # equal content, every episode a new object
            memory = load_memory(save_memory(memory))
        else:
            memory = dataclasses.replace(memory, episodes=memory.episodes[:-1] or memory.episodes)
        assert session.serialize(memory) == save_memory(memory)
