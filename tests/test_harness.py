from __future__ import annotations

import fcntl
import json
from pathlib import Path

import pytest

from gcagent.harness import (
    BackendPair,
    RunConfig,
    _item_session,
    answer,
    bucket_token_stats,
    compute_token_stats,
    duration_bucket,
    evaluate,
    load_manifest,
    render_report_table,
    run_pipeline,
)
from gcagent.errors import BackendFailure, ManifestError, StageError
from gcagent.memory import MemoryStore, load_memory
from gcagent.reasoning import ABLATION_ROWS, EvidenceConfig
from gcagent.reference import ReferenceBackend, ScriptedBackend
from gcagent.transcript import count_tokens

from conftest import FIXTURES, make_transcript

MANIFEST = FIXTURES / "manifest.jsonl"

# the fixture set includes one zero-overlap query on purpose
pytestmark = pytest.mark.filterwarnings(
    "ignore::gcagent.errors.NoRelevantContentWarning"
)


@pytest.fixture
def backends():
    return BackendPair(manager=ReferenceBackend(), reasoner=ReferenceBackend())


class TestTokenStats:
    def test_formula(self):
        stats = compute_token_stats(200.0, 50.0)
        assert stats.reduction_pct == 75.0

    def test_memory_larger_than_transcript_goes_negative(self):
        stats = compute_token_stats(100.0, 150.0)
        assert stats.reduction_pct == -50.0

    def test_zero_transcript_reports_null(self):
        assert compute_token_stats(0.0, 10.0).reduction_pct is None

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            compute_token_stats(-1.0, 0.0)


class TestBucketTokenStats:
    def test_means_per_bucket_in_bucket_order(self):
        videos = [(4000.0, 10, 20), (60.0, 200, 50), (300.0, 0, 5), (90.0, 100, 25)]
        assert bucket_token_stats(videos) == {
            "0-2min": {"transcript_tokens": 150.0, "memory_tokens": 37.5,
                       "reduction_pct": 75.0, "videos": 2},
            "4-15min": {"transcript_tokens": 0.0, "memory_tokens": 5.0,
                        "reduction_pct": None, "videos": 1},
            "other": {"transcript_tokens": 10.0, "memory_tokens": 20.0,
                      "reduction_pct": -100.0, "videos": 1},
        }
        assert list(bucket_token_stats(videos)) == ["0-2min", "4-15min", "other"]

    def test_reduction_rounded_to_one_decimal(self):
        (stats,) = bucket_token_stats([(60.0, 3, 1)]).values()
        assert stats["reduction_pct"] == 66.7

    def test_no_videos_no_buckets(self):
        assert bucket_token_stats([]) == {}


class TestDurationBucket:
    @pytest.mark.parametrize(
        "duration,bucket",
        [
            (30.0, "0-2min"),
            (120.0, "0-2min"),
            (300.0, "4-15min"),
            (900.0, "4-15min"),
            (2400.0, "30-60min"),
            (3600.0, "30-60min"),
            (150.0, "other"),
            (1000.0, "other"),
            (4000.0, "other"),
        ],
    )
    def test_assignment(self, duration, bucket):
        assert duration_bucket(duration) == bucket


class TestLoadManifest:
    def test_fixture_manifest_loads(self):
        items = load_manifest(MANIFEST)
        assert len(items) >= 10
        assert {item.split for item in items} <= {"short", "medium", "long"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "nope.jsonl")

    def test_gold_must_be_a_label(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps(
                {
                    "question_id": "q1",
                    "video_id": "v1",
                    "duration_s": 10.0,
                    "split": "short",
                    "category": "c",
                    "query": {
                        "text": "q",
                        "options": [
                            {"label": "A", "text": "x"},
                            {"label": "B", "text": "y"},
                        ],
                    },
                    "gold": "Z",
                }
            )
            + "\n"
        )
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        assert "gold" in str(exc.value)

    def test_duplicate_question_id_rejected(self, tmp_path):
        row = {
            "question_id": "q1",
            "video_id": "v1",
            "duration_s": 10.0,
            "split": "short",
            "category": "c",
            "query": {
                "text": "q",
                "options": [{"label": "A", "text": "x"}, {"label": "B", "text": "y"}],
            },
            "gold": "A",
        }
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(ManifestError):
            load_manifest(path)

    @pytest.mark.parametrize("field", ["query", "option"])
    def test_text_that_cannot_be_written_as_utf8_names_the_item(self, tmp_path, field):
        # json.loads reads the escape "\ud800" as a lone surrogate
        query = {
            "text": "what \ud800" if field == "query" else "q",
            "options": [
                {"label": "A", "text": "x"},
                {"label": "B", "text": "y \ud800" if field == "option" else "y"},
            ],
        }
        row = {
            "question_id": "q1", "video_id": "v1", "duration_s": 10.0, "split": "short",
            "category": "c", "query": query, "gold": "A",
        }
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        assert "m.jsonl:1" in str(exc.value) and "UTF-8" in str(exc.value)


class TestRunPipeline:
    def test_full_cycle_on_small_fixture(self, tmp_path, backends):
        items = {i.question_id: i for i in load_manifest(MANIFEST)}
        store = MemoryStore(tmp_path)
        result = run_pipeline(items["q0101"], RunConfig(), backends, store)
        assert result.answer_id == "B"
        saved = load_memory(store.path("vid01").read_bytes())
        assert saved.version == 2

    def test_reflection_disabled_leaves_memory_at_v1(self, tmp_path, backends):
        items = {i.question_id: i for i in load_manifest(MANIFEST)}
        store = MemoryStore(tmp_path)
        run_pipeline(items["q0101"], RunConfig(reflect=False), backends, store)
        saved = load_memory(store.path("vid01").read_bytes())
        assert saved.version == 1

    def test_unwritable_reflection_summary_leaves_memory_unchanged(self, tmp_path, backends):
        items = {i.question_id: i for i in load_manifest(MANIFEST)}
        store = MemoryStore(tmp_path)
        run_pipeline(items["q0101"], RunConfig(reflect=False), backends, store)
        before = store.path("vid01").read_bytes()
        # the manager answers perception, then reflection with a lone surrogate
        manager = ScriptedBackend(['{"line_indices": [1]}', '{"summary": "bad \\ud800 note"}'])
        scripted = BackendPair(manager=manager, reasoner=ReferenceBackend())
        with pytest.raises(StageError) as exc:
            run_pipeline(items["q0101"], RunConfig(), scripted, store)
        assert exc.value.stage == "reflection"
        assert isinstance(exc.value.cause, BackendFailure)
        assert store.path("vid01").read_bytes() == before
        run_pipeline(items["q0101"], RunConfig(), backends, store)
        assert load_memory(store.path("vid01").read_bytes()).version == 2

    def test_unwritable_memory_file_fails_the_memory_stage(self, tmp_path, backends, monkeypatch):
        items = {i.question_id: i for i in load_manifest(MANIFEST)}
        store = MemoryStore(tmp_path)
        run_pipeline(items["q0101"], RunConfig(reflect=False), backends, store)
        before = store.path("vid01").read_bytes()

        def broken_flock(fd, operation):  # a reflection appends under the file's lock
            raise OSError("disk gone")

        monkeypatch.setattr(fcntl, "flock", broken_flock)
        with pytest.raises(StageError) as exc:
            run_pipeline(items["q0101"], RunConfig(), backends, store)
        assert exc.value.stage == "memory"
        assert str(exc.value.cause) == f"{store.path('vid01')}: disk gone"
        assert store.path("vid01").read_bytes() == before

    def test_caption_fallback_when_subtitle_missing(self, tmp_path, backends):
        items = {i.question_id: i for i in load_manifest(MANIFEST)}
        result = run_pipeline(items["q0401"], RunConfig(), backends, MemoryStore(tmp_path))
        assert result.answer_id == "A"

    def test_missing_sources_tagged_with_stage(self, tmp_path, backends):
        items = {i.question_id: i for i in load_manifest(MANIFEST)}
        item = items["q0101"]
        broken = type(item)(
            **{
                **item.__dict__,
                "subtitle_path": str(tmp_path / "gone.srt"),
                "caption_path": None,
            }
        )
        with pytest.raises(StageError) as exc:
            run_pipeline(broken, RunConfig(), backends, MemoryStore(tmp_path))
        assert exc.value.stage == "load"


class TestEvaluate:
    def test_accuracy_arithmetic(self, tmp_path, backends):
        # vid01's two questions are answered correctly by the reference rules,
        # as is vid02's; the zero-overlap vid05 query resolves to A against a
        # gold of B. 3 correct out of 4 -> 75.0%.
        source = {i.question_id: i for i in load_manifest(MANIFEST)}
        rows = []
        for qid in ("q0101", "q0102", "q0201", "q0501"):
            item = source[qid]
            rows.append(
                {
                    "question_id": item.question_id,
                    "video_id": item.video_id,
                    "duration_s": item.duration_s,
                    "split": item.split,
                    "category": item.category,
                    "query": {
                        "text": item.query.text,
                        "options": [{"label": l, "text": t} for l, t in item.query.options],
                    },
                    "gold": item.gold,
                    "subtitle_path": item.subtitle_path,
                    "caption_path": item.caption_path,
                }
            )
        manifest = tmp_path / "mini.jsonl"
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        report = evaluate(manifest, RunConfig(), backends, tmp_path / "mem")
        assert report.accuracy["overall"] == 75.0
        assert report.counts == {
            "total": 4, "correct": 3, "attempted": 4, "unparseable": 0, "errors": 0,
        }

    def test_empty_manifest_rejected(self, tmp_path, backends):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(ManifestError):
            evaluate(path, RunConfig(), backends, tmp_path / "mem")

    def test_missing_source_file_names_item(self, tmp_path, backends):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps(
                {
                    "question_id": "q-broken",
                    "video_id": "v1",
                    "duration_s": 10.0,
                    "split": "short",
                    "category": "c",
                    "query": {"text": "q", "options": [
                        {"label": "A", "text": "x"}, {"label": "B", "text": "y"}]},
                    "gold": "A",
                    "subtitle_path": "missing.srt",
                }
            )
            + "\n"
        )
        with pytest.raises(ManifestError) as exc:
            evaluate(path, RunConfig(), backends, tmp_path / "mem")
        assert "q-broken" in str(exc.value)

    def test_source_unreadable_after_the_check_is_an_item_error(self, tmp_path, backends):
        # a directory passes the manifest's exists() check and then fails the
        # read, as a file deleted between the two would
        (tmp_path / "v1.srt").mkdir()
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps(
                {
                    "question_id": "q1",
                    "video_id": "v1",
                    "duration_s": 10.0,
                    "split": "short",
                    "category": "c",
                    "query": {"text": "q", "options": [
                        {"label": "A", "text": "x"}, {"label": "B", "text": "y"}]},
                    "gold": "A",
                    "subtitle_path": "v1.srt",
                }
            )
            + "\n"
        )
        report = evaluate(path, RunConfig(), backends, tmp_path / "mem")
        (record,) = report.items
        assert record.stage == "load"
        assert record.error.startswith(f"{tmp_path / 'v1.srt'}: ")
        assert report.counts["errors"] == 1

    def test_per_category_and_split_accounting(self, tmp_path, backends):
        report = evaluate(MANIFEST, RunConfig(), backends, tmp_path / "mem")
        total = sum(e["total"] for e in report.accuracy["by_category"].values())
        assert total == report.counts["total"]
        split_total = sum(e["total"] for e in report.accuracy["by_split"].values())
        assert split_total == report.counts["total"]

    def test_reflection_isolation(self, tmp_path, backends):
        config = RunConfig(reflect=False)
        mem_dir = tmp_path / "mem"
        evaluate(MANIFEST, config, backends, mem_dir)
        snapshot = {p.name: p.read_bytes() for p in mem_dir.iterdir()}
        evaluate(MANIFEST, config, backends, mem_dir)
        after = {p.name: p.read_bytes() for p in mem_dir.iterdir()}
        assert snapshot == after

    def test_delta_rendering_against_baseline(self, tmp_path, backends):
        full = evaluate(MANIFEST, RunConfig(), backends, tmp_path / "m1")
        baseline_config = RunConfig(
            evidence=EvidenceConfig(vision="uniform", text="none", memory="none")
        )
        baseline = evaluate(MANIFEST, baseline_config, backends, tmp_path / "m2")
        table = render_report_table(full, baseline)
        assert "(+" in table or "(-" in table or "(+0.0)" in table

    def test_single_worker_matches_parallel(self, tmp_path, backends):
        serial = evaluate(MANIFEST, RunConfig(workers=1), backends, tmp_path / "m1")
        parallel = evaluate(MANIFEST, RunConfig(workers=4), backends, tmp_path / "m2")
        assert serial.to_json_bytes() == parallel.to_json_bytes()


def test_memory_tokens_grow_at_most_linearly_in_episode_count(backends):
    from gcagent.memory import build_memory, memory_token_count

    # per-episode serialization adds a bounded constant on top of the
    # budget-capped summary
    budget, overhead = 30, 12
    for topic_count in (1, 4, 12, 25):
        rows, t = [], 0.0
        for k in range(topic_count):
            for j in range(3):
                rows.append((t, t + 1.0, f"topic {k} line {j} alpha beta gamma delta"))
                t += 1.0
            t += 9.0
        transcript = make_transcript(rows)
        memory = build_memory(transcript, backends.manager)
        assert memory_token_count(memory) <= len(memory.episodes) * (budget + overhead)


def _vid01_items():
    return [item for item in load_manifest(MANIFEST) if item.video_id == "vid01"]


@pytest.mark.parametrize("name", sorted(ABLATION_ROWS))
def test_prompt_tokens_sum_per_part_equals_the_payload_count(tmp_path, backends, name):
    store = MemoryStore(tmp_path / "mem")
    config = RunConfig(evidence=ABLATION_ROWS[name])
    for item in _vid01_items():
        session = _item_session(item, store)
        store.get_or_build(item.video_id, session.transcript, backends.manager)
        outcome = answer(session, item.query, config, backends)
        assert outcome.prompt_tokens() == count_tokens(outcome.request.text_payload()).count


def test_full_transcript_questions_match_fresh_backends(tmp_path):
    """One reference backend in both roles answers full-transcript questions
    as fresh backends do: no request changes a later response."""
    backend = ReferenceBackend()
    backends = BackendPair(manager=backend, reasoner=backend)
    store = MemoryStore(tmp_path / "mem")
    items = _vid01_items()
    config = RunConfig(evidence=ABLATION_ROWS["full_transcript_memory"])
    results = [run_pipeline(item, config, backends, store) for item in items]
    fresh = BackendPair(manager=ReferenceBackend(), reasoner=ReferenceBackend())
    expected = [
        run_pipeline(item, config, fresh, MemoryStore(tmp_path / "fresh")) for item in items
    ]
    assert results == expected
