"""Acceptance suite: one test per release criterion, each printing a
PASS line when its assertions hold. Run with `pytest tests/test_acceptance.py -s`.
"""

from __future__ import annotations

import json
import os
import random
import time
import warnings
from pathlib import Path

import pytest

import gcagent.errors as errors_mod
from gcagent.backend import HttpBackend
from gcagent.cli import EXIT_OK, main
from gcagent.errors import (
    DegenerateOutputWarning,
    InvalidLinkWarning,
    UnparseableAnswer,
)
from gcagent.harness import BackendPair, RunConfig, compute_token_stats, evaluate
from gcagent.memory import build_memory, load_memory, memory_token_count, reflect, save_memory
from gcagent.perception import perceive
from gcagent.reasoning import (
    ABLATION_ROWS,
    EvidenceConfig,
    MEMORY_CHOICES,
    TEXT_CHOICES,
    VISION_CHOICES,
    act,
    assemble_evidence,
)
from gcagent.reference import ReferenceBackend
from gcagent.transcript import (
    Transcript,
    count_tokens,
    load_transcript,
    parse_caption_doc,
    parse_srt,
    parse_vtt,
)

from conftest import FIXTURES, make_transcript, random_query, random_transcript
from helpers import FakeChatServer, srt_of, vtt_of, whole_context

MANIFEST = FIXTURES / "manifest.jsonl"
VID01 = str(FIXTURES / "videos" / "vid01.srt")


def test_acceptance_1_token_compression_reference_values():
    cases = [
        (9717.7, 2045.6, 78.9),
        (2048.2, 1290.0, 37.0),
        (268.4, 592.9, -120.9),
    ]
    for transcript_tokens, memory_tokens, expected in cases:
        stats = compute_token_stats(transcript_tokens, memory_tokens)
        assert stats.reduction_pct is not None
        assert abs(stats.reduction_pct - expected) <= 0.05, (
            transcript_tokens, memory_tokens, stats.reduction_pct, expected,
        )
    print("\nACCEPTANCE 1 (token-compression math): PASS")


def test_acceptance_2_partition_property_randomized():
    rng = random.Random(20240817)
    backend = ReferenceBackend()
    transcripts = [random_transcript(rng) for _ in range(1000)]
    started = time.perf_counter()
    for transcript in transcripts:
        memory = build_memory(transcript, backend)
        covered = []
        for ep in memory.episodes:
            covered.extend(range(ep.line_range[0], ep.line_range[1] + 1))
        assert covered == list(range(1, len(transcript.lines) + 1))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"partition sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 (partition property, 1000 runs in {elapsed:.1f}s): PASS")


def _run_fixture_set(memory_dir: Path):
    backends = BackendPair(manager=ReferenceBackend(), reasoner=ReferenceBackend())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = evaluate(MANIFEST, RunConfig(), backends, memory_dir)
    return report


def test_acceptance_3_reference_mode_determinism(tmp_path):
    started = time.perf_counter()
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    report_a = _run_fixture_set(dir_a)
    report_b = _run_fixture_set(dir_b)
    assert report_a.to_json_bytes() == report_b.to_json_bytes()
    files_a = sorted(p.name for p in dir_a.iterdir())
    files_b = sorted(p.name for p in dir_b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    # stage outputs are values: re-running perception/action yields equal results
    from gcagent.harness import _required_source, load_manifest

    backend = ReferenceBackend()
    for item in load_manifest(MANIFEST)[:5]:
        transcript = load_transcript(_required_source(item), video_duration_s=item.duration_s)
        context = whole_context(transcript, build_memory(transcript, backend))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p1 = perceive(item.query, transcript, context, backend)
            p2 = perceive(item.query, transcript, context, backend)
        assert p1 == p2
        request = assemble_evidence(EvidenceConfig(), item.query, transcript, context, p1)
        assert act(item.query, request, backend) == act(item.query, request, backend)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 (byte-identical reference runs in {elapsed:.1f}s): PASS")


def _assert_append_only(before: bytes, after: bytes):
    doc_a, doc_b = json.loads(before), json.loads(after)
    assert doc_b["version"] == doc_a["version"] + 1
    assert doc_b["source_digest"] == doc_a["source_digest"]
    assert len(doc_b["episodes"]) == len(doc_a["episodes"])
    for ep_a, ep_b in zip(doc_a["episodes"], doc_b["episodes"]):
        refl_a, refl_b = ep_a.pop("reflections"), ep_b.pop("reflections")
        assert ep_a == ep_b
        assert refl_b[: len(refl_a)] == refl_a
        for extra in refl_b[len(refl_a):]:
            assert extra["created_version"] == doc_b["version"]


def test_acceptance_4_stage_contracts_randomized():
    rng = random.Random(20240817)  # same suite as the partition sweep
    backend = ReferenceBackend()
    checked = 0
    for _ in range(1000):
        transcript = random_transcript(rng)
        memory = build_memory(transcript, backend)
        query = random_query(rng, transcript)
        duration = transcript.video_duration_s or transcript.end_s
        context = whole_context(transcript, memory)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            perception = perceive(query, transcript, context, backend)
        assert len(perception.clip.frame_timestamps_s) <= 32
        for ts in perception.clip.frame_timestamps_s:
            assert 0.0 <= ts <= duration + 1e-9
        request = assemble_evidence(EvidenceConfig(), query, transcript, context, perception)
        try:
            result = act(query, request, backend)
        except UnparseableAnswer:
            continue
        assert result.answer_id in query.labels
        before = save_memory(memory)
        updated = reflect(
            query.text, query.options, result.answer_id, result.evidence,
            memory, [(s.start_s, s.end_s) for s in perception.spans], backend,
        )
        _assert_append_only(before, save_memory(updated))
        checked += 1
    assert checked > 900
    print(f"\nACCEPTANCE 4 (stage contracts on {checked} randomized runs): PASS")


_BLOCK_MARKERS = ("<memory>", "<transcript>", "<frames>", "<question>")


def _expected_blocks(config: EvidenceConfig) -> set[str]:
    blocks = {"<question>"}
    if config.memory != "none":
        blocks.add("<memory>")
    if config.text != "none":
        blocks.add("<transcript>")
    if config.vision != "none":
        blocks.add("<frames>")
    return blocks


def test_acceptance_5_composition_faithfulness(tmp_path, capsys):
    # every named ablation row, through the CLI dry-run path
    for name, config in ABLATION_ROWS.items():
        code = main(
            [
                "--config",
                f"vision={config.vision},text={config.text},memory={config.memory}",
                "--reference", "--dry-run",
                "ask",
                "--subtitles", VID01,
                "--duration", "20",
                "--memory", str(tmp_path / f"{name}.json"),
                "--build-on-demand",
                "--question", "why do they throw food in a big bowl",
                "--options", "A: Wash the dishes | B: Prepare to mix and taste",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK, name
        expected = _expected_blocks(config)
        for marker in _BLOCK_MARKERS:
            assert (marker in out) == (marker in expected), (name, marker)

    # exhaustive over the whole enum, at the API level
    backend = ReferenceBackend()
    transcript = parse_srt(Path(VID01).read_bytes()).with_duration(20.0)
    memory = build_memory(transcript, backend)
    from gcagent.perception import Query

    query = Query(
        text="why do they throw food in a big bowl",
        options=(("A", "Wash the dishes"), ("B", "Prepare to mix and taste")),
    )
    context = whole_context(transcript, memory)
    perception = perceive(query, transcript, context, backend)
    combos = 0
    for vision in VISION_CHOICES:
        for text in TEXT_CHOICES:
            for mem in MEMORY_CHOICES:
                if (vision, text, mem) == ("none", "none", "none"):
                    continue
                config = EvidenceConfig(vision=vision, text=text, memory=mem)
                request = assemble_evidence(config, query, transcript, context, perception)
                from gcagent.cli import render_request

                dump = render_request(request)
                expected = _expected_blocks(config)
                for marker in _BLOCK_MARKERS:
                    assert (marker in dump) == (marker in expected), (config, marker)
                combos += 1
    assert combos == 26

    # schematic vs narrative differ only in role/link serialization
    schematic = assemble_evidence(
        EvidenceConfig("none", "none", "schematic"), query, transcript, context
    ).user_parts[0].text
    narrative = assemble_evidence(
        EvidenceConfig("none", "none", "schematic_plus_narrative"), query, transcript, context
    ).user_parts[0].text
    for narr_line, schem_line in zip(narrative.split("\n"), schematic.split("\n")):
        if not narr_line.startswith("「"):
            assert narr_line == schem_line
            continue
        narr_fields = narr_line.strip("「」").split(" | ")
        schem_fields = schem_line.strip("「」").split(" | ")
        # a narrative line has a links field only when it lists a link other
        # than the precedes link to the previous id
        assert len(narr_fields) in (4, 5) and len(schem_fields) == 3
        assert [narr_fields[0], narr_fields[1], narr_fields[3]] == schem_fields
    print("\nACCEPTANCE 5 (evidence-composition faithfulness, 10 rows + full enum): PASS")


def test_acceptance_6_parser_round_trip_corpus():
    valid_dir = FIXTURES / "corpus" / "valid"
    files = sorted(valid_dir.iterdir())
    assert len(files) >= 50
    for path in files:
        data = path.read_bytes()
        if path.suffix == ".srt":
            first = parse_srt(data)
            second = parse_srt(srt_of(first))
        else:
            first = parse_vtt(data)
            second = parse_vtt(vtt_of(first))
        assert second == first, path.name

    bad_dir = FIXTURES / "corpus" / "malformed"
    expected = json.loads((bad_dir / "expected.json").read_text())
    assert len(expected) >= 10
    for name, error_name in expected.items():
        error_cls = getattr(errors_mod, error_name)
        data = (bad_dir / name).read_bytes()
        with pytest.raises(error_cls):
            if name.endswith(".srt"):
                parse_srt(data)
            elif name.endswith(".vtt"):
                parse_vtt(data)
            else:
                parse_caption_doc(data)
    print(f"\nACCEPTANCE 6 (round-trip on {len(files)} corpus files, "
          f"{len(expected)} malformed cases): PASS")


def _compression_fixture(lines_per_topic: int, topics: int, tokens_per_line: int) -> Transcript:
    rows = []
    t = 0.0
    counter = 0
    for _ in range(topics):
        for _ in range(lines_per_topic):
            words = " ".join(f"w{counter * 64 + j:05d}" for j in range(tokens_per_line))
            counter += 1
            rows.append((t, t + 2.0, words))
            t += 2.0
        t += 10.0
    return make_transcript(rows)


def _oracle_memory_tokens(lines_per_topic: int, topics: int, tokens_per_line: int) -> int:
    # serialized episode line `「id | span | role | summary」` = 6 structural
    # tokens + the unit text capped at the 30-token budget; no line has a
    # links field, as every word is unique (no refers_back) and the one
    # precedes link targets the previous id
    units: list[int] = []
    for _ in range(topics):
        remaining = lines_per_topic
        while remaining > 20:
            units.append(20)
            remaining -= 20
        units.append(remaining)
    return sum(6 + min(u * tokens_per_line, 30) for u in units)


def test_acceptance_7_compression_direction_with_scale():
    shapes = [  # (lines_per_topic, topics, tokens_per_line) -> 200 / 2000 / 10000 tokens
        (2, 10, 10),
        (20, 10, 10),
        (50, 10, 20),
    ]
    golden = [(200, 260), (2000, 360), (10000, 1080)]  # derived before the build
    backend = ReferenceBackend()
    ratios = []
    for (lpt, topics, tpl), (expect_t, expect_m) in zip(shapes, golden):
        transcript = _compression_fixture(lpt, topics, tpl)
        t_tokens = count_tokens(transcript.full_text()).count
        memory = build_memory(transcript, backend)
        m_tokens = memory_token_count(memory)
        assert t_tokens == expect_t
        assert _oracle_memory_tokens(lpt, topics, tpl) == expect_m
        assert m_tokens == expect_m
        ratios.append(m_tokens / t_tokens)
    assert ratios[0] > ratios[1] > ratios[2]
    print(f"\nACCEPTANCE 7 (compression ratios {[round(r, 3) for r in ratios]} "
          "strictly decreasing): PASS")


def test_acceptance_8_fault_injection_repair_paths():
    transcript = make_transcript(
        [(0.0, 1.0, "first line"), (1.2, 2.0, "second line"),
         (2.2, 3.0, "third line"), (3.2, 4.0, "fourth line")]
    )
    with FakeChatServer() as server:
        server.script = [
            (200, '{"units": [[2, 3], [9, 9]]}'),            # degenerate segmentation
            (200, json.dumps({"units": [                      # both units, one request
                {"summary": "opening beat", "entities": []},
                {"summary": "closing beat", "entities": []},
            ]})),
            (200, json.dumps({"episodes": [
                {"id": 0, "narrative_role": "prologue", "causal_links": []},
                {"id": 1, "narrative_role": "resolution",
                 "causal_links": [{"target_id": 7, "relation": "precedes"}]},
            ]})),
        ]
        backend = HttpBackend(server.url, "faulty", api_key="k", backoff_s=0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            memory = build_memory(transcript, backend)
        categories = {type(w.message) for w in caught}
        assert DegenerateOutputWarning in categories
        assert InvalidLinkWarning in categories
    covered = [i for ep in memory.episodes for i in range(ep.line_range[0], ep.line_range[1] + 1)]
    assert covered == [1, 2, 3, 4]
    assert load_memory(save_memory(memory)) == memory
    print("\nACCEPTANCE 8 (fault-injection repair paths): PASS")


@pytest.mark.skipif(
    not os.environ.get("GCAGENT_SMOKE_ENDPOINT"),
    reason="live smoke test runs only when GCAGENT_SMOKE_ENDPOINT is set",
)
def test_acceptance_8b_live_endpoint_smoke(tmp_path):
    endpoint = os.environ["GCAGENT_SMOKE_ENDPOINT"]
    model = os.environ.get("GCAGENT_SMOKE_MODEL", "default")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "reference": False,
        "manager": {"endpoint": endpoint, "model": model},
        "reasoner": {"endpoint": endpoint, "model": model},
    }))
    memory_path = tmp_path / "m.json"
    code = main(["--config", str(config), "build-memory", VID01, "--out", str(memory_path)])
    assert code == EXIT_OK
    load_memory(memory_path.read_bytes())
    code = main([
        "--config", str(config), "ask",
        "--subtitles", VID01, "--duration", "20",
        "--memory", str(memory_path),
        "--question", "why do they throw food in a big bowl",
        "--options", "A: Wash the dishes | B: Prepare to mix and taste",
    ])
    assert code == EXIT_OK
    print("\nACCEPTANCE 8b (live endpoint smoke): PASS")
