from __future__ import annotations

import dataclasses
import json

import pytest

import gcagent.cli
from gcagent.cli import EXIT_BACKEND, EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from gcagent.harness import BackendPair
from gcagent.memory import load_memory, memory_token_count
from gcagent.reference import ReferenceBackend

from conftest import FIXTURES

# the fixture manifest includes one zero-overlap query on purpose
pytestmark = pytest.mark.filterwarnings(
    "ignore::gcagent.errors.NoRelevantContentWarning"
)

VID01 = str(FIXTURES / "videos" / "vid01.srt")
VID02 = str(FIXTURES / "videos" / "vid02.srt")
MANIFEST = str(FIXTURES / "manifest.jsonl")


def run_cli(*argv) -> int:
    return main(list(argv))


def _manifest_items() -> list[dict]:
    lines = (FIXTURES / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


class TestBuildMemory:
    def test_reference_build_writes_file(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = run_cli("--reference", "build-memory", VID01, "--out", str(out))
        assert code == EXIT_OK
        assert out.exists()
        assert "episodes" in capsys.readouterr().out

    def test_same_input_twice_identical_files(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("--reference", "build-memory", VID01, "--out", str(out1)) == EXIT_OK
        assert run_cli("--reference", "build-memory", VID01, "--out", str(out2)) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_input_exits_1_with_cue_ordinal(self, tmp_path, capsys):
        bad = tmp_path / "bad.srt"
        bad.write_bytes(b"1\n00:00:05,000 --> 00:00:01,000\nbackwards\n")
        code = run_cli("--reference", "build-memory", str(bad))
        assert code == EXIT_INPUT
        assert "cue 1" in capsys.readouterr().err

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = run_cli("--reference", "--dry-run", "build-memory", VID01, "--out", str(out))
        assert code == EXIT_OK
        assert not out.exists()


class TestAsk:
    def _ask_args(self, tmp_path, *extra):
        return (
            "--reference",
            "ask",
            "--subtitles", VID01,
            "--duration", "20",
            "--memory", str(tmp_path / "vid01.memory.json"),
            "--build-on-demand",
            "--question", "why do they throw food in a big bowl",
            "--options", "A: Wash the dishes | B: Prepare to mix and taste | C: Feed the dog",
            *extra,
        )

    def test_golden_stdout(self, tmp_path, capsys):
        code = run_cli(*self._ask_args(tmp_path))
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "Answer: B" in out
        assert "Evidence: they throw food into a big bowl to mix" in out
        assert "Spans: 8.00-17.00" in out
        assert "Memory version: 2" in out

    def test_custom_reflection_template_with_memory_placeholder(self, tmp_path, capsys):
        templates = tmp_path / "templates"
        templates.mkdir()
        (templates / "reflection.txt").write_text(
            "Episode:\n{memory}\nQ: {query} -> {answer}\n<evidence>\n{evidence}\n</evidence>\n"
        )
        code = run_cli(*self._ask_args(tmp_path, "--config", f"templates_dir={templates}"))
        assert code == EXIT_OK
        assert "Memory version: 2" in capsys.readouterr().out
        saved = load_memory((tmp_path / "vid01.memory.json").read_bytes())
        notes = [n.summary for ep in saved.episodes for n in ep.reflections]
        assert notes == ["(B) they throw food into a big bowl to mix"]

    def test_repeat_is_deterministic(self, tmp_path, capsys):
        run_cli(*self._ask_args(tmp_path, "--no-reflect"))
        first = capsys.readouterr().out
        run_cli(*self._ask_args(tmp_path, "--no-reflect"))
        second = capsys.readouterr().out
        assert first == second

    def test_no_reflect_skips_memory_update(self, tmp_path, capsys):
        run_cli(*self._ask_args(tmp_path, "--no-reflect"))
        out = capsys.readouterr().out
        assert "Memory version" not in out
        saved = json.loads((tmp_path / "vid01.memory.json").read_text())
        assert saved["version"] == 1

    def test_unknown_option_label_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "--reference", "ask",
            "--subtitles", VID01,
            "--build-on-demand",
            "--question", "q",
            "--options", "A: first | Z: weird",
        )
        assert code == EXIT_USAGE

    def test_question_that_cannot_be_written_as_utf8_is_an_input_error(self, tmp_path, capsys):
        # a non-UTF-8 argv byte decodes (surrogateescape) to a lone surrogate
        memory_file = tmp_path / "vid01.memory.json"
        code = run_cli(
            "--reference", "ask",
            "--subtitles", VID01,
            "--memory", str(memory_file),
            "--build-on-demand",
            "--question", "\udcff",
            "--options", "A: first | B: second",
        )
        assert code == EXIT_INPUT
        assert "gcagent: error:" in capsys.readouterr().err
        assert load_memory(memory_file.read_bytes()).version == 1  # no note committed

    def test_dry_run_makes_no_network_calls(self, tmp_path, capsys):
        # endpoints point at a closed port; --dry-run must still succeed
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "reference": False,
                    "manager": {"endpoint": "http://127.0.0.1:9/v1", "model": "m",
                                "max_retries": 0},
                    "reasoner": {"endpoint": "http://127.0.0.1:9/v1", "model": "r",
                                 "max_retries": 0},
                }
            )
        )
        code = run_cli(
            "--config", str(config), "--dry-run",
            "ask",
            "--subtitles", VID01,
            "--duration", "20",
            "--build-on-demand",
            "--question", "why do they throw food in a big bowl",
            "--options", "A: Wash | B: Mix",
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "<question>" in out

    def test_dry_run_writes_no_memory_file(self, tmp_path, capsys):
        memory_path = tmp_path / "m.json"
        code = run_cli(
            "--reference", "--dry-run", "ask", "--subtitles", VID01,
            "--memory", str(memory_path), "--build-on-demand",
            "--question", "why do they throw food in a big bowl", "--options", "A: Wash | B: Mix",
        )
        assert code == EXIT_OK
        assert "<question>" in capsys.readouterr().out
        assert not memory_path.exists()

    def test_unreachable_endpoint_without_dry_run_is_backend_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "reference": False,
                    "manager": {"endpoint": "http://127.0.0.1:9/v1", "model": "m",
                                "max_retries": 0},
                    "reasoner": {"endpoint": "http://127.0.0.1:9/v1", "model": "r",
                                 "max_retries": 0},
                }
            )
        )
        code = run_cli(
            "--config", str(config),
            "ask",
            "--subtitles", VID01,
            "--duration", "20",
            "--build-on-demand",
            "--question", "q",
            "--options", "A: x | B: y",
        )
        err = capsys.readouterr().err
        assert code == EXIT_BACKEND
        assert "stage 'memory'" in err

    def test_evidence_override_drops_frames(self, tmp_path, capsys):
        code = run_cli(
            "--config", "vision=none,text=full_transcript,memory=none",
            "--reference", "--dry-run",
            "ask",
            "--subtitles", VID01,
            "--duration", "20",
            "--build-on-demand",
            "--question", "why do they throw food in a big bowl",
            "--options", "A: Wash | B: Mix",
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "<frames>" not in out
        assert "<transcript>" in out

    def test_interactive_loop_persists_memory(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                "why do they throw food in a big bowl | A: Wash | B: Prepare to mix and taste\n"
                "who greets Bob warmly | A: Alice | B: nobody\n"
                "quit\n"
            ),
        )
        code = run_cli(
            "--reference", "ask",
            "--subtitles", VID01,
            "--duration", "20",
            "--memory", str(tmp_path / "m.json"),
            "--build-on-demand",
            "--interactive",
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "Memory version: 2" in out
        assert "Memory version: 3" in out


class TestEval:
    def test_golden_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            "--config", f"memory_dir={tmp_path / 'mem'}",
            "--reference", "eval", MANIFEST, "--out", str(out),
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["counts"]["total"] == 13
        assert report["accuracy"]["overall"] == 92.3
        table = capsys.readouterr().out
        assert "by category:" in table

    def test_compare_prints_delta(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        run_cli("--config", f"memory_dir={tmp_path / 'm1'}",
                "--reference", "eval", MANIFEST, "--out", str(base))
        capsys.readouterr()
        out = tmp_path / "next.json"
        code = run_cli(
            "--config", f"memory_dir={tmp_path / 'm2'}",
            "--reference", "eval", MANIFEST, "--out", str(out),
            "--compare", str(base),
        )
        assert code == EXIT_OK
        assert "(+0.0)" in capsys.readouterr().out

    @pytest.mark.parametrize("content", ["not json", "[1, 2]"])
    def test_malformed_baseline_is_usage_error(self, tmp_path, capsys, content):
        base = tmp_path / "base.json"
        base.write_text(content)
        code = run_cli("--reference", "eval", MANIFEST, "--out", str(tmp_path / "r.json"),
                       "--compare", str(base))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"gcagent: config error: baseline report {base}")
        assert "Traceback" not in err

    def test_baseline_with_misshapen_accuracy_is_usage_error(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"accuracy": {"by_split": []}}))
        out = tmp_path / "r.json"
        code = run_cli("--config", f"memory_dir={tmp_path / 'mem'}",
                       "--reference", "eval", MANIFEST, "--out", str(out),
                       "--compare", str(base))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"gcagent: config error: baseline report {base}: accuracy.by_split")
        assert not out.exists()  # checked before the eval runs

    def test_unwritable_action_answer_still_writes_the_report(self, tmp_path, capsys, monkeypatch):
        """A live answer holding a lone surrogate is that item's backend
        error, so `eval --no-reflect` still writes its report."""

        class Surrogate(ReferenceBackend):
            def complete(self, request):
                response = super().complete(request)
                if request.context.get("stage") == "action":
                    return dataclasses.replace(response, text=response.text + " \ud800")
                return response

        backend = Surrogate()
        monkeypatch.setattr(
            gcagent.cli, "_build_backends",
            lambda cfg, force_reference=False: BackendPair(manager=backend, reasoner=backend),
        )
        out = tmp_path / "r.json"
        code = run_cli("--config", f"memory_dir={tmp_path / 'mem'}",
                       "eval", MANIFEST, "--no-reflect", "--out", str(out))
        assert code == EXIT_OK
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["counts"]["errors"] == report["counts"]["total"] == 13
        assert {item["stage"] for item in report["items"]} == {"action"}
        assert "UTF-8" in report["items"][0]["error"]

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_exits_1_naming_the_path(self, tmp_path, capsys, where):
        out = tmp_path / "nodir" / "r.json" if where == "missing directory" else tmp_path / "r"
        if where == "directory":
            out.mkdir()
        code = run_cli("--config", f"memory_dir={tmp_path / 'mem'}",
                       "--reference", "eval", MANIFEST, "--out", str(out))
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"gcagent: input error: {out}: ")
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.tmp"))  # the temp file is removed

    def test_empty_manifest_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        code = run_cli("--reference", "eval", str(empty))
        assert code == EXIT_INPUT
        assert "no items" in capsys.readouterr().err

    def test_strict_mode_exits_nonzero_on_item_errors(self, tmp_path, capsys):
        # one healthy item, one whose subtitle file exists but is malformed
        bad = tmp_path / "bad.srt"
        bad.write_bytes(b"1\n00:00:09,000 --> 00:00:01,000\nbackwards\n")
        rows = [
            {
                "question_id": "q1",
                "video_id": "vid01",
                "duration_s": 20.0,
                "split": "short",
                "category": "c",
                "query": {"text": "who greets Bob warmly", "options": [
                    {"label": "A", "text": "Alice"}, {"label": "B", "text": "nobody"}]},
                "gold": "A",
                "subtitle_path": VID01,
            },
            {
                "question_id": "q2",
                "video_id": "v-bad",
                "duration_s": 20.0,
                "split": "short",
                "category": "c",
                "query": {"text": "q", "options": [
                    {"label": "A", "text": "x"}, {"label": "B", "text": "y"}]},
                "gold": "A",
                "subtitle_path": str(bad),
            },
        ]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "r.json"

        code = run_cli("--config", f"memory_dir={tmp_path / 'm1'}",
                       "--reference", "eval", str(manifest), "--out", str(out))
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["counts"]["errors"] == 1
        assert report["accuracy"]["overall"] == 50.0  # error counts as incorrect
        capsys.readouterr()

        code = run_cli("--config", f"memory_dir={tmp_path / 'm2'},strict=true",
                       "--reference", "eval", str(manifest), "--out", str(out))
        assert code == EXIT_BACKEND
        report = json.loads(out.read_text())
        assert report["accuracy"]["overall"] == 100.0  # errored item excluded
        assert report["counts"]["attempted"] == 1

    def test_missing_subtitle_is_manifest_error_naming_item(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
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
                    "subtitle_path": "missing.srt",
                }
            )
            + "\n"
        )
        code = run_cli(
            "--config", f"memory_dir={tmp_path / 'mem'}",
            "--reference", "eval", str(manifest), "--out", str(tmp_path / "r.json"),
        )
        assert code == EXIT_INPUT
        assert "q1" in capsys.readouterr().err


class TestStats:
    def test_single_pair(self, tmp_path, capsys):
        memory_path = tmp_path / "m.json"
        run_cli("--reference", "build-memory", VID01, "--out", str(memory_path))
        capsys.readouterr()
        code = run_cli(
            "--reference", "stats",
            "--subtitles", VID01, "--duration", "20", "--memory", str(memory_path),
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"transcript_tokens", "memory_tokens", "reduction_pct"}

    def test_manifest_buckets(self, tmp_path, capsys):
        code = run_cli(
            "--reference", "stats",
            "--manifest", MANIFEST, "--memory-dir", str(tmp_path / "mem"),
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "30-60min" in out

    def test_manifest_builds_with_the_configured_templates(self, tmp_path, monkeypatch):
        templates = tmp_path / "templates"
        templates.mkdir()
        (templates / "memory_segmentation.txt").write_text("Custom segmentation.\n{transcript}")
        payloads = []

        class Recording(ReferenceBackend):
            def complete(self, request):
                if request.context.get("stage") == "memory_segmentation":
                    payloads.append(request.text_payload())
                return super().complete(request)

        backend = Recording()
        monkeypatch.setattr(
            gcagent.cli, "_build_backends",
            lambda cfg, force_reference=False: BackendPair(manager=backend, reasoner=backend),
        )
        code = run_cli(
            "--config", f"templates_dir={templates}",
            "stats", "--manifest", MANIFEST, "--memory-dir", str(tmp_path / "mem"),
        )
        assert code == EXIT_OK
        assert len(payloads) == 12  # one build per fixture video
        assert all(payload.startswith("Custom segmentation.") for payload in payloads)

    def test_memory_of_another_transcript_exits_1(self, tmp_path, capsys):
        memory_path = tmp_path / "m.json"
        run_cli("--reference", "build-memory", VID01, "--out", str(memory_path))
        capsys.readouterr()
        code = run_cli(
            "--reference", "stats",
            "--subtitles", str(FIXTURES / "videos" / "vid02.srt"),
            "--memory", str(memory_path),
        )
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"gcagent: input error: {memory_path}: memory digest does not match the transcript\n"
        )


class TestUnreadableTranscript:
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("command", ["build-memory", "ask", "stats"])
    def test_exits_1_naming_the_path(self, tmp_path, capsys, kind, command):
        path = tmp_path / "video.srt"
        if kind == "directory":
            path.mkdir()
        argv = {
            "build-memory": ("build-memory", str(path)),
            "ask": ("ask", "--subtitles", str(path), "--build-on-demand",
                    "--question", "q", "--options", "A: x | B: y"),
            "stats": ("stats", "--subtitles", str(path), "--memory", str(tmp_path / "m.json")),
        }[command]
        assert run_cli("--reference", *argv) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"gcagent: input error: {path}: ")


_ASK = ("ask", "--question", "q", "--options", "A: x | B: y")


class TestUnreadableMemory:
    @pytest.mark.parametrize(
        "kind, argv",
        [
            ("missing", ("stats",)),
            ("directory", ("stats",)),
            ("missing", _ASK),
            ("directory", _ASK),
            ("directory", (*_ASK, "--build-on-demand")),
            ("corrupt", ("stats",)),
            ("corrupt", _ASK),
            ("corrupt", (*_ASK, "--build-on-demand")),
            ("stale", _ASK),
            ("missing-directory", ("stats",)),
            ("missing-directory", _ASK),
        ],
        ids=["stats-missing", "stats-directory", "ask-missing", "ask-directory",
             "ask-build-on-demand-directory", "stats-corrupt", "ask-corrupt",
             "ask-build-on-demand-corrupt", "ask-stale", "stats-missing-directory",
             "ask-missing-directory"],
    )
    def test_exits_1_naming_the_path(self, tmp_path, capsys, kind, argv):
        path = tmp_path / "m.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "corrupt":
            path.write_bytes(b"{not json")
        elif kind == "stale":
            run_cli("--reference", "build-memory", VID02, "--out", str(path))
            capsys.readouterr()
        elif kind == "missing-directory":
            path = tmp_path / "absent" / "m.json"
        code = run_cli(
            "--reference", *argv[:1], "--subtitles", VID01, "--memory", str(path), *argv[1:]
        )
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"gcagent: input error: {path}: ")
        assert not (tmp_path / "absent").exists()  # a failed command makes no directory

    @pytest.mark.parametrize(
        "argv",
        [("build-memory", VID01, "--out"),
         ("ask", "--subtitles", VID01, "--build-on-demand", *_ASK[1:], "--memory")],
        ids=["build-memory", "ask-build-on-demand"],
    )
    def test_missing_directory_is_made(self, tmp_path, capsys, argv):
        path = tmp_path / "absent" / "deeper" / "m.json"
        assert run_cli("--reference", *argv, str(path)) == EXIT_OK
        load_memory(path.read_bytes())

    @pytest.mark.parametrize("kind", ["directory", "corrupt", "memory-dir-is-a-file"])
    def test_eval_records_a_memory_stage_error_and_goes_on(self, tmp_path, capsys, kind):
        memory_dir = tmp_path / "mem"
        broken = {"vid01"}
        if kind == "memory-dir-is-a-file":
            memory_dir.write_bytes(b"")
            broken = {item["video_id"] for item in _manifest_items()}
        else:
            memory_dir.mkdir()
            if kind == "directory":
                (memory_dir / "vid01.json").mkdir()
            else:
                (memory_dir / "vid01.json").write_bytes(b"{not json")
        out = tmp_path / "r.json"
        code = run_cli(
            "--config", f"memory_dir={memory_dir}", "--reference", "eval", MANIFEST,
            "--out", str(out),
        )
        assert code == EXIT_OK
        items = json.loads(out.read_text())["items"]
        assert {item["video_id"] for item in items if item["error"]} == broken
        for item in items:
            if item["video_id"] in broken:
                assert item["stage"] == "memory"
                assert item["error"].startswith(f"{memory_dir / item['video_id']}.json: ")

    def test_stats_manifest_names_the_file(self, tmp_path, capsys):
        memory_dir = tmp_path / "mem"
        (memory_dir / "vid01.json").mkdir(parents=True)
        code = run_cli(
            "--reference", "stats", "--manifest", MANIFEST, "--memory-dir", str(memory_dir)
        )
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"gcagent: input error: {memory_dir / 'vid01.json'}: "
        )

    def test_missing_file_is_built_on_demand(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        code = run_cli(
            "--reference", "ask", "--subtitles", VID01, "--duration", "20",
            "--memory", str(path), "--build-on-demand",
            "--question", "q", "--options", "A: x | B: y",
        )
        assert code == EXIT_OK
        load_memory(path.read_bytes())


def test_one_memory_file_across_commands(tmp_path, capsys):
    """build-memory writes the file; eval reuses it and adds a version per
    question; ask --memory adds one more; stats reads the result."""
    memory_dir = tmp_path / "mem"
    path = memory_dir / "vid01.json"
    assert run_cli("--reference", "build-memory", VID01, "--out", str(path)) == EXIT_OK
    built = load_memory(path.read_bytes())

    manifest = tmp_path / "vid01.jsonl"
    items = [item for item in _manifest_items() if item["video_id"] == "vid01"]
    with open(manifest, "w", encoding="utf-8") as fh:
        for item in items:
            item["subtitle_path"] = VID01
            fh.write(json.dumps(item) + "\n")
    code = run_cli(
        "--config", f"memory_dir={memory_dir}", "--reference", "eval", str(manifest),
        "--out", str(tmp_path / "r.json"),
    )
    assert code == EXIT_OK
    evaluated = load_memory(path.read_bytes())
    assert [dataclasses.replace(ep, reflections=()) for ep in evaluated.episodes] == list(
        built.episodes
    )
    assert evaluated.version == 1 + len(items)

    code = run_cli("--reference", "ask", "--subtitles", VID01, "--memory", str(path), *_ASK[1:])
    assert code == EXIT_OK
    asked = load_memory(path.read_bytes())
    assert asked.version == evaluated.version + 1
    capsys.readouterr()

    code = run_cli("--reference", "stats", "--subtitles", VID01, "--memory", str(path))
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["memory_tokens"] == memory_token_count(asked)


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli("frobnicate") == EXIT_USAGE

    def test_reference_plus_endpoint_conflict(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "reference": True,
            "manager": {"endpoint": "http://example.invalid/v1", "model": "m"},
        }))
        code = run_cli("--config", str(config), "eval", MANIFEST)
        assert code == EXIT_USAGE
        assert "reference mode forbids" in capsys.readouterr().err

    def test_config_path_that_is_a_directory_is_usage_error(self, tmp_path, capsys):
        code = run_cli("--config", str(tmp_path), "--reference", "eval", MANIFEST)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"gcagent: config error: config file {tmp_path}: ")
        assert "Traceback" not in err

    def test_unknown_config_key(self, capsys):
        code = run_cli("--config", "bogus_key=1", "eval", MANIFEST)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "override",
        [
            "top_k=-1",
            "top_k=0",
            "pad_s=-1",
            "merge_window_s=-0.5",
            "max_frames=0",
            "context_budget=0",
            "context_budget=1.5",
        ],
    )
    def test_out_of_range_perception_value_is_usage_error(self, override, capsys):
        code = run_cli("--config", override, "eval", MANIFEST)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config error: {override.split('=')[0]} must be" in err

    def test_out_of_range_perception_value_in_file_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"perception": {"top_k": 0}}))
        assert run_cli("--config", str(config), "eval", MANIFEST) == EXIT_USAGE
        assert "config error: top_k must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            "refers_back_overlap=abc",
            "refers_back_overlap=0",
            "refers_back_overlap=-1",
            "max_lines=0",
            "summary_budget=2.5",
            "gap_threshold_s=-1",
            "gap_threshold_s=nan",
        ],
    )
    def test_out_of_range_memory_value_is_usage_error(self, override, capsys):
        code = run_cli("--config", override, "eval", MANIFEST)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config error: {override.split('=')[0]} must be" in err

    def test_unknown_memory_field_in_file_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"memory": {"bogus": 1}}))
        assert run_cli("--config", str(config), "eval", MANIFEST) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error:" in err and "bogus" in err

    @pytest.mark.parametrize(
        "setting, value",
        [
            ("timeout_s", "x"),
            ("timeout_s", 0),
            ("timeout_s", True),
            ("max_retries", "x"),
            ("max_retries", -1),
            ("max_retries", 1.5),
            ("endpoint", 1),
        ],
    )
    @pytest.mark.parametrize("role", ["manager", "reasoner"])
    def test_bad_role_setting_is_usage_error(self, tmp_path, capsys, role, setting, value):
        roles = {
            r: {"endpoint": "http://127.0.0.1:9/v1", "model": r} for r in ("manager", "reasoner")
        }
        roles[role][setting] = value
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"reference": False, **roles}))
        assert run_cli("--config", str(config), "eval", MANIFEST) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"gcagent: config error: {role}.{setting} must be")

    @pytest.mark.parametrize(
        "override", ["memory_dir=1", "memory_dir=true", "templates_dir=1", "templates_dir=2.5"]
    )
    def test_bad_directory_setting_is_usage_error(self, tmp_path, capsys, override):
        code = run_cli("--config", override, "--reference", "eval", MANIFEST,
                       "--out", str(tmp_path / "r.json"))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"gcagent: config error: {override.split('=')[0]} must be")

    @pytest.mark.parametrize("section", ["manager", "reasoner", "perception", "memory", "evidence"])
    @pytest.mark.parametrize("value", [1, [], None])
    def test_section_that_is_not_an_object_is_usage_error(self, tmp_path, capsys, section, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({section: value}))
        assert run_cli("--config", str(config), "eval", MANIFEST) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            f"gcagent: config error: {section} must be an object"
        )

    @pytest.mark.parametrize("value", ["x", "0", "-2", "2.5", "true"])
    def test_workers_not_a_positive_integer_is_usage_error(self, tmp_path, capsys, value):
        code = run_cli("--config", f"workers={value}", "eval", MANIFEST)
        assert code == EXIT_USAGE
        assert "config error: workers must be an integer >= 1" in capsys.readouterr().err

    def test_workers_in_file_not_a_positive_integer_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"workers": 0}))
        assert run_cli("--config", str(config), "eval", MANIFEST) == EXIT_USAGE
        assert "config error: workers must be an integer >= 1" in capsys.readouterr().err

    def test_ask_without_question_is_usage_error(self):
        code = run_cli("--reference", "ask", "--subtitles", VID01, "--build-on-demand")
        assert code == EXIT_USAGE
