"""Command-line interface.

Subcommands: build-memory (precompute episodic memory from subtitles or
captions), ask (answer one question, optionally in an interactive loop),
eval (batch evaluation over a manifest), stats (token-compression numbers).

Exit codes: 0 ok, 1 input error, 2 backend error, 64 usage error.
Config precedence: flags > config file > environment > defaults. In
reference mode no endpoint may be configured and nothing touches the
network; --dry-run additionally forces reference backends and prints the
assembled reasoning request instead of calling any backend.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import re
import sys
from pathlib import Path

from .backend import HttpBackend, ImagePart, TextPart, load_template_file
from .backend import TEMPLATE_IDS, ChatRequest
from .errors import (
    BackendFailure,
    ConfigError,
    GcagentError,
    InvariantViolation,
    ManifestError,
    MemoryFileError,
    ParseError,
    StageError,
)
from .harness import (
    BackendPair,
    RunConfig,
    RunReport,
    _item_session,
    _staged,
    answer,
    bucket_token_stats,
    compute_token_stats,
    evaluate,
    load_manifest,
    render_report_table,
)
from .memory import MemoryParams, MemoryStore, VideoSession, build_memory, memory_token_count
from .perception import PerceptionParams, Query
from .reasoning import EvidenceConfig
from .reference import ReferenceBackend
from .transcript import Transcript, load_transcript

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BACKEND = 2
EXIT_USAGE = 64

_DEFAULTS: dict = {
    "reference": None,  # auto: true unless an endpoint is configured
    "manager": {"endpoint": None, "model": "manager", "timeout_s": 60.0, "max_retries": 3,
                "multimodal": False},
    "reasoner": {"endpoint": None, "model": "reasoner", "timeout_s": 120.0, "max_retries": 3,
                 "multimodal": True},
    "perception": {"top_k": 5, "pad_s": 2.0, "merge_window_s": 10.0, "max_frames": 32,
                   "context_budget": 2048},
    "memory": {"gap_threshold_s": 5.0, "max_lines": 20, "summary_budget": 30,
               "refers_back_overlap": 3},
    "evidence": {"vision": "qr_segment", "text": "qr_transcript",
                 "memory": "schematic_plus_narrative"},
    "memory_dir": "memories",
    "templates_dir": None,
    "workers": 4,
    "strict": False,
}

_OVERRIDE_SECTIONS = {
    "vision": ("evidence", "vision"),
    "text": ("evidence", "text"),
    "memory": ("evidence", "memory"),
    "top_k": ("perception", "top_k"),
    "pad_s": ("perception", "pad_s"),
    "merge_window_s": ("perception", "merge_window_s"),
    "max_frames": ("perception", "max_frames"),
    "context_budget": ("perception", "context_budget"),
    "gap_threshold_s": ("memory_params", "gap_threshold_s"),
    "max_lines": ("memory_params", "max_lines"),
    "summary_budget": ("memory_params", "summary_budget"),
    "refers_back_overlap": ("memory_params", "refers_back_overlap"),
}


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _coerce(raw: str):
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_settings(cfg: dict) -> None:
    """Raise `ConfigError` for a role setting, `memory_dir` or
    `templates_dir` of a type or range the backends and the store cannot
    use."""
    for role in ("manager", "reasoner"):
        role_cfg = cfg[role]
        endpoint = role_cfg.get("endpoint")
        if endpoint is not None and not isinstance(endpoint, str):
            raise ConfigError(f"{role}.endpoint must be a string, got {endpoint!r}")
        timeout = role_cfg.get("timeout_s", 60.0)
        if not _is_number(timeout) or not timeout > 0:  # also rejects NaN
            raise ConfigError(f"{role}.timeout_s must be a number > 0, got {timeout!r}")
        retries = role_cfg.get("max_retries", 3)
        if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
            raise ConfigError(f"{role}.max_retries must be an integer >= 0, got {retries!r}")
    if not isinstance(cfg["memory_dir"], str) or not cfg["memory_dir"]:
        raise ConfigError(f"memory_dir must be a non-empty string, got {cfg['memory_dir']!r}")
    if cfg["templates_dir"] is not None and not isinstance(cfg["templates_dir"], str):
        raise ConfigError(f"templates_dir must be a string, got {cfg['templates_dir']!r}")


def load_config(config_args: list[str] | None, reference_flag: bool) -> dict:
    """Resolve the effective configuration. Each --config value is either a
    JSON file path or inline key=value overrides."""
    cfg = json.loads(json.dumps(_DEFAULTS))  # deep copy
    for value in config_args or []:
        if "=" in value:
            for chunk in value.split(","):
                key, _, raw = chunk.partition("=")
                key = key.strip()
                if not key or not raw:
                    raise ConfigError(f"bad inline override {chunk!r}")
                if key in _OVERRIDE_SECTIONS:
                    section, name = _OVERRIDE_SECTIONS[key]
                    section = "memory" if section == "memory_params" else section
                    cfg[section][name] = _coerce(raw.strip())
                elif key in cfg:
                    cfg[key] = _coerce(raw.strip())
                else:
                    raise ConfigError(f"unknown config key {key!r}")
        else:
            path = Path(value)
            if not path.exists():
                raise ConfigError(f"config file not found: {value}")
            try:
                loaded = json.loads(path.read_text(encoding="utf-8"))
            except ValueError as exc:
                raise ConfigError(f"config file {value}: {exc}") from None
            if not isinstance(loaded, dict):
                raise ConfigError(f"config file {value}: top level must be an object")
            cfg = _merge(cfg, loaded)
    for section in ("manager", "reasoner", "perception", "memory", "evidence"):
        if not isinstance(cfg[section], dict):
            raise ConfigError(f"{section} must be an object, got {cfg[section]!r}")
    _check_settings(cfg)
    if reference_flag:
        cfg["reference"] = True
    if cfg["reference"] is None:
        cfg["reference"] = not (cfg["manager"]["endpoint"] or cfg["reasoner"]["endpoint"])
    if cfg["reference"]:
        for role in ("manager", "reasoner"):
            if cfg[role]["endpoint"]:
                raise ConfigError(
                    f"reference mode forbids an endpoint for the {role} role"
                )
    for params, fields in (
        (PerceptionParams, cfg["perception"]),
        (MemoryParams, cfg["memory"]),
        (RunConfig, {"workers": cfg["workers"]}),
    ):
        try:
            params(**fields)
        except (InvariantViolation, TypeError) as exc:  # TypeError: an unknown field
            raise ConfigError(str(exc)) from None
    return cfg


def _load_templates(cfg: dict) -> dict | None:
    directory = cfg.get("templates_dir")
    if not directory:
        return None
    overrides = {}
    for template_id in TEMPLATE_IDS:
        path = Path(directory) / f"{template_id}.txt"
        if path.exists():
            overrides[template_id] = load_template_file(template_id, path)
    return overrides or None


def _build_backends(cfg: dict, force_reference: bool = False) -> BackendPair:
    if cfg["reference"] or force_reference:
        reference = ReferenceBackend()
        return BackendPair(manager=reference, reasoner=reference)
    backends = {}
    for role in ("manager", "reasoner"):
        role_cfg = cfg[role]
        if not role_cfg["endpoint"]:
            raise ConfigError(f"{role} role needs an endpoint (or use --reference)")
        backends[role] = HttpBackend(
            endpoint=role_cfg["endpoint"],
            model=role_cfg["model"],
            multimodal=bool(role_cfg.get("multimodal", False)),
            timeout_s=float(role_cfg.get("timeout_s", 60.0)),
            max_retries=int(role_cfg.get("max_retries", 3)),
        )
    return BackendPair(manager=backends["manager"], reasoner=backends["reasoner"])


def _run_config(cfg: dict) -> RunConfig:
    return RunConfig(
        evidence=EvidenceConfig(**cfg["evidence"]),
        memory_params=MemoryParams(**cfg["memory"]),
        perception_params=PerceptionParams(**cfg["perception"]),
        strict=bool(cfg["strict"]),
        workers=cfg["workers"],
        templates=_load_templates(cfg),
    )


def render_request(request: ChatRequest) -> str:
    """Human-readable dump of an assembled request (used by --dry-run)."""
    lines = [f"system: {request.system}", ""]
    for part in request.user_parts:
        if isinstance(part, TextPart):
            lines.append(part.text)
        elif isinstance(part, ImagePart):
            lines.append(f"[frame @ {part.timestamp_s:.3f}s] {part.uri}")
    return "\n".join(lines)


def parse_options_arg(raw: str) -> tuple[tuple[str, str], ...]:
    """Parse 'A: text | B: text' (also accepts 'A) text' and 'A. text')."""
    entries = [e.strip() for e in raw.split("|") if e.strip()]
    options = []
    for entry in entries:
        m = re.match(r"^([A-Za-z])\s*[\).:]\s*(.+)$", entry)
        if not m:
            raise ConfigError(
                f"bad option entry {entry!r}; expected 'A: text | B: text'"
            )
        options.append((m.group(1).upper(), m.group(2).strip()))
    labels = [label for label, _ in options]
    expected = [chr(ord("A") + i) for i in range(len(labels))]
    if len(labels) < 2 or labels != expected:
        raise ConfigError(
            f"option labels must run A, B, C, ... without gaps; got {labels}"
        )
    return tuple(options)


# --- subcommands ------------------------------------------------------------------

def _transcript_from_args(args) -> Transcript:
    path = args.subtitles or args.captions
    if not path:
        raise ConfigError("provide --subtitles or --captions")
    return load_transcript(path, video_duration_s=args.duration)


def cmd_build_memory(args, cfg: dict) -> int:
    transcript = load_transcript(args.input, video_duration_s=args.duration)
    if args.dry_run:
        print(
            f"dry-run: parsed {len(transcript.lines)} lines, "
            f"{transcript.token_count} tokens; nothing written"
        )
        return EXIT_OK
    manager = _build_backends(cfg).manager
    params = MemoryParams(**cfg["memory"])
    out_path = Path(args.out) if args.out else Path(args.input).with_suffix(".memory.json")
    store = MemoryStore(out_path.parent)
    memory = store.build(out_path, transcript, manager, params, _load_templates(cfg)).memory
    t_tokens = transcript.token_count
    m_tokens = memory_token_count(memory)
    stats = compute_token_stats(t_tokens, m_tokens)
    reduction = "n/a" if stats.reduction_pct is None else f"{stats.reduction_pct:.1f}%"
    print(
        f"wrote {out_path}: {len(memory.episodes)} episodes, "
        f"transcript_tokens={t_tokens} memory_tokens={m_tokens} reduction={reduction}"
    )
    return EXIT_OK


def _ask_session(args, transcript, backends: BackendPair, config: RunConfig) -> VideoSession:
    """The session `ask` answers from: the --memory file's, opened through a
    store at its directory, or one holding a memory built in this process.
    A dry run writes no file."""
    manager = backends.manager if args.build_on_demand else None
    if args.memory:
        file = Path(args.memory)
        return MemoryStore(file.parent).open(
            file, transcript, manager, config.memory_params, config.templates, not args.dry_run
        )
    if manager is None:
        raise ConfigError("provide --memory FILE or --build-on-demand")
    memory = build_memory(transcript, manager, config.memory_params, config.templates)
    return VideoSession(transcript=transcript, memory=memory)


def cmd_ask(args, cfg: dict) -> int:
    transcript = _transcript_from_args(args)
    backends = _build_backends(cfg, force_reference=args.dry_run)
    config = dataclasses.replace(_run_config(cfg), reflect=not args.no_reflect)
    session = _staged("memory", _ask_session, args, transcript, backends, config)

    def _one(question: str, options) -> None:
        query = Query(text=question, options=options)
        outcome = answer(session, query, config, backends, dry_run=args.dry_run)
        if outcome.result is None:
            print(render_request(outcome.request))
            return
        spans = ", ".join(f"{s.start_s:.2f}-{s.end_s:.2f}" for s in outcome.perception.spans)
        print(f"Answer: {outcome.result.answer_id}")
        print(f"Evidence: {outcome.result.evidence}")
        print(f"Spans: {spans if spans else '(uniform fallback)'}")
        if config.reflect:
            print(f"Memory version: {session.memory.version}")

    if args.interactive:
        print("ask> question | A: option | B: option   (empty line or 'quit' to exit)",
              file=sys.stderr)
        for raw in sys.stdin:
            raw = raw.strip()
            if not raw or raw.lower() in ("quit", "exit"):
                break
            question, _, options_raw = raw.partition("|")
            try:
                options = parse_options_arg(options_raw)
                _one(question.strip(), options)
            except GcagentError as exc:
                print(f"error: {exc}", file=sys.stderr)
        return EXIT_OK
    if not args.question or not args.options:
        raise ConfigError("provide --question and --options (or --interactive)")
    _one(args.question, parse_options_arg(args.options))
    return EXIT_OK


def cmd_eval(args, cfg: dict) -> int:
    if args.dry_run:
        items = load_manifest(args.manifest)
        if not items:
            raise ManifestError(args.manifest, "no items")
        print(f"dry-run: manifest has {len(items)} items, nothing executed")
        return EXIT_OK
    baseline = _load_baseline(args.compare) if args.compare else None
    backends = _build_backends(cfg)
    run_config = _run_config(cfg)
    if args.no_reflect:
        run_config = dataclasses.replace(run_config, reflect=False)
    report = evaluate(args.manifest, run_config, backends, cfg["memory_dir"])
    out_path = Path(args.out)
    out_path.write_bytes(report.to_json_bytes())
    print(render_report_table(report, baseline))
    print(f"report written to {out_path}")
    if cfg["strict"] and report.counts["errors"] > 0:
        return EXIT_BACKEND
    return EXIT_OK


def _load_baseline(path: str) -> RunReport:
    """The `--compare` report; a file that is missing, is no JSON object, or
    whose `accuracy` sections do not map names to objects with a numeric (or
    null) `accuracy` is a config error."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"baseline report not found: {path}") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"baseline report {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"baseline report {path}: top level must be an object")
    accuracy = doc.get("accuracy", {})
    if not isinstance(accuracy, dict):
        raise ConfigError(f"baseline report {path}: accuracy must be an object")
    sections = {}
    for section in ("by_split", "by_category"):
        entries = sections[section] = accuracy.get(section, {})
        if not isinstance(entries, dict) or not all(
            isinstance(entry, dict)
            and (entry.get("accuracy") is None or _is_number(entry["accuracy"]))
            for entry in entries.values()
        ):
            raise ConfigError(
                f"baseline report {path}: accuracy.{section} must map names to "
                "objects whose accuracy is a number or null"
            )
    return RunReport(
        config=doc.get("config", {}),
        items=[],
        counts=doc.get("counts", {}),
        accuracy={"overall": accuracy.get("overall"), **sections},
        token_stats=doc.get("token_stats", {}),
        memory_versions=doc.get("memory_versions", {}),
    )


def cmd_stats(args, cfg: dict) -> int:
    if args.manifest:
        items = load_manifest(args.manifest)
        store = MemoryStore(args.memory_dir or cfg["memory_dir"])
        manager = _build_backends(cfg).manager
        params = MemoryParams(**cfg["memory"])
        templates = _load_templates(cfg)
        videos = {}
        for item in sorted(items, key=lambda it: it.question_id):
            if item.video_id in videos:
                continue
            session = _item_session(item, store)
            store.get_or_build(item.video_id, session.transcript, manager, params, templates)
            videos[item.video_id] = (
                item.duration_s, session.transcript.token_count, session.memory_tokens()
            )
        rows = []
        for bucket, stats in bucket_token_stats(videos.values()).items():
            reduction = stats["reduction_pct"]
            reduction = "n/a" if reduction is None else f"{reduction:.1f}%"
            rows.append(
                f"{bucket:<9} videos={stats['videos']} "
                f"transcript={stats['transcript_tokens']:.1f} "
                f"memory={stats['memory_tokens']:.1f} reduction={reduction}"
            )
        print("\n".join(rows) if rows else "no videos")
        return EXIT_OK
    transcript = _transcript_from_args(args)
    if not args.memory:
        raise ConfigError("provide --memory FILE (or --manifest)")
    file = Path(args.memory)
    session = MemoryStore(file.parent).open(file, transcript)
    stats = compute_token_stats(transcript.token_count, session.memory_tokens())
    print(json.dumps(stats.to_json_dict()))
    return EXIT_OK


# --- driver -------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_global_flags(parser: argparse.ArgumentParser, trailing: bool) -> None:
    # trailing copies (on subparsers) use SUPPRESS defaults so a flag given
    # before the subcommand is not reset when the subparser runs
    config_default = argparse.SUPPRESS if trailing else []
    flag_default = argparse.SUPPRESS if trailing else False
    parser.add_argument("--config", action="append", metavar="PATH|K=V",
                        default=config_default,
                        help="config file path or inline key=value,... overrides")
    parser.add_argument("--reference", action="store_true", default=flag_default,
                        help="use the deterministic reference backends")
    parser.add_argument("--verbose", action="store_true", default=flag_default,
                        help="log progress to stderr")
    parser.add_argument("--dry-run", action="store_true", dest="dry_run",
                        default=flag_default,
                        help="assemble and print, never call a backend")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gcagent", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_global_flags(parser, trailing=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build-memory", help="construct episodic memory from a transcript")
    _add_global_flags(p_build, trailing=True)
    p_build.add_argument("input", help="subtitle (.srt/.vtt) or caption (.jsonl) file")
    p_build.add_argument("--out", help="output memory JSON path")
    p_build.add_argument("--duration", type=float, default=None, help="video duration (s)")
    p_build.set_defaults(func=cmd_build_memory)

    p_ask = sub.add_parser("ask", help="answer one question about a video")
    _add_global_flags(p_ask, trailing=True)
    p_ask.add_argument("--subtitles", help="subtitle file (.srt/.vtt)")
    p_ask.add_argument("--captions", help="caption document (.jsonl)")
    p_ask.add_argument("--duration", type=float, default=None, help="video duration (s)")
    p_ask.add_argument("--memory", help="memory JSON path (read, and updated on reflection)")
    p_ask.add_argument("--build-on-demand", action="store_true", dest="build_on_demand",
                       help="build memory when missing or stale")
    p_ask.add_argument("--question", help="question text")
    p_ask.add_argument("--options", help="'A: text | B: text | ...'")
    p_ask.add_argument("--no-reflect", action="store_true", dest="no_reflect",
                       help="skip the reflection update")
    p_ask.add_argument("--interactive", action="store_true",
                       help="read questions from stdin in a loop")
    p_ask.set_defaults(func=cmd_ask)

    p_eval = sub.add_parser("eval", help="evaluate a benchmark manifest")
    _add_global_flags(p_eval, trailing=True)
    p_eval.add_argument("manifest", help="JSONL manifest path")
    p_eval.add_argument("--out", default="report.json", help="report JSON output path")
    p_eval.add_argument("--compare", help="baseline report JSON for delta columns")
    p_eval.add_argument("--no-reflect", action="store_true", dest="no_reflect")
    p_eval.set_defaults(func=cmd_eval)

    p_stats = sub.add_parser("stats", help="token-compression statistics")
    _add_global_flags(p_stats, trailing=True)
    p_stats.add_argument("--subtitles", help="subtitle file")
    p_stats.add_argument("--captions", help="caption document")
    p_stats.add_argument("--duration", type=float, default=None)
    p_stats.add_argument("--memory", help="memory JSON path")
    p_stats.add_argument("--manifest", help="aggregate over a manifest instead")
    p_stats.add_argument("--memory-dir", dest="memory_dir", help="memory cache directory")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits; surface the code instead
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        cfg = load_config(args.config, args.reference)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"gcagent: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ManifestError, MemoryFileError) as exc:
        print(f"gcagent: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StageError as exc:
        if isinstance(exc.cause, MemoryFileError):
            print(f"gcagent: input error: {exc.cause}", file=sys.stderr)
            return EXIT_INPUT
        print(f"gcagent: stage '{exc.stage}' failed: {exc.cause}", file=sys.stderr)
        if isinstance(exc.cause, ConfigError):
            return EXIT_USAGE
        if isinstance(exc.cause, BackendFailure):
            return EXIT_BACKEND
        return EXIT_INPUT
    except BackendFailure as exc:
        print(f"gcagent: backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except GcagentError as exc:
        print(f"gcagent: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
