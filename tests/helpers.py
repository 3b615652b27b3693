"""Test helpers: a backend that replays canned responses, a scriptable
local chat-completion server, SRT/VTT writers for round-trip tests (the
fixture generator's), and a whole-video `Context` for perception and
action."""

from __future__ import annotations

import importlib.util
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Sequence

from gcagent.backend import BackendProfile, ChatRequest, ChatResponse
from gcagent.memory import Context, EpisodicMemory, VideoSession
from gcagent.transcript import Transcript

_GEN = importlib.util.spec_from_file_location(
    "gen_fixtures", Path(__file__).resolve().parent.parent / "tools" / "gen_fixtures.py"
)
gen_fixtures = importlib.util.module_from_spec(_GEN)
_GEN.loader.exec_module(gen_fixtures)


class ScriptedBackend:
    """Returns canned responses in order; repeats the last one. Useful for
    fault injection in tests."""

    def __init__(self, responses: Sequence[str], multimodal: bool = True):
        self._responses = list(responses)
        self._cursor = 0
        self.profile = BackendProfile(name="scripted", multimodal=multimodal, deterministic=True)

    def complete(self, request: ChatRequest) -> ChatResponse:
        text = self._responses[min(self._cursor, len(self._responses) - 1)]
        self._cursor += 1
        return ChatResponse(text=text)


def whole_context(transcript: Transcript, memory: EpisodicMemory) -> Context:
    """The context of a budget larger than any video: the whole transcript
    block and the whole memory, each sent byte for byte as it renders."""
    return VideoSession(transcript=transcript, memory=memory).context(set(), sys.maxsize)


def _cues(transcript) -> list[tuple[float, float, str]]:
    return [(line.start_s, line.end_s, line.text) for line in transcript.lines]


def srt_of(transcript) -> bytes:
    """`transcript` as an SRT file, cues numbered from 1."""
    return gen_fixtures.srt_bytes(_cues(transcript))


def vtt_of(transcript) -> bytes:
    """`transcript` as a WebVTT file."""
    return gen_fixtures.vtt_bytes(_cues(transcript))


class FakeChatServer:
    """Local HTTP server speaking the chat-completion wire format.

    `script` is a list of (status_code, response_text_or_None) entries
    consumed one per request; after the script runs out every request gets
    a 200 echoing the last scripted text. Requests are recorded in `calls`.
    """

    def __init__(self):
        self.script: list[tuple[int, str | None]] = []
        self.calls: list[dict] = []
        self._last_text = "ok"
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                outer.calls.append(json.loads(self.rfile.read(length)))
                if outer.script:
                    status, text = outer.script.pop(0)
                else:
                    status, text = 200, outer._last_text
                if text is not None:
                    outer._last_text = text
                if status != 200:
                    self.send_response(status)
                    self.end_headers()
                    self.wfile.write(b"{}")
                    return
                body = json.dumps(
                    {
                        "choices": [{"message": {"content": text}}],
                        "usage": {"prompt_tokens": 7, "completion_tokens": 3},
                    }
                ).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self) -> "FakeChatServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
