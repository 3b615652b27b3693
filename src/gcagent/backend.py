"""Language-model backend abstraction.

Both agents (memory manager and reasoner) talk to a ``Backend``: something
with a profile and a ``complete(ChatRequest) -> ChatResponse`` method. The
HTTP implementation speaks the de-facto JSON chat-completion protocol, so
any hosted or self-hosted model server can fill either role by
configuration alone. A fully deterministic in-process backend lives in
:mod:`gcagent.reference`.
"""

from __future__ import annotations

import base64
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Mapping, Protocol, Union

import requests

from .errors import (
    BackendError,
    BackendFailure,
    CapabilityMismatch,
    InvariantViolation,
    RateLimited,
    Rejected,
    Transport,
    UnboundPlaceholder,
)

API_KEY_ENV = "GCAGENT_API_KEY"
DEFAULT_MAX_RETRIES = 3
DEFAULT_MAX_INFLIGHT = 4
DEFAULT_MAX_OUTPUT_TOKENS = 1024


@dataclass(frozen=True)
class TextPart:
    text: str


@dataclass(frozen=True)
class ImagePart:
    """Reference to one sampled frame. `data` holds inline bytes when the
    frame has already been extracted; otherwise `uri` may be a data: URI,
    an http(s) URL, or a local file path resolved at send time."""

    uri: str
    timestamp_s: float
    data: bytes | None = None


Part = Union[TextPart, ImagePart]


@dataclass(frozen=True)
class ChatRequest:
    system: str
    user_parts: tuple[Part, ...]
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS
    temperature: float = 0.0
    # Routing metadata for deterministic backends (stage name, rule
    # parameters). Never serialized onto the wire.
    context: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.user_parts:
            raise InvariantViolation("ChatRequest needs at least one user part")
        if self.max_output_tokens < 1:
            raise InvariantViolation("max_output_tokens must be positive")
        if not 0.0 <= self.temperature <= 2.0:
            raise InvariantViolation("temperature must lie in [0, 2]")

    def has_images(self) -> bool:
        return any(isinstance(p, ImagePart) for p in self.user_parts)

    def text_payload(self) -> str:
        return "\n\n".join(p.text for p in self.user_parts if isinstance(p, TextPart))


@dataclass(frozen=True)
class ChatResponse:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self):
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise InvariantViolation("token counts must be non-negative")


@dataclass(frozen=True)
class BackendProfile:
    name: str
    multimodal: bool
    deterministic: bool


class Backend(Protocol):
    profile: BackendProfile

    def complete(self, request: ChatRequest) -> ChatResponse: ...


def complete(backend: Backend, request: ChatRequest) -> ChatResponse:
    """Capability-checked completion call."""
    if request.has_images() and not backend.profile.multimodal:
        raise CapabilityMismatch(
            f"backend {backend.profile.name!r} is text-only but the request has image parts"
        )
    return backend.complete(request)


def encodable(text: str) -> bool:
    """Whether `text` can be written as UTF-8. A lone surrogate, which
    `json.loads` reads from an escape such as `\\ud800`, cannot."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def complete_text(backend: Backend, request: ChatRequest) -> str:
    """The text of `complete(backend, request)`, the call every pipeline
    stage makes. A `BackendError`, and an answer that cannot be written as
    UTF-8 (so could not reach a report or a memory file), are raised as
    `BackendFailure`."""
    try:
        text = complete(backend, request).text
    except BackendError as exc:
        raise BackendFailure(str(exc)) from exc
    if not encodable(text):
        raise BackendFailure("answer holds text that cannot be written as UTF-8")
    return text


def answer_field(raw: str, key: str, kind: type):
    """`json.loads(raw)[key]` when `raw` is a JSON object whose `key` holds
    a `kind`; None otherwise, the answer then being unreadable."""
    try:
        payload = json.loads(raw)
    except (ValueError, RecursionError):  # RecursionError: nested too deep
        return None
    value = payload.get(key) if isinstance(payload, dict) else None
    return value if isinstance(value, kind) else None


# --- prompt templates ----------------------------------------------------------

TEMPLATE_IDS = (
    "memory_segmentation",
    "memory_abstraction",
    "memory_narrative",
    "perception",
    "action",
    "reflection",
)

_PLACEHOLDER = re.compile(r"\{([a-z_]+)\}")


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    body: str

    def placeholders(self) -> list[str]:
        seen: dict[str, None] = {}
        for m in _PLACEHOLDER.finditer(self.body):
            seen.setdefault(m.group(1))
        return list(seen)


def render_template(template: PromptTemplate, bindings: Mapping[str, str]) -> str:
    """Exact single-pass substitution. Binding content is inserted verbatim
    and never re-scanned, so values containing brace patterns stay intact."""
    out = list(_template_pieces(template.body))
    for i in range(1, len(out), 2):
        name = out[i]
        if name not in bindings:
            raise UnboundPlaceholder(name)
        out[i] = bindings[name]
    return "".join(out)


@lru_cache(maxsize=64)
def _template_pieces(body: str) -> tuple[str, ...]:
    """`body` split at its placeholders: literal text at even positions,
    placeholder names at odd ones."""
    return tuple(_PLACEHOLDER.split(body))


def load_template_file(template_id: str, path: str | Path) -> PromptTemplate:
    body = Path(path).read_text(encoding="utf-8")
    return PromptTemplate(id=template_id, body=body)


# --- HTTP chat-completion client ------------------------------------------------

def _image_to_url(part: ImagePart) -> str:
    if part.data is not None:
        return "data:image/jpeg;base64," + base64.b64encode(part.data).decode("ascii")
    if part.uri.startswith(("data:", "http://", "https://")):
        return part.uri
    p = Path(part.uri)
    if p.is_file():
        return "data:image/jpeg;base64," + base64.b64encode(p.read_bytes()).decode("ascii")
    raise Rejected(f"image part {part.uri!r} is not a resolvable frame")


class HttpBackend:
    """JSON chat-completion client with bounded retry and backoff.

    Retriable failures (connect errors, timeouts, 429, 5xx) are retried at
    most `max_retries` times with exponential backoff; 4xx rejections are
    never re-sent.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        *,
        multimodal: bool = False,
        api_key: str | None = None,
        timeout_s: float = 60.0,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_s: float = 0.5,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.profile = BackendProfile(name=model, multimodal=multimodal, deterministic=False)
        self._session = session or requests.Session()
        self._inflight = threading.BoundedSemaphore(max_inflight)

    def _payload(self, request: ChatRequest) -> dict:
        if request.has_images():
            content: Any = []
            for part in request.user_parts:
                if isinstance(part, TextPart):
                    content.append({"type": "text", "text": part.text})
                else:
                    content.append({"type": "image_url", "image_url": {"url": _image_to_url(part)}})
        else:
            content = request.text_payload()
        return {
            "model": self.model,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": content},
            ],
            "max_tokens": request.max_output_tokens,
            "temperature": request.temperature,
        }

    def _post_once(self, payload: dict) -> ChatResponse:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = self._session.post(
                self.endpoint, json=payload, headers=headers, timeout=self.timeout_s
            )
        except (requests.ConnectionError, requests.Timeout) as exc:
            raise Transport(str(exc)) from None
        if resp.status_code == 429:
            raise RateLimited("rate limited (HTTP 429)")
        if 400 <= resp.status_code < 500:
            raise Rejected(f"HTTP {resp.status_code}: {resp.text[:500]}")
        if resp.status_code >= 500:
            raise Transport(f"HTTP {resp.status_code}")
        try:
            body = resp.json()
            text = body["choices"][0]["message"]["content"]
            usage = body.get("usage", {})
            return ChatResponse(
                text=text if isinstance(text, str) else "",
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
            )
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise Rejected(f"malformed completion response: {exc}") from None

    def complete(self, request: ChatRequest) -> ChatResponse:
        payload = self._payload(request)
        attempt = 0
        with self._inflight:
            while True:
                try:
                    return self._post_once(payload)
                except (Transport, RateLimited):
                    if attempt >= self.max_retries:
                        raise
                    time.sleep(self.backoff_s * (2**attempt))
                    attempt += 1
