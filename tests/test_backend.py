from __future__ import annotations

import pytest

from gcagent.backend import (
    ChatRequest,
    HttpBackend,
    ImagePart,
    PromptTemplate,
    TextPart,
    complete,
    complete_text,
    load_template_file,
    render_template,
)
from gcagent.errors import (
    BackendFailure,
    CapabilityMismatch,
    InvariantViolation,
    RateLimited,
    Rejected,
    Transport,
    UnboundPlaceholder,
)
from gcagent.reference import ReferenceBackend

from helpers import FakeChatServer


class TestRenderTemplate:
    def test_simple_substitution(self):
        tmpl = PromptTemplate(id="action", body="Q: {query}")
        assert render_template(tmpl, {"query": "why?"}) == "Q: why?"

    def test_unbound_placeholder(self):
        tmpl = PromptTemplate(id="action", body="Q: {query}")
        with pytest.raises(UnboundPlaceholder) as exc:
            render_template(tmpl, {})
        assert exc.value.name == "query"

    def test_repeated_placeholder_substituted_everywhere(self):
        tmpl = PromptTemplate(id="reflection", body="{memory} and again {memory}")
        assert render_template(tmpl, {"memory": "M"}) == "M and again M"

    def test_binding_content_not_rescanned(self):
        tmpl = PromptTemplate(id="action", body="Q: {query}")
        out = render_template(tmpl, {"query": "literal {memory} stays"})
        assert out == "Q: literal {memory} stays"

    def test_no_known_placeholder_survives_rendering(self):
        from gcagent.prompts import DEFAULT_TEMPLATES

        bindings = {
            "query": "q",
            "options": "A. x\nB. y",
            "transcript": "<transcript>\n(empty)\n</transcript>",
            "memory": "<memory>\n(empty)\n</memory>",
            "answer": "A",
            "evidence": "e",
        }
        for template in DEFAULT_TEMPLATES.values():
            rendered = render_template(template, bindings)
            for name in bindings:
                assert "{" + name + "}" not in rendered


class TestChatRequest:
    def test_needs_a_part(self):
        with pytest.raises(InvariantViolation):
            ChatRequest(system="s", user_parts=())

    def test_temperature_range(self):
        with pytest.raises(InvariantViolation):
            ChatRequest(system="s", user_parts=(TextPart("x"),), temperature=3.0)

    def test_image_to_text_only_backend_rejected(self):
        backend = ReferenceBackend(multimodal=False)
        request = ChatRequest(
            system="s",
            user_parts=(TextPart("x"), ImagePart(uri="frame://1.0", timestamp_s=1.0)),
        )
        with pytest.raises(CapabilityMismatch):
            complete(backend, request)

    def test_reference_backend_is_deterministic(self):
        backend = ReferenceBackend()
        request = ChatRequest(system="s", user_parts=(TextPart("anything at all"),))
        first = complete(backend, request)
        second = complete(backend, request)
        assert first == second


class TestHttpBackend:
    def _request(self):
        return ChatRequest(system="sys", user_parts=(TextPart("hello"),))

    def test_rate_limited_then_success(self):
        with FakeChatServer() as server:
            server.script = [(429, None), (200, "recovered")]
            backend = HttpBackend(server.url, "m", backoff_s=0.0, api_key="k")
            response = backend.complete(self._request())
            assert response.text == "recovered"
            assert len(server.calls) == 2

    def test_rejected_never_retried(self):
        with FakeChatServer() as server:
            server.script = [(400, None), (200, "never reached")]
            backend = HttpBackend(server.url, "m", backoff_s=0.0, api_key="k")
            with pytest.raises(Rejected):
                backend.complete(self._request())
            assert len(server.calls) == 1

    def test_transport_errors_bounded_retries(self):
        with FakeChatServer() as server:
            server.script = [(500, None)] * 10
            backend = HttpBackend(server.url, "m", backoff_s=0.0, max_retries=2, api_key="k")
            with pytest.raises(Transport):
                backend.complete(self._request())
            assert len(server.calls) == 3  # initial try + 2 retries

    def test_rate_limit_exhaustion_raises(self):
        with FakeChatServer() as server:
            server.script = [(429, None)] * 10
            backend = HttpBackend(server.url, "m", backoff_s=0.0, max_retries=1, api_key="k")
            with pytest.raises(RateLimited):
                backend.complete(self._request())
            assert len(server.calls) == 2

    def test_connection_refused_is_transport(self):
        backend = HttpBackend(
            "http://127.0.0.1:9/v1/chat/completions", "m",
            backoff_s=0.0, max_retries=0, api_key="k",
        )
        with pytest.raises(Transport):
            backend.complete(self._request())

    def test_wire_format_and_bearer_token(self):
        with FakeChatServer() as server:
            server.script = [(200, "pong")]
            backend = HttpBackend(server.url, "my-model", api_key="secret", backoff_s=0.0)
            response = backend.complete(
                ChatRequest(system="sys", user_parts=(TextPart("ping"),),
                            max_output_tokens=77, temperature=0.5)
            )
            assert response.prompt_tokens == 7 and response.completion_tokens == 3
            call = server.calls[0]
            assert call["model"] == "my-model"
            assert call["max_tokens"] == 77
            assert call["temperature"] == 0.5
            assert call["messages"][0] == {"role": "system", "content": "sys"}
            assert call["messages"][1] == {"role": "user", "content": "ping"}

    def test_image_parts_sent_as_data_uri(self):
        with FakeChatServer() as server:
            server.script = [(200, "seen")]
            backend = HttpBackend(server.url, "m", multimodal=True, api_key="k", backoff_s=0.0)
            request = ChatRequest(
                system="sys",
                user_parts=(
                    TextPart("look"),
                    ImagePart(uri="ignored", timestamp_s=1.5, data=b"\xff\xd8fake"),
                ),
            )
            backend.complete(request)
            content = server.calls[0]["messages"][1]["content"]
            assert content[0] == {"type": "text", "text": "look"}
            assert content[1]["image_url"]["url"].startswith("data:image/jpeg;base64,")

    def test_unresolvable_image_rejected(self):
        with FakeChatServer() as server:
            backend = HttpBackend(server.url, "m", multimodal=True, api_key="k", backoff_s=0.0)
            request = ChatRequest(
                system="s",
                user_parts=(ImagePart(uri="frame://3.000", timestamp_s=3.0),),
            )
            with pytest.raises(Rejected):
                backend.complete(request)


def test_unwritable_answer_is_backend_failure():
    """An answer holding a lone surrogate, which a JSON response body can
    carry as an escape, fails the call rather than reaching a report."""
    request = ChatRequest(system="s", user_parts=(TextPart("q"),))
    with FakeChatServer() as server:
        server.script = [(200, "Answer: (A) \ud800")]
        backend = HttpBackend(server.url, "m", max_retries=0)
        assert complete(backend, request).text.endswith("\ud800")
        with pytest.raises(BackendFailure, match="UTF-8"):
            complete_text(backend, request)


def test_template_loadable_from_file(tmp_path):
    path = tmp_path / "perception.txt"
    path.write_text("find spans for {query}\n{options}\n{memory}\n{transcript}")
    tmpl = load_template_file("perception", path)
    assert tmpl.id == "perception"
    assert set(tmpl.placeholders()) == {"query", "options", "memory", "transcript"}
