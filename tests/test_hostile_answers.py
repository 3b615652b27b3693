"""Malformed model answers end in a repair or a typed error, never a traceback.

The backends here wrap `ReferenceBackend` and change its answers: the
narrative answer's `causal_links`, or any stage's answer at a drawn JSON
path, cut short, or swapped for a JSON scalar.
"""

from __future__ import annotations

import json
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from gcagent.backend import ChatResponse
from gcagent.errors import GcagentError, InvalidLinkWarning, RepairWarning
from gcagent.harness import BackendPair, RunConfig, evaluate, load_manifest, run_pipeline
from gcagent.memory import MemoryStore, build_memory
from gcagent.reasoning import ActionResult
from gcagent.reference import ReferenceBackend
from gcagent.transcript import load_transcript

from conftest import FIXTURES

MANIFEST = FIXTURES / "manifest.jsonl"
ITEMS = load_manifest(MANIFEST)


class LinkSwappingBackend:
    """The reference backend, with every episode's `causal_links` in the
    narrative answer replaced by `value`."""

    def __init__(self, value):
        self._inner = ReferenceBackend()
        self.profile = self._inner.profile
        self.value = value

    def complete(self, request):
        response = self._inner.complete(request)
        if request.context.get("stage") != "memory_narrative":
            return response
        doc = json.loads(response.text)
        for entry in doc["episodes"]:
            entry["causal_links"] = self.value
        return ChatResponse(text=json.dumps(doc))


@pytest.mark.parametrize("value", [1.5, True, "ab", {}])
def test_non_list_causal_links_is_one_invalid_field(value, tmp_path):
    transcript = load_transcript(str(FIXTURES / "videos" / "vid05.srt"))
    expected = build_memory(transcript, ReferenceBackend())
    with pytest.warns(InvalidLinkWarning) as caught:
        memory = build_memory(transcript, LinkSwappingBackend(value))
    per_episode = [
        sum(str(w.message).startswith(f"episode {ep.id}: ") for w in caught)
        for ep in memory.episodes
    ]
    assert len(caught) == len(memory.episodes) > 1
    assert per_episode == [1] * len(memory.episodes)
    assert [ep.narrative_role for ep in memory.episodes] == [
        ep.narrative_role for ep in expected.episodes
    ]
    assert all(ep.causal_links == () for ep in memory.episodes)
    assert any(ep.causal_links for ep in expected.episodes)
    backend = LinkSwappingBackend(value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RepairWarning)
        report = evaluate(MANIFEST, RunConfig(workers=1), BackendPair(backend, backend), tmp_path)
    assert len(report.items) == 13


# --- hostile answers ----------------------------------------------------------

_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(),
    st.just(""),
    st.just("\ud800"),  # a lone surrogate, as `json.loads` reads "\\ud800"
    st.just([]),
    st.just({}),
    st.lists(st.integers(), max_size=4),
)
_SCALARS = st.one_of(st.none(), st.booleans(), st.floats(), st.integers(), st.text(max_size=8))


def _paths(value, path=()):
    """Every JSON path in `value`, the root first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, path + (index,))


class HostileBackend:
    """The reference backend, each of whose answers is, as drawn from
    `data`, kept (half the time), changed at one uniformly drawn JSON path
    (the root, for an answer that is not JSON), cut short, or swapped for a
    JSON scalar."""

    def __init__(self, data):
        self._inner = ReferenceBackend()
        self.profile = self._inner.profile
        self._data = data

    def complete(self, request):
        text = self._inner.complete(request).text
        draw = self._data.draw
        mode = draw(st.sampled_from(["keep", "keep", "keep", "path", "truncate", "scalar"]))
        event(f"{request.context['stage']}: {mode}")
        if mode == "path":
            try:
                doc = json.loads(text)
            except ValueError:
                doc = text
            paths = list(_paths(doc))
            path = paths[draw(st.integers(0, len(paths) - 1))]
            value = draw(_VALUES)
            if path:
                parent = doc
                for step in path[:-1]:
                    parent = parent[step]
                parent[path[-1]] = value
            else:
                doc = value
            text = json.dumps(doc)
        elif mode == "truncate":
            text = text[: draw(st.integers(0, max(len(text) - 1, 0)))]
        elif mode == "scalar":
            text = json.dumps(draw(_SCALARS))
        return ChatResponse(text=text)


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_pipeline_ends_in_a_result_or_a_typed_error(data):
    item = data.draw(st.sampled_from(ITEMS))
    backend = HostileBackend(data)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = run_pipeline(
                item, RunConfig(workers=1), BackendPair(backend, backend), MemoryStore(tmp)
            )
        except GcagentError as exc:
            event(f"error: {type(exc).__name__}")
        else:
            assert isinstance(result, ActionResult)
    # every repair is a warning a caller can count; nothing else is warned
    assert all(issubclass(w.category, RepairWarning) for w in caught), [
        f"{w.category.__name__}: {w.message}" for w in caught
    ]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_evaluate_always_returns_a_report(data):
    backend = HostileBackend(data)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RepairWarning)
        report = evaluate(MANIFEST, RunConfig(workers=1), BackendPair(backend, backend), tmp)
    assert len(report.items) == 13
    json.loads(report.to_json_bytes())
