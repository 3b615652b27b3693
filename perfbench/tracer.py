"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each ``gcagent`` module on
the benchmark path and rebinds every ``gcagent.*`` module attribute that
holds the same object, because modules import each other's functions by
name (``harness`` does ``from .perception import perceive``). Spans keep
name, start, end, parent (from a per-thread stack), the question or video
id, and the thread's CPU time. They stay in memory until ``summary`` folds
them into calls, total and self time per layer.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from typing import NamedTuple


class Span(NamedTuple):
    """A tuple of plain values, so the garbage collector stops tracking it
    and a long trace does not slow collections down."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    tag: str | None
    thread: int
    cpu_s: float


# (module, attribute, span name, tag from positional args); a dotted attribute
# names a method on a class; the reference backend's spans are named per stage
TARGETS = (
    ("transcript", "load_transcript", "transcript.load", lambda a: a[0].rsplit("/", 1)[-1]),
    ("transcript", "transcript_digest", "transcript.digest", None),
    ("memory", "segment_events", "memory.segment", None),
    ("memory", "abstract_schema", "memory.abstract", None),
    ("memory", "link_narrative", "memory.narrate", None),
    ("memory", "MemoryStore.get_or_build", "memory.get_or_build", lambda a: a[1]),
    ("memory", "load_memory", "memory.load", None),
    ("memory", "memory_text", "memory.text", None),
    ("memory", "reflect", "memory.reflect", None),
    ("memory", "save_memory", "memory.serialize", None),
    ("memory", "MemoryStore.save", "memory.persist", lambda a: a[1]),
    ("perception", "perceive", "perception.perceive", None),
    ("reasoning", "assemble_evidence", "reasoning.assemble", None),
    ("reasoning", "act", "reasoning.act", None),
    ("reference", "ReferenceBackend.complete", None, None),
    ("harness", "run_pipeline", "harness.item", lambda a: a[0].question_id),
    ("harness", "evaluate", "harness.eval", None),
)

# context["stage"] of a request -> short stage name used in metric names
STAGES = {
    "memory_segmentation": "segment",
    "memory_abstraction": "abstract",
    "memory_narrative": "narrate",
    "perception": "perception",
    "action": "action",
    "reflection": "reflection",
}

SPAN_NAMES = tuple(name for _, _, name, _ in TARGETS if name) + tuple(
    f"reference.{stage}" for stage in STAGES.values()
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.counts = {"memory.load.bytes": 0, "memory.file_bytes": 0,
                       "perception.fallbacks": 0, "reasoning.unparseable": 0}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] += amount

    def _wrap(self, fn, name, tag_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name or _reference_span(args)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            tag = tag_of(args) if tag_of else (parent[1] if parent else None)
            sid = next(tracer._ids)
            stack.append((sid, tag))
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if span_name == "reasoning.act" and type(exc).__name__ == "UnparseableAnswer":
                    tracer._count("reasoning.unparseable", 1)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(sid, span_name, start, end, parent[0] if parent else None, tag,
                         threading.get_ident(), time.thread_time() - cpu0)
                )
            tracer._observe(span_name, args, result)
            return result

        return traced

    def _observe(self, name: str, args, result) -> None:
        if name == "memory.load":
            self._count("memory.load.bytes", len(args[0]))
        elif name == "memory.serialize":
            self._count("memory.file_bytes", len(result))
        elif name == "perception.perceive" and result.used_fallback:
            self._count("perception.fallbacks", 1)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind each alias of it in ``gcagent.*``."""
        for module_name, attr, name, tag_of in TARGETS:
            module = sys.modules[f"gcagent.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, tag_of))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, tag_of)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "gcagent" and not mod_name.startswith("gcagent."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total ms and self ms per span name. Self time is a span's
        duration minus the durations of its direct children."""
        child_s: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] = child_s.get(span.parent, 0.0) + span.end - span.start
        out = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for name in SPAN_NAMES}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            total = span.end - span.start
            row["calls"] += 1
            row["ms"] += total * 1000.0
            row["self_ms"] += (total - child_s.get(span.sid, 0.0)) * 1000.0
        return out

    def ancestry(self, name: str) -> list[str]:
        """Names of the spans enclosing the first span called `name`,
        innermost first."""
        by_sid = {span.sid: span for span in self.spans}
        span = next((s for s in self.spans if s.name == name), None)
        chain = []
        while span is not None and span.parent is not None:
            span = by_sid.get(span.parent)
            if span is not None:
                chain.append(span.name)
        return chain

    def busy_cpu_s(self) -> float:
        """CPU time of the work below the entry points: each span with no
        parent or whose parent is ``harness.eval``, which only hands out
        work (to its own thread when workers=1). CPU time leaves out time a
        thread waits for the disk or for the interpreter lock."""
        evals = {s.sid for s in self.spans if s.name == "harness.eval"}
        return sum(
            s.cpu_s
            for s in self.spans
            if s.name != "harness.eval" and (s.parent is None or s.parent in evals)
        )


def _reference_span(args) -> str:
    request = args[1]
    stage = request.context.get("stage")
    return f"reference.{STAGES.get(stage, stage)}"
