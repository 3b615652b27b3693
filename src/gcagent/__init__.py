"""Episodic-memory agent pipeline for long-video question answering.

Builds structured episodic memory (schematic summaries plus a narrative
layer of roles and causal links) from time-aligned transcripts or caption
documents, then answers multiple-choice questions through a
perception, action, reflection cycle with pluggable model backends.
"""

from .backend import (
    ChatRequest,
    ChatResponse,
    BackendProfile,
    HttpBackend,
    ImagePart,
    PromptTemplate,
    TextPart,
    complete,
    render_template,
)
from .harness import (
    BackendPair,
    BenchmarkItem,
    RunConfig,
    RunReport,
    TokenStats,
    compute_token_stats,
    evaluate,
    load_manifest,
    run_pipeline,
)
from .memory import (
    CausalLink,
    Episode,
    EpisodicMemory,
    MemoryParams,
    MemoryStore,
    ReflectionNote,
    abstract_schema,
    build_memory,
    link_narrative,
    load_memory,
    memory_text,
    memory_token_count,
    reflect,
    save_memory,
    segment_events,
)
from .perception import (
    ClipSpec,
    PerceptionParams,
    PerceptionResult,
    Query,
    Span,
    derive_clip,
    frame_extraction_commands,
    perceive,
    uniform_clip,
)
from .reasoning import (
    ABLATION_ROWS,
    ActionResult,
    EvidenceConfig,
    act,
    assemble_evidence,
    parse_answer,
)
from .reference import ReferenceBackend
from .transcript import (
    SpeechLine,
    TokenCount,
    Transcript,
    count_tokens,
    load_transcript,
    parse_caption_doc,
    parse_srt,
    parse_vtt,
    transcript_digest,
)

__version__ = "0.1.0"
