"""Exception and warning taxonomy shared across the package."""

from __future__ import annotations


class GcagentError(Exception):
    """Base class for all errors raised by this package."""


# --- transcript parsing ------------------------------------------------------

class ParseError(GcagentError):
    pass


class EmptyFile(ParseError):
    pass


class EncodingError(ParseError):
    pass


class MalformedCue(ParseError):
    """A single cue could not be parsed; aborts the whole parse."""

    def __init__(self, cue_ordinal: int, reason: str):
        self.cue_ordinal = cue_ordinal
        self.reason = reason
        super().__init__(f"cue {cue_ordinal}: {reason}")


class MissingHeader(ParseError):
    pass


class MalformedRecord(ParseError):
    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        self.reason = reason
        super().__init__(f"line {line_number}: {reason}")


class UnreadableFile(ParseError):
    """An input file could not be read: missing, a directory, no access."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class UnwritableFile(GcagentError):
    """An output file could not be written: no such directory, no access."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class InvariantViolation(GcagentError):
    """A value was constructed in a state its type forbids."""


# --- backend / transport -----------------------------------------------------

class BackendError(GcagentError):
    retriable = False


class Transport(BackendError):
    """Connection-level failure (refused, reset, timeout). Retriable."""

    retriable = True


class RateLimited(BackendError):
    """HTTP 429. Retriable with backoff."""

    retriable = True


class Rejected(BackendError):
    """4xx semantic rejection. Never retried."""


class CapabilityMismatch(BackendError):
    """Image parts sent to a backend that is not multimodal."""


class UnboundPlaceholder(GcagentError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound placeholder: {{{name}}}")


# --- memory construction -----------------------------------------------------

class BackendFailure(GcagentError):
    """A backend call failed or returned output that could not be used."""


class EmptyTranscript(GcagentError):
    pass


class EmptySummary(BackendFailure):
    pass


class SchemaViolation(GcagentError):
    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class MemoryFileError(GcagentError):
    """A memory file could not be read, parsed, matched to its transcript or
    written; `path` names the file."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


# --- perception / reasoning --------------------------------------------------

class DigestMismatch(GcagentError):
    """Memory and transcript do not derive from the same source."""


class NonPositiveDuration(GcagentError):
    pass


class MissingPerception(GcagentError):
    """Evidence composition requires perception output that was not supplied."""


class MissingDuration(GcagentError):
    """A clip was requested but no video duration is known."""


class FrameBudgetExceeded(GcagentError):
    pass


class UnparseableAnswer(GcagentError):
    """The response names no valid option after all parse passes."""


# --- harness / cli -----------------------------------------------------------

class ManifestError(GcagentError):
    def __init__(self, where: str, reason: str):
        self.where = where
        self.reason = reason
        super().__init__(f"{where}: {reason}")


class StageError(GcagentError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")


class ConfigError(GcagentError):
    pass


# --- repair warnings ---------------------------------------------------------

class RepairWarning(UserWarning):
    """Backend output was repaired deterministically instead of failing."""


class DegenerateOutputWarning(RepairWarning):
    """Segmentation output was non-covering/overlapping and got repaired."""


class InvalidLinkWarning(RepairWarning):
    """A causal link or narrative role was invalid and got dropped/repaired."""


class BudgetTooSmallWarning(RepairWarning):
    """Fewer frames than spans; lowest-duration spans were dropped."""


class NoRelevantContentWarning(RepairWarning):
    """Retrieval found nothing; fell back to uniform sampling."""


class TornLineWarning(RepairWarning):
    """A memory file's last note line had no newline (its writer stopped
    mid-append) and was dropped."""
