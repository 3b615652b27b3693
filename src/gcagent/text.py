"""Tokenization helpers shared by retrieval, abstraction, and scoring."""

from __future__ import annotations

import string

# ~50 English function words. Small on purpose: retrieval scoring only needs
# to ignore glue words, not model language.
STOPWORDS = frozenset(
    """
    a an the and or but if then so as not no
    is are was were be do did have has had will can
    of to in on at by for with from this that
    these those it its i you he she we they them his her their
    what why how when where who which
    """.split()
)

_EDGE_CHARS = string.punctuation + "“”‘’…¿¡"


def strip_edges(token: str) -> str:
    return token.strip(_EDGE_CHARS)


def content_tokens(text: str) -> list[str]:
    """Lowercased, punctuation-trimmed tokens with stopwords removed."""
    out = []
    for raw in text.split():
        tok = raw.strip(_EDGE_CHARS).lower()  # strip_edges, inlined: this loop is hot
        if tok and tok not in STOPWORDS:
            out.append(tok)
    return out


def raw_tokens(text: str) -> list[str]:
    """Lowercased, punctuation-trimmed tokens, stopwords kept."""
    out = []
    for raw in text.split():
        tok = raw.strip(_EDGE_CHARS).lower()
        if tok:
            out.append(tok)
    return out


def truncate_tokens(text: str, budget: int) -> str:
    """First `budget` whitespace tokens of `text`, single-space joined."""
    return " ".join(text.split()[:budget])


def capitalized_entities(text: str) -> list[str]:
    """Capitalized word tokens that are not function words, in order of
    first occurrence. Sentence-initial 'The'/'And' etc. are filtered by the
    stopword check; proper names survive wherever they appear."""
    if text.islower() or not any(c.isupper() for c in text):
        return []
    seen: dict[str, None] = {}
    for raw in text.split():
        tok = strip_edges(raw)
        if not tok or not tok[0].isupper():
            continue
        if not all(c.isalnum() or c in "'-" for c in tok):
            continue
        if tok.lower() in STOPWORDS:
            continue
        seen.setdefault(tok)
    return list(seen)
