"""Tokenization helpers shared by retrieval, abstraction, and scoring."""

from __future__ import annotations

import string
import sys
from collections import Counter
from itertools import chain
from typing import Iterable, Sequence

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
    # lowering the whole text first equals lowering each trimmed token:
    # lowercasing neither makes nor removes whitespace or edge characters
    return [
        tok
        for raw in text.lower().split()
        if (tok := raw.strip(_EDGE_CHARS)) and tok not in STOPWORDS
    ]


def needle(query: str, options: Sequence[tuple[str, str]]) -> set[str]:
    """The distinct content tokens of the query and every option text."""
    tokens = set(content_tokens(query))
    for _, option_text in options:
        tokens.update(content_tokens(option_text))
    return tokens


Postings = dict[str, tuple[int, ...]]  # content token -> ascending positions


def postings(texts: Iterable[str]) -> Postings:
    """Each distinct content token -> the ascending positions of the texts
    that contain it."""
    hits_of: dict[str, list[int]] = {}
    for pos, text in enumerate(texts):
        for tok in set(content_tokens(text)):
            hits = hits_of.get(tok)
            if hits is None:
                # interned, so indexes of different texts share their keys
                hits_of[sys.intern(tok)] = [pos]
            else:
                hits.append(pos)
    return {tok: tuple(hits) for tok, hits in hits_of.items()}  # no spare list capacity


def overlaps(tokens: Iterable[str], index: Postings) -> Counter:
    """Position -> how many distinct `tokens` its text holds, for every
    position holding at least one."""
    return Counter(chain.from_iterable(index.get(tok, ()) for tok in tokens))


def raw_tokens(text: str) -> list[str]:
    """Lowercased, punctuation-trimmed tokens, stopwords kept."""
    return [tok for raw in text.lower().split() if (tok := raw.strip(_EDGE_CHARS))]


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
