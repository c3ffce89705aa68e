"""Naive reference implementations of the matching hot path.

Each function computes from the full :func:`repro.nlp.tokenize.tokenize`
token stream what a hot-path routine computes with the allocation-free
scan and the automaton: the WORD/HASHTAG projection
(``scan_words_hashtags``), the present terms (``TermVocabulary``),
track matching (``TrackFilter.matches``) and organ mentions
(``OrganMatcher.mentions``).  The equivalence tests compare the hot
path with them.  They read only public surface: a vocabulary, a
filter's ``phrases`` and an alias dict.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping

from repro.nlp.tokenize import (
    MIN_HASHTAG_SUBSTRING_LEN,
    Token,
    TokenKind,
    split_compound,
    tokenize,
)
from repro.organs import Organ
from repro.twitter.stream import TrackFilter


def words_and_hashtags(text: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """:func:`scan_words_hashtags` as the WORD/HASHTAG projection of :func:`tokenize`."""
    tokens = tokenize(text)
    return (
        tuple(t.text for t in tokens if t.kind is TokenKind.WORD),
        tuple(t.text for t in tokens if t.kind is TokenKind.HASHTAG),
    )


def present_terms(text: str, terms: Iterable[str]) -> set[str]:
    """Vocabulary terms present in ``text`` under Twitter ``track`` rules.

    A term is present when it equals a WORD or HASHTAG token exactly
    (hyphen/apostrophe compounds are split, so ``heart-kidney`` yields
    both ``heart`` and ``kidney``), or — for terms of at least
    :data:`MIN_HASHTAG_SUBSTRING_LEN` characters — when it appears
    inside a hashtag body (``#kidneydonor`` contains both ``kidney`` and
    ``donor``).  Plain words never substring-match: ``organized`` does
    not contain the term ``organ``.
    """
    word_tokens: set[str] = set()
    hashtags: list[str] = []
    for token in tokenize(text):
        if token.kind is TokenKind.WORD:
            word_tokens.add(token.text)
            word_tokens.update(split_compound(token.text))
        elif token.kind is TokenKind.HASHTAG:
            word_tokens.add(token.text)
            hashtags.append(token.text)
    if not word_tokens:
        return set()
    return {
        term
        for term in terms
        if term in word_tokens
        or (
            len(term) >= MIN_HASHTAG_SUBSTRING_LEN
            and any(term in tag for tag in hashtags)
        )
    }


def track_matches(track: TrackFilter, text: str) -> bool:
    """:meth:`TrackFilter.matches` by a per-term scan of every phrase."""
    vocabulary = {term for phrase in track.phrases for term in phrase}
    present = present_terms(text, vocabulary)
    return any(set(phrase) <= present for phrase in track.phrases)


def organ_mentions(aliases: Mapping[str, Organ], text: str) -> Counter[Organ]:
    """:meth:`OrganMatcher.mentions` by a per-alias scan of every token."""
    counts: Counter[Organ] = Counter()
    for token in tokenize(text):
        for organ in _match_token(aliases, token):
            counts[organ] += 1
    return counts


def _match_token(aliases: Mapping[str, Organ], token: Token) -> frozenset[Organ]:
    if token.kind is TokenKind.WORD:
        organ = aliases.get(token.text)
        if organ is not None:
            return frozenset((organ,))
        return frozenset(
            aliases[part] for part in split_compound(token.text) if part in aliases
        )
    if token.kind is TokenKind.HASHTAG:
        organ = aliases.get(token.text)
        if organ is not None:
            return frozenset((organ,))
        return frozenset(
            organ
            for term, organ in aliases.items()
            if len(term) >= MIN_HASHTAG_SUBSTRING_LEN and term in token.text
        )
    return frozenset()
