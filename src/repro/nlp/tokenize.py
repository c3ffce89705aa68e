"""Tweet-aware tokenizer.

Splits tweet text into typed tokens, preserving the Twitter-specific
entities that matter for matching: hashtags (``#organdonor``), user
mentions (``@unos``), and URLs.  Hashtag bodies often glue words together
("#kidneydonor"); the matcher handles those by substring rules, so the
tokenizer keeps the hashtag body intact.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import lru_cache


class TokenKind(enum.Enum):
    """Lexical class of a token."""

    WORD = "word"
    HASHTAG = "hashtag"
    MENTION = "mention"
    URL = "url"
    NUMBER = "number"


@dataclass(frozen=True, slots=True)
class Token:
    """One token of tweet text.

    Attributes:
        text: Normalized token text — lowercase; hashtags/mentions without
            their sigil; URLs verbatim.
        kind: Lexical class.
    """

    text: str
    kind: TokenKind


_TOKEN_RE = re.compile(
    r"""
    (?P<url>https?://\S+)
  | (?P<mention>@\w+)
  | (?P<hashtag>\#\w+)
  | (?P<number>\d+(?:[.,]\d+)*)
  | (?P<word>[A-Za-z]+(?:['’-][A-Za-z]+)*)
    """,
    re.VERBOSE,
)

#: Sentence punctuation a greedy ``\S+`` URL match swallows when the URL
#: ends a clause: ``(https://example.org/x),`` is the URL *plus* ``),``.
#: Trailing characters from this set are trimmed off URL tokens; they are
#: never tokens themselves, so trimming cannot create or destroy matches.
_URL_TRAILING_PUNCTUATION = ")],.!?;:'\"»”’…"


@lru_cache(maxsize=65536)
def tokenize(text: str) -> tuple[Token, ...]:
    """Tokenize tweet text into typed tokens.

    The result is cached, because tweet texts repeat heavily.  The
    matching hot path reads :func:`scan_words_hashtags` instead.

    >>> [t.text for t in tokenize("Be an organ donor! #kidney @UNOS")]
    ['be', 'an', 'organ', 'donor', 'kidney', 'unos']
    """
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind_name = match.lastgroup
        raw = match.group()
        if kind_name == "url":
            tokens.append(
                Token(raw.rstrip(_URL_TRAILING_PUNCTUATION), TokenKind.URL)
            )
        elif kind_name == "mention":
            tokens.append(Token(raw[1:].lower(), TokenKind.MENTION))
        elif kind_name == "hashtag":
            tokens.append(Token(raw[1:].lower(), TokenKind.HASHTAG))
        elif kind_name == "number":
            tokens.append(Token(raw, TokenKind.NUMBER))
        else:
            tokens.append(Token(raw.lower(), TokenKind.WORD))
    return tuple(tokens)


@lru_cache(maxsize=65536)
def scan_words_hashtags(text: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Fast path: lowercased (WORD texts, HASHTAG bodies) in one sweep.

    The matching layers — the ``track`` filter and the organ matcher —
    only ever read WORD and HASHTAG token texts.  This scan runs the
    same token grammar as :func:`tokenize` but skips :class:`Token`
    allocation entirely and returns two plain string tuples, which is
    what makes the automaton hot path allocation-free per token.
    Equivalence with :func:`tokenize` is locked by the tokenizer test
    suite and the automaton property tests.
    """
    words: list[str] = []
    hashtags: list[str] = []
    for match in _TOKEN_RE.finditer(text):
        kind_name = match.lastgroup
        if kind_name == "word":
            words.append(match.group().lower())
        elif kind_name == "hashtag":
            hashtags.append(match.group()[1:].lower())
    return tuple(words), tuple(hashtags)


#: Apostrophe variants normalized before compound splitting.
_EMPTY_PARTS: tuple[str, ...] = ()


def split_compound(token_text: str) -> tuple[str, ...]:
    """Split a hyphen/apostrophe compound token into its parts.

    ``"heart-kidney"`` → ``("heart", "kidney")``; ``"donor's"`` →
    ``("donor", "s")``.  Returns the shared empty tuple for plain tokens
    so hot-path callers can branch on truthiness without allocating.
    This is the single definition of compound splitting — the keyword
    filter and the organ matcher must agree on it, or a compound tweet
    could be collected by one layer and unmatchable by the other.
    """
    if "-" in token_text or "'" in token_text or "’" in token_text:
        return tuple(
            token_text.replace("’", "-").replace("'", "-").split("-")
        )
    return _EMPTY_PARTS


#: Minimum term length for substring matching inside hashtag bodies;
#: mirrors :class:`repro.nlp.matcher.OrganMatcher` so short inflections
#: cannot fire spuriously.
MIN_HASHTAG_SUBSTRING_LEN = 4
