"""Aho–Corasick term automaton: the hot-path replacement for per-term scans.

Both keyword collection (:class:`repro.twitter.stream.TrackFilter`) and
organ-mention extraction (:class:`repro.nlp.matcher.OrganMatcher`) answer
the same question per tweet: *which terms of a fixed vocabulary appear in
this text*, where a term appears when it equals a WORD/HASHTAG token (or
a hyphen/apostrophe compound part) exactly, or — for terms of at least
:data:`repro.nlp.tokenize.MIN_HASHTAG_SUBSTRING_LEN` characters — as a
substring of a glued hashtag body (``#kidneydonor`` contains ``kidney``
and ``donor``).

The naive formulation loops every vocabulary term per tweet and runs a
substring scan per (term, hashtag) pair — O(|vocabulary| · |hashtags|)
Python-level work on the hottest path in the pipeline.  This module
inverts it:

* exact matches become *one* set lookup per token against the frozen
  vocabulary, and
* hashtag substring matches become *one* automaton sweep per hashtag
  body, finding every embedded term in a single pass regardless of
  vocabulary size.

Construction is deterministic (terms are deduplicated and sorted before
the trie is built) and results are returned in sorted order, so nothing
downstream can observe per-process hash ordering.  Equivalence with the
naive scans is locked by ``tests/properties/test_props_automaton.py``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.nlp.tokenize import (
    MIN_HASHTAG_SUBSTRING_LEN,
    scan_words_hashtags,
    split_compound,
)


class AhoCorasick:
    """Multi-pattern substring search over a fixed term set.

    A classic goto/fail automaton: states are trie nodes over the terms,
    failure links point to the longest proper suffix that is also a trie
    prefix, and each state carries the terms that end there (its own
    word plus every word reachable through failure links).  One pass
    over a text of length *n* visits each character once and reports
    every occurrence of every term, independent of how many terms the
    automaton holds.

    Args:
        terms: patterns to compile; deduplicated and sorted first so the
            state numbering — and therefore every result — is a pure
            function of the term *set*.
    """

    __slots__ = ("_goto", "_fail", "_out", "_terms")

    def __init__(self, terms: Iterable[str]):
        vocabulary = sorted({term for term in terms if term})
        self._terms: tuple[str, ...] = tuple(vocabulary)
        #: per-state character transition tables (trie edges only).
        self._goto: list[dict[str, int]] = [{}]
        #: failure link per state (state 0 is its own failure target).
        self._fail: list[int] = [0]
        #: terms ending at each state, own word first, then inherited.
        self._out: list[tuple[str, ...]] = [()]
        for term in vocabulary:
            self._insert(term)
        self._link_failures()

    def _insert(self, term: str) -> None:
        state = 0
        for char in term:
            nxt = self._goto[state].get(char)
            if nxt is None:
                nxt = len(self._goto)
                self._goto[state][char] = nxt
                self._goto.append({})
                self._fail.append(0)
                self._out.append(())
            state = nxt
        self._out[state] = (term,)

    def _link_failures(self) -> None:
        """BFS failure links; each state inherits its fail target's output."""
        queue: deque[int] = deque()
        for state in self._goto[0].values():
            queue.append(state)
        while queue:
            state = queue.popleft()
            for char, nxt in self._goto[state].items():
                queue.append(nxt)
                fail = self._fail[state]
                while fail and char not in self._goto[fail]:
                    fail = self._fail[fail]
                target = self._goto[fail].get(char, 0)
                if target == nxt:  # would self-link from the root
                    target = 0
                self._fail[nxt] = target
                if self._out[target]:
                    self._out[nxt] = self._out[nxt] + self._out[target]

    @property
    def terms(self) -> tuple[str, ...]:
        """The compiled term set, sorted."""
        return self._terms

    def find(self, text: str) -> tuple[str, ...]:
        """Every compiled term occurring in ``text``, sorted, each once.

        One sweep over ``text``; cost is O(len(text)) plus one append
        per match occurrence.
        """
        if not self._terms:
            return ()
        goto = self._goto
        fail = self._fail
        out = self._out
        state = 0
        found: set[str] = set()
        for char in text:
            while state and char not in goto[state]:
                state = fail[state]
            state = goto[state].get(char, 0)
            matched = out[state]
            if matched:
                found.update(matched)
        if not found:
            return ()
        return tuple(sorted(found))

    def contains_any(self, text: str) -> bool:
        """True when at least one compiled term occurs in ``text``."""
        if not self._terms:
            return False
        goto = self._goto
        fail = self._fail
        out = self._out
        state = 0
        for char in text:
            while state and char not in goto[state]:
                state = fail[state]
            state = goto[state].get(char, 0)
            if out[state]:
                return True
        return False


class TermVocabulary:
    """Single-pass term-presence engine for one fixed vocabulary.

    Compiles the vocabulary once — a frozen exact-match set plus an
    :class:`AhoCorasick` automaton over the substring-eligible terms
    (length >= :data:`~repro.nlp.tokenize.MIN_HASHTAG_SUBSTRING_LEN`) —
    then answers :meth:`present` with one tokenizer sweep, one set probe
    per token, and one automaton sweep per hashtag body.  Semantics are
    exactly those of the naive per-term scan kept as the oracle in
    ``tests/nlp/oracles.py``; the equivalence is property-tested across
    randomized vocabularies.

    Per-text results are memoized (bounded): tweet texts follow a
    heavy-tailed repetition profile, so the steady-state cost of a
    repeated text is a single dict hit.
    """

    #: Memo bound — far above the distinct-text count of any realistic
    #: stream window, small enough to stay harmless if exceeded.
    _CACHE_LIMIT = 262_144

    __slots__ = ("_exact", "_substring", "_cache")

    def __init__(self, terms: Iterable[str]):
        self._exact = frozenset(term for term in terms if term)
        self._substring = AhoCorasick(
            term
            for term in self._exact
            if len(term) >= MIN_HASHTAG_SUBSTRING_LEN
        )
        self._cache: dict[str, frozenset[str]] = {}

    @property
    def terms(self) -> frozenset[str]:
        return self._exact

    def present(self, text: str) -> frozenset[str]:
        """Vocabulary terms present in ``text`` under ``track`` rules."""
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        result = self._present_uncached(text)
        cache = self._cache
        if len(cache) >= self._CACHE_LIMIT:
            # Evict the oldest insertion (dicts preserve insertion
            # order); under heavy-tailed text reuse this approximates
            # LRU without per-hit bookkeeping on the fast path.
            del cache[next(iter(cache))]
        cache[text] = result
        return result

    def _present_uncached(self, text: str) -> frozenset[str]:
        words, hashtags = scan_words_hashtags(text)
        exact = self._exact
        found: set[str] = set()
        for word in words:
            if word in exact:
                found.add(word)
            for part in split_compound(word):
                if part in exact:
                    found.add(part)
        for tag in hashtags:
            if tag in exact:
                found.add(tag)
            found.update(self._substring.find(tag))
        if not found:
            return _EMPTY_TERMS
        return frozenset(found)


#: Shared empty result — most firehose tweets contain no vocabulary term.
_EMPTY_TERMS: frozenset[str] = frozenset()
