"""Organ-mention extraction from tweet text.

Maps every tweet to the multiset of organs it mentions.  The contingency
matrix of :mod:`repro.core.attention` is built from these mentions, so the
matcher's recall/precision directly shapes every downstream result.

:meth:`OrganMatcher.mentions` scans each tweet once via
:func:`repro.nlp.tokenize.scan_words_hashtags` and resolves glued
hashtags with one Aho–Corasick sweep.  The property suite checks it
against a naive per-term scan over the full token stream, kept in the
tests as the oracle.
"""

from __future__ import annotations

from collections import Counter

from repro.organs import ALIASES, Organ
from repro.nlp.automaton import AhoCorasick
from repro.nlp.tokenize import scan_words_hashtags, split_compound


class OrganMatcher:
    """Extract organ mentions from tweet text.

    Matching rules:

    * WORD tokens match aliases exactly; hyphen/apostrophe compounds are
      split so ``"kidney-liver"`` counts both organs.
    * HASHTAG tokens match exactly, then by substring for glued bodies
      (``"#hearttransplant"`` → heart).  Substring matching requires alias
      length >= 4, so short inflections cannot fire spuriously.
    * Each organ counts at most once per token, but every mentioning token
      counts — "kidney kidney kidney" yields 3 kidney mentions.  Mention
      *counts* feed the attention matrix.
    """

    #: Bound on the per-instance hashtag-body memo; glued hashtags repeat
    #: heavily, so steady state is far below this.
    _TAG_CACHE_LIMIT = 65536

    def __init__(self, aliases: dict[str, Organ] | None = None):
        self._aliases = dict(ALIASES if aliases is None else aliases)
        self._automaton = AhoCorasick(
            term for term in self._aliases if len(term) >= 4
        )
        self._tag_organs: dict[str, tuple[Organ, ...]] = {}

    def mentions(self, text: str) -> Counter[Organ]:
        """Count organ mentions in one tweet's text (automaton path)."""
        counts: Counter[Organ] = Counter()
        words, hashtags = scan_words_hashtags(text)
        aliases = self._aliases
        for word in words:
            organ = aliases.get(word)
            if organ is not None:
                counts[organ] += 1
                continue
            parts = split_compound(word)
            if parts:
                for matched in frozenset(
                    aliases[part] for part in parts if part in aliases
                ):
                    counts[matched] += 1
        for tag in hashtags:
            for matched in self._hashtag_organs(tag):
                counts[matched] += 1
        return counts

    def _hashtag_organs(self, tag: str) -> tuple[Organ, ...]:
        """Organs matched by one hashtag body, each at most once (memoized)."""
        cached = self._tag_organs.get(tag)
        if cached is not None:
            return cached
        organ = self._aliases.get(tag)
        if organ is not None:
            result: tuple[Organ, ...] = (organ,)
        else:
            # The automaton returns terms sorted; dedupe to organs in
            # canonical order so counting stays order-independent.
            found = frozenset(
                self._aliases[term] for term in self._automaton.find(tag)
            )
            result = tuple(sorted(found, key=lambda o: o.index))
        cache = self._tag_organs
        if len(cache) >= self._TAG_CACHE_LIMIT:
            del cache[next(iter(cache))]
        cache[tag] = result
        return result

    def distinct_organs(self, text: str) -> frozenset[Organ]:
        """The set of organs mentioned at least once."""
        return frozenset(self.mentions(text))
