"""Filtered stream with Twitter ``track`` semantics.

Reproduces the matching rules of the Streaming API ``statuses/filter``
endpoint the paper used: each track phrase is an AND of its space-separated
terms, the phrase list is an OR, matching is case-insensitive against the
tweet's tokenized text, and terms match inside hashtags.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.nlp.automaton import TermVocabulary
from repro.twitter.errors import InvalidTrackError, StreamClosedError
from repro.twitter.models import Tweet


class TrackFilter:
    """Twitter ``track`` phrase matcher.

    Matching runs on the automaton hot path: term presence is resolved
    by a compiled :class:`repro.nlp.automaton.TermVocabulary` (one
    tokenizer sweep + one automaton sweep per hashtag, instead of a
    Python loop over every vocabulary term), and phrases are indexed by
    an *anchor* term so only phrases whose anchor is present are subset-
    checked.

    Args:
        phrases: Track phrases; each phrase's space-separated terms must all
            appear in a tweet for the phrase to match, and any matching
            phrase admits the tweet.

    Raises:
        InvalidTrackError: on an empty phrase list or a blank phrase.
    """

    def __init__(self, phrases: Iterable[str]):
        parsed = [tuple(phrase.lower().split()) for phrase in phrases]
        if not parsed:
            raise InvalidTrackError("track phrase list is empty")
        if any(not terms for terms in parsed):
            raise InvalidTrackError("track phrase list contains a blank phrase")
        self._phrases: tuple[tuple[str, ...], ...] = tuple(parsed)
        # Terms are tested for presence once per tweet; phrases are then
        # checked as subset tests against the present-term set.
        self._term_vocabulary = TermVocabulary(
            term for terms in parsed for term in terms
        )
        # A phrase can only match when its anchor term (lexicographic
        # minimum — any fixed member works) is present, so the per-tweet
        # subset checks shrink from every phrase to the phrases anchored
        # on a present term.
        anchored: dict[str, list[frozenset[str]]] = {}
        for terms in parsed:
            phrase_set = frozenset(terms)
            anchored.setdefault(min(phrase_set), []).append(phrase_set)
        self._phrases_by_anchor = {
            anchor: tuple(sets) for anchor, sets in anchored.items()
        }

    @property
    def phrases(self) -> tuple[tuple[str, ...], ...]:
        return self._phrases

    def matches(self, text: str) -> bool:
        """True when any track phrase fully matches the tweet text.

        Terms match tokens exactly and substring-match only inside
        hashtag bodies (``#kidneydonor`` matches ``kidney donor``); a
        term embedded in a longer plain word (``organized``) does not
        count.
        """
        present = self._term_vocabulary.present(text)
        if not present:
            return False
        phrases_by_anchor = self._phrases_by_anchor
        for term in present:
            for phrase_set in phrases_by_anchor.get(term, ()):
                if phrase_set <= present:
                    return True
        return False


class FilteredStream:
    """A ``statuses/filter``-like stream over a tweet source.

    Wraps any iterable of :class:`Tweet` (normally the firehose of a
    :class:`repro.synth.world.SyntheticWorld`) and yields only tweets that
    match the track filter, counting both delivered and dropped tweets so
    collection yield can be reported the way Table I's footnote does.

    The stream is single-use, like a network stream: iterating after
    :meth:`close` raises :class:`StreamClosedError`.  ``track`` is the
    phrase list or an already built :class:`TrackFilter`.
    """

    def __init__(
        self, source: Iterable[Tweet], track: Iterable[str] | TrackFilter
    ):
        self._source = iter(source)
        self._filter = (
            track if isinstance(track, TrackFilter) else TrackFilter(track)
        )
        self._closed = False
        self.delivered = 0
        self.dropped = 0

    def __iter__(self) -> Iterator[Tweet]:
        return self

    def __next__(self) -> Tweet:
        if self._closed:
            raise StreamClosedError("stream is closed")
        for tweet in self._source:
            if self._filter.matches(tweet.text):
                self.delivered += 1
                return tweet
            self.dropped += 1
        raise StopIteration

    def close(self) -> None:
        """Close the stream; further reads raise."""
        self._closed = True

    def __enter__(self) -> "FilteredStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
