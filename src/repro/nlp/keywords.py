"""The collection query set Q (paper Fig. 1).

The paper constrains the Twitter Stream collection with a keyword set
``Q = Context × Subject``: the Cartesian product of *Context* words
(organ-donation terms) and *Subject* words (the organs of interest).  Every
collected tweet therefore contains at least one Context term and at least
one Subject term, which places the whole dataset in the organ-donation
context.

Twitter's ``track`` parameter treats each phrase as an AND of its
space-separated terms and the phrase list as an OR — exactly the semantics
of a Cartesian product — so ``Q`` is shipped to the stream as phrases like
``"kidney donor"``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.organs import ALIASES, Organ

#: Context vocabulary: terms that put a tweet in the organ-donation domain.
CONTEXT_TERMS: tuple[str, ...] = (
    "donor",
    "donors",
    "donate",
    "donation",
    "donations",
    "transplant",
    "transplants",
    "transplantation",
    "recipient",
    "waitlist",
    "organ",
)

#: Subject vocabulary: every accepted surface form of the six organs.
SUBJECT_TERMS: tuple[str, ...] = tuple(sorted(ALIASES))


@dataclass(frozen=True, slots=True)
class KeywordQuery:
    """One conjunctive phrase of the query set (one cell of Fig. 1).

    Attributes:
        context: the organ-donation Context term.
        subject: the organ Subject term.
        organ: the organ the subject term refers to.
    """

    context: str
    subject: str
    organ: Organ

    @property
    def track_phrase(self) -> str:
        """The phrase as sent to the stream ``track`` parameter."""
        return f"{self.subject} {self.context}"


def build_query_set(
    context_terms: tuple[str, ...] = CONTEXT_TERMS,
    subject_terms: tuple[str, ...] = SUBJECT_TERMS,
) -> tuple[KeywordQuery, ...]:
    """Build Q as the Cartesian product Context × Subject (Fig. 1)."""
    return tuple(
        KeywordQuery(context=context, subject=subject, organ=ALIASES[subject])
        for subject in subject_terms
        for context in context_terms
    )


def track_phrases(queries: tuple[KeywordQuery, ...]) -> tuple[str, ...]:
    """The ``track`` phrase list for a query set."""
    return tuple(query.track_phrase for query in queries)

