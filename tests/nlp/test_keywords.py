"""Tests for the Context × Subject query set (Fig. 1).

Matching runs through the funnel kernel's filter
(:func:`repro.pipeline.collect.track_filter`) built from the same query
set, the one keyword filter every collection path uses.
"""

from repro.config import CollectionConfig
from repro.nlp.keywords import (
    CONTEXT_TERMS,
    SUBJECT_TERMS,
    build_query_set,
    track_phrases,
)
from repro.organs import ALIASES, Organ
from repro.pipeline.collect import track_filter

_DEFAULT_FILTER = track_filter(CollectionConfig())


def matches(text, config=None):
    track = _DEFAULT_FILTER if config is None else track_filter(config)
    return track.matches(text)


class TestQuerySetConstruction:
    def test_cartesian_product_size(self):
        queries = build_query_set()
        assert len(queries) == len(CONTEXT_TERMS) * len(SUBJECT_TERMS)

    def test_every_query_pairs_context_with_subject(self):
        for query in build_query_set():
            assert query.context in CONTEXT_TERMS
            assert query.subject in SUBJECT_TERMS
            assert query.organ is ALIASES[query.subject]

    def test_track_phrase_format(self):
        queries = build_query_set(("donor",), ("kidney",))
        assert queries[0].track_phrase == "kidney donor"

    def test_track_phrases_cover_all_queries(self):
        queries = build_query_set()
        assert len(track_phrases(queries)) == len(queries)

    def test_custom_vocabularies(self):
        queries = build_query_set(("transplant",), ("heart", "liver"))
        assert {q.subject for q in queries} == {"heart", "liver"}
        assert {q.organ for q in queries} == {Organ.HEART, Organ.LIVER}


class TestMatching:
    def test_context_and_subject_matches(self):
        assert matches("be a kidney donor today")

    def test_context_without_subject_rejected(self):
        assert not matches("please donate to the food bank")

    def test_subject_without_context_rejected(self):
        assert not matches("my heart is full tonight")

    def test_neither_rejected(self):
        assert not matches("beautiful sunset")

    def test_empty_rejected(self):
        assert not matches("")

    def test_alias_subject_matches(self):
        assert matches("she needs a renal transplant")

    def test_glued_hashtag_satisfies_both_terms(self):
        assert matches("support #kidneytransplant week")

    def test_hashtag_subject_with_plain_context(self):
        assert matches("register as a donor #lung")

    def test_explicit_query_list(self):
        config = CollectionConfig(
            context_terms=("donor",), subject_terms=("kidney",)
        )
        assert matches("kidney donor drive", config)
        assert not matches("liver donor drive", config)

    def test_case_insensitive(self):
        assert matches("KIDNEY DONOR")

    def test_term_glued_inside_plain_word_rejected(self):
        # Substring matching applies only to hashtag bodies, never to
        # longer plain words that merely contain a vocabulary term.
        assert not matches("reorganized the kidneys conference")
        assert not matches("organized heartfelt meetup")

    def test_hyphen_compound_satisfies_subject(self):
        assert matches("dad needs a heart-kidney transplant")
