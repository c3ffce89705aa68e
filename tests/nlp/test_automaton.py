"""Tests for the Aho–Corasick automaton and the term vocabulary."""

import pytest

from repro.nlp.automaton import AhoCorasick, TermVocabulary
from tests.nlp.oracles import present_terms


class TestAhoCorasick:
    def test_empty_automaton_matches_nothing(self):
        automaton = AhoCorasick([])
        assert automaton.find("kidney donor") == ()
        assert automaton.contains_any("kidney donor") is False

    def test_single_term(self):
        automaton = AhoCorasick(["kidney"])
        assert automaton.find("kidneydonor") == ("kidney",)
        assert automaton.find("liver") == ()

    def test_overlapping_terms_both_reported(self):
        # "organdonor" contains both "organ" and "organdonor"; the
        # shorter term ends mid-way through the longer one, so it is
        # only reachable through the failure/output links.
        automaton = AhoCorasick(["organ", "organdonor", "donor"])
        assert automaton.find("organdonor") == (
            "donor", "organ", "organdonor",
        )

    def test_term_found_via_failure_link(self):
        # While walking "kidney"'s trie branch, the automaton passes the
        # end of the embedded term "dne" mid-branch; it is only
        # reportable through the inherited failure-link output.
        automaton = AhoCorasick(["kidney", "dne"])
        assert automaton.find("kidneX") == ("dne",)

    def test_each_term_reported_once(self):
        automaton = AhoCorasick(["na"])
        assert automaton.find("banana") == ("na",)

    def test_results_sorted_regardless_of_insertion_order(self):
        forward = AhoCorasick(["liver", "heart", "kidney"])
        backward = AhoCorasick(["kidney", "heart", "liver"])
        text = "kidneyliverheart"
        assert forward.find(text) == backward.find(text)
        assert forward.find(text) == ("heart", "kidney", "liver")

    def test_terms_property_deduplicated_sorted(self):
        automaton = AhoCorasick(["b", "a", "b", ""])
        assert automaton.terms == ("a", "b")

    def test_contains_any_early_exit_agrees_with_find(self):
        automaton = AhoCorasick(["heart", "lung"])
        for text in ("hearttransplant", "lunges", "pancreas", ""):
            assert automaton.contains_any(text) == bool(automaton.find(text))


class TestTermVocabulary:
    VOCABULARY = ("organ", "organdonor", "donor", "kidney", "be")

    def matches_oracle(self, text: str) -> set[str]:
        return present_terms(text, self.VOCABULARY)

    @pytest.mark.parametrize(
        "text",
        [
            "be an organ donor",
            "#organdonor saves lives",
            "#kidneydonor",          # substring matches inside hashtag
            "organized crime",        # no substring match in plain words
            "#bestself",              # "be" too short for substring match
            "heart-kidney transplant chain",
            "donor's kidney",
            "",
        ],
    )
    def test_agrees_with_present_terms(self, text):
        vocabulary = TermVocabulary(self.VOCABULARY)
        assert set(vocabulary.present(text)) == self.matches_oracle(text)

    def test_result_is_frozenset_and_memoized(self):
        vocabulary = TermVocabulary(self.VOCABULARY)
        first = vocabulary.present("be an organ donor")
        assert isinstance(first, frozenset)
        assert vocabulary.present("be an organ donor") is first

    def test_empty_results_share_one_object(self):
        vocabulary = TermVocabulary(self.VOCABULARY)
        assert vocabulary.present("nothing here") is vocabulary.present("nope")

    def test_cache_eviction_keeps_answers_correct(self, monkeypatch):
        monkeypatch.setattr(TermVocabulary, "_CACHE_LIMIT", 4)
        vocabulary = TermVocabulary(self.VOCABULARY)
        texts = [f"organ text {i}" for i in range(10)]
        for text in texts:
            assert vocabulary.present(text) == frozenset({"organ"})
        assert len(vocabulary._cache) <= 4
        # Evicted entries recompute to the same answer.
        assert vocabulary.present(texts[0]) == frozenset({"organ"})

    def test_terms_property(self):
        vocabulary = TermVocabulary(("a", "", "b"))
        assert vocabulary.terms == frozenset({"a", "b"})
