"""Tests for the tweet tokenizer."""

import pytest

from repro.nlp.tokenize import (
    Token,
    TokenKind,
    scan_words_hashtags,
    split_compound,
    tokenize,
)
from tests.nlp.oracles import words_and_hashtags


class TestBasicTokenization:
    def test_words_lowercased(self):
        tokens = tokenize("Be An Organ DONOR")
        assert [t.text for t in tokens] == ["be", "an", "organ", "donor"]
        assert all(t.kind is TokenKind.WORD for t in tokens)

    def test_empty_text(self):
        assert tokenize("") == ()

    def test_punctuation_ignored(self):
        assert [t.text for t in tokenize("kidney!!! donor???")] == [
            "kidney", "donor",
        ]

    def test_numbers(self):
        tokens = tokenize("waited 14 months")
        kinds = [t.kind for t in tokens]
        assert kinds == [TokenKind.WORD, TokenKind.NUMBER, TokenKind.WORD]

    def test_apostrophe_word_kept_whole(self):
        assert tokenize("donor's")[0].text == "donor's"

    def test_hyphen_compound_kept_whole(self):
        assert tokenize("kidney-liver")[0].text == "kidney-liver"


class TestTwitterEntities:
    def test_hashtag(self):
        token = tokenize("#DonateLife")[0]
        assert token == Token("donatelife", TokenKind.HASHTAG)

    def test_mention(self):
        token = tokenize("@UNOS")[0]
        assert token == Token("unos", TokenKind.MENTION)

    def test_url(self):
        token = tokenize("read https://example.org/organ-donor now")[1]
        assert token.kind is TokenKind.URL
        assert token.text.startswith("https://")

    def test_url_contents_not_tokenized_as_words(self):
        texts = [t.text for t in tokenize("https://example.org/kidney-donor")]
        assert texts == ["https://example.org/kidney-donor"]

    def test_mixed_tweet(self):
        tokens = tokenize("Be a #kidney donor @UNOS https://x.co 🙏")
        kinds = [t.kind for t in tokens]
        assert TokenKind.HASHTAG in kinds
        assert TokenKind.MENTION in kinds
        assert TokenKind.URL in kinds


class TestUrlTrailingPunctuation:
    @pytest.mark.parametrize(
        "text, expected_url",
        [
            ("see (https://example.org/organ), please", "https://example.org/organ"),
            ("link: https://example.org/x.", "https://example.org/x"),
            ("really? https://example.org/a?b=c!?", "https://example.org/a?b=c"),
            ("[https://example.org/list]", "https://example.org/list"),
            ("quote “https://example.org/q”…", "https://example.org/q"),
        ],
    )
    def test_clause_punctuation_trimmed(self, text, expected_url):
        urls = [t.text for t in tokenize(text) if t.kind is TokenKind.URL]
        assert urls == [expected_url]

    def test_interior_punctuation_preserved(self):
        # Parens/commas inside the path are part of the URL; only the
        # trailing run is trimmed.
        token = tokenize("https://en.example.org/wiki/Heart_(organ)x")[0]
        assert token.text == "https://en.example.org/wiki/Heart_(organ)x"

    def test_trimmed_punctuation_does_not_become_tokens(self):
        tokens = tokenize("read (https://example.org/x), now")
        assert [t.kind for t in tokens] == [
            TokenKind.WORD, TokenKind.URL, TokenKind.WORD,
        ]


class TestScanWordsHashtags:
    @pytest.mark.parametrize(
        "text",
        [
            "Be a #kidney donor @UNOS https://x.co 🙏",
            "waited 14 months for a HEART",
            "#OrganDonor saves-lives donor's",
            "",
            "(https://example.org/x), trailing",
        ],
    )
    def test_agrees_with_tokenize(self, text):
        assert scan_words_hashtags(text) == words_and_hashtags(text)


class TestSplitCompound:
    def test_hyphen_compound(self):
        assert split_compound("heart-kidney") == ("heart", "kidney")

    def test_apostrophe_compound(self):
        assert split_compound("donor's") == ("donor", "s")

    def test_curly_apostrophe(self):
        assert split_compound("donor’s") == ("donor", "s")

    def test_mixed_separators(self):
        assert split_compound("o'brien-smith") == ("o", "brien", "smith")

    def test_plain_token_returns_shared_empty(self):
        assert split_compound("kidney") is split_compound("liver")
        assert split_compound("kidney") == ()


class TestCaching:
    def test_same_text_same_result(self):
        assert tokenize("kidney donor") is tokenize("kidney donor")

    def test_result_is_immutable_tuple(self):
        assert isinstance(tokenize("kidney donor"), tuple)

    def test_scan_is_cached(self):
        assert scan_words_hashtags("kidney donor") is scan_words_hashtags(
            "kidney donor"
        )
