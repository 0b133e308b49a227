"""Tests for the online query matcher."""

import os
import subprocess
import sys

import pytest

from repro.matching.dictionary import DictionaryEntry, SynonymDictionary
from repro.matching.matcher import MatchOutcome, QueryMatcher


@pytest.fixture()
def dictionary():
    return SynonymDictionary(
        [
            DictionaryEntry("indiana jones and the kingdom of the crystal skull", "m1", "canonical"),
            DictionaryEntry("indy 4", "m1"),
            DictionaryEntry("indiana jones 4", "m1"),
            DictionaryEntry("madagascar escape 2 africa", "m2", "canonical"),
            DictionaryEntry("madagascar 2", "m2"),
            DictionaryEntry("digital rebel xt", "c1"),
        ]
    )


@pytest.fixture()
def matcher(dictionary):
    return QueryMatcher(dictionary)


class TestExactMatching:
    def test_motivating_example(self, matcher):
        match = matcher.match("indy 4 near san fran")
        assert match.outcome is MatchOutcome.EXACT
        assert match.entity_ids == frozenset({"m1"})
        assert match.matched_text == "indy 4"
        assert match.remainder == "near san fran"
        assert match.matched

    def test_canonical_form_matches(self, matcher):
        match = matcher.match("Indiana Jones and the Kingdom of the Crystal Skull")
        assert match.outcome is MatchOutcome.EXACT
        assert match.entity_ids == {"m1"}

    def test_codename_matches_distinct_entity(self, matcher):
        assert matcher.match("digital rebel xt price").entity_ids == {"c1"}

    def test_empty_query(self, matcher):
        match = matcher.match("   ")
        assert match.outcome is MatchOutcome.NO_MATCH
        assert not match.matched


class TestFuzzyMatching:
    def test_misspelling_recovered(self, matcher):
        match = matcher.match("indiana jnoes 4")
        assert match.outcome is MatchOutcome.FUZZY
        assert match.entity_ids == {"m1"}
        assert 0.0 < match.score <= 1.0

    def test_fuzzy_disabled(self, dictionary):
        strict = QueryMatcher(dictionary, enable_fuzzy=False)
        assert strict.match("indiana jnoes 4").outcome is MatchOutcome.NO_MATCH

    def test_unrelated_query_not_matched(self, matcher):
        assert matcher.match("weather forecast tomorrow").outcome is MatchOutcome.NO_MATCH

    def test_sharing_one_token_is_not_enough(self, matcher):
        # "madagascar wildlife documentary" shares a token with an entry but
        # is far from any dictionary string.
        assert matcher.match("madagascar wildlife documentary").outcome is MatchOutcome.NO_MATCH

    def test_invalid_thresholds(self, dictionary):
        with pytest.raises(ValueError):
            QueryMatcher(dictionary, fuzzy_similarity_threshold=1.5)
        with pytest.raises(ValueError):
            QueryMatcher(dictionary, fuzzy_containment_threshold=-0.1)

    def test_query_empty_after_normalization(self, matcher):
        # Punctuation-only input normalizes to "" and must short-circuit to
        # NO_MATCH before segmentation or the fuzzy fallback ever run.
        for query in ("!!!", "  ...  ", "-_-", "'"):
            match = matcher.match(query)
            assert match.outcome is MatchOutcome.NO_MATCH, query
            assert match.query == query
            assert not match.matched

    def test_token_hit_but_every_candidate_below_threshold(self, dictionary):
        # "madagascar holiday rentals" shortlists dictionary strings through
        # the shared "madagascar" token, but every candidate fails the
        # similarity threshold — the fallback must return NO_MATCH rather
        # than the least-bad candidate.
        matcher = QueryMatcher(dictionary, fuzzy_similarity_threshold=0.95)
        query = "madagascar holiday rentals"
        shortlist = dictionary.strings_containing_token("madagascar")
        assert shortlist, "precondition: the token index must produce candidates"
        match = matcher.match(query)
        assert match.outcome is MatchOutcome.NO_MATCH
        assert match.entity_ids == frozenset()

    def test_containment_filter_rejects_before_similarity(self, dictionary):
        # A candidate sharing one token out of many is dropped by the
        # containment gate even with a permissive similarity threshold.
        permissive = QueryMatcher(
            dictionary,
            fuzzy_similarity_threshold=0.0,
            fuzzy_containment_threshold=1.0,
        )
        assert permissive.match("madagascar x").outcome is MatchOutcome.NO_MATCH

    def test_equal_similarity_tie_is_independent_of_hash_seed(self):
        """Equally similar candidates resolve to the smallest string.

        The shortlist is a set, so the winner of a similarity tie used to
        follow the hash seed; only a fresh interpreter per seed shows it.
        """
        from tests.conftest import SRC_DIR

        script = (
            "from repro.matching.dictionary import DictionaryEntry, SynonymDictionary\n"
            "from repro.matching.matcher import QueryMatcher\n"
            "texts = ['the star wars', 'the star war', 'the stars war', 'the star wat']\n"
            "dictionary = SynonymDictionary(\n"
            "    DictionaryEntry(text, f'e{index}') for index, text in enumerate(texts)\n"
            ")\n"
            "print(QueryMatcher(dictionary).match('the star warz').matched_text)\n"
        )
        answers = set()
        for seed in range(1, 9):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC_DIR)
            completed = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True, timeout=60,
            )
            answers.add(completed.stdout.strip())
        assert answers == {"the star war"}


class TestBatchAndCoverage:
    def test_match_all_preserves_order(self, matcher):
        queries = ["indy 4", "unknown thing", "madagascar 2"]
        matches = matcher.match_all(queries)
        assert [match.query for match in matches] == queries

    def test_coverage_fraction(self, matcher):
        queries = ["indy 4 showtimes", "madagascar 2", "weather forecast", "lottery numbers"]
        assert matcher.coverage(queries) == pytest.approx(0.5)

    def test_coverage_empty(self, matcher):
        assert matcher.coverage([]) == 0.0

    def test_expanded_dictionary_beats_canonical_only(self, dictionary):
        canonical_only = SynonymDictionary(
            [entry for entry in dictionary if entry.source == "canonical"]
        )
        queries = ["indy 4 near san fran", "madagascar 2 dvd", "digital rebel xt review"]
        expanded = QueryMatcher(dictionary, enable_fuzzy=False).coverage(queries)
        baseline = QueryMatcher(canonical_only, enable_fuzzy=False).coverage(queries)
        assert expanded > baseline
