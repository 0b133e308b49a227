"""The end-to-end online query matcher.

:class:`QueryMatcher` answers the question the paper opens with: *does this
Web query (approximately) reference one of our structured entities, and if
so which one?*  It works in two stages:

1. **Exact-dictionary segmentation** — find the longest contiguous span of
   the query that exactly matches a dictionary string (canonical name or
   mined synonym).  This is the fast path and the one the paper's coverage
   metric counts.
2. **Fuzzy fallback** (optional) — if no span matches exactly, shortlist
   dictionary strings sharing a token with the query and accept the best
   one above an edit-distance-based similarity threshold.  This catches
   unseen misspellings without re-running the offline miner.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.matching.index import DictionaryIndex
from repro.matching.segmentation import QuerySegmenter, Segment
from repro.text.normalize import normalize
from repro.text.similarity import levenshtein_similarity, token_containment
from repro.text.tokenize import tokenize

__all__ = ["MatchOutcome", "EntityMatch", "QueryMatcher"]


class MatchOutcome(Enum):
    """How (or whether) a query was matched."""

    EXACT = "exact"
    FUZZY = "fuzzy"
    NO_MATCH = "no_match"


@dataclass(frozen=True)
class EntityMatch:
    """The result of matching one live query.

    ``entity_ids`` may contain more than one id when the matched string is
    ambiguous in the dictionary; downstream applications disambiguate with
    context (or simply take all of them, as a search result page would).
    """

    query: str
    outcome: MatchOutcome
    entity_ids: frozenset[str] = frozenset()
    matched_text: str = ""
    remainder: str = ""
    score: float = 0.0

    @property
    def matched(self) -> bool:
        """True when the query resolved to at least one entity."""
        return self.outcome is not MatchOutcome.NO_MATCH and bool(self.entity_ids)


class QueryMatcher:
    """Matches live Web queries against a :class:`DictionaryIndex`.

    Any index implementation works — the in-memory
    :class:`~repro.matching.dictionary.SynonymDictionary` or a compiled
    :class:`~repro.serving.artifact.SynonymArtifact`.
    """

    def __init__(
        self,
        dictionary: DictionaryIndex,
        *,
        enable_fuzzy: bool = True,
        fuzzy_similarity_threshold: float = 0.84,
        fuzzy_containment_threshold: float = 0.6,
    ) -> None:
        if not 0.0 <= fuzzy_similarity_threshold <= 1.0:
            raise ValueError("fuzzy_similarity_threshold must be in [0, 1]")
        if not 0.0 <= fuzzy_containment_threshold <= 1.0:
            raise ValueError("fuzzy_containment_threshold must be in [0, 1]")
        self.dictionary = dictionary
        self.segmenter = QuerySegmenter(dictionary)
        self.enable_fuzzy = enable_fuzzy
        self.fuzzy_similarity_threshold = fuzzy_similarity_threshold
        self.fuzzy_containment_threshold = fuzzy_containment_threshold

    # ------------------------------------------------------------------ #
    # Matching
    # ------------------------------------------------------------------ #

    def match(self, query: str) -> EntityMatch:
        """Match one query; never raises on unmatched input."""
        normalized = normalize(query)
        if not normalized:
            return EntityMatch(query=query, outcome=MatchOutcome.NO_MATCH)

        segment = self.segmenter.best_segment(normalized)
        if segment is not None:
            return self._from_segment(query, segment)

        if self.enable_fuzzy:
            fuzzy = self._fuzzy_match(normalized)
            if fuzzy is not None:
                return EntityMatch(
                    query=query,
                    outcome=MatchOutcome.FUZZY,
                    entity_ids=frozenset(self.dictionary.entities_for(fuzzy[0])),
                    matched_text=fuzzy[0],
                    remainder="",
                    score=fuzzy[1],
                )
        return EntityMatch(query=query, outcome=MatchOutcome.NO_MATCH)

    def match_all(self, queries: list[str]) -> list[EntityMatch]:
        """Match a batch of queries (order preserved)."""
        return [self.match(query) for query in queries]

    def coverage(self, queries: list[str]) -> float:
        """Fraction of *queries* that resolve to at least one entity."""
        if not queries:
            return 0.0
        matched = sum(1 for match in self.match_all(queries) if match.matched)
        return matched / len(queries)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _from_segment(self, original_query: str, segment: Segment) -> EntityMatch:
        return EntityMatch(
            query=original_query,
            outcome=MatchOutcome.EXACT,
            entity_ids=segment.entity_ids,
            matched_text=segment.mention,
            remainder=segment.remainder,
            score=1.0,
        )

    def _fuzzy_match(self, normalized_query: str) -> tuple[str, float] | None:
        """Best fuzzy dictionary string for the query, or ``None``.

        Candidates are shortlisted through the token index (strings sharing
        at least one query token), then ranked by edit-distance similarity;
        token containment filters out candidates that share a token but are
        otherwise unrelated.  Ties in similarity go to the lexicographically
        smallest candidate, so the answer never depends on set order (and
        with it on the hash seed).
        """
        query_tokens = tokenize(normalized_query, normalized=True)
        shortlist: set[str] = set()
        for token in query_tokens:
            shortlist.update(self.dictionary.strings_containing_token(token))
        best: tuple[str, float] | None = None
        for candidate in shortlist:
            candidate_tokens = tokenize(candidate, normalized=True)
            containment = token_containment(candidate_tokens, query_tokens)
            if containment < self.fuzzy_containment_threshold:
                continue
            similarity = levenshtein_similarity(normalized_query, candidate)
            if similarity < self.fuzzy_similarity_threshold:
                continue
            if (
                best is None
                or similarity > best[1]
                or (similarity == best[1] and candidate < best[0])
            ):
                best = (candidate, similarity)
        return best
