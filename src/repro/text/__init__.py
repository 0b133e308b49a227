"""Text substrate: normalization, tokenization and string similarity.

Every other subsystem (the search engine, the click-log simulator, the
synonym miner and the online matcher) funnels raw strings through this
package so that "the same query written slightly differently" maps to the
same normalized form everywhere.
"""

from repro.text.normalize import normalize, strip_accents, normalize_whitespace
from repro.text.tokenize import tokenize, ngrams, char_ngrams, token_set
from repro.text.stopwords import STOPWORDS, is_stopword, remove_stopwords
from repro.text.similarity import (
    levenshtein_distance,
    damerau_levenshtein_distance,
    levenshtein_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    jaccard_similarity,
    dice_coefficient,
    token_containment,
    cosine_ngram_similarity,
    longest_common_subsequence,
)

__all__ = [
    "normalize",
    "strip_accents",
    "normalize_whitespace",
    "tokenize",
    "ngrams",
    "char_ngrams",
    "token_set",
    "STOPWORDS",
    "is_stopword",
    "remove_stopwords",
    "levenshtein_distance",
    "damerau_levenshtein_distance",
    "levenshtein_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "jaccard_similarity",
    "dice_coefficient",
    "token_containment",
    "cosine_ngram_similarity",
    "longest_common_subsequence",
]
