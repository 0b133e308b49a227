"""Answer checking against an in-process reference built from the same rows."""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Mapping, Sequence

from repro.matching.matcher import QueryMatcher
from repro.matching.resolver import MatchResolver
from repro.scenarios.workload import click_log_from_rows, dictionary_from_rows
from repro.server.daemon import match_payload, ranked_payload


def mismatches(
    served: Mapping[tuple[str, str], Counter[str]], rows: Sequence[dict[str, Any]]
) -> tuple[int, list[tuple[str, str]]]:
    """Requests whose answer differs from the reference, and their (endpoint, query).

    The reference is a :class:`QueryMatcher` over a ``SynonymDictionary``
    built from *rows*, ranked with live click-log priors, so neither the
    compiled artifact nor the daemon takes part in it.
    """
    dictionary = dictionary_from_rows(rows)
    matcher = QueryMatcher(dictionary)
    resolver = MatchResolver(dictionary, click_log=click_log_from_rows(rows))
    failed = 0
    wrong: list[tuple[str, str]] = []
    for (endpoint, query), answers in served.items():
        match = matcher.match(query)
        expected = match_payload(match)
        if endpoint == "resolve":
            expected["ranked"] = ranked_payload(resolver.rank(match))
        want = json.dumps(expected, sort_keys=True)
        bad = sum(count for got, count in answers.items() if got != want)
        if bad:
            failed += bad
            wrong.append((endpoint, query))
    return failed, wrong
