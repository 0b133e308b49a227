"""Per-layer metrics from the spans of a traced replay."""

from __future__ import annotations

import statistics
from typing import Any, Sequence

from stats import percentile, self_time

NS_PER_US = 1000.0


def layers(spans: Sequence[Sequence[Any]]) -> dict[str, float]:
    """Per-layer figures; a layer the replay never entered reports 0."""
    children: dict[int, list[int]] = {}
    by_name: dict[str, list[int]] = {}
    for index, (name, _start, _end, parent, _request, _note) in enumerate(spans):
        by_name.setdefault(name, []).append(index)
        if parent >= 0:
            children.setdefault(parent, []).append(index)

    def durations_us(name: str) -> list[float]:
        return [(spans[i][2] - spans[i][1]) / NS_PER_US for i in by_name.get(name, ())]

    def p(values: list[float], q: float) -> float:
        return percentile(values, q) if values else 0.0

    def kids(index: int, name: str) -> list[int]:
        return [i for i in children.get(index, ()) if spans[i][0] == name]

    service_self = [
        self_time(spans[i][1], spans[i][2], [(spans[c][1], spans[c][2]) for c in children.get(i, ())])
        / NS_PER_US
        for i in by_name.get("serving.service.match", ())
    ]
    segment_spans = by_name.get("matching.segmentation.best_segment", ())
    probes = [len(kids(i, "serving.artifact.exact_probe")) for i in segment_spans]

    matches = by_name.get("matching.matcher.match", ())
    fuzzy_us: list[float] = []
    shortlists: list[int] = []
    verified: list[int] = []
    accepted = 0
    for i in matches:
        segments = kids(i, "matching.segmentation.best_segment")
        if not segments or spans[segments[0]][5]:
            continue  # empty query, or an exact hit: no fuzzy attempt
        outcome, shortlist = spans[i][5]
        fuzzy_us.append((spans[i][2] - spans[segments[0]][2]) / NS_PER_US)
        shortlists.append(shortlist)
        verified.append(len(kids(i, "text.levenshtein")))
        accepted += outcome == "fuzzy"
    attempts = len(fuzzy_us)
    return {
        "server.encode_us": p(durations_us("server.encode"), 0.5),
        "serving.service.match_self_us": p(service_self, 0.5),
        "matching.segmentation.best_segment_p50_us": p(durations_us("matching.segmentation.best_segment"), 0.5),
        "matching.segmentation.best_segment_p99_us": p(durations_us("matching.segmentation.best_segment"), 0.99),
        "matching.segmentation.probes_per_query": statistics.fmean(probes) if probes else 0.0,
        "serving.artifact.exact_probe_us": p(durations_us("serving.artifact.exact_probe"), 0.5),
        "serving.artifact.token_probe_us": p(durations_us("serving.artifact.token_probe"), 0.5),
        "matching.matcher.fuzzy_p50_us": p(fuzzy_us, 0.5),
        "matching.matcher.fuzzy_p99_us": p(fuzzy_us, 0.99),
        "matching.matcher.shortlist_per_fuzzy": statistics.fmean(shortlists) if attempts else 0.0,
        "matching.matcher.verified_per_fuzzy": statistics.fmean(verified) if attempts else 0.0,
        "text.levenshtein_us": p(durations_us("text.levenshtein"), 0.5),
        "matching.matcher.fuzzy_share": attempts / len(matches) if matches else 0.0,
        "matching.matcher.fuzzy_accept_ratio": accepted / attempts if attempts else 0.0,
        "matching.resolver.rank_us": p(durations_us("matching.resolver.rank"), 0.5),
    }
