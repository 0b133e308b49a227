"""Traced in-process replay: spans around each layer's public calls.

The replay feeds a workload's requests to a :class:`MatchService` with no
HTTP in between.  For the traced pass the service is built over
:class:`TimedArtifact` (the ``DictionaryIndex`` seam ``QueryMatcher``
accepts), and for the duration of :func:`instrumented` the names
``repro.serving.service`` and ``repro.matching.matcher`` resolve are
rebound to timing subclasses and wrappers, so no file of the package
changes.  Spans (name, start, end, parent, request) are kept in memory
and summarised when the replay ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

import repro.matching.matcher as matcher_module
import repro.serving.service as service_module
from repro.matching.matcher import QueryMatcher
from repro.matching.resolver import MatchResolver
from repro.scenarios.workload import Request
from repro.server.daemon import match_payload, ranked_payload
from repro.serving.artifact import SynonymArtifact
from repro.serving.delta import DictionaryDelta
from repro.serving.service import MatchService

from deltas import Generation

_now = time.perf_counter_ns


class Tracer:
    """In-memory span store; a span is ``[name, start_ns, end_ns, parent, request, note]``."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.request = -1
        self._stack: list[int] = []
        # Union of the token postings the current fuzzy attempt shortlisted.
        self.shortlist: set[str] = set()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent, self.request, None])
        self._stack.append(index)
        return index

    def end(self, index: int, note: Any = None) -> None:
        span = self.spans[index]
        span[2] = _now()
        span[5] = note
        self._stack.pop()

    def traced(self, name: str, call: Callable[..., Any], *args: Any) -> Any:
        index = self.begin(name)
        try:
            return call(*args)
        finally:
            self.end(index)


class TimedArtifact(SynonymArtifact):
    """A :class:`SynonymArtifact` that times the probes the matcher makes.

    It wraps a loaded artifact rather than re-reading one: the protocol
    methods are timed and forwarded, every other attribute is the wrapped
    artifact's.
    """

    def __init__(self, inner: SynonymArtifact, tracer: Tracer) -> None:
        # No super().__init__: the packed blocks stay with *inner*.
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def lookup(self, text: str) -> list[Any]:
        return self._tracer.traced("serving.artifact.exact_probe", self._inner.lookup, text)

    def entities_for(self, text: str) -> set[str]:
        return self._tracer.traced("serving.artifact.exact_probe", self._inner.entities_for, text)

    def __contains__(self, text: object) -> bool:
        return self._tracer.traced("serving.artifact.exact_probe", self._inner.__contains__, text)

    def strings_containing_token(self, token: str) -> set[str]:
        found = self._tracer.traced(
            "serving.artifact.token_probe", self._inner.strings_containing_token, token
        )
        self._tracer.shortlist.update(found)
        return found

    def strings_for_entity(self, entity_id: str) -> list[str]:
        return self._inner.strings_for_entity(entity_id)

    def priors(self) -> dict[str, float] | None:
        return self._inner.priors()

    def __len__(self) -> int:
        return len(self._inner)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._inner)


class _TimedSegmenter:
    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def best_segment(self, query: str) -> Any:
        index = self._tracer.begin("matching.segmentation.best_segment")
        segment = None
        try:
            segment = self._inner.best_segment(query)
            return segment
        finally:
            self._tracer.end(index, segment is not None)


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Rebind the matcher, resolver and edit-distance names to timed versions."""
    original_similarity = matcher_module.levenshtein_similarity

    class TimedMatcher(QueryMatcher):
        def __init__(self, dictionary: Any, **options: Any) -> None:
            super().__init__(dictionary, **options)
            self.segmenter = _TimedSegmenter(self.segmenter, tracer)  # type: ignore[assignment]

        def match(self, query: str) -> Any:
            tracer.shortlist = set()
            index = tracer.begin("matching.matcher.match")
            result = None
            try:
                result = super().match(query)
                return result
            finally:
                outcome = result.outcome.value if result is not None else "error"
                tracer.end(index, (outcome, len(tracer.shortlist)))

    class TimedResolver(MatchResolver):
        def rank(self, match: Any) -> Any:
            return tracer.traced("matching.resolver.rank", super().rank, match)

    def timed_similarity(a: str, b: str) -> float:
        return tracer.traced("text.levenshtein", original_similarity, a, b)

    service_module.QueryMatcher = TimedMatcher  # type: ignore[misc]
    service_module.MatchResolver = TimedResolver  # type: ignore[misc]
    matcher_module.levenshtein_similarity = timed_similarity
    try:
        yield
    finally:
        service_module.QueryMatcher = QueryMatcher  # type: ignore[misc]
        service_module.MatchResolver = MatchResolver  # type: ignore[misc]
        matcher_module.levenshtein_similarity = original_similarity


def answer(service: MatchService, endpoint: str, query: str) -> dict[str, Any]:
    """What the daemon would put on the wire for one query."""
    if endpoint == "resolve":
        match, ranked = service.resolve(query)
        payload = match_payload(match)
        payload["ranked"] = ranked_payload(ranked)
        return payload
    return match_payload(service.match(query))


def replay(
    artifact: SynonymArtifact,
    requests: Sequence[Request],
    *,
    tracer: Tracer | None = None,
    deltas: Sequence[tuple[int, Generation]] = (),
    restarts: Sequence[int] = (),
) -> tuple[float, list[str], list[float]]:
    """Serve *requests* in process; *deltas* are applied before the given request index.

    At each index in *restarts* a fresh service (with an empty cache)
    takes over, as after the daemon's ``/admin/reload``.

    Returns the seconds spent in requests (delta applies excluded), every
    encoded answer in order, and the milliseconds each delta apply took.
    """
    wrap = (lambda art: TimedArtifact(art, tracer)) if tracer is not None else (lambda art: art)
    service = MatchService(wrap(artifact))
    pending = list(deltas)
    fresh = set(restarts)
    busy = 0.0
    answers: list[str] = []
    apply_ms: list[float] = []
    for position, request in enumerate(requests):
        while pending and pending[0][0] <= position:
            _, generation = pending.pop(0)
            started = time.perf_counter()
            artifact = artifact.apply_delta(DictionaryDelta.load(generation.sidecar))
            apply_ms.append((time.perf_counter() - started) * 1000.0)
            service = MatchService(wrap(artifact))
        if position in fresh:
            service = MatchService(wrap(artifact))
        started = time.perf_counter()
        if tracer is None:
            for query in request.queries:
                answers.append(json.dumps(answer(service, request.endpoint, query), ensure_ascii=False))
        else:
            tracer.request = position
            root = tracer.begin("request")
            for query in request.queries:
                name = "serving.service.resolve" if request.endpoint == "resolve" else "serving.service.match"
                index = tracer.begin(name)
                if request.endpoint == "resolve":
                    match, ranked = service.resolve(query)
                else:
                    match, ranked = service.match(query), None
                tracer.end(index)
                index = tracer.begin("server.encode")
                payload = match_payload(match)
                if ranked is not None:
                    payload["ranked"] = ranked_payload(ranked)
                answers.append(json.dumps(payload, ensure_ascii=False))
                tracer.end(index)
            tracer.end(root)
        busy += time.perf_counter() - started
    return busy, answers, apply_ms
