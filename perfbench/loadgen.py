"""Wire-level load: an open-loop paced loop, closed loops and a delta publisher.

Everything runs in the calling thread over at most two keep-alive
connections: one carries the measured traffic, the other (the admin
connection) carries freshness probes and health checks.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import random
import shutil
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.scenarios.workload import Request
from repro.server.client import ServerClient, ServerError

from deltas import Generation

_WIRE_ERRORS = (ServerError, OSError, http.client.HTTPException)
# The paced loop spins for the last stretch before a due time: waking
# from sleep on a busy host can take longer than a request.
_SPIN_S = 0.0005
# A generation not served this long after its rename counts as failed.
_PUBLISH_TIMEOUT_S = 10.0


class Recorder:
    """Counts attempted and failed operations and keeps every distinct answer."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        # (endpoint, query) -> Counter of the JSON answers served for it
        self.served: dict[tuple[str, str], Counter[str]] = {}

    def keep(self, endpoint: str, query: str, answer: dict[str, Any]) -> None:
        key = (endpoint, query)
        self.served.setdefault(key, Counter())[json.dumps(answer, sort_keys=True)] += 1


@contextmanager
def quiet_gc() -> Iterator[None]:
    """Keep the generator's own garbage collector from pausing a schedule.

    Everything alive on entry (catalog rows, pools) is frozen out of
    collection and the collector is off until exit; what the phase
    allocates is freed by reference counting.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def send(client: ServerClient, request: Request, recorder: Recorder) -> bool:
    """One request; its answers are kept, a wire failure is counted."""
    recorder.attempted += 1
    queries = request.queries
    try:
        if request.batched:
            call = client.resolve_many if request.endpoint == "resolve" else client.match_many
            answers = call(queries)
        else:
            call1 = client.resolve if request.endpoint == "resolve" else client.match
            answers = [call1(queries[0])]
    except _WIRE_ERRORS:
        recorder.failed += 1
        client.close()
        return False
    for query, answer in zip(queries, answers):
        recorder.keep(request.endpoint, query, answer)
    return True


@dataclass
class PacedResult:
    """Per-request latency from the due time (``inf`` when failed) and send lag."""

    latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    lags_ms: list[float] = field(default_factory=list)

    def all_latencies(self) -> list[float]:
        return [value for values in self.latencies_ms.values() for value in values]


def paced(
    client: ServerClient,
    requests: Sequence[Request],
    rate: float,
    recorder: Recorder,
    *,
    tick: Callable[[], None] | None = None,
) -> PacedResult:
    """Open loop: request *i* is due at ``start + i / rate`` whatever came before.

    Latency runs from the due time, so a stall also charges the requests
    queued behind it; lag is how late each send left.  *tick* runs once per
    request and while waiting for the next due time.
    """
    result = PacedResult()
    clock = time.perf_counter
    start = clock() + 0.01
    for index, request in enumerate(requests):
        due = start + index / rate
        while True:
            if tick is not None:
                tick()
            now = clock()
            if now >= due:
                break
            if due - now > _SPIN_S:  # sleep most of the wait, spin the rest
                time.sleep(min(due - now - _SPIN_S, 0.002))
        sent = clock()
        ok = send(client, request, recorder)
        done = clock()
        result.lags_ms.append((sent - due) * 1000.0)
        result.latencies_ms.setdefault(request.endpoint, []).append(
            (done - due) * 1000.0 if ok else math.inf
        )
    return result


def closed(
    client: ServerClient,
    requests: Sequence[Request],
    recorder: Recorder,
    *,
    tick: Callable[[], None] | None = None,
) -> float:
    """Closed loop, back to back; returns the elapsed seconds."""
    start = time.perf_counter()
    for request in requests:
        if tick is not None:
            tick()
        send(client, request, recorder)
    return time.perf_counter() - start


class Publisher:
    """Publishes prebuilt delta generations and measures their freshness.

    A publish is a copy plus an atomic rename onto ``<artifact>.delta``;
    freshness is the time from that rename until ``/match`` of the
    generation's new alias returns its entity.  The next generation is
    published only once the previous one is served (and no sooner than
    *every_s* after it, plus up to *jitter_s*), because the daemon watches
    a single sidecar path.
    """

    def __init__(
        self,
        admin: ServerClient,
        delta_path: Path,
        generations: Iterable[Generation],
        recorder: Recorder,
        *,
        every_s: float,
        probe_every_s: float,
        jitter_s: float,
        rng: random.Random,
    ) -> None:
        self.admin = admin
        self.delta_path = delta_path
        # Drawn one at a time: the source may still be building the next.
        self._source = iter(generations)
        self._exhausted = False
        self.recorder = recorder
        self.every_s = every_s
        self.probe_every_s = probe_every_s
        self.jitter_s = jitter_s
        self.rng = rng
        self.freshness_s: list[float] = []
        self.published: Generation | None = None
        self._renamed_at = 0.0
        self._next_action = 0.0
        self._waiting = False

    @property
    def done(self) -> bool:
        return self._exhausted and not self._waiting

    def tick(self) -> None:
        now = time.perf_counter()
        if now < self._next_action:
            return
        if self._waiting:
            self._probe(now)
        elif not self._exhausted:
            self._publish()

    def _publish(self) -> None:
        generation = next(self._source, None)
        if generation is None:
            self._exhausted = True
            return
        staging = self.delta_path.with_name(self.delta_path.name + ".staging")
        shutil.copyfile(generation.sidecar, staging)
        os.replace(staging, self.delta_path)
        self._renamed_at = time.perf_counter()
        self.recorder.attempted += 1
        self.published = generation
        self._waiting = True
        self._next_action = self._renamed_at + self.probe_every_s

    def _probe(self, now: float) -> None:
        generation = self.published
        assert generation is not None
        try:
            answer = self.admin.match(generation.alias)
        except _WIRE_ERRORS:
            self.admin.close()
            answer = {}
        served_at = time.perf_counter()
        # Only an exact hit proves the swap: before it, the alias can still
        # fuzzy-match an earlier generation's alias of the same entity.
        if answer.get("outcome") == "exact" and generation.entity in answer.get("entities", ()):
            self.freshness_s.append(served_at - self._renamed_at)
            self._waiting = False
            # Jitter keeps the next rename from landing at the same point of
            # the daemon's poll cycle every time, which would lock freshness
            # to one phase of it for a whole run.
            self._next_action = max(self._renamed_at + self.every_s, served_at) + self.rng.uniform(
                0.0, self.jitter_s
            )
        elif served_at - self._renamed_at > _PUBLISH_TIMEOUT_S:
            self.recorder.failed += 1
            self._waiting = False
            self._next_action = served_at
        else:
            self._next_action = now + self.probe_every_s

    def run_to_end(self) -> None:
        """Publish every pending generation with no other traffic."""
        while not self.done:
            self.tick()
            time.sleep(max(0.0, min(self.probe_every_s, self._next_action - time.perf_counter())))
