#!/usr/bin/env python3
"""The repository's benchmark: a live ``python -m repro server`` under pinned workloads.

Run from the repository root::

    python3 perfbench/run.py --workload exact-5k --seed 1 --seconds 20 --trace 0

Each workload in ``perfbench/workloads.json`` pins a scenario (catalog
and query generators of :mod:`repro.scenarios.workload`, with the
scenario's own seed), a nominal rate, a rate ladder and a p99 limit, plus
sha256 fingerprints of the catalog and of the request stream; a run
refuses to measure when the generators produce anything else.  Every
phase's request pool is a fixed slice of that pinned stream and every
run does the same work: ``--seed`` only draws the order of each round.

``--trace 0`` measures end to end over HTTP from one process with two
keep-alive connections (traffic; health checks and freshness probes).
Set-up (compile with priors, boot until ``/healthz`` answers) runs three
times.  Then :data:`ROUNDS` rounds each run, on an emptied result cache:
an open-loop paced phase at the nominal rate (latency timed from when
each request was due), one rung of the rate ladder, a closed-loop
capacity phase and a closed-loop ``/match`` batch phase.  Each metric
is the median over rounds.  Delta freshness comes last (during the rounds
under churn).  ``--trace 1`` boots once, drives the paced rounds over
HTTP for the daemon's ``/stats`` and replays them in process, untraced
and traced, for the per-layer numbers; the spans (name, start and end
in ns, parent, request, note) end up in ``.perfbench_work/``.

Every distinct answer is compared with an in-process reference
(``check.py``); a mismatch, a failed request or a skipped delta counts as
a failed operation.  The last line of standard output is the result;
the line before it records the host (git SHA, Python, nproc, load
average before and after) and what each metric was computed from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
if not (SRC / "repro").is_dir():
    sys.exit(f"perfbench: no repro sources under {SRC}")
sys.path.insert(0, str(SRC))

from repro.scenarios.spec import Scenario  # noqa: E402
from repro.scenarios.workload import (  # noqa: E402
    Request,
    build_catalog,
    catalog_fingerprint,
    click_log_from_rows,
    dictionary_from_rows,
    request_stream,
    stream_fingerprint,
)
from repro.serving.artifact import SynonymArtifact, compile_dictionary  # noqa: E402
from repro.serving.delta import delta_path_for  # noqa: E402

import summary  # noqa: E402
from check import mismatches  # noqa: E402
from deltas import build_chain  # noqa: E402
from loadgen import PacedResult, Publisher, Recorder, closed, paced, quiet_gc, send  # noqa: E402
from serverproc import ServerProcess  # noqa: E402
from stats import percentile, rung_passes, slo_rate, tail_quantile  # noqa: E402
from tracing import Tracer, instrumented, replay  # noqa: E402

SETUP_REPEATS = 3
# Every measurement repeats in this many rounds, interleaved, and reports
# the median round: a slow spell of a shared host moves a few rounds of
# each metric instead of all of one.
ROUNDS = 7
# Generations behind each freshness figure: the tail is then the highest
# percentile with ten generations beyond it (p50 at exactly twenty).
FRESHNESS_GENERATIONS = 20
TRACE_DELTAS = 3  # in-process applies of a traced run without churn
PROBE_EVERY_S = 0.01
WATCH_INTERVAL_S = 0.1
BATCH_SIZE = 64

END_TO_END_UNITS = {
    "setup_s": "s",
    "match_p50_ms": "ms",
    "match_p99_ms": "ms",
    "resolve_p50_ms": "ms",
    "resolve_p99_ms": "ms",
    "slo_rps": "req/s",
    "capacity_rps": "req/s",
    "batch_qps": "queries/s",
    "rss_mb": "MB",
    "freshness_p50_s": "s",
    "freshness_tail_s": "s",
}
PER_LAYER_UNITS = {
    "server.match_p50_ms": "ms",
    "server.match_p99_ms": "ms",
    "server.boot_s": "s",
    "serving.artifact.load_ms": "ms",
    "serving.artifact.compile_s": "s",
    "server.encode_us": "us",
    "serving.service.cache_hit_ratio": "ratio",
    "serving.service.match_self_us": "us",
    "matching.segmentation.best_segment_p50_us": "us",
    "matching.segmentation.best_segment_p99_us": "us",
    "matching.segmentation.probes_per_query": "count",
    "serving.artifact.exact_probe_us": "us",
    "serving.artifact.token_probe_us": "us",
    "matching.matcher.fuzzy_p50_us": "us",
    "matching.matcher.fuzzy_p99_us": "us",
    "matching.matcher.shortlist_per_fuzzy": "count",
    "matching.matcher.verified_per_fuzzy": "count",
    "text.levenshtein_us": "us",
    "matching.matcher.fuzzy_share": "ratio",
    "matching.matcher.fuzzy_accept_ratio": "ratio",
    "matching.resolver.rank_us": "us",
    "serving.delta.apply_ms": "ms",
    "serving.delta.sidecar_bytes": "bytes",
    "serving.service.deltas_applied": "count",
    "serving.service.deltas_skipped": "count",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class WorkloadDrift(RuntimeError):
    """The generators no longer produce the pinned workload."""


@dataclass
class Wire:
    """The two connections of a run, its recorder and the publisher's tick."""

    admin: Any
    client: Any
    recorder: Recorder
    tick: Callable[[], None] | None


def host_record() -> dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
    }


def end_lag(lags_ms: Sequence[float]) -> float:
    """Median send lag of the last fifth of a paced round."""
    return statistics.median(lags_ms[-max(1, len(lags_ms) // 5):])


def served_percentile(latencies_ms: Sequence[float], q: float) -> float:
    """Percentile over answered requests (failures are counted as failed operations)."""
    return percentile([v for v in latencies_ms if v != float("inf")], q)


class Run:
    """One workload, one seed: every phase of a ``--trace 0`` or ``--trace 1`` run."""

    def __init__(self, name: str, spec: dict[str, Any], seed: int, seconds: float, work: Path) -> None:
        self.name = name
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.scenario = Scenario(**spec["scenario"])
        self.catalog = build_catalog(self.scenario)
        self.rows = list(self.catalog.rows)
        self.churn = self.scenario.delta_every_s > 0
        self.rate = float(spec["rate_rps"])
        self.detail: dict[str, Any] = {"workload": name, "seed": seed, "seconds": seconds}
        self.escalations: list[dict[str, Any]] = []
        self.server: ServerProcess | None = None
        # With two CPUs or more, the client and the daemon each keep one:
        # left to the scheduler, whether they share a CPU changes from run
        # to run, and with it every request's hand-off cost.
        cpus = sorted(os.sched_getaffinity(0))
        self.server_cpus = {cpus[1]} if len(cpus) > 1 else None
        if self.server_cpus:
            os.sched_setaffinity(0, {cpus[0]})
        self._check_pins()
        self._make_pools()

    # ------------------------------------------------------------------ #
    # Inputs
    # ------------------------------------------------------------------ #

    def _check_pins(self) -> None:
        catalog_sha = catalog_fingerprint(self.rows)
        stream_sha = stream_fingerprint(self.scenario, self.catalog, repeat=0)
        if catalog_sha != self.spec["catalog_sha256"] or stream_sha != self.spec["stream_sha256"]:
            raise WorkloadDrift(
                f"{self.name}: generators changed (catalog {catalog_sha}, stream {stream_sha}); "
                "the pinned fingerprints in perfbench/workloads.json no longer hold"
            )

    def _make_pools(self) -> None:
        """Consecutive slices of the pinned request stream, one per phase and rung.

        A pool holds one round's share of ``--seconds`` at the phase's
        rate.  The first rung of the ladder is the nominal rate, judged on
        the paced rounds; each rung above it runs in every
        ``len(rungs)``-th round.
        """
        share = self.spec["phase_share"]
        per_round = self.seconds / ROUNDS
        stream = request_stream(self.scenario, self.catalog, repeat=0)

        def take(count: float) -> list[Request]:
            return list(islice(stream, max(1, round(count))))

        self.paced_pool = take(self.rate * per_round * share["paced"])
        self.rung_pools = [
            (float(rate), take(rate * per_round * share["ladder"]))
            for rate in self.spec["ladder_rps"][1:]
        ]
        self.capacity_pool = take(self.spec["capacity_rps_sizing"] * per_round * share["capacity"])
        queries = [
            query
            for request in take(self.spec["batch_qps_sizing"] * per_round * share["batch"])
            for query in request.queries
        ]
        self.batch_pool = [
            Request("match", tuple(queries[i:i + BATCH_SIZE]))
            for i in range(0, len(queries), BATCH_SIZE)
        ]

    def order(self, phase: str, pool: Sequence[Any], number: int) -> list[Any]:
        """The pool in the order the seed draws for round *number* of *phase*."""
        order = list(pool)
        random.Random(f"{self.seed}:{phase}:{number}").shuffle(order)
        return order

    # ------------------------------------------------------------------ #
    # Set-up
    # ------------------------------------------------------------------ #

    def _setup(self, repeats: int) -> Path:
        """Compile the catalog (with priors) and boot a server until /healthz answers."""
        compiles: list[float] = []
        boots: list[float] = []
        for index in range(repeats):
            if self.server is not None:
                self._stop(f"setup{index - 1}")
            folder = self.work / f"setup{index}"
            folder.mkdir()
            artifact = folder / "catalog.artifact"
            started = time.perf_counter()
            compile_dictionary(
                dictionary_from_rows(self.rows),
                artifact,
                version="gen-0",
                click_log=click_log_from_rows(self.rows),
            )
            compiled = time.perf_counter()
            self.server = ServerProcess(
                SRC, artifact, folder / "server.log",
                watch_interval=WATCH_INTERVAL_S, cpus=self.server_cpus,
            )
            self.server.start()
            boots.append(time.perf_counter() - compiled)
            compiles.append(compiled - started)
        self.detail["setup_s"] = [c + b for c, b in zip(compiles, boots)]
        self.setup_s = statistics.median(self.detail["setup_s"])
        self.compile_s = statistics.median(compiles)
        self.boot_s = statistics.median(boots)
        started = time.perf_counter()
        self.base = SynonymArtifact.load(artifact)
        self.load_ms = (time.perf_counter() - started) * 1000.0
        return artifact

    def _stop(self, label: str) -> None:
        """Stop the current server; a SIGKILL is reported with the end of its log."""
        assert self.server is not None
        if self.server.stop():
            log = self.server.log_path.read_text(errors="replace").strip().splitlines()
            self.escalations.append({"server": label, "log_tail": log[-3:]})
        self.server = None

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #

    def _cold(self, wire: Wire) -> None:
        # Without churn every round starts from an empty result cache, so
        # rounds repeat the same work; under churn the delta swaps empty
        # it, and a reload would drop the applied chain.  One resolve of a
        # catalog name then builds the fresh artifact's lazy indexes, a
        # once-per-process cost that a long-running daemon has paid.
        if not self.churn:
            wire.admin.reload()
            wire.admin.resolve(self.rows[0]["canonical"])

    def _paced(self, wire: Wire, phase: str, pool: list[Any], rate: float, number: int) -> PacedResult:
        self._cold(wire)
        return paced(
            wire.client, self.order(phase, pool, number), rate, wire.recorder, tick=wire.tick
        )

    def _closed(self, wire: Wire, phase: str, pool: list[Any], number: int) -> float:
        """Seconds one closed-loop round takes."""
        self._cold(wire)
        return closed(wire.client, self.order(phase, pool, number), wire.recorder, tick=wire.tick)

    @staticmethod
    def _rung_passes(result: PacedResult, rate: float, limit_ms: float) -> bool:
        window_ms = len(result.lags_ms) / rate * 1000.0
        return rung_passes(result.all_latencies(), result.lags_ms, limit_ms, window_ms)

    def _requery_final(self, recorder: Recorder, client: Any) -> Any:
        """Under churn, ask every distinct query again once the last generation is served."""
        final = Recorder()
        keys = sorted(recorder.served)
        for endpoint in ("match", "resolve"):
            queries = [query for kind, query in keys if kind == endpoint]
            for i in range(0, len(queries), BATCH_SIZE):
                send(client, Request(endpoint, tuple(queries[i:i + BATCH_SIZE])), final)
        recorder.attempted += final.attempted
        recorder.failed += final.failed
        return final.served

    def _check(self, recorder: Recorder, wire: Wire, publisher: Publisher) -> None:
        """Compare answers with the reference and the daemon's end state with the plan.

        Without churn the reads (all answered by gen-0) are checked while a
        thread publishes whatever generations are still pending; under churn
        every distinct query is asked again on the final generation.
        """
        if self.churn:
            publisher.run_to_end()
            served, rows = self._requery_final(recorder, wire.client), self.final_rows
        else:
            served, rows = recorder.served, self.rows
            if self._chain_thread is not None:
                self._chain_thread.start()
        background = threading.Thread(target=publisher.run_to_end)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(0.0005)  # keep the publisher's probes prompt
        background.start()
        try:
            failed, wrong = mismatches(served, rows)
        finally:
            background.join()
            if self._chain_thread is not None:
                self._chain_thread.join()
            sys.setswitchinterval(interval)
        recorder.failed += failed
        self.detail["distinct_answers_checked"] = len(served)
        self.detail["wrong_answers"] = [list(key) for key in wrong[:20]]

        stats = wire.admin.stats()
        self.stats = stats
        expected = publisher.published.version if publisher.published else "gen-0"
        self.detail["served_version"] = stats["artifact"]["version"]
        recorder.failed += stats["artifact"]["version"] != expected
        recorder.failed += int(stats["service"]["deltas_skipped"])

    def _start(self, artifact: Path, generations: int, *, ahead: bool) -> tuple[Wire, Publisher]:
        """Connect and set up the delta publisher.

        Reads under churn need every generation built before they start
        (*ahead*); otherwise a thread builds them while the publisher
        waits on the daemon, and the publisher takes each one as it lands.
        """
        chain = build_chain(self.base, self.rows, self.scenario, generations, self.work / "deltas")
        self.generations: list[Any] = []
        self._chain_thread: threading.Thread | None = None
        if ahead:
            for generation, rows in chain:
                self.generations.append(generation)
                self.final_rows = rows
            source: Any = self.generations
        else:
            landed: queue.Queue[Any] = queue.Queue()

            def build() -> None:
                try:
                    for generation, _rows in chain:
                        self.generations.append(generation)
                        landed.put(generation)
                finally:
                    landed.put(None)

            self._chain_thread = threading.Thread(target=build)
            source = iter(landed.get, None)
        recorder = Recorder()
        assert self.server is not None
        admin = self.server.client()
        publisher = Publisher(
            admin,
            delta_path_for(artifact),
            source,
            recorder,
            every_s=self.scenario.delta_every_s,
            probe_every_s=PROBE_EVERY_S,
            jitter_s=WATCH_INTERVAL_S,
            rng=random.Random(f"{self.seed}:publish"),
        )
        tick = publisher.tick if self.churn else None
        self.wire = Wire(admin, self.server.client(), recorder, tick)
        return self.wire, publisher

    def measure(self) -> tuple[Recorder, dict[str, float]]:
        """``--trace 0``: every end-to-end metric."""
        artifact = self._setup(SETUP_REPEATS)
        wire, publisher = self._start(artifact, FRESHNESS_GENERATIONS, ahead=self.churn)
        recorder = wire.recorder
        limit = float(self.spec["p99_limit_ms"])
        nominal: list[PacedResult] = []
        capacity: list[float] = []
        batch: list[float] = []
        votes: dict[float, list[bool]] = {self.rate: []}
        votes.update((rate, []) for rate, _ in self.rung_pools)
        rungs_detail = []
        with quiet_gc():
            for number in range(ROUNDS):
                result = self._paced(wire, "paced", self.paced_pool, self.rate, number)
                nominal.append(result)
                votes[self.rate].append(self._rung_passes(result, self.rate, limit))
                rate, pool = self.rung_pools[number % len(self.rung_pools)]
                rung = self._paced(wire, f"rung{rate:g}", pool, rate, number)
                votes[rate].append(self._rung_passes(rung, rate, limit))
                rungs_detail.append(
                    {"round": number, "rate": rate, "passed": votes[rate][-1],
                     "p99_ms": percentile(rung.all_latencies(), 0.99),
                     "end_lag_ms": end_lag(rung.lags_ms), "lag_p99_ms": percentile(rung.lags_ms, 0.99)}
                )
                capacity.append(self._closed(wire, "capacity", self.capacity_pool, number))
                batch.append(self._closed(wire, "batch", self.batch_pool, number))
        # A rung holds when most of its rounds met the limit with no backlog.
        ladder = [(rate, 2 * sum(passed) > len(passed)) for rate, passed in votes.items()]
        self._check(recorder, wire, publisher)
        rss_mb = self.server.peak_rss_mb()  # type: ignore[union-attr]
        self._stop("measured")

        freshness = publisher.freshness_s
        tail_q = tail_quantile(len(freshness))
        latency = {
            f"{endpoint}_{label}_ms": [served_percentile(r.latencies_ms[endpoint], q) for r in nominal]
            for endpoint in ("match", "resolve")
            for label, q in (("p50", 0.50), ("p99", 0.99))
        }
        capacity_rps = [len(self.capacity_pool) / seconds for seconds in capacity]
        batch_qps = [sum(len(r.queries) for r in self.batch_pool) / seconds for seconds in batch]
        self.detail.update(
            {
                "rounds": ROUNDS,
                "samples_per_round": {
                    endpoint: len(nominal[0].latencies_ms[endpoint]) for endpoint in ("match", "resolve")
                },
                "nominal_end_lag_ms": [end_lag(r.lags_ms) for r in nominal],
                "ladder": [{"rate": rate, "held": held} for rate, held in ladder],
                "rungs": rungs_detail,
                "paced_lag_p99_ms": percentile([lag for r in nominal for lag in r.lags_ms], 0.99),
                "latency_per_round_ms": latency,
                "capacity_per_round_rps": capacity_rps,
                "batch_per_round_qps": batch_qps,
                "freshness_s": freshness,
                "freshness_tail_quantile": tail_q,
                "server_cache_hit_ratio": self.stats["service"]["hit_rate"],
            }
        )
        metrics = {
            "setup_s": self.setup_s,
            **{name: statistics.median(values) for name, values in latency.items()},
            "slo_rps": slo_rate(ladder),
            "capacity_rps": statistics.median(capacity_rps),
            "batch_qps": statistics.median(batch_qps),
            "rss_mb": rss_mb,
            "freshness_p50_s": percentile(freshness, 0.50),
            "freshness_tail_s": percentile(freshness, tail_q),
        }
        return recorder, metrics

    def measure_traced(self) -> tuple[Recorder, dict[str, float]]:
        """``--trace 1``: every per-layer metric."""
        artifact = self._setup(1)
        wire, publisher = self._start(
            artifact, FRESHNESS_GENERATIONS if self.churn else TRACE_DELTAS, ahead=True
        )
        recorder = wire.recorder
        with quiet_gc():
            nominal = [
                self._paced(wire, "paced", self.paced_pool, self.rate, number)
                for number in range(ROUNDS)
            ]
        self._check(recorder, wire, publisher)
        self._stop("traced")

        # The same rounds in process: a fresh service (empty cache) per
        # round without churn, the deltas at the wire run's cadence with it.
        requests = [
            request
            for number in range(ROUNDS)
            for request in self.order("paced", self.paced_pool, number)
        ]
        if self.churn:
            spacing = max(1, round(self.rate * self.scenario.delta_every_s))
            deltas = [(spacing * (k + 1), g) for k, g in enumerate(self.generations)]
            restarts: list[int] = []
        else:
            deltas = [(len(requests) - 1, g) for g in self.generations]
            restarts = [len(self.paced_pool) * k for k in range(1, ROUNDS)]
        # Each replay loads its own artifact, so none inherits another's
        # lazily decoded strings; the first one only warms the process
        # (allocator arenas, page faults) for the two that are compared.
        for _ in range(2):
            plain_s, plain_answers, _ = replay(
                SynonymArtifact.load(artifact), requests, deltas=deltas, restarts=restarts
            )
        tracer = Tracer()
        with instrumented(tracer):
            traced_s, traced_answers, apply_ms = replay(
                SynonymArtifact.load(artifact), requests, tracer=tracer, deltas=deltas,
                restarts=restarts,
            )
        # The timing proxy must not change a single answer.
        recorder.failed += sum(a != b for a, b in zip(plain_answers, traced_answers))
        recorder.failed += abs(len(plain_answers) - len(traced_answers))
        spans = WORK / f"{self.name}-seed{self.seed}.spans.jsonl"
        with spans.open("w", encoding="utf-8") as out:
            for span in tracer.spans:
                out.write(json.dumps(span) + "\n")
        self.detail["spans"] = {"count": len(tracer.spans), "file": str(spans.relative_to(ROOT))}
        self.detail["replay_s"] = {"untraced": plain_s, "traced": traced_s}

        service = self.stats["service"]
        latency = self.stats["latency"].get("match", {})
        metrics = summary.layers(tracer.spans)
        metrics.update(
            {
                "server.match_p50_ms": float(latency.get("p50_ms", 0.0)),
                "server.match_p99_ms": float(latency.get("p99_ms", 0.0)),
                "server.boot_s": self.boot_s,
                "serving.artifact.load_ms": self.load_ms,
                "serving.artifact.compile_s": self.compile_s,
                "serving.service.cache_hit_ratio": float(service["hit_rate"]),
                "serving.delta.apply_ms": statistics.median(apply_ms) if apply_ms else 0.0,
                "serving.delta.sidecar_bytes": float(
                    statistics.median(g.sidecar.stat().st_size for g in self.generations)
                ),
                "serving.service.deltas_applied": float(service["deltas_applied"]),
                "serving.service.deltas_skipped": float(service["deltas_skipped"]),
                "loadgen.lag_p99_ms": percentile([lag for r in nominal for lag in r.lags_ms], 0.99),
                "trace.overhead_ratio": traced_s / plain_s,
            }
        )
        return recorder, metrics

    def close(self) -> None:
        wire = getattr(self, "wire", None)
        if wire is not None:
            wire.admin.close()
            wire.client.close()
        if self.server is not None:
            self._stop("teardown")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(workloads)})")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    # A SIGTERM unwinds like an error, so the daemon is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    host = host_record()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    run = None
    try:
        run = Run(args.workload, workloads[args.workload], args.seed, args.seconds, work)
        recorder, metrics = run.measure_traced() if args.trace else run.measure()
    except WorkloadDrift as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        if run is not None:
            run.close()
        shutil.rmtree(work, ignore_errors=True)
    host["loadavg_after"] = list(os.getloadavg())
    run.detail["teardown_sigkills"] = run.escalations
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({"host": host, "detail": run.detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": recorder.failed == 0,
                "attempted": recorder.attempted,
                "failed": recorder.failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
