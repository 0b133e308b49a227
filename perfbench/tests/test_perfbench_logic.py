"""The benchmark's own arithmetic, delta chain and timing proxy."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from deltas import build_chain  # noqa: E402
from stats import (  # noqa: E402
    backlog_grew,
    percentile,
    rung_passes,
    self_time,
    slo_rate,
    spread,
    tail_quantile,
)
from summary import layers  # noqa: E402
from tracing import TimedArtifact, Tracer, answer, instrumented, replay  # noqa: E402

from repro.scenarios.spec import Scenario  # noqa: E402
from repro.scenarios.workload import (  # noqa: E402
    build_catalog,
    click_log_from_rows,
    dictionary_from_rows,
    mutate_rows,
    request_stream,
)
from repro.serving.artifact import SynonymArtifact, compile_dictionary  # noqa: E402
from repro.serving.delta import DictionaryDelta, diff_delta  # noqa: E402
from repro.serving.service import MatchService  # noqa: E402

SCENARIO = Scenario(
    name="tiny", entities=120, noise_rate=0.4, context_rate=0.2, miss_rate=0.1,
    dirty_fraction=0.05, seed=3,
)


def test_percentile_is_nearest_rank() -> None:
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([3.0], 0.99) == 3.0
    assert percentile([1.0, math.inf], 0.99) == math.inf
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_tail_quantile_keeps_ten_samples_beyond() -> None:
    assert tail_quantile(20) == 0.5
    assert tail_quantile(40) == 0.75
    assert tail_quantile(1000) == 0.99
    for count in (20, 37, 1000):
        ordered = list(range(count))
        beyond = sum(value > percentile(ordered, tail_quantile(count)) for value in ordered)
        assert beyond >= 10
    with pytest.raises(ValueError):
        tail_quantile(19)


def test_backlog_and_ladder() -> None:
    steady = [0.1] * 100
    growing = [float(i) for i in range(100)]  # 80 ms behind after a 100 ms window
    assert not backlog_grew(steady, 100.0)
    assert backlog_grew(growing, 100.0)
    assert not backlog_grew(growing, 1000.0)
    assert not backlog_grew([0.1] * 50 + [90.0] + [0.1] * 49, 100.0)  # one stall is no backlog
    assert rung_passes([1.0] * 100, steady, 5.0, 100.0)
    assert not rung_passes([1.0] * 98 + [9.0, 9.0], steady, 5.0, 100.0)
    assert not rung_passes([1.0] * 100, growing, 5.0, 100.0)
    assert not rung_passes([1.0] * 99 + [math.inf] * 2, steady, 5.0, 100.0)
    assert slo_rate([(100, True), (200, True), (400, False)]) == 200
    assert slo_rate([(100, True), (200, False), (400, True)]) == 100
    assert slo_rate([(100, False)]) == 0.0


def test_self_time_subtracts_covered_children() -> None:
    assert self_time(0, 10, []) == 10
    assert self_time(0, 10, [(2, 4), (6, 7)]) == 7
    assert self_time(0, 10, [(2, 6), (4, 8)]) == 4  # overlapping children count once
    assert self_time(0, 10, [(-5, 3), (9, 20)]) == 6  # clipped to the parent


def test_spread_matches_statistics_quantiles() -> None:
    assert spread([10.0] * 10) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx((11.5 - 8.5) / 10.0)


@pytest.fixture(scope="module")
def compiled(tmp_path_factory: pytest.TempPathFactory) -> tuple[SynonymArtifact, list, Path]:
    folder = tmp_path_factory.mktemp("perfbench")
    rows = list(build_catalog(SCENARIO).rows)
    path = folder / "tiny.artifact"
    compile_dictionary(
        dictionary_from_rows(rows), path, version="gen-0", click_log=click_log_from_rows(rows)
    )
    return SynonymArtifact.load(path), rows, folder


def _requests(count: int) -> list:
    stream = request_stream(SCENARIO, build_catalog(SCENARIO))
    return [next(stream) for _ in range(count)]


def test_timing_proxy_answers_like_the_bare_artifact(compiled) -> None:
    artifact, _rows, _folder = compiled
    tracer = Tracer()
    proxy = TimedArtifact(artifact, tracer)
    for text in ("atomic anchor 0000", "anchor 0000", "nothing here"):
        assert proxy.lookup(text) == artifact.lookup(text)
        assert proxy.entities_for(text) == artifact.entities_for(text)
        assert (text in proxy) == (text in artifact)
    assert proxy.strings_containing_token("anchor") == artifact.strings_containing_token("anchor")
    assert proxy.max_entry_tokens == artifact.max_entry_tokens
    assert proxy.priors() == artifact.priors()
    assert len(proxy) == len(artifact) and list(proxy) == list(artifact)

    bare = MatchService(artifact)
    with instrumented(tracer):
        timed = MatchService(TimedArtifact(artifact, tracer))
        for request in _requests(300):
            for query in request.queries:
                assert answer(timed, request.endpoint, query) == answer(bare, request.endpoint, query)
    assert tracer.spans


def test_traced_replay_matches_untraced_and_reports_layers(compiled) -> None:
    artifact, _rows, _folder = compiled
    requests = _requests(300)
    _, plain, _ = replay(artifact, requests)
    tracer = Tracer()
    with instrumented(tracer):
        _, traced, _ = replay(artifact, requests, tracer=tracer)
    assert plain == traced
    assert len(plain) == sum(len(request.queries) for request in requests)
    metrics = layers(tracer.spans)
    assert 0 < metrics["matching.matcher.fuzzy_share"] < 1
    assert metrics["matching.segmentation.probes_per_query"] >= 1
    assert metrics["matching.resolver.rank_us"] > 0
    assert metrics["matching.matcher.shortlist_per_fuzzy"] >= metrics["matching.matcher.verified_per_fuzzy"]
    for name, value in metrics.items():
        assert value >= 0, name


def test_chain_matches_diff_delta_and_the_final_rows(compiled) -> None:
    artifact, rows, folder = compiled
    chain = list(build_chain(artifact, rows, SCENARIO, 3, folder / "chain"))
    generations, final_rows = [g for g, _ in chain], chain[-1][1]
    expected = mutate_rows(mutate_rows(mutate_rows(rows, SCENARIO, generation=1), SCENARIO, generation=2), SCENARIO, generation=3)
    assert final_rows == expected

    first = mutate_rows(rows, SCENARIO, generation=1)
    diff_delta(
        artifact, dictionary_from_rows(first), folder / "diff.delta",
        version="gen-1", click_log=click_log_from_rows(first),
    )
    ours = DictionaryDelta.load(generations[0].sidecar)
    theirs = DictionaryDelta.load(folder / "diff.delta")
    assert ours.state_hash == theirs.state_hash

    served = artifact
    for generation in generations:
        served = served.apply_delta(DictionaryDelta.load(generation.sidecar))
        assert generation.entity in served.entities_for(generation.alias)
    reference = MatchService(_compile(folder / "final.artifact", final_rows))
    chained = MatchService(served)
    for request in _requests(200):
        for query in request.queries:
            assert json.dumps(answer(chained, request.endpoint, query)) == json.dumps(
                answer(reference, request.endpoint, query)
            )


def _compile(path: Path, rows: list) -> SynonymArtifact:
    compile_dictionary(
        dictionary_from_rows(rows), path, version="final", click_log=click_log_from_rows(rows)
    )
    return SynonymArtifact.load(path)


def test_benchmark_json_names_what_the_runner_prints() -> None:
    import run

    root = Path(__file__).resolve().parents[2]
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    pinned = json.loads((root / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in declared["workloads"]] == list(pinned)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER_UNITS
    for spec in pinned.values():
        assert spec["ladder_rps"][0] == spec["rate_rps"]
