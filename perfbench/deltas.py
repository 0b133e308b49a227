"""Chained delta sidecars, prebuilt before a run so publishing is only a rename.

``Experiment._maybe_publish_delta`` diffs the whole catalog per generation
(about a second at 5000 entities), which would stall a paced schedule.
Here each generation is built from what :func:`mutate_rows` changed: the
dirty entities' rows are re-deduplicated on their own, merged onto the
previous state with :func:`merge_state`, and the target state hash is
computed as the daemon will verify it on apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.scenarios.spec import Scenario
from repro.scenarios.workload import click_log_from_rows, dictionary_from_rows, mutate_rows
from repro.serving.artifact import SynonymArtifact, compute_priors, dedupe_entries, state_hash
from repro.serving.delta import merge_state, write_delta



@dataclass(frozen=True)
class Generation:
    """One prebuilt delta sidecar and the alias that proves it is served."""

    version: str
    sidecar: Path
    alias: str
    entity: str


@dataclass
class ChangeSet:
    """The change set :func:`merge_state` merges: replaced entities and priors."""

    changed: list[tuple[str, list[Any]]]
    prior_updates: dict[str, float]
    removed: list[str] = field(default_factory=list)
    has_priors: bool = True


def build_chain(
    base: SynonymArtifact,
    rows: Sequence[dict[str, Any]],
    scenario: Scenario,
    count: int,
    out_dir: Path,
) -> Iterator[tuple[Generation, list[dict[str, Any]]]]:
    """Write *count* chained sidecars onto *base*, yielding each with its rows."""
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = list(base.entry_tuples())
    priors = base.priors()
    if priors is None:
        raise ValueError("the base artifact carries no priors")
    version, chain_hash = base.manifest.version, base.state_hash
    current = [dict(row) for row in rows]
    for number in range(1, count + 1):
        mutated = mutate_rows(current, scenario, generation=number)
        added = mutated[len(current):]
        dirty = {row["canonical"] for row in added}
        by_entity: dict[str, list[dict[str, Any]]] = {}
        for row in mutated:
            if row["canonical"] in dirty:
                by_entity.setdefault(row["canonical"], []).append(row)
        changes = ChangeSet(changed=[], prior_updates={})
        for entity, entity_rows in by_entity.items():
            entity_entries = dedupe_entries(dictionary_from_rows(entity_rows))
            changes.changed.append((entity, entity_entries))
            changes.prior_updates.update(
                compute_priors(entity_entries, click_log_from_rows(entity_rows))
            )
        entries, priors = merge_state(entries, priors, changes)  # type: ignore[arg-type]
        assert priors is not None
        target_hash = state_hash(entries, priors)
        next_version = f"gen-{number}"
        sidecar = out_dir / f"{next_version}.delta"
        write_delta(
            sidecar,
            version=next_version,
            base_version=version,
            base_state_hash=chain_hash,
            target_state_hash=target_hash,
            changed=changes.changed,
            removed=[],
            prior_updates=changes.prior_updates,
        )
        yield (
            Generation(next_version, sidecar, added[0]["synonym"], added[0]["canonical"]),
            mutated,
        )
        version, chain_hash, current = next_version, target_hash, mutated
