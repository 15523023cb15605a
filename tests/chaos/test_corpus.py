"""Replay every corpus reproducer, forever.

Each JSON file under ``tests/corpus/`` is a shrunk, deterministic
counterexample found by a past chaos campaign (regenerate with
``python tools/make_corpus.py``).  Replaying it strictly must produce
the exact recorded violation — a divergence means either the protocol
registry changed semantics or replay determinism broke, and both are
regressions.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.chaos import (
    load_repro,
    network_from_adjacency,
    replay_repro,
    replay_tape,
)
from repro.errors import MessagingError

from tests.mutants.protocols import MUTANT_FACTORIES, REGISTRY

CORPUS = sorted(Path(__file__).parent.parent.glob("corpus/*.json"))


def test_corpus_is_populated() -> None:
    assert len(CORPUS) >= 3, "expected at least one reproducer per mutant"
    names = {path.stem for path in CORPUS}
    assert set(MUTANT_FACTORIES) <= names, (
        "every mutant must have a corpus reproducer; regenerate with "
        "tools/make_corpus.py"
    )


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_replays_to_recorded_violation(path: Path) -> None:
    repro = load_repro(path)
    assert replay_repro(repro, REGISTRY) == repro.violation


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_reproducer_was_shrunk(path: Path) -> None:
    repro = load_repro(path)
    assert repro.strictly_smaller
    assert len(repro.tape) == repro.shrunk_entries


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_replay_deterministic_with_engine_validation(path: Path) -> None:
    """Same verdict twice, with the incremental engine cross-checked."""
    repro = load_repro(path)
    first = replay_repro(repro, REGISTRY, validate_engine=True)
    second = replay_repro(repro, REGISTRY, validate_engine=True)
    assert first == second == repro.violation


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "oracle"])
def test_misspelled_transport_is_rejected(strict: bool) -> None:
    """A corpus file's transport is outside input: no silent fallback."""
    repro = dataclasses.replace(load_repro(CORPUS[0]), transport="mesage")
    network = network_from_adjacency(repro.adjacency, repro.topology)
    protocol = REGISTRY[repro.protocol](network, repro.root)
    with pytest.raises(MessagingError, match="unknown transport 'mesage'"):
        replay_tape(
            protocol, network, repro.tape, strict=strict, transport=repro.transport
        )
    with pytest.raises(MessagingError, match="unknown transport 'mesage'"):
        replay_repro(repro, REGISTRY)
