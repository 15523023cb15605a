"""Seeded schedules are pinned: the enabled view must not reorder a draw.

Daemons sample the simulator's live enabled view through its ascending
node list instead of a fresh ``list(enabled)``.  ``rng.choice``,
``min``/``max`` and iteration must see exactly what they saw on a
rebuilt ascending dict, so every seeded schedule stays bit-identical.
The digests below were recorded on that earlier implementation: each
hashes the selection and the completed-round count of 500 steps from an
arbitrary start, and every engine must reproduce them.
"""

from __future__ import annotations

import hashlib
from random import Random

import pytest

from repro import SnapPif, Simulator, ring, star
from repro.runtime.daemons import (
    AdversarialDaemon,
    CentralDaemon,
    DistributedRandomDaemon,
    RoundRobinDaemon,
)

DAEMONS = {
    "central-random": lambda: CentralDaemon(choice="random"),
    "central-oldest": lambda: CentralDaemon(choice="oldest"),
    "central-lowest": lambda: CentralDaemon(choice="lowest"),
    "distributed-random": lambda: DistributedRandomDaemon(0.5),
    "adversarial": lambda: AdversarialDaemon(),
    "round-robin": lambda: RoundRobinDaemon(),
}

NETWORKS = {"ring-64": lambda: ring(64), "star-32": lambda: star(32)}

GOLDEN = {
    "central-random/ring-64": "956a8f535e86c2b081cdaec1a5af3190df6c077b0c295c921abe8bbb8f15a738",
    "central-random/star-32": "ce3a7340896c519ef5fdd29860dddc2acf8ba6946f428eb79b1a967e5602402d",
    "central-oldest/ring-64": "4df090fd11b36fcb0d0e3e76e0f68f75c95d11c6266608900d91b613b9747cfb",
    "central-oldest/star-32": "ef2d72aca3393d3ae49a979fe6c58862350926e5f34692b294d7e86f79b0b59b",
    "central-lowest/ring-64": "bd58fe9837c6747a0e5820cb3acafeb27acb7f229bc80702268ab655a4ae3f6c",
    "central-lowest/star-32": "e3eb46b23754e4483bec601f05d346289b060b9efe7f05c28b2bfbb70d0d4bad",
    "distributed-random/ring-64": "304ccab4321690e51c2e1d896252aa4200c658b8dc083be5f2dfdaeba149deb9",
    "distributed-random/star-32": "25f6a072a89e0ccd51555574501d8b361bb5c6bc1c7e8a1f00a70e18cdff7e6d",
    "adversarial/ring-64": "091ed670ec280cf84f0a84732c5183a7b0afb96384c9e855e86ff4491ff32481",
    "adversarial/star-32": "8504a7119ab1432acb8d12b869280db166ef3fff4f4fde2b4501456eeec25b2d",
    "round-robin/ring-64": "8d808f5e217dd38459111f233ad96c71e2ae836da9a511ba55e9afeba5a795eb",
    "round-robin/star-32": "ef2d72aca3393d3ae49a979fe6c58862350926e5f34692b294d7e86f79b0b59b",
}

SEED = 7
STEPS = 500


def schedule_digest(daemon: str, network: str, engine: str) -> str:
    net = NETWORKS[network]()
    pif = SnapPif.for_network(net)
    sim = Simulator(
        pif,
        net,
        DAEMONS[daemon](),
        configuration=pif.random_configuration(net, Random(SEED)),
        seed=SEED,
        engine=engine,
    )
    digest = hashlib.sha256()
    for _ in range(STEPS):
        record = sim.step()
        digest.update(
            repr((sorted(record.selection.items()), record.rounds_completed)).encode()
        )
    return digest.hexdigest()


@pytest.mark.parametrize("engine", ["incremental", "columnar", "full"])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_seeded_schedule_is_pinned(case: str, engine: str) -> None:
    daemon, network = case.split("/")
    assert schedule_digest(daemon, network, engine) == GOLDEN[case]
