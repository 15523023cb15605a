"""Deterministic telemetry under region-wise stepping.

The simulator's deterministic metrics (step, move and round counters,
selection / dirty-set / enabled-set histograms) are functions of the
execution alone.  Executing every selection region by region
(``tests/regions/regionwise.py``) yields the same execution, so it
must yield the same deterministic view as the serial columnar step.
"""

from __future__ import annotations

from random import Random

import pytest

from repro import telemetry
from repro.core.pif import SnapPif
from repro.graphs import by_name
from repro.runtime.daemons import DistributedRandomDaemon
from repro.runtime.simulator import Simulator

from tests.regions.test_region_step import _step_region_wise


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


class TestRegionMetrics:
    def test_deterministic_view_matches_serial_columnar(self):
        telemetry.enable()
        net = by_name("ring", 12)
        protocol = SnapPif.for_network(net)

        def run(region_wise: bool):
            sim = Simulator(
                protocol,
                net,
                DistributedRandomDaemon(0.4),
                configuration=protocol.random_configuration(net, Random(7)),
                seed=9,
                engine="columnar",
            )
            if region_wise:
                _step_region_wise(sim, lambda regions: regions[::-1])
            for _ in range(15):
                if sim.step() is None:
                    break

        with telemetry.capture() as serial_reg:
            run(False)
        serial = serial_reg.snapshot().deterministic().to_dict()["metrics"]
        with telemetry.capture() as region_reg:
            run(True)
        regioned = region_reg.snapshot().deterministic().to_dict()["metrics"]
        assert serial["sim.steps"]["value"] > 0
        # Only the kernel's one-shot step records its mask-repair
        # histogram; every other deterministic metric must agree.
        stripped = {
            k: v for k, v in serial.items() if k != "columnar.mask_eval_nodes"
        }
        assert regioned == stripped
