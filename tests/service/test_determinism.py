"""The service determinism contract, plus the coalescing win.

Fixed seed + fixed submission script ⇒ bit-identical per-request
results and event streams — across repeated runs and across worker
counts ∈ {1, 2, 4}.  Worker counts only add cross-topology
parallelism (waves within one topology are sequential), and every
per-request field is composition-independent, so nothing observable
depends on executor timing.
"""

from __future__ import annotations

import asyncio

from repro.graphs import ring, star
from repro.service import (
    WaveService,
    for_phases,
    for_topology,
    make_workload,
    run_workload,
)

JOB_COUNTS = (1, 2, 4)


def _outcome(jobs: int, *, requests: int = 80, seed: int = 0):
    """One full service session: two topologies, one script each."""

    async def session():
        async with WaveService(seed=seed, jobs=jobs) as service:
            service.add_topology("star", star(16))
            service.add_topology("ring", ring(12))
            a = await run_workload(
                service, "star", make_workload(requests, seed=seed)
            )
            b = await run_workload(
                service, "ring", make_workload(requests // 2, seed=seed + 1)
            )
            return (a.results, a.event_streams, b.results, b.event_streams)

    return asyncio.run(session())


class TestBitIdentical:
    def test_same_run_repeats_bit_identical(self):
        assert _outcome(2) == _outcome(2)

    def test_identical_across_worker_counts(self):
        reference = _outcome(JOB_COUNTS[0])
        for jobs in JOB_COUNTS[1:]:
            assert _outcome(jobs) == reference, f"jobs={jobs} diverged"

    def test_full_topology_event_stream_is_reproducible(self):
        """Not just per-request streams: the *interleaved* per-topology
        stream (every request's every phase, in bus order) is identical
        across runs — submission is a synchronous burst, and the
        scheduler serves FIFO."""

        def stream(jobs: int):
            async def session():
                async with WaveService(seed=0, jobs=jobs) as service:
                    service.add_topology("star", star(16))
                    tap = service.subscribe(for_topology("star"))
                    await run_workload(
                        service, "star", make_workload(60, seed=5)
                    )
                    return [e.as_dict() for e in tap.drain()]

            return asyncio.run(session())

        reference = stream(1)
        assert len(reference) == 60 * 4  # four lifecycle phases each
        assert stream(2) == reference
        assert stream(4) == reference


class TestCoalescing:
    def test_concurrent_batch_takes_fewer_cycles_than_serial(self):
        """K identical concurrent requests share waves; K serial
        requests (each awaited before the next submit) cannot."""
        K = 12

        async def concurrent():
            async with WaveService(seed=0, batch_window=8) as service:
                service.add_topology("star", star(8))
                handles = [
                    service.submit("snapshot", "star") for _ in range(K)
                ]
                results = await asyncio.gather(
                    *(h.result() for h in handles)
                )
                return service.stats(), results

        async def serial():
            async with WaveService(seed=0, batch_window=8) as service:
                service.add_topology("star", star(8))
                results = []
                for _ in range(K):
                    results.append(
                        await service.submit("snapshot", "star").result()
                    )
                return service.stats(), results

        batched_stats, batched = asyncio.run(concurrent())
        serial_stats, serially = asyncio.run(serial())
        batched_waves = batched_stats["topologies"]["star"]["waves_run"]
        serial_waves = serial_stats["topologies"]["star"]["waves_run"]
        assert serial_waves == K
        # window 8 ⇒ ceil(12/8) = 2 waves for the whole batch.
        assert batched_waves == 2
        assert batched_waves < serial_waves
        # And coalescing is invisible in the results themselves.
        assert [r.value for r in batched] == [r.value for r in serially]
        assert [r.rounds for r in batched] == [r.rounds for r in serially]

    def test_reset_never_coalesces(self):
        async def session():
            async with WaveService(seed=0, batch_window=16) as service:
                service.add_topology("star", star(8))
                handles = [service.submit("reset", "star") for _ in range(5)]
                results = await asyncio.gather(
                    *(h.result() for h in handles)
                )
                return service.stats(), results

        stats, results = asyncio.run(session())
        assert stats["topologies"]["star"]["waves_run"] == 5
        # Each reset observed its own epoch, in submission order.
        assert [r.value["epoch"] for r in results] == [1, 2, 3, 4, 5]

    def test_coalescing_never_crosses_a_reset(self):
        """A snapshot submitted after a reset must see the new epoch
        even though snapshots before and after it share a kind+args
        coalesce key."""

        async def session():
            async with WaveService(seed=0, batch_window=16) as service:
                service.add_topology("star", star(8))
                before = service.submit("snapshot", "star")
                bump = service.submit("reset", "star")
                after = service.submit("snapshot", "star")
                return await asyncio.gather(
                    before.result(), bump.result(), after.result()
                )

        before, bump, after = asyncio.run(session())
        assert all(v == ("unreset", p) for p, v in before.value.items())
        assert bump.value["epoch"] == 1
        assert all(v == ("epoch", 1) for v in after.value.values())


class TestAcceptanceScale:
    def test_thousand_mixed_requests_streamed_deterministically(self):
        """≥1000 mixed wave requests against a named topology, streamed
        completion events, bit-identical across two full runs."""
        COUNT = 1000

        def run(jobs: int):
            async def session():
                async with WaveService(seed=0, jobs=jobs) as service:
                    service.add_topology("star-8", star(8))
                    completions = service.subscribe(for_phases("completed"))
                    outcome = await run_workload(
                        service, "star-8", make_workload(COUNT, seed=11)
                    )
                    streamed = [e.as_dict() for e in completions.drain()]
                    return outcome, streamed, service.stats()

            return asyncio.run(session())

        outcome, streamed, stats = run(jobs=2)
        assert len(outcome.results) == COUNT
        assert len(streamed) == COUNT
        assert [e["request_id"] for e in streamed] == list(range(COUNT))
        assert all(r["ok"] for r in outcome.results)
        assert outcome.waves_run < COUNT  # coalescing fired at scale
        assert stats["rejected"] == 0
        again, streamed_again, _stats = run(jobs=4)
        assert again.results == outcome.results
        assert again.event_streams == outcome.event_streams
        assert streamed_again == streamed
