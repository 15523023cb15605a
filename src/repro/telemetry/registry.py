"""The metrics registry: counters, gauges and fixed-bucket histograms.

Zero-dependency by design (the pickle boundary and the JSONL sink both
want plain built-in types), and built around two hard requirements:

* **Exact merges.**  Histogram bucket boundaries are fixed per metric at
  registration time, so merging two snapshots of the same metric is
  element-wise integer addition — never re-bucketing, never
  approximation.  Counter merges add; gauge merges keep the *last set*
  value in merge order.  Folding per-shard snapshots in serial shard
  order therefore yields one deterministic aggregate, independent of the
  worker count that produced the shards (the PR 4 determinism guarantee
  extended to telemetry itself — DESIGN.md §10).
* **Cheap hot paths.**  :class:`Counter`, :class:`Gauge` and
  :class:`Histogram` are slotted objects whose state is directly
  addressable (``counter.value += 1`` is the sanctioned hot-path idiom
  — the same cost as bumping a plain attribute), so instrumented inner
  loops pay no dict lookup and no method call when they hold a metric
  object.

Timing metrics — anything observed in wall-clock seconds — are named
with a ``.seconds`` suffix by convention.  They merge like any other
metric, but :meth:`MetricsSnapshot.deterministic` drops them: wall time
is the one quantity that legitimately differs between runs and across
the jobs axis, exactly like ``elapsed_seconds`` in
``merge_model_check_results``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NONDET_PREFIX",
    "SIZE_BOUNDS",
    "TIME_BOUNDS",
    "TIMING_SUFFIX",
]

#: Metric-name suffix marking wall-clock observations (excluded from the
#: deterministic snapshot view).
TIMING_SUFFIX = ".seconds"

#: Metric-name prefix for worker-process-local observations whose values
#: depend on how the scheduler spread tasks over workers (cache
#: hits/misses, per-worker reuse).  Excluded from the deterministic
#: snapshot view for the same reason as wall time: legitimate variation
#: across the ``jobs`` axis.
NONDET_PREFIX = "worker."

#: Default boundaries for set-size style histograms (enabled-set sizes,
#: dirty-set sizes, selection sizes): powers of two up to 4096.  A value
#: ``v`` lands in the first bucket whose upper bound is ``>= v``; the
#: implicit last bucket is unbounded.
SIZE_BOUNDS: tuple[float, ...] = (
    0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096
)

#: Default boundaries for duration histograms, in seconds (100µs to ~2
#: minutes, roughly geometric).
TIME_BOUNDS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0
)


class Counter:
    """A monotonically increasing integer.

    Hot paths may bump :attr:`value` directly (``c.value += n``); the
    :meth:`inc` method is the readable spelling for warm paths.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_dict(self) -> dict:
        return {"kind": "counter", "value": self.value}


class Gauge:
    """A last-write-wins scalar (e.g. a capacity, a live set size)."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str, value: float = 0, updates: int = 0) -> None:
        self.name = name
        self.value = value
        #: How many times the gauge was set — merges use it to tell an
        #: untouched gauge (which must not clobber a set one) from a
        #: gauge legitimately set to its default.
        self.updates = updates

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1

    def to_dict(self) -> dict:
        return {"kind": "gauge", "value": self.value, "updates": self.updates}


class Histogram:
    """A fixed-boundary histogram with exact merge semantics.

    ``bounds`` is an ascending tuple of bucket upper bounds; an
    observation ``v`` increments ``counts[i]`` for the smallest ``i``
    with ``v <= bounds[i]``, or the implicit overflow bucket
    ``counts[len(bounds)]``.  Boundaries are part of the metric's
    identity: merging histograms with different boundaries is an error,
    so merged bucket counts are always exact sums.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str, bounds: tuple[float, ...]) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(
                f"histogram bounds must be strictly ascending, got {bounds}"
            )
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        # First bucket whose upper bound is >= value; overflow lands at
        # the sentinel index len(bounds).
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "kind": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }


@dataclass
class MetricsSnapshot:
    """A frozen, plain-data copy of a registry's metrics.

    ``metrics`` maps metric name to the metric's ``to_dict()`` payload —
    JSON-able and picklable, so snapshots travel across the pickle
    boundary (worker → parent) and into the JSONL sink unchanged.
    """

    metrics: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"metrics": self.metrics}

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsSnapshot":
        metrics = payload.get("metrics")
        if not isinstance(metrics, dict):
            raise ValueError(f"malformed snapshot payload: {payload!r}")
        return cls(metrics=metrics)

    def deterministic(self) -> "MetricsSnapshot":
        """The snapshot without scheduling-dependent metrics.

        Drops wall-clock metrics (``*.seconds``) and worker-local
        metrics (``worker.*`` — e.g. protocol-cache hit rates, which
        depend on how tasks were spread over worker processes).
        Everything left is a deterministic function of the workload —
        the portion asserted bit-identical across the ``jobs`` axis by
        ``tests/telemetry/`` (DESIGN.md §10).
        """
        return MetricsSnapshot(
            metrics={
                name: payload
                for name, payload in self.metrics.items()
                if not name.endswith(TIMING_SUFFIX)
                and not name.startswith(NONDET_PREFIX)
            }
        )

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold ``other`` into this snapshot (in place) and return it.

        Merge order is semantically significant only for gauges (last
        set in merge order wins); counters and histograms are exact
        sums.  Callers merging shard snapshots must fold them in serial
        shard order — then the aggregate is deterministic.
        """
        for name, payload in other.metrics.items():
            mine = self.metrics.get(name)
            if mine is None:
                self.metrics[name] = _copy_payload(payload)
                continue
            if mine["kind"] != payload["kind"]:
                raise ValueError(
                    f"metric {name!r} merged across kinds: "
                    f"{mine['kind']} vs {payload['kind']}"
                )
            if payload["kind"] == "counter":
                mine["value"] += payload["value"]
            elif payload["kind"] == "gauge":
                if payload.get("updates", 0):
                    mine["value"] = payload["value"]
                    mine["updates"] = (
                        mine.get("updates", 0) + payload["updates"]
                    )
            elif payload["kind"] == "histogram":
                if mine["bounds"] != payload["bounds"]:
                    raise ValueError(
                        f"histogram {name!r} merged across different "
                        f"bucket boundaries"
                    )
                mine["counts"] = [
                    a + b for a, b in zip(mine["counts"], payload["counts"])
                ]
                mine["count"] += payload["count"]
                mine["total"] += payload["total"]
            else:
                raise ValueError(
                    f"metric {name!r} has unknown kind {payload['kind']!r}"
                )
        return self

    @classmethod
    def merge_all(
        cls, snapshots: "list[MetricsSnapshot]"
    ) -> "MetricsSnapshot":
        """Merge snapshots in list order into a fresh aggregate."""
        merged = cls()
        for snapshot in snapshots:
            merged.merge(snapshot)
        return merged


def _copy_payload(payload: dict) -> dict:
    copied = dict(payload)
    for key in ("bounds", "counts"):
        if key in copied:
            copied[key] = list(copied[key])
    return copied


class MetricsRegistry:
    """A name → metric table with get-or-create accessors.

    One registry is "active" at a time (module state in
    :mod:`repro.telemetry`); instrumented code either holds metric
    objects directly (hot paths) or goes through the convenience
    mutators (:meth:`inc` / :meth:`set` / :meth:`observe`).
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- get-or-create ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Counter(name)
            self._metrics[name] = metric
        elif not isinstance(metric, Counter):
            raise ValueError(f"metric {name!r} already registered as "
                             f"{type(metric).__name__}")
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Gauge(name)
            self._metrics[name] = metric
        elif not isinstance(metric, Gauge):
            raise ValueError(f"metric {name!r} already registered as "
                             f"{type(metric).__name__}")
        return metric

    def histogram(
        self, name: str, bounds: tuple[float, ...] = SIZE_BOUNDS
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, bounds)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise ValueError(f"metric {name!r} already registered as "
                             f"{type(metric).__name__}")
        elif metric.bounds != tuple(bounds):
            raise ValueError(
                f"histogram {name!r} re-registered with different bounds"
            )
        return metric

    # -- convenience mutators --------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).value += n

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(
        self, name: str, value: float, bounds: tuple[float, ...] = SIZE_BOUNDS
    ) -> None:
        self.histogram(name, bounds).observe(value)

    # -- snapshots -------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """A plain-data copy of every metric, keyed by sorted name.

        Sorting makes two snapshots of equal registries structurally
        identical regardless of metric creation order — part of the
        bit-identity contract.
        """
        return MetricsSnapshot(
            metrics={
                name: self._metrics[name].to_dict()  # type: ignore[attr-defined]
                for name in sorted(self._metrics)
            }
        )

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot's metrics into the live registry."""
        for name, payload in snapshot.metrics.items():
            kind = payload.get("kind")
            if kind == "counter":
                self.counter(name).value += payload["value"]
            elif kind == "gauge":
                if payload.get("updates", 0):
                    gauge = self.gauge(name)
                    gauge.value = payload["value"]
                    gauge.updates += payload["updates"]
            elif kind == "histogram":
                hist = self.histogram(name, tuple(payload["bounds"]))
                if list(hist.bounds) != list(payload["bounds"]):
                    raise ValueError(
                        f"histogram {name!r} merged across different "
                        f"bucket boundaries"
                    )
                hist.counts = [
                    a + b for a, b in zip(hist.counts, payload["counts"])
                ]
                hist.count += payload["count"]
                hist.total += payload["total"]
            else:
                raise ValueError(
                    f"metric {name!r} has unknown kind {kind!r}"
                )

    def clear(self) -> None:
        self._metrics.clear()
