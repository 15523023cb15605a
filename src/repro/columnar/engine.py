"""The columnar engine runtime: compile-once, step-many.

:class:`ColumnarRuntime` is the kernel the simulator drives when
``engine="columnar"``: it implements the same kernel interface as the
object kernels of :mod:`repro.columnar.bridge` and adds the compile
lifecycle.  On construction (and on every topology rebuild) it asks
the protocol to compile itself for the network via
:meth:`~repro.runtime.protocol.Protocol.compile_columnar`; protocols
without a compiled kernel fall back to the
:class:`~repro.columnar.bridge.ObjectBridgeKernel`.

Telemetry (when enabled): each compile runs under a
``columnar.compile`` span (its duration lands in the
``span.columnar.compile.seconds`` histogram), the ``columnar.compiles``
counter counts recompiles (topology churn), and the
``columnar.backend.numpy`` / ``columnar.compiled`` gauges record which
path is live.  Mask re-evaluation cost is instrumented inside the
kernel (``columnar.mask_eval_nodes`` / ``columnar.mask_eval.seconds``).
"""

from __future__ import annotations

from typing import Mapping

from repro import telemetry as _telemetry
from repro.columnar.backend import resolve_backend
from repro.columnar.bridge import ObjectBridgeKernel
from repro.runtime.network import Network
from repro.runtime.protocol import Action, Protocol
from repro.runtime.state import Configuration, NodeState

__all__ = ["ColumnarRuntime"]


class ColumnarRuntime:
    """One compiled kernel plus its lifecycle (load / step / rebuild)."""

    #: Object configurations are built from the columns on demand, so
    #: the simulator materializes them only when something reads them.
    lazy_objects = True

    def __init__(
        self,
        protocol: Protocol,
        network: Network,
        configuration: Configuration,
        *,
        backend: str | None = None,
    ) -> None:
        self.backend = resolve_backend(backend)
        self.kernel = None
        self.compiled = False
        self._compile(protocol, network, configuration)

    @property
    def protocol(self) -> Protocol:
        return self.kernel.protocol

    @property
    def validates_successor(self) -> bool:
        """Whether lockstep validation may re-execute selections.

        False for the object bridge (nothing columnar to cross-check)
        and for compiled kernels with object statements (impure
        statements — payload envelopes — must run exactly once; a
        validation re-execution would itself perturb application
        state and then diverge on object identity).
        """
        return self.compiled and getattr(
            self.kernel, "validates_successor", True
        )

    @property
    def network(self) -> Network:
        return self.kernel.network

    def _compile(
        self,
        protocol: Protocol,
        network: Network,
        configuration: Configuration,
    ) -> None:
        with _telemetry.span("columnar.compile") as span:
            kernel = protocol.compile_columnar(network, self.backend)
            compiled = kernel is not None
            if kernel is None:
                kernel = ObjectBridgeKernel(protocol, network)
            kernel.load(configuration)
            span.set(
                "protocol", getattr(protocol, "name", type(protocol).__name__)
            )
            span.set("n", network.n)
            span.set("backend", self.backend)
            span.set("compiled", compiled)
        self.kernel = kernel
        self.compiled = compiled
        if _telemetry.enabled:
            registry = _telemetry.registry
            registry.inc("columnar.compiles")
            registry.set(
                "columnar.backend.numpy", 1 if self.backend == "numpy" else 0
            )
            registry.set("columnar.compiled", 1 if compiled else 0)

    # ------------------------------------------------------------------
    # Kernel interface (what the Simulator calls)
    # ------------------------------------------------------------------
    def load(self, configuration: Configuration) -> None:
        """Replace the whole state (reset / global transient fault)."""
        self.kernel.load(configuration)

    def rebuild(self, network: Network, configuration: Configuration) -> None:
        """Recompile for a changed topology, then load ``configuration``."""
        self._compile(self.kernel.protocol, network, configuration)

    def materialize(self) -> Configuration:
        return self.kernel.materialize()

    def enabled_map(self) -> dict[int, list[Action]]:
        return self.kernel.enabled_map()

    def take_changes(self) -> dict[int, list[Action] | None]:
        return self.kernel.take_changes()

    def execute_selection(self, selection: Mapping[int, Action]) -> set[int]:
        return self.kernel.execute_selection(selection)

    def apply_updates(self, updates: Mapping[int, NodeState]) -> set[int]:
        return self.kernel.apply_updates(updates)
