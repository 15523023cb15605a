"""repro.columnar — the kernels the simulator's one step loop drives.

:class:`~repro.runtime.simulator.Simulator` runs every engine through
one kernel interface (``load``, ``materialize``, ``enabled_map``,
``execute_selection``, ``apply_updates``, ``rebuild``).  The object
kernels of :mod:`repro.columnar.bridge` (``engine="incremental"`` and
``engine="full"``) evaluate guards by constructing per-node
:class:`~repro.runtime.protocol.Context` objects over a
tuple-of-dataclasses configuration; every step costs O(N) just to copy
the tuple and rebuild the enabled map.  The columnar kernel
(``engine="columnar"``, ``REPRO_ENGINE=columnar``) instead stores the
configuration as one flat array per variable plus a CSR neighbor index,
compiles each protocol's guards once per ``(protocol, network)`` into
mask kernels, and repairs masks only on the 1-hop dirty region of each
step — O(dirty ∪ N(dirty)), independent of N.

Layering: ``schema`` / ``expr`` (dependency-free declarations — field
layouts and guard-expression IR) ← ``backend`` (pure ``array`` vs numpy
storage) ← ``csr`` / ``block`` (flat storage) ← ``compiler`` (generic
spec → kernel compilation) ← ``bridge`` (the object kernels) ←
``engine`` (the columnar kernel's compile lifecycle).
Protocols declare a :class:`~repro.columnar.expr.ColumnarSpec` via
:meth:`~repro.runtime.protocol.Protocol.columnar_spec` and the compiler
builds both the scalar and the vectorized kernel from it — no
per-protocol kernel code; importing this package never drags protocol
modules in.
"""

from repro.columnar.backend import (
    BACKENDS,
    make_column,
    numpy_available,
    resolve_backend,
)
from repro.columnar.block import ColumnBlock
from repro.columnar.bridge import ObjectBridgeKernel
from repro.columnar.compiler import (
    CompiledSpecKernel,
    VECTOR_MIN_NODES,
    csr_for,
    segment_reduce,
)
from repro.columnar.csr import CSRIndex
from repro.columnar.engine import ColumnarRuntime
from repro.columnar.expr import ActionSpec, ColumnarSpec
from repro.columnar.schema import (
    ColumnField,
    ColumnSchema,
    bool_field,
    identity_int,
)

__all__ = [
    "ActionSpec",
    "BACKENDS",
    "ColumnBlock",
    "ColumnField",
    "ColumnSchema",
    "ColumnarRuntime",
    "ColumnarSpec",
    "CompiledSpecKernel",
    "CSRIndex",
    "ObjectBridgeKernel",
    "VECTOR_MIN_NODES",
    "bool_field",
    "csr_for",
    "identity_int",
    "make_column",
    "numpy_available",
    "resolve_backend",
    "segment_reduce",
]
