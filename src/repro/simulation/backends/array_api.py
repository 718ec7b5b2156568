"""Array-API backend: the shared kernels on any conforming namespace.

This engine runs the exact kernel code of the ``numpy`` backend
(:mod:`repro.simulation.kernels`) against a pluggable array namespace —
``numpy`` by default, ``cupy`` or any other array-API-style library by
configuration — so a GPU/accelerator path needs zero kernel changes.
Results are bit-identical to every other engine by construction: the
kernels are shared, and the differential property suite enforces the
contract per registered backend.

Namespace selection follows the repository's runtime-knob convention,
in precedence order:

1. an explicit ``namespace=`` constructor argument (module or name);
2. the session default, :attr:`repro.runtime.RuntimeOptions.
   array_namespace` (the CLI's ``--array-namespace`` flag installs it);
3. the ``REPRO_ARRAY_NAMESPACE`` environment variable;
4. the built-in default, ``numpy``.

The namespace is resolved lazily at each dispatch, so installing a
session default retargets an already-registered backend instance.  Host
transfers happen only at merge boundaries: the initial stimulus upload,
the settled-waveform download after a schedule sweep, and one detection
matrix per fault tile.
"""

from __future__ import annotations

import importlib
import os
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.obs.trace import span
from repro.simulation.backends.base import Backend, require_pattern_mask
from repro.simulation.backends.numpy_backend import NumpyState
from repro.simulation.kernels import (
    eval_gate_rows,
    eval_schedule,
    initial_state,
    int_to_row,
    row_to_int,
    to_device,
    to_host,
)
from repro.simulation.schedule import cached_schedule
from repro.simulation.values import mask

if TYPE_CHECKING:  # pragma: no cover - runtime import would be cyclic
    from repro.atpg.faults import Fault
    from repro.atpg.faultsim import FaultSimResult
    from repro.simulation.fault_episode import FaultEpisodePlan

__all__ = ["ArrayApiBackend", "ArrayApiState", "resolve_array_namespace",
           "DEFAULT_NAMESPACE_ENV"]

#: Environment variable consulted for the default array namespace.
DEFAULT_NAMESPACE_ENV = "REPRO_ARRAY_NAMESPACE"

#: Namespace attributes the shared kernels call; probed at resolution
#: time so a non-conforming library fails fast with a clear error
#: instead of deep inside a levelized sweep.
_REQUIRED_SURFACE = ("asarray", "zeros", "empty", "where", "broadcast_to",
                     "reshape", "uint64")

_MODULE_CACHE: dict[str, Any] = {}


def resolve_array_namespace(spec: str | Any | None = None) -> Any:
    """Resolve an array-namespace spec into a namespace object.

    ``spec`` may be a module-like object (returned as-is after a
    conformance probe), an importable module name, or ``None`` — which
    walks the knob chain: session default
    (:attr:`repro.runtime.RuntimeOptions.array_namespace`), then
    ``$REPRO_ARRAY_NAMESPACE``, then ``numpy``.  Raises
    :class:`SimulationError` for an unimportable name or a namespace
    missing part of the kernel surface.
    """
    if spec is None:
        from repro.runtime import session_defaults
        spec = session_defaults().array_namespace
    if spec is None:
        spec = os.environ.get(DEFAULT_NAMESPACE_ENV, "") or "numpy"
    if isinstance(spec, str):
        cached = _MODULE_CACHE.get(spec)
        if cached is not None:
            return cached
        try:
            namespace = importlib.import_module(spec)
        except ImportError as exc:
            raise SimulationError(
                f"array namespace {spec!r} is not importable: "
                f"{exc}") from exc
    else:
        namespace = spec
    missing = [attr for attr in _REQUIRED_SURFACE
               if not hasattr(namespace, attr)]
    if missing:
        name = spec if isinstance(spec, str) else \
            getattr(namespace, "__name__", repr(namespace))
        raise SimulationError(
            f"array namespace {name!r} does not provide the kernel "
            f"surface: missing {', '.join(missing)}")
    if isinstance(spec, str):
        _MODULE_CACHE[spec] = namespace
    return namespace


class ArrayApiState(NumpyState):
    """Settled waveforms with both host and device residency.

    The host matrix (downloaded once at the end of the schedule sweep —
    the merge boundary) feeds every derived quantity through the
    :class:`NumpyState` analytics unchanged, which keeps transitions,
    leakage sums and pattern counts bit-identical by construction.  The
    device matrix stays resident so fault replay tiles read it without
    re-uploading.
    """

    def __init__(self, circuit: Circuit, n: int, schedule: Any,
                 matrix: np.ndarray, full_row: np.ndarray,
                 device_matrix: Any, namespace: Any):
        super().__init__(circuit, n, schedule, matrix, full_row)
        self.device_matrix = device_matrix
        self.namespace = namespace


class ArrayApiBackend(Backend):
    """The shared packed kernels on a configurable array namespace."""

    name = "array_api"

    def __init__(self, namespace: str | Any | None = None):
        self._namespace = namespace

    def _resolve(self) -> Any:
        return resolve_array_namespace(self._namespace)

    def run(self, circuit: Circuit, input_words: Mapping[str, int],
            n: int) -> ArrayApiState:
        xp = self._resolve()
        full = require_pattern_mask(n)
        schedule = cached_schedule(circuit)
        n_words = (n + 63) // 64
        full_row = int_to_row(full, n_words)
        host = initial_state(schedule, input_words, n, n_words, full,
                             full_row)
        device = to_device(xp, host)
        eval_schedule(xp, schedule, device, to_device(xp, full_row))
        return ArrayApiState(circuit, n, schedule, to_host(device),
                             full_row, device, xp)

    def eval_gate_packed(self, gtype: GateType, words: Sequence[int],
                         n: int) -> int:
        xp = self._resolve()
        n_words = (n + 63) // 64
        full_row = int_to_row(mask(n), n_words)
        if words:
            rows = np.stack([int_to_row(w, n_words) for w in words])
        else:
            rows = np.zeros((0, n_words), dtype="<u8")
        out = eval_gate_rows(xp, gtype, to_device(xp, rows),
                             to_device(xp, full_row), (n_words,))
        return row_to_int(to_host(out))

    def fault_simulate_batch(self, circuit: Circuit,
                             faults: "Sequence[Fault]",
                             input_words: Mapping[str, int], n: int,
                             drop: bool = True) -> "FaultSimResult":
        """Fused batched cone replay, tiles evaluated on the namespace.

        See :mod:`repro.simulation.backends.fault_kernel`; bit-identical
        to the scalar reference.
        """
        from repro.simulation.backends.fault_kernel import (
            fault_simulate_matrix,
        )
        state = self.run(circuit, input_words, n)
        return fault_simulate_matrix(state, faults, drop=drop,
                                     xp=state.namespace,
                                     matrix=state.device_matrix)

    def fault_simulate_plan(self, plan: "FaultEpisodePlan",
                            drop: bool = True,
                            stream_budget: int | None = None
                            ) -> "FaultSimResult":
        """Whole-plan replay on the 2-D-tiled kernel, namespace-resident.

        Mirrors :meth:`NumpyBackend.fault_simulate_plan`: the plan's
        memoized good-machine state (device matrix included) is settled
        once and reused across every fault tile; a resolved
        ``stream_budget`` the plan exceeds switches to streamed pattern
        windows.
        """
        from repro.simulation.backends.fault_kernel import (
            fault_simulate_matrix,
        )
        from repro.simulation.streaming import (
            resolve_stream_budget,
            stream_fault_plan,
        )
        budget = resolve_stream_budget(stream_budget)
        if budget is not None and plan.state_elements() > budget:
            return stream_fault_plan(self, plan, budget)
        state = plan.good_state(self)
        assert isinstance(state, ArrayApiState)
        with span("sim.fault_plan", backend=self.name,
                  faults=plan.n_faults, patterns=plan.n):
            return fault_simulate_matrix(state, plan.faults, drop=drop,
                                         xp=state.namespace,
                                         matrix=state.device_matrix)

    def fault_window_result(self, circuit: Circuit,
                            faults: "Sequence[Fault]",
                            input_words: Mapping[str, int], n: int,
                            element_budget: int | None = None
                            ) -> "FaultSimResult":
        """One streamed pattern window on the tiled kernel.

        Same contract as :meth:`NumpyBackend.fault_window_result`: the
        kernel's element budget is capped at the stream budget so a
        faulty tile never outgrows the window it streams from.
        """
        from repro.simulation.backends.fault_kernel import (
            _BATCH_ELEMENT_BUDGET,
            fault_simulate_matrix,
        )
        state = self.run(circuit, input_words, n)
        budget = _BATCH_ELEMENT_BUDGET if element_budget is None else \
            min(element_budget, _BATCH_ELEMENT_BUDGET)
        return fault_simulate_matrix(state, faults, drop=False,
                                     element_budget=budget,
                                     xp=state.namespace,
                                     matrix=state.device_matrix)
