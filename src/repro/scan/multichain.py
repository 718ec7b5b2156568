"""Multiple parallel scan chains.

The paper evaluates single-chain designs; industrial scan splits the
flops over ``N`` chains that shift **simultaneously**, cutting shift
cycles per vector from ``L`` to ``ceil(L / N)``.  This module extends the
scan substrate accordingly:

* :class:`MultiChainDesign` — a circuit with a list of chains
  (``partition`` builds balanced chains round-robin or from explicit
  orders);
* per-vector shift scheduling where shorter chains pad with leading
  zeros so every chain finishes loading on the same clock (the usual
  "stitch to the longest chain" discipline);
* :func:`evaluate_multichain_power` — the Table I measurement under
  parallel shifting.  All shift policies (input control, MUX ties) apply
  unchanged.

The single-chain evaluator is the special case ``N = 1``; a test asserts
the two agree exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.cells.library import CellLibrary, default_library
from repro.errors import ScanError
from repro.leakage.estimator import leakage_power_uw
from repro.netlist.circuit import Circuit
from repro.power.dynamic import (
    energy_per_cycle_uw_per_hz,
    switching_energy_fj,
)
from repro.scan.chain import ScanCell, ScanChain
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.backends import Backend, resolve_backend
from repro.simulation.cyclesim import simulate_cycles
from repro.simulation.episode import EpisodePlan, episode_batching_enabled
from repro.simulation.eval2 import simulate_comb
from repro.simulation.values import pack_bits

if TYPE_CHECKING:
    from repro.power.scanpower import ScanPowerReport, ShiftPolicy

__all__ = ["MultiChainDesign", "evaluate_multichain_power"]


class MultiChainDesign:
    """A full-scan circuit whose flops are split over several chains.

    Cell order across chains defines the *global* cell order used by
    :class:`~repro.scan.testview.TestVector` scan states: chain 0's cells
    first, then chain 1's, and so on — so single-chain vectors (e.g. from
    the ATPG, which is chain-agnostic) apply directly once the design's
    ``global_q_lines`` order is used.
    """

    def __init__(self, circuit: Circuit, chains: Sequence[ScanChain]):
        if not chains:
            raise ScanError("need at least one chain")
        self.circuit = circuit
        self.chains = list(chains)
        seen: set[str] = set()
        for chain in self.chains:
            overlap = seen & set(chain.q_lines)
            if overlap:
                raise ScanError(
                    f"cells in multiple chains: {sorted(overlap)}")
            seen |= set(chain.q_lines)
        circuit_q = set(circuit.dff_outputs)
        if seen != circuit_q:
            raise ScanError("chains do not cover exactly the circuit flops")

    @classmethod
    def partition(cls, circuit: Circuit, n_chains: int,
                  order: Sequence[str] | None = None
                  ) -> "MultiChainDesign":
        """Split the flops round-robin into ``n_chains`` balanced chains."""
        if n_chains < 1:
            raise ScanError("n_chains must be >= 1")
        q_lines = list(order) if order is not None \
            else [g.output for g in circuit.dff_gates]
        if n_chains > len(q_lines):
            raise ScanError(
                f"{n_chains} chains for only {len(q_lines)} flops")
        by_q = {g.output: ScanCell(q=g.output, d=g.inputs[0])
                for g in circuit.dff_gates}
        buckets: list[list[ScanCell]] = [[] for _ in range(n_chains)]
        for i, q in enumerate(q_lines):
            buckets[i % n_chains].append(by_q[q])
        chains = [ScanChain(cells, name=f"chain{k}")
                  for k, cells in enumerate(buckets)]
        return cls(circuit, chains)

    # ------------------------------------------------------------------ #

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @property
    def max_length(self) -> int:
        """Shift cycles needed per vector (the longest chain)."""
        return max(chain.length for chain in self.chains)

    @property
    def total_cells(self) -> int:
        return sum(chain.length for chain in self.chains)

    @property
    def global_q_lines(self) -> list[str]:
        """Global cell order: chain 0 first, then chain 1, ..."""
        lines: list[str] = []
        for chain in self.chains:
            lines.extend(chain.q_lines)
        return lines

    @property
    def global_d_lines(self) -> list[str]:
        lines: list[str] = []
        for chain in self.chains:
            lines.extend(chain.d_lines)
        return lines

    def split_state(self, state: Sequence[int]) -> list[tuple[int, ...]]:
        """Slice a global scan state into per-chain states."""
        if len(state) != self.total_cells:
            raise ScanError("global state length mismatch")
        slices: list[tuple[int, ...]] = []
        offset = 0
        for chain in self.chains:
            slices.append(tuple(state[offset:offset + chain.length]))
            offset += chain.length
        return slices

    def as_single_chain_design(self) -> ScanDesign:
        """The same circuit with all chains concatenated into one chain
        (used for capture evaluation and ATPG reuse)."""
        cells = [cell for chain in self.chains for cell in chain.cells]
        return ScanDesign(self.circuit, ScanChain(cells, name="concat"))

    def capture(self, vector: TestVector
                ) -> tuple[tuple[int, ...], dict[str, int]]:
        """Normal-mode capture (chain structure is irrelevant here)."""
        assignment = dict(vector.pi_values)
        for q, bit in zip(self.global_q_lines, vector.scan_state):
            assignment[q] = bit
        values = simulate_comb(self.circuit, assignment)
        captured = tuple(values[d] for d in self.global_d_lines)
        po_values = {po: values[po] for po in self.circuit.outputs}
        return captured, po_values


def _chain_shift_bits(chain: ScanChain, initial: tuple[int, ...],
                      vector_slice: tuple[int, ...],
                      n_shift_cycles: int) -> list[tuple[int, ...]]:
    """Per-cycle states of one chain over a padded shift segment.

    The chain idles through ``n_shift_cycles - length`` leading pad
    shifts (zero fill entering) and then loads its slice, finishing
    exactly on the segment's last cycle.
    """
    pad = n_shift_cycles - chain.length
    if pad < 0:
        raise ScanError("segment shorter than chain")
    states: list[tuple[int, ...]] = []
    state = initial
    for _ in range(pad):
        state = chain.shift_once(state, 0)
        states.append(state)
    for bit in chain.load_bits(vector_slice):
        state = chain.shift_once(state, bit)
        states.append(state)
    return states


def evaluate_multichain_power(design: MultiChainDesign,
                              vectors: Sequence[TestVector],
                              policy: ShiftPolicy | None = None,
                              library: CellLibrary | None = None,
                              include_capture: bool = True,
                              backend: str | Backend | None = None,
                              episode_batch: bool | None = None
                              ) -> ScanPowerReport:
    """Replay a scan test set with all chains shifting in parallel.

    Semantics mirror the single-chain evaluator; only the schedule
    differs: every vector costs ``max_length`` shift cycles (plus the
    capture cycle), during which each chain walks its own contents.
    ``backend`` accepts any registered engine, including meta-backends
    like ``sharded``; it is resolved exactly once per call and affects
    speed only.  With episode batching on (``episode_batch`` following
    :func:`~repro.power.scanpower.evaluate_scan_power`'s resolution),
    evaluation goes through ``Backend.simulate_episode_batch`` so
    sharding meta-backends may chunk the cycle axis of oversized
    replays; off, it runs the plain cycle simulation.  Both paths are
    bit-identical.
    """
    # Deferred: repro.power.scanpower imports repro.scan.testview, and
    # the repro.scan package imports this module.
    from repro.power.scanpower import ScanPowerReport, ShiftPolicy

    policy = policy or ShiftPolicy()
    library = library or default_library()
    circuit = design.circuit
    engine = resolve_backend(backend)
    if not vectors:
        raise ScanError("empty test set")
    unknown_mux = set(policy.mux_ties) - set(design.global_q_lines)
    if unknown_mux:
        raise ScanError(f"mux ties on unknown cells: {sorted(unknown_mux)}")

    segment = design.max_length
    pi_bits: dict[str, list[int]] = {pi: [] for pi in circuit.inputs}
    q_bits: dict[str, list[int]] = {q: [] for q in design.global_q_lines}
    chain_states = [
        (0,) * chain.length for chain in design.chains
    ]

    for vector in vectors:
        slices = design.split_state(vector.scan_state)
        per_chain = [
            _chain_shift_bits(chain, state, piece, segment)
            for chain, state, piece in zip(design.chains, chain_states,
                                           slices)
        ]
        for cycle in range(segment):
            for pi in circuit.inputs:
                if policy.pi_values is not None and \
                        pi in policy.pi_values:
                    pi_bits[pi].append(policy.pi_values[pi])
                else:
                    pi_bits[pi].append(vector.pi_values[pi])
            for chain, states in zip(design.chains, per_chain):
                cycle_state = states[cycle]
                for cell, bit in zip(chain.cells, cycle_state):
                    tie = policy.mux_ties.get(cell.q)
                    q_bits[cell.q].append(bit if tie is None else tie)
        if include_capture:
            for pi in circuit.inputs:
                pi_bits[pi].append(vector.pi_values[pi])
            for q, bit in zip(design.global_q_lines, vector.scan_state):
                q_bits[q].append(bit)
        captured, _po = design.capture(vector)
        chain_states = design.split_state(captured)

    all_bits = {**pi_bits, **q_bits}
    n_cycles = len(next(iter(all_bits.values())))
    waveforms = {line: pack_bits(bits) for line, bits in all_bits.items()}
    if episode_batching_enabled(episode_batch):
        per_episode = segment + (1 if include_capture else 0)
        plan = EpisodePlan(
            circuit=circuit, waveforms=waveforms, n_cycles=n_cycles,
            offsets=tuple(range(0, n_cycles, per_episode)),
            lengths=(per_episode,) * len(vectors))
        result = engine.simulate_episode_batch(plan, library,
                                               collect_leakage=True)
    else:
        result = simulate_cycles(circuit, waveforms, n_cycles, library,
                                 collect_leakage=True, backend=engine)
    energy_fj = switching_energy_fj(circuit, result.transitions, library)
    return ScanPowerReport(
        circuit_name=circuit.name,
        policy_name=f"{policy.name}@{design.n_chains}chains",
        n_vectors=len(vectors),
        n_cycles=n_cycles,
        dynamic_uw_per_hz=energy_per_cycle_uw_per_hz(energy_fj, n_cycles),
        static_uw=leakage_power_uw(result.mean_leakage_na, library.vdd),
        total_transitions=result.total_transitions,
        mean_leakage_na=result.mean_leakage_na,
    )


def total_test_cycles(design: MultiChainDesign, n_vectors: int,
                     include_capture: bool = True) -> int:
    """Total scan clocks to apply ``n_vectors`` (the test-time metric)."""
    per_vector = design.max_length + (1 if include_capture else 0)
    return n_vectors * per_vector
