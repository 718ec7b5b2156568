"""Scan-cell and test-vector reordering for shift power (paper epilogue).

The paper's experiments deliberately use *no* reordering: "No test vector
reordering or scan cell reordering was performed in these experiments.
By applying reordering techniques, further improvements can be achieved."
This module implements that mentioned-but-unevaluated extension, so the
claim can be measured (ablation bench ``bench_ablation_ordering``):

* **Vector reordering** — application order is free in scan testing
  (coverage is order-independent); choosing an order that minimises the
  Hamming distance between consecutive *loaded states* reduces the
  difference traffic shifted through the chain.  This is a shortest
  Hamiltonian path problem on the Hamming graph; we solve it with
  networkx's greedy TSP approximation plus an optional 2-opt refinement.
* **Chain reordering** — the chain order determines which bit stream
  passes through which cell; placing cells whose *vector columns* are
  similar next to each other makes neighbouring cells carry correlated
  values, so fewer shift steps flip them.  Same TSP formulation over
  cell columns.

Both run on the non-multiplexed cells' traffic only when a
:class:`~repro.scan.mux.MuxPlan` is given (muxed pseudo-inputs present
constants during shift, so their columns are free).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.errors import ScanError
from repro.scan.chain import ScanChain
from repro.scan.testview import ScanDesign, TestVector

__all__ = ["OrderingResult", "reorder_vectors", "reorder_chain",
           "hamming_path_cost"]


@dataclasses.dataclass
class OrderingResult:
    """Outcome of a reordering search.

    ``order`` holds indices into the original sequence; ``cost_before`` /
    ``cost_after`` are the summed Hamming distances along the sequence.
    """

    order: list[int]
    cost_before: int
    cost_after: int

    @property
    def improvement(self) -> float:
        """Relative cost reduction (0.0 when there was nothing to gain)."""
        if self.cost_before == 0:
            return 0.0
        return (self.cost_before - self.cost_after) / self.cost_before


def hamming_path_cost(rows: np.ndarray) -> int:
    """Sum of Hamming distances between consecutive rows."""
    if len(rows) < 2:
        return 0
    return int((rows[1:] != rows[:-1]).sum())


def _tsp_path_order(rows: np.ndarray, two_opt_rounds: int) -> list[int]:
    """Approximate shortest Hamiltonian path over rows (Hamming metric).

    A virtual depot node with zero-cost edges converts the path problem
    into a tour for networkx's ``greedy_tsp``; 2-opt passes then refine.
    """
    import networkx as nx

    n = len(rows)
    if n <= 2:
        return list(range(n))
    graph = nx.complete_graph(n + 1)  # node n is the depot
    for i in range(n):
        graph[n][i]["weight"] = 0
        for j in range(i + 1, n):
            graph[i][j]["weight"] = int((rows[i] != rows[j]).sum())
    tour = nx.approximation.greedy_tsp(graph, source=n)
    # tour: depot ... depot; drop the depot to get a path order.
    path = [node for node in tour[:-1] if node != n]

    def path_cost(order: list[int]) -> int:
        return sum(graph[a][b]["weight"]
                   for a, b in zip(order, order[1:]))

    for _ in range(two_opt_rounds):
        improved = False
        cost = path_cost(path)
        for i in range(len(path) - 1):
            for j in range(i + 2, len(path)):
                candidate = path[:i + 1] + path[i + 1:j + 1][::-1] \
                    + path[j + 1:]
                new_cost = path_cost(candidate)
                if new_cost < cost:
                    path, cost = candidate, new_cost
                    improved = True
        if not improved:
            break
    return path


def _vector_matrix(design: ScanDesign, vectors: Sequence[TestVector],
                   active_cells: Sequence[int]) -> np.ndarray:
    matrix = np.zeros((len(vectors), len(active_cells)), dtype=np.int8)
    for vi, vector in enumerate(vectors):
        for ci, cell_pos in enumerate(active_cells):
            matrix[vi, ci] = vector.scan_state[cell_pos]
    return matrix


def _active_cells(design: ScanDesign,
                  muxed: frozenset[str] | set[str] | None) -> list[int]:
    muxed = muxed or set()
    return [i for i, cell in enumerate(design.chain.cells)
            if cell.q not in muxed]


def reorder_vectors(design: ScanDesign, vectors: Sequence[TestVector],
                    muxed: set[str] | None = None,
                    two_opt_rounds: int = 2
                    ) -> tuple[list[TestVector], OrderingResult]:
    """Reorder the test set to minimise consecutive-state differences.

    Fault coverage is untouched (the same vectors are applied).  Returns
    the reordered list and the bookkeeping.
    """
    if not vectors:
        raise ScanError("empty test set")
    active = _active_cells(design, muxed)
    rows = _vector_matrix(design, vectors, active)
    before = hamming_path_cost(rows)
    order = _tsp_path_order(rows, two_opt_rounds)
    after = hamming_path_cost(rows[order])
    if after > before:  # the approximation must never make things worse
        order = list(range(len(vectors)))
        after = before
    return ([vectors[i] for i in order],
            OrderingResult(order=order, cost_before=before,
                           cost_after=after))


def reorder_chain(design: ScanDesign, vectors: Sequence[TestVector],
                  muxed: set[str] | None = None,
                  two_opt_rounds: int = 2
                  ) -> tuple[ScanDesign, list[TestVector],
                             OrderingResult]:
    """Reorder the scan chain so neighbouring cells carry similar bits.

    Returns a new :class:`ScanDesign` (same circuit, permuted chain), the
    vectors re-expressed in the new chain order, and the bookkeeping.
    Muxed cells (whose shift values are constants) are ignored by the
    cost model but keep their relative participation in the chain.
    """
    if not vectors:
        raise ScanError("empty test set")
    cells = design.chain.cells
    active = _active_cells(design, muxed)
    if len(active) < 2:
        return design, list(vectors), OrderingResult(
            order=list(range(len(cells))), cost_before=0, cost_after=0)

    columns = _vector_matrix(design, vectors, active).T  # cell-major
    before = hamming_path_cost(columns)
    order_within_active = _tsp_path_order(columns, two_opt_rounds)
    after = hamming_path_cost(columns[order_within_active])
    if after > before:
        order_within_active = list(range(len(active)))
        after = before

    # Build the full cell permutation: active cells take their new
    # relative order; muxed cells stay at their original positions.
    new_positions = list(range(len(cells)))
    reordered_active = [active[i] for i in order_within_active]
    for slot, original in zip(active, reordered_active):
        new_positions[slot] = original

    new_chain = ScanChain([cells[i] for i in new_positions],
                          name=design.chain.name + "_reordered")
    new_design = ScanDesign(design.circuit, new_chain)

    remapped = [
        TestVector(
            pi_values=v.pi_values,
            scan_state=tuple(v.scan_state[i] for i in new_positions))
        for v in vectors
    ]
    return new_design, remapped, OrderingResult(
        order=new_positions, cost_before=before, cost_after=after)
