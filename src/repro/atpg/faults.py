"""Single stuck-at fault model on netlist lines.

Faults live on *stems*: every combinational input (primary inputs and
pseudo-inputs) and every combinational gate output, each stuck-at-0 and
stuck-at-1.  Fanout-branch faults are not modelled separately; structural
equivalence collapsing (:mod:`repro.atpg.collapse`) then shrinks the stem
universe further.  This matches the granularity at which ``.bench``-level
ATPG tools (including ATOM's published experiments) report coverage.
"""

from __future__ import annotations

import dataclasses

from repro.netlist.circuit import Circuit
from repro.netlist.gates import SEQUENTIAL_TYPES
from repro.simulation.eval2 import comb_input_lines

__all__ = ["Fault", "all_faults", "observable_lines"]


@dataclasses.dataclass(frozen=True, order=True)
class Fault:
    """Line ``line`` stuck at ``stuck_at`` (0 or 1)."""

    line: str
    stuck_at: int

    def __post_init__(self) -> None:
        # exactly int: 1.0 and True compare equal to 1 but are not values
        # the engines index with
        if type(self.stuck_at) is not int or self.stuck_at not in (0, 1):
            raise ValueError(f"stuck_at must be 0/1, got {self.stuck_at!r}")

    def __str__(self) -> str:
        return f"{self.line}/sa{self.stuck_at}"


def all_faults(circuit: Circuit) -> list[Fault]:
    """The uncollapsed stem fault universe of the combinational test view."""
    lines: list[str] = list(comb_input_lines(circuit))
    lines.extend(
        g.output for g in circuit.gates.values()
        if g.gtype not in SEQUENTIAL_TYPES)
    faults: list[Fault] = []
    for line in lines:
        faults.append(Fault(line, 0))
        faults.append(Fault(line, 1))
    return faults


def observable_lines(circuit: Circuit) -> list[str]:
    """Lines where fault effects are observed in scan test.

    Primary outputs plus every flop D line (captured into the chain and
    shifted out).  Deduplicated, order-stable.
    """
    seen: set[str] = set()
    result: list[str] = []
    for line in list(circuit.outputs) + [
            g.inputs[0] for g in circuit.dff_gates]:
        if line not in seen:
            seen.add(line)
            result.append(line)
    return result
