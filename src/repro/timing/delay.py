"""Gate delay models for static timing analysis.

Two models:

* :class:`UnitDelay` — every combinational gate costs 1.0 (classic
  levelised timing, useful for tests and algorithm work);
* :class:`LibraryDelay` — linear model ``intrinsic + slope * C_load`` with
  loads extracted from the cell library (pin caps + wire + output load).

Both are pre-computed per circuit: model construction walks the netlist
once and stores a per-line delay, so STA itself is a pure traversal.
"""

from __future__ import annotations

from repro.cells.capacitance import load_map_ff
from repro.cells.library import CellLibrary, default_library
from repro.netlist.circuit import Circuit

__all__ = ["DelayModel", "UnitDelay", "LibraryDelay"]


class DelayModel:
    """Per-line gate delays for one circuit (base class).

    ``delay_of(line)`` is the pin-to-output delay of the gate driving
    ``line``; ``launch_of(line)`` is the arrival offset of a source line
    (0 for PIs, clk-to-Q for flop outputs).
    """

    def __init__(self, circuit: Circuit):
        self._circuit = circuit
        self._delays: dict[str, float] = {}
        self._launch: dict[str, float] = {}

    def delay_of(self, line: str) -> float:
        """Delay (ps) of the gate driving ``line``."""
        return self._delays[line]

    def launch_of(self, line: str) -> float:
        """Arrival-time offset (ps) of source line ``line``."""
        return self._launch.get(line, 0.0)

    @property
    def circuit(self) -> Circuit:
        return self._circuit


class UnitDelay(DelayModel):
    """Every combinational gate costs exactly one unit; sources launch at 0."""

    def __init__(self, circuit: Circuit):
        super().__init__(circuit)
        for line in circuit.topo_order():
            self._delays[line] = 1.0


class LibraryDelay(DelayModel):
    """Linear library delay model (``intrinsic + slope * C_load``).

    Flop outputs launch at the flop's clk-to-Q delay; loads exclude the
    cells' internal capacitances (those are folded into the intrinsic
    term, as is conventional).
    """

    def __init__(self, circuit: Circuit,
                 library: CellLibrary | None = None):
        super().__init__(circuit)
        library = library or default_library()
        self.library = library
        loads = load_map_ff(circuit, library, include_internal=False)
        for line in circuit.topo_order():
            gate = circuit.gates[line]
            self._delays[line] = library.delay_ps(
                gate.gtype, len(gate.inputs), loads[line])
        clk_to_q = library.spec(
            circuit.dff_gates[0].gtype, 1).intrinsic_delay_ps \
            if circuit.dff_gates else 0.0
        for q_line in circuit.dff_outputs:
            self._launch[q_line] = clk_to_q
