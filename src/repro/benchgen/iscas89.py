"""Published interface statistics of the ISCAS89 benchmark circuits.

The paper evaluates on twelve ISCAS89 circuits.  The netlists themselves
are distributed separately (drop real ``.bench`` files into
``$REPRO_ISCAS89_DIR`` to use them); when absent, the synthetic generator
(:mod:`repro.benchgen.generator`) produces circuits that reproduce these
published statistics — primary inputs, primary outputs, flip-flops and
combinational gate count — with realistic topology.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import UnknownCircuitError

__all__ = ["Iscas89Stats", "ISCAS89_STATS", "TABLE1_CIRCUITS",
           "stats_for", "scaled_stats"]


@dataclasses.dataclass(frozen=True)
class Iscas89Stats:
    """Published interface statistics of one ISCAS89 circuit."""

    name: str
    n_inputs: int
    n_outputs: int
    n_dffs: int
    n_gates: int    # combinational gates (inverters included)


#: Published ISCAS89 statistics (Brglez, Bryan & Kozminski, ISCAS 1989).
ISCAS89_STATS: dict[str, Iscas89Stats] = {
    s.name: s for s in [
        Iscas89Stats("s27", 4, 1, 3, 10),
        Iscas89Stats("s344", 9, 11, 15, 160),
        Iscas89Stats("s349", 9, 11, 15, 161),
        Iscas89Stats("s382", 3, 6, 21, 158),
        Iscas89Stats("s386", 7, 7, 6, 159),
        Iscas89Stats("s400", 3, 6, 21, 164),
        Iscas89Stats("s420", 18, 1, 16, 218),
        Iscas89Stats("s444", 3, 6, 21, 181),
        Iscas89Stats("s510", 19, 7, 6, 211),
        Iscas89Stats("s526", 3, 6, 21, 193),
        Iscas89Stats("s641", 35, 24, 19, 379),
        Iscas89Stats("s713", 35, 23, 19, 393),
        Iscas89Stats("s820", 18, 19, 5, 289),
        Iscas89Stats("s832", 18, 19, 5, 287),
        Iscas89Stats("s838", 34, 1, 32, 446),
        Iscas89Stats("s953", 16, 23, 29, 395),
        Iscas89Stats("s1196", 14, 14, 18, 529),
        Iscas89Stats("s1238", 14, 14, 18, 508),
        Iscas89Stats("s1423", 17, 5, 74, 657),
        Iscas89Stats("s1488", 8, 19, 6, 653),
        Iscas89Stats("s1494", 8, 19, 6, 647),
        Iscas89Stats("s5378", 35, 49, 179, 2779),
        Iscas89Stats("s9234", 36, 39, 211, 5597),
        Iscas89Stats("s13207", 62, 152, 638, 7951),
        Iscas89Stats("s15850", 77, 150, 534, 9772),
        Iscas89Stats("s35932", 35, 320, 1728, 16065),
        Iscas89Stats("s38417", 28, 106, 1636, 22179),
        Iscas89Stats("s38584", 38, 304, 1426, 19253),
    ]
}

#: The twelve circuits of the paper's Table I, in row order.
TABLE1_CIRCUITS: tuple[str, ...] = (
    "s344", "s382", "s444", "s510", "s641", "s713",
    "s1196", "s1238", "s1423", "s1494", "s5378", "s9234",
)


def stats_for(name: str) -> Iscas89Stats:
    """Statistics record for ``name``; an unknown name raises
    :class:`~repro.errors.UnknownCircuitError` listing the known ones."""
    try:
        return ISCAS89_STATS[name]
    except KeyError:
        known = ", ".join(sorted(ISCAS89_STATS))
        raise UnknownCircuitError(
            f"unknown ISCAS89 circuit {name!r}; known: {known}") from None


def scaled_stats(n_gates: int, *, name: str | None = None,
                 n_inputs: int | None = None,
                 n_outputs: int | None = None,
                 n_dffs: int | None = None) -> Iscas89Stats:
    """A synthetic statistics record for an arbitrary gate budget.

    Interface counts default to ratios modelled on the large published
    circuits (s13207...s38584): flop count ~ ``n_gates / 16`` and
    PI/PO counts ~ ``sqrt(n_gates) / 4`` — wide enough for non-trivial
    stimulus, narrow enough that the scan chain dominates the episode
    the way it does on the real designs.  Pass any count explicitly to
    override.  ``name`` defaults to ``synth<n_gates>``; the (name, seed)
    pair fully determines the generated netlist, so distinct budgets
    never share an RNG stream.

    This is the ``stats_for``-independent entry for million-gate
    scaling studies; :func:`repro.benchgen.generator.generate_scaled`
    wraps it.
    """
    if n_gates < 4:
        raise ValueError(f"scaled stats need >= 4 gates, got {n_gates}")
    root = max(1, math.isqrt(n_gates))
    inputs = n_inputs if n_inputs is not None else max(8, root // 4)
    outputs = n_outputs if n_outputs is not None else max(4, root // 4)
    dffs = n_dffs if n_dffs is not None else max(2, n_gates // 16)
    if dffs >= n_gates:
        raise ValueError(
            f"flop count {dffs} must stay below the gate budget {n_gates}")
    return Iscas89Stats(name or f"synth{n_gates}", inputs, outputs,
                        dffs, n_gates)
