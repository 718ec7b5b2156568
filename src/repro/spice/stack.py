"""Series-stack leakage solver — the numerical core of the HSPICE substitute.

A static CMOS gate that is logically stable has exactly one non-conducting
(*blocked*) network between the rails; the subthreshold current of the cell
is the current through that blocked network.  This module solves the
internal node voltages of a blocked series stack so that current
continuity holds through every OFF device (paper Section 3.B points out
that series transistors, unlike parallel ones, need exactly this solve).

Conventions
-----------
Stacks are described **from the rail towards the output node**:

* NAND pull-down: index 0 is the NMOS whose source is GND;
* NOR pull-up: index 0 is the PMOS whose source is VDD.

PMOS stacks are solved in a mirrored frame (``w = VDD - v``) where they
obey the NMOS equations with the PMOS parameter set, so one solver serves
both polarities.

Physics captured:

* equal-current constraint through series OFF devices (the *stack effect*:
  two OFF devices leak an order of magnitude less than one);
* pass-transistor degradation: an ON run adjacent to the output rail only
  reaches ``V_rail_far - VT``, reducing the DIBL seen by the OFF device
  below it — this is what makes NAND2 "01" leak 3-4x less than "10"
  (paper Figure 2: 73 nA vs 264 nA).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.errors import CharacterizationError
from repro.spice.bsim import subthreshold_current
from repro.spice.constants import TechParams
from repro.spice.roots import brentq

__all__ = ["StackSolution", "blocked_stack_current", "parallel_off_current"]

_EPS = 1e-9


@dataclasses.dataclass(frozen=True)
class StackSolution:
    """Result of a blocked-stack solve.

    Attributes
    ----------
    current_na:
        Subthreshold current through the stack (nA).
    node_voltages:
        ``k + 1`` node voltages from the rail (index 0) to the output node
        (index k), in the *rail frame* (0 at the stack's own rail, rising
        towards the far rail).  For PMOS stacks convert with
        ``v_actual = vdd - v_frame``.
    effective_top:
        The voltage actually presented to the reduced OFF-device chain
        (``vdd`` or ``vdd - vt`` under pass degradation).
    """

    current_na: float
    node_voltages: tuple[float, ...]
    effective_top: float


def _device_current(params: TechParams, v_lo: float, v_hi: float,
                    width: float, device: str) -> float:
    """Current of one OFF device with source ``v_lo``, drain ``v_hi``."""
    return subthreshold_current(
        params, vgs=-v_lo, vds=v_hi - v_lo, vsb=v_lo,
        width=width, device=device)


def _propagate(params: TechParams, current: float, v_lo: float,
               width: float, device: str, v_cap: float) -> float | None:
    """Upper node voltage of an OFF device carrying ``current`` from
    ``v_lo``; ``None`` if even ``v_cap`` cannot sustain it."""
    if _device_current(params, v_lo, v_cap, width, device) < current:
        return None
    return brentq(
        lambda v: _device_current(params, v_lo, v, width, device) - current,
        v_lo + _EPS, v_cap, xtol=1e-12)


def _solve_chain(params: TechParams, n_off: int, v_top: float,
                 width: float, device: str) -> tuple[float, list[float]]:
    """Equal-current solve for ``n_off`` identical OFF devices in series
    between 0 and ``v_top``.  Returns (current, internal node voltages)."""
    if n_off == 1:
        return _device_current(params, 0.0, v_top, width, device), []

    v_cap = v_top + 1.0  # headroom for intermediate propagation

    def top_error(v1: float) -> float:
        """Mismatch at the top node if the bottom node sits at ``v1``."""
        current = _device_current(params, 0.0, v1, width, device)
        v = v1
        for _ in range(n_off - 1):
            nxt = _propagate(params, current, v, width, device, v_cap)
            if nxt is None:
                return v_cap - v_top  # overshoot: v1 too large
            v = nxt
        return v - v_top

    lo, hi = _EPS, v_top - _EPS
    if top_error(lo) > 0 or top_error(hi) < 0:
        raise CharacterizationError(
            f"stack solve bracket failed (n_off={n_off}, v_top={v_top})")
    v1 = brentq(top_error, lo, hi, xtol=1e-12)

    current = _device_current(params, 0.0, v1, width, device)
    internal = [v1]
    v = v1
    for _ in range(n_off - 2):
        v = _propagate(params, current, v, width, device, v_cap)
        internal.append(v)
    return current, internal


def blocked_stack_current(params: TechParams, gates_on: Sequence[bool],
                          width: float, device: str = "n") -> StackSolution:
    """Solve a blocked series stack.

    Parameters
    ----------
    params:
        Technology point.
    gates_on:
        Per-device ON flags, ordered **rail -> output**.  At least one
        device must be OFF (otherwise the network conducts and there is no
        subthreshold leakage through it).
    width:
        Width of every device in the stack (series devices share sizing).
    device:
        ``"n"`` or ``"p"``; PMOS stacks are solved in the mirrored frame.
    """
    flags = list(gates_on)
    if not flags:
        raise CharacterizationError("empty stack")
    if all(flags):
        raise CharacterizationError("stack conducts; not blocked")

    vdd = params.vdd
    vt = params.vt0_n if device == "n" else params.vt0_p
    off_idx = [i for i, on in enumerate(flags) if not on]
    first_off, last_off = off_idx[0], off_idx[-1]
    n_off = len(off_idx)

    # Pass degradation: ON devices between the topmost OFF device and the
    # output node can only pull the intermediate node to vdd - vt.
    has_on_above = last_off < len(flags) - 1
    v_top = vdd - vt if has_on_above else vdd
    if v_top <= 0:
        raise CharacterizationError("v_top <= 0; check vt vs vdd")

    current, internal = _solve_chain(params, n_off, v_top, width, device)

    # Reconstruct all k+1 node voltages in the rail frame.  ON runs below
    # the first OFF device collapse to 0; ON runs between OFF devices
    # collapse onto the lower solved node; ON runs above collapse to v_top;
    # the output node itself is at vdd.
    drops = internal + [v_top]          # upper node of each OFF device
    nodes = [0.0]
    off_seen = 0
    for i, on in enumerate(flags):
        if on:
            nodes.append(nodes[-1])
        else:
            nodes.append(drops[off_seen])
            off_seen += 1
    nodes[-1] = vdd  # the true output node sits at the far rail
    return StackSolution(current_na=current,
                         node_voltages=tuple(nodes),
                         effective_top=v_top)


def parallel_off_current(params: TechParams, n_off: int, width: float,
                         device: str = "n") -> float:
    """Subthreshold current of ``n_off`` parallel OFF devices at full VDS.

    This is the easy case the paper mentions (e.g. the pull-up network of
    an n-input NAND with output low): every device sees the same VDS = VDD,
    so currents simply add.
    """
    if n_off < 0:
        raise CharacterizationError("n_off must be >= 0")
    single = subthreshold_current(
        params, vgs=0.0, vds=params.vdd, vsb=0.0,
        width=width, device=device)
    return n_off * single
