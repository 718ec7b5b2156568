"""The pure-Python ``brentq`` port must equal scipy's C ``brentq`` bit for
bit: on every root the leakage characterization solves, and on a few
plain functions that exercise each step kind."""

import math
import struct

import pytest

import repro.spice.stack as stack
from repro.errors import CharacterizationError, NetlistError
from repro.netlist.gates import GateType, check_arity
from repro.spice.characterize import (
    MAX_CELL_ARITY,
    cell_leakage_table,
    characterize_nand,
    characterize_nor,
)
from repro.spice.roots import MAXITER, RTOL, XTOL, brentq

scipy_optimize = pytest.importorskip("scipy.optimize")


def _bits(x: float) -> bytes:
    return struct.pack("d", x)


def _characterize_everything() -> int:
    """Characterize every library cell table and every primitive stack
    uncached; returns the number of tables built."""
    built = 0
    for gtype in GateType:
        for arity in range(MAX_CELL_ARITY + 1):
            try:
                check_arity(gtype, arity)
            except NetlistError:
                continue
            cell_leakage_table.__wrapped__(gtype, arity)
            built += 1
    for arity in range(1, MAX_CELL_ARITY + 1):
        characterize_nand(arity)
        characterize_nor(arity)
        built += 2
    return built


def test_defaults_match_scipy():
    assert XTOL == 2e-12
    assert RTOL == 4 * math.ulp(1.0)
    assert MAXITER == 100


def test_every_characterization_root_is_bit_identical(monkeypatch):
    roots: list[tuple[float, float]] = []

    def both(f, a, b, **kwargs):
        ours = brentq(f, a, b, **kwargs)
        roots.append((ours, scipy_optimize.brentq(f, a, b, **kwargs)))
        return ours

    monkeypatch.setattr(stack, "brentq", both)
    assert _characterize_everything() >= 30
    assert len(roots) > 2000
    mismatched = [(ours, theirs) for ours, theirs in roots
                  if _bits(ours) != _bits(theirs)]
    assert mismatched == []


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x ** 3 - 2.0, 0.0, 2.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 1e6, 0.0, 30.0),
    (lambda x: math.tanh(50 * (x - 0.3)), -1.0, 1.0),
    (lambda x: (x - 1e-3) ** 3 + 1e-12, 0.0, 5.0),
    (lambda x: x, -1.0, 0.0),
    (lambda x: x - 0.5, 0.5, 2.0),
])
@pytest.mark.parametrize("xtol", [XTOL, 1e-12, 1e-4])
def test_plain_functions_bit_identical(f, a, b, xtol):
    assert _bits(brentq(f, a, b, xtol=xtol)) == \
        _bits(scipy_optimize.brentq(f, a, b, xtol=xtol))


def test_sign_error_raises():
    with pytest.raises(CharacterizationError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        scipy_optimize.brentq(lambda x: x * x + 1.0, -1.0, 1.0)


@pytest.mark.parametrize("f, maxiter", [
    (lambda x: math.cos(x) - x, 3),
    # A triple root: both run out of the default 100 iterations.
    (lambda x: (x - 1e-3) ** 3, MAXITER),
])
def test_non_convergence_raises(f, maxiter):
    with pytest.raises(CharacterizationError,
                       match=f"converge after {maxiter} "):
        brentq(f, 0.0, 5.0, maxiter=maxiter)
    with pytest.raises(RuntimeError, match="converge"):
        scipy_optimize.brentq(f, 0.0, 5.0, maxiter=maxiter)


def test_nan_value_raises():
    with pytest.raises(CharacterizationError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.2 else -1.0, 0.0, 1.0)

