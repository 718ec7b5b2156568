"""Bracketed scalar root finding for the series-stack solve.

:func:`brentq` is a line-for-line port of the C ``brentq`` behind
``scipy.optimize.brentq`` (``scipy/optimize/Zeros/brentq.c``, after
Brent's *Algorithms for Minimization without Derivatives*, 1973): the
same update order, the same tolerances and the same floating-point
operations, so it returns bit-identical roots.  It exists so the leakage
characterization needs nothing beyond the standard library.
"""

from __future__ import annotations

import sys
from collections.abc import Callable

from repro.errors import CharacterizationError

__all__ = ["brentq", "XTOL", "RTOL", "MAXITER"]

#: scipy's defaults: absolute tolerance, relative tolerance (4 ulp of
#: 1.0, the smallest scipy accepts) and iteration budget.
XTOL = 2e-12
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if fx != fx:
        raise CharacterizationError(
            f"the function value at x={x:.17g} is NaN; "
            "solver cannot continue")
    return fx


def brentq(f: Callable[[float], float], a: float, b: float,
           xtol: float = XTOL, rtol: float = RTOL,
           maxiter: int = MAXITER) -> float:
    """Root of ``f`` in ``[a, b]`` by Brent's method.

    ``f(a)`` and ``f(b)`` must differ in sign.  The root is converged
    when the bracket half-width falls below ``(xtol + rtol*|x|) / 2``.
    Raises :class:`~repro.errors.CharacterizationError` on a sign
    error, a NaN function value or no convergence within ``maxiter``
    iterations.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise CharacterizationError(
            "f(a) and f(b) must have different signs")

    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)

    raise CharacterizationError(
        f"brentq failed to converge after {maxiter} iterations, "
        f"value is {xcur!r}")
