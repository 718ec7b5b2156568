"""Calibration of the analytical device model to the paper's Figure 2.

The paper anchors its leakage tables in HSPICE BSIM4 runs at 45 nm / 0.9 V;
the only published numbers are the NAND2 table of Figure 2 (78 / 73 / 264 /
408 nA for patterns 00 / 01 / 10 / 11).  We fit the five free scale
parameters of :class:`~repro.spice.constants.TechParams` —
``s_n, s_p, g_n, g_p, eta_dibl`` — so the analytical NAND2 table matches
those four numbers (the system is one-parameter under-determined; a mild
prior on the gate-leakage ratio ``g_n/g_p`` picks the physical branch where
electron tunnelling dominates hole tunnelling).

The result of this fit is frozen into the defaults of
:func:`~repro.spice.constants.default_tech`; a unit test asserts the two
stay in sync.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import CharacterizationError
from repro.spice.characterize import characterize_nand
from repro.spice.constants import PAPER_NAND2_LEAKAGE_NA, TechParams

__all__ = ["calibrate_to_figure2", "nand2_error", "PAPER_NAND2_LEAKAGE_NA"]

_PATTERNS = ((0, 0), (0, 1), (1, 0), (1, 1))

# Prior: electron tunnelling is roughly an order of magnitude stronger
# than hole tunnelling at equal oxide field.
_PRIOR_LOG_G_RATIO = math.log(6.0)
_PRIOR_WEIGHT = 0.05


def nand2_error(params: TechParams,
                targets: dict[tuple[int, int], float] | None = None
                ) -> float:
    """Maximum relative error of the model NAND2 table vs ``targets``."""
    targets = targets or PAPER_NAND2_LEAKAGE_NA
    table = characterize_nand(2, params)
    return max(abs(table[p] - targets[p]) / targets[p] for p in _PATTERNS)


def calibrate_to_figure2(
    base: TechParams | None = None,
    targets: dict[tuple[int, int], float] | None = None,
    tolerance: float = 0.02,
) -> TechParams:
    """Fit ``(s_n, s_p, g_n, g_p, eta_dibl)`` to the Figure 2 NAND2 table.

    Parameters
    ----------
    base:
        Starting technology point; only the five fitted fields change.
    targets:
        Pattern -> nA targets (defaults to the paper's Figure 2).
    tolerance:
        Maximum acceptable relative error per pattern; exceeded -> raise.

    Returns
    -------
    TechParams
        The calibrated technology point.

    Raises
    ------
    CharacterizationError
        The fit misses ``tolerance``, or scipy (the ``calibrate`` extra)
        is not installed.
    """
    try:
        from scipy.optimize import least_squares
    except ImportError as exc:
        raise CharacterizationError(
            "re-calibrating to Figure 2 needs scipy: "
            "pip install repro-power[calibrate]") from exc
    base = base or TechParams()
    targets = targets or PAPER_NAND2_LEAKAGE_NA
    target_vec = np.array([targets[p] for p in _PATTERNS])

    def unpack(x: np.ndarray) -> TechParams:
        s_n, s_p, g_n, g_p, eta = np.exp(x[:4]).tolist() + [float(x[4])]
        return base.replace(s_n=s_n, s_p=s_p, g_n=g_n, g_p=g_p,
                            eta_dibl=eta)

    def residuals(x: np.ndarray) -> np.ndarray:
        params = unpack(x)
        table = characterize_nand(2, params)
        model = np.array([table[p] for p in _PATTERNS])
        fit = np.log(model) - np.log(target_vec)
        prior = _PRIOR_WEIGHT * ((x[2] - x[3]) - _PRIOR_LOG_G_RATIO)
        return np.append(fit, prior)

    x0 = np.array([
        math.log(base.s_n), math.log(base.s_p),
        math.log(base.g_n), math.log(base.g_p),
        base.eta_dibl,
    ])
    lower = np.array([math.log(1.0)] * 4 + [0.01])
    upper = np.array([math.log(1e7)] * 4 + [0.45])
    x0 = np.clip(x0, lower + 1e-9, upper - 1e-9)
    result = least_squares(residuals, x0, bounds=(lower, upper),
                           xtol=1e-14, ftol=1e-14, gtol=1e-14)
    fitted = unpack(result.x)
    error = nand2_error(fitted, targets)
    if error > tolerance:
        raise CharacterizationError(
            f"calibration failed: max relative error {error:.3%} "
            f"exceeds tolerance {tolerance:.1%}")
    return fitted
