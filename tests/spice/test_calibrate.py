"""Tests for the Figure 2 calibration."""

import sys

import pytest

from repro.errors import CharacterizationError
from repro.spice.calibrate import calibrate_to_figure2, nand2_error
from repro.spice.constants import PAPER_NAND2_LEAKAGE_NA, TechParams, \
    default_tech


class TestDefaults:
    def test_shipped_defaults_match_figure2(self):
        """The frozen default TechParams must reproduce Figure 2."""
        assert nand2_error(default_tech()) < 1e-6


class TestCalibration:
    def test_recalibration_from_far_start(self):
        start = TechParams(s_n=20000, s_p=9000, g_n=85, g_p=17,
                           eta_dibl=0.09)
        fitted = calibrate_to_figure2(start)
        assert nand2_error(fitted) < 0.02

    def test_only_fit_fields_change(self):
        start = TechParams(s_n=20000, s_p=9000, g_n=85, g_p=17,
                           eta_dibl=0.09)
        fitted = calibrate_to_figure2(start)
        assert fitted.vdd == start.vdd
        assert fitted.vt0_n == start.vt0_n
        assert fitted.n_sub == start.n_sub

    def test_custom_targets(self):
        targets = {k: v * 2 for k, v in PAPER_NAND2_LEAKAGE_NA.items()}
        fitted = calibrate_to_figure2(targets=targets)
        assert nand2_error(fitted, targets) < 0.02
        # doubling all targets should roughly double the scales
        assert fitted.s_n > default_tech().s_n

    def test_impossible_targets_raise(self):
        targets = {(0, 0): 1e9, (0, 1): 1e-9, (1, 0): 1e9, (1, 1): 1e-9}
        with pytest.raises(CharacterizationError):
            calibrate_to_figure2(targets=targets, tolerance=0.01)

    def test_error_metric_is_max_relative(self):
        params = default_tech().replace(s_n=default_tech().s_n * 1.5)
        assert nand2_error(params) > 0.01


def test_missing_scipy_names_the_extra(monkeypatch):
    for name in [m for m in sys.modules
                 if m == "scipy" or m.startswith("scipy.")]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setitem(sys.modules, "scipy", None)
    with pytest.raises(CharacterizationError,
                       match=r"pip install repro-power\[calibrate\]"):
        calibrate_to_figure2()
