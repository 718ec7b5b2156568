"""Tests for the scan-shift power evaluator (Table I semantics)."""

import pytest
from episode_reference import (
    evaluate_scan_power as serial_scan_power,
    per_cycle_energy_fj as serial_energy_profile,
)

from repro.errors import ScanError
from repro.power.scanpower import (
    ScanPowerReport,
    ShiftPolicy,
    evaluate_scan_power,
    per_cycle_energy_fj,
)
from repro.scan.multichain import MultiChainDesign, evaluate_multichain_power
from repro.scan.testview import ScanDesign, TestVector


class TestEpisodeStructure:
    def test_cycle_count_with_capture(self, s27_design, make_vectors):
        vectors = make_vectors(s27_design, 5)
        report = evaluate_scan_power(s27_design, vectors)
        chain_length = s27_design.chain.length
        assert report.n_cycles == 5 * (chain_length + 1)
        assert report.n_vectors == 5

    def test_cycle_count_without_capture(self, s27_design, make_vectors):
        vectors = make_vectors(s27_design, 5)
        report = evaluate_scan_power(s27_design, vectors,
                                     include_capture=False)
        assert report.n_cycles == 5 * s27_design.chain.length

    def test_empty_test_set_rejected(self, s27_design):
        with pytest.raises(ScanError):
            evaluate_scan_power(s27_design, [])

    def test_unknown_mux_tie_rejected(self, s27_design, make_vectors):
        vectors = make_vectors(s27_design, 2)
        policy = ShiftPolicy(mux_ties={"nonexistent": 0})
        with pytest.raises(ScanError):
            evaluate_scan_power(s27_design, vectors, policy)

    def test_wrong_state_length_rejected(self, s27_design):
        bad = TestVector(
            pi_values={pi: 0 for pi in s27_design.circuit.inputs},
            scan_state=(0,))
        with pytest.raises(ScanError):
            evaluate_scan_power(s27_design, [bad])


def _single_chain(design, vectors, policy):
    return evaluate_scan_power(design, vectors, policy)


def _two_chains(design, vectors, policy):
    return evaluate_multichain_power(
        MultiChainDesign.partition(design.circuit, 2), vectors, policy)


def _energy_profile(design, vectors, policy):
    return per_cycle_energy_fj(design, vectors, policy)


def _waveforms(design, vectors, policy):
    from repro.power.scanpower import episode_waveforms
    return episode_waveforms(design, vectors, policy)


BOTH_BUILDERS = pytest.mark.parametrize(
    "evaluate", [_single_chain, _two_chains, _energy_profile, _waveforms],
    ids=["single-chain", "multichain", "energy-profile", "waveforms"])


class TestPrimaryInputValidation:
    """Both waveform builders reject PI drive they cannot honour with a
    ScanError naming the line, never a KeyError or a silent skip."""

    @BOTH_BUILDERS
    def test_vector_missing_a_pi_rejected(self, s27_design, evaluate):
        bad = TestVector(pi_values={}, scan_state=(0, 0, 0))
        with pytest.raises(ScanError, match="primary input 'G0'"):
            evaluate(s27_design, [bad], ShiftPolicy())

    @BOTH_BUILDERS
    def test_unknown_policy_pi_rejected(self, s27_design, make_vectors,
                                        evaluate):
        policy = ShiftPolicy(pi_values={"nope": 1})
        with pytest.raises(ScanError, match=r"unknown inputs: \['nope'\]"):
            evaluate(s27_design, make_vectors(s27_design, 2), policy)

    @BOTH_BUILDERS
    def test_names_the_one_missing_pi(self, s27_design, make_vectors,
                                      evaluate):
        vectors = make_vectors(s27_design, 3)
        last = s27_design.circuit.inputs[-1]
        pis = {pi: 0 for pi in s27_design.circuit.inputs if pi != last}
        vectors[2] = TestVector(pi_values=pis,
                                scan_state=vectors[2].scan_state)
        with pytest.raises(ScanError,
                           match=f"vector 2 has no value for primary "
                                 f"input '{last}'"):
            evaluate(s27_design, vectors, ShiftPolicy())

    @pytest.mark.parametrize("evaluate", [_single_chain, _two_chains],
                             ids=["single-chain", "multichain"])
    def test_non_binary_policy_pi_rejected(self, s27_design, make_vectors,
                                           evaluate):
        first = s27_design.circuit.inputs[0]
        policy = ShiftPolicy(pi_values={first: 2})
        with pytest.raises(ScanError, match="must be 0/1"):
            evaluate(s27_design, make_vectors(s27_design, 2), policy)


class TestBlockingEverything:
    def test_full_mux_constant_pis_kills_shift_activity(
            self, s27_design, make_vectors):
        """All pseudo-inputs muxed + constant PIs + no capture cycles:
        the combinational part must see zero transitions."""
        vectors = make_vectors(s27_design, 6)
        policy = ShiftPolicy(
            name="block_all",
            pi_values={pi: 0 for pi in s27_design.circuit.inputs},
            mux_ties={q: 0 for q in s27_design.chain.q_lines})
        report = evaluate_scan_power(s27_design, vectors, policy,
                                     include_capture=False)
        assert report.total_transitions == 0
        assert report.dynamic_uw_per_hz == 0.0

    def test_capture_cycles_reintroduce_some_activity(
            self, s27_design, make_vectors):
        vectors = make_vectors(s27_design, 6)
        policy = ShiftPolicy(
            name="block_all",
            pi_values={pi: 0 for pi in s27_design.circuit.inputs},
            mux_ties={q: 0 for q in s27_design.chain.q_lines})
        report = evaluate_scan_power(s27_design, vectors, policy,
                                     include_capture=True)
        assert report.total_transitions > 0


class TestRelativeBehaviour:
    def test_partial_blocking_reduces_dynamic(self, s27_design,
                                              make_vectors):
        vectors = make_vectors(s27_design, 12)
        traditional = evaluate_scan_power(s27_design, vectors)
        blocked = evaluate_scan_power(
            s27_design, vectors,
            ShiftPolicy(name="blocked",
                        pi_values={pi: 0
                                   for pi in s27_design.circuit.inputs},
                        mux_ties={q: 0
                                  for q in s27_design.chain.q_lines}),
            include_capture=False)
        trad_no_capture = evaluate_scan_power(s27_design, vectors,
                                              include_capture=False)
        assert blocked.dynamic_uw_per_hz < trad_no_capture.dynamic_uw_per_hz

    def test_static_power_positive(self, s27_design, make_vectors):
        vectors = make_vectors(s27_design, 4)
        report = evaluate_scan_power(s27_design, vectors)
        assert report.static_uw > 0
        assert report.mean_leakage_na > 0

    def test_deterministic(self, s27_design, make_vectors):
        vectors = make_vectors(s27_design, 4)
        a = evaluate_scan_power(s27_design, vectors)
        b = evaluate_scan_power(s27_design, vectors)
        assert a == b


class TestImprovementMetric:
    def _report(self, dynamic, static):
        return ScanPowerReport("c", "m", 1, 1, dynamic, static, 0, 0.0)

    def test_positive_improvement(self):
        base = self._report(2.0, 10.0)
        ours = self._report(1.0, 8.0)
        dyn, stat = ours.improvement_vs(base)
        assert dyn == pytest.approx(50.0)
        assert stat == pytest.approx(20.0)

    def test_negative_improvement(self):
        base = self._report(1.0, 10.0)
        ours = self._report(1.1, 10.0)
        dyn, _stat = ours.improvement_vs(base)
        assert dyn == pytest.approx(-10.0)

    def test_zero_baseline_guard(self):
        base = self._report(0.0, 0.0)
        ours = self._report(1.0, 1.0)
        assert ours.improvement_vs(base) == (0.0, 0.0)


class TestPerCycleProfile:
    def test_profile_length_and_total(self, s27_design, make_vectors,
                                      library):
        vectors = make_vectors(s27_design, 3)
        profile = per_cycle_energy_fj(s27_design, vectors, library=library)
        report = evaluate_scan_power(s27_design, vectors, library=library)
        assert len(profile) == report.n_cycles - 1
        total_uw_per_hz = profile.sum() / report.n_cycles * 1e-9
        assert total_uw_per_hz == pytest.approx(report.dynamic_uw_per_hz)

    def test_blocked_profile_flat_between_captures(self, s27_design,
                                                   make_vectors):
        vectors = make_vectors(s27_design, 3)
        policy = ShiftPolicy(
            name="block_all",
            pi_values={pi: 0 for pi in s27_design.circuit.inputs},
            mux_ties={q: 0 for q in s27_design.chain.q_lines})
        profile = per_cycle_energy_fj(s27_design, vectors, policy)
        chain_length = s27_design.chain.length
        # boundaries inside a shift segment (not touching capture) are 0
        for start in range(0, len(profile), chain_length + 1):
            for offset in range(chain_length - 1):
                index = start + offset
                if index < len(profile):
                    assert profile[index] == 0.0


class TestEpisodeBatchPath:
    """The batched engine must match the serial oracle exactly (the
    property suite covers random circuits, this pins the real s27
    design and the report object)."""

    def test_report_identical_to_serial(self, s27_design, make_vectors):
        vectors = make_vectors(s27_design, 8)
        policy = ShiftPolicy(
            name="proposed",
            pi_values={pi: 0 for pi in s27_design.circuit.inputs},
            mux_ties={s27_design.chain.q_lines[0]: 1})
        serial = serial_scan_power(s27_design, vectors, policy)
        assert evaluate_scan_power(s27_design, vectors, policy) == serial

    def test_profile_identical_to_serial(self, s27_design, make_vectors):
        import numpy as np
        vectors = make_vectors(s27_design, 4)
        serial = serial_energy_profile(s27_design, vectors)
        batched = per_cycle_energy_fj(s27_design, vectors)
        assert np.array_equal(serial, batched)

    def test_compiles_exactly_one_plan(self, s27_design, make_vectors,
                                       monkeypatch):
        """One plan per call, whatever the retired
        ``$REPRO_EPISODE_BATCH`` says."""
        import repro.power.scanpower as scanpower
        from repro.simulation.episode import compile_episode_plan

        calls = []

        def counting_compile(*args, **kwargs):
            calls.append(1)
            return compile_episode_plan(*args, **kwargs)

        monkeypatch.setattr(scanpower, "compile_episode_plan",
                            counting_compile)
        monkeypatch.setenv("REPRO_EPISODE_BATCH", "0")
        evaluate_scan_power(s27_design, make_vectors(s27_design, 3))
        assert calls == [1]
