"""Tests for the end-to-end proposed flow."""

import pytest

from repro.core.config import FlowConfig
from repro.core.flow import METHODS, ProposedFlow
from repro.netlist import builders
from repro.netlist.gates import X


@pytest.fixture(scope="module")
def s27_result():
    """One shared flow run on s27 (module-scoped: the flow is the
    expensive object under test)."""
    return ProposedFlow(FlowConfig(seed=1)).run(builders.s27())


class TestFlowArtifacts:
    def test_all_methods_reported(self, s27_result):
        assert set(s27_result.reports) == set(METHODS)
        assert set(s27_result.policies) == set(METHODS)

    def test_circuit_is_mapped(self, s27_result):
        from repro.techmap.mapper import is_mapped
        assert is_mapped(s27_result.circuit)

    def test_control_values_cover_all_controlled(self, s27_result):
        controlled = set(s27_result.circuit.inputs) | \
            set(s27_result.addmux.muxable)
        assert set(s27_result.control_values) == controlled

    def test_mux_plan_matches_addmux(self, s27_result):
        assert set(s27_result.mux_plan.tie_values) == \
            set(s27_result.addmux.muxable)

    def test_same_test_set_for_all_methods(self, s27_result):
        counts = {r.n_vectors for r in s27_result.reports.values()}
        assert len(counts) == 1
        cycles = {r.n_cycles for r in s27_result.reports.values()}
        assert len(cycles) == 1

    def test_proposed_policy_consistency(self, s27_result):
        policy = s27_result.policies["proposed"]
        assert policy.mux_ties == dict(s27_result.mux_plan.tie_values)
        for pi in s27_result.circuit.inputs:
            assert policy.pi_values[pi] == s27_result.control_values[pi]


class TestFlowQuality:
    def test_proposed_beats_traditional_on_s27(self, s27_result):
        imp = s27_result.improvements()
        dyn, stat = imp["vs_traditional"]
        assert dyn > 0
        assert stat > 0

    def test_proposed_beats_or_ties_input_control_static(self,
                                                         s27_result):
        _dyn, stat = s27_result.improvements()["vs_input_control"]
        assert stat > -1.0  # static should essentially never get worse

    def test_summary_text(self, s27_result):
        text = s27_result.summary()
        assert "s27" in text
        assert "improvement vs traditional" in text


class TestFlowOptions:
    def test_reorder_disabled(self):
        config = FlowConfig(seed=1, reorder_inputs=False)
        result = ProposedFlow(config).run(builders.s27())
        assert result.reorder is None

    def test_directive_disabled(self):
        config = FlowConfig(seed=1, use_observability_directive=False)
        result = ProposedFlow(config).run(builders.s27())
        assert set(result.reports) == set(METHODS)

    def test_deterministic_across_runs(self):
        a = ProposedFlow(FlowConfig(seed=2)).run(builders.s27())
        b = ProposedFlow(FlowConfig(seed=2)).run(builders.s27())
        assert a.control_values == b.control_values
        assert a.reports["proposed"] == b.reports["proposed"]

    def test_seed_sensitivity(self):
        a = ProposedFlow(FlowConfig(seed=2)).run(builders.s27())
        b = ProposedFlow(FlowConfig(seed=3)).run(builders.s27())
        # Different ATPG vectors at minimum.
        assert a.reports["traditional"] != b.reports["traditional"]


class TestShiftModeInvariant:
    def test_blocked_lines_do_not_toggle_during_shift(self, s27_result):
        """Lines the pattern search fixed to binary values must show
        zero transitions during pure shifting (the soundness contract
        between find_pattern and the power evaluator)."""
        from repro.power.scanpower import evaluate_scan_power
        design = s27_result.design
        report = evaluate_scan_power(
            design, s27_result.test_set.vectors,
            s27_result.policies["proposed"], include_capture=False)
        # Rebuild per-line transition counts with capture excluded: any
        # line with a binary settled value must be silent.
        from repro.power.scanpower import episode_waveforms
        from repro.simulation.cyclesim import simulate_cycles
        waveforms, n = episode_waveforms(
            design, s27_result.test_set.vectors,
            s27_result.policies["proposed"], False, None)
        sim = simulate_cycles(design.circuit, waveforms, n,
                              collect_leakage=False)
        for line, value in s27_result.pattern.values.items():
            if value != X:
                assert sim.transitions.get(line, 0) == 0, line
