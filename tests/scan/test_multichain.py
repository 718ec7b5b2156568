"""Tests for multiple parallel scan chains."""

import pytest
from power.episode_reference import (
    evaluate_multichain_power as serial_multichain_power,
)

from repro.errors import ScanError
from repro.power.scanpower import ShiftPolicy, evaluate_scan_power
from repro.scan.chain import ScanCell, ScanChain
from repro.scan.multichain import (
    MultiChainDesign,
    evaluate_multichain_power,
    total_test_cycles,
)
from repro.scan.testview import ScanDesign, TestVector


@pytest.fixture
def toy_multi(toy_mapped):
    return MultiChainDesign.partition(toy_mapped, 2)


def _vectors(design_q_lines, circuit, n, seed=0):
    from repro.utils.rng import make_rng
    rng = make_rng(seed)
    out = []
    for _ in range(n):
        pis = {pi: int(rng.integers(2)) for pi in circuit.inputs}
        state = tuple(int(rng.integers(2)) for _ in design_q_lines)
        out.append(TestVector(pi_values=pis, scan_state=state))
    return out


class TestConstruction:
    def test_partition_balances(self, toy_mapped):
        design = MultiChainDesign.partition(toy_mapped, 2)
        lengths = [c.length for c in design.chains]
        assert sum(lengths) == 6
        assert max(lengths) - min(lengths) <= 1

    def test_partition_bad_counts(self, toy_mapped):
        with pytest.raises(ScanError):
            MultiChainDesign.partition(toy_mapped, 0)
        with pytest.raises(ScanError):
            MultiChainDesign.partition(toy_mapped, 7)

    def test_coverage_enforced(self, toy_mapped):
        cells = [ScanCell("q0", "d0"), ScanCell("q1", "d1")]
        with pytest.raises(ScanError, match="cover exactly"):
            MultiChainDesign(toy_mapped, [ScanChain(cells)])

    def test_overlap_rejected(self, toy_mapped):
        full = [ScanCell(f"q{i}", f"d{i}") for i in range(6)]
        with pytest.raises(ScanError, match="multiple chains"):
            MultiChainDesign(toy_mapped, [ScanChain(full),
                                          ScanChain(full[:1])])

    def test_global_order(self, toy_multi):
        q = toy_multi.global_q_lines
        assert len(q) == 6
        assert q[:toy_multi.chains[0].length] == \
            toy_multi.chains[0].q_lines

    def test_split_state(self, toy_multi):
        state = tuple(range(6))  # not bits, but split is structural
        slices = toy_multi.split_state(state)
        assert [len(s) for s in slices] == \
            [c.length for c in toy_multi.chains]
        assert sum(slices, ()) == state


class TestCaptureConsistency:
    def test_capture_matches_single_chain(self, toy_mapped, toy_multi):
        vectors = _vectors(toy_multi.global_q_lines, toy_mapped, 4)
        single = ScanDesign(
            toy_mapped,
            ScanChain([c for ch in toy_multi.chains for c in ch.cells]))
        for vector in vectors:
            multi_cap, multi_po = toy_multi.capture(vector)
            single_cap, single_po = single.capture(vector)
            assert multi_cap == single_cap
            assert multi_po == single_po


class TestPowerEvaluation:
    def test_one_chain_equals_single_chain_evaluator(self, toy_mapped):
        multi = MultiChainDesign.partition(toy_mapped, 1)
        single = multi.as_single_chain_design()
        vectors = _vectors(multi.global_q_lines, toy_mapped, 5, seed=2)
        a = evaluate_multichain_power(multi, vectors)
        b = evaluate_scan_power(single, vectors)
        assert a.n_cycles == b.n_cycles
        assert a.total_transitions == b.total_transitions
        assert a.dynamic_uw_per_hz == pytest.approx(b.dynamic_uw_per_hz)
        assert a.static_uw == pytest.approx(b.static_uw)

    def test_more_chains_fewer_cycles(self, toy_mapped):
        vectors = _vectors(range(6), toy_mapped, 5, seed=3)
        one = evaluate_multichain_power(
            MultiChainDesign.partition(toy_mapped, 1), vectors)
        three = evaluate_multichain_power(
            MultiChainDesign.partition(toy_mapped, 3), vectors)
        assert three.n_cycles < one.n_cycles
        assert three.n_cycles == 5 * (2 + 1)  # ceil(6/3)=2 shifts + cap

    def test_policy_applies(self, toy_mapped):
        design = MultiChainDesign.partition(toy_mapped, 2)
        vectors = _vectors(design.global_q_lines, toy_mapped, 5, seed=4)
        policy = ShiftPolicy(
            name="blocked",
            pi_values={pi: 0 for pi in toy_mapped.inputs},
            mux_ties={q: 0 for q in design.global_q_lines})
        report = evaluate_multichain_power(design, vectors, policy,
                                           include_capture=False)
        assert report.total_transitions == 0

    def test_report_names_chains(self, toy_multi, toy_mapped):
        vectors = _vectors(toy_multi.global_q_lines, toy_mapped, 2)
        report = evaluate_multichain_power(toy_multi, vectors)
        assert "2chains" in report.policy_name

    def test_empty_vectors_rejected(self, toy_multi):
        with pytest.raises(ScanError):
            evaluate_multichain_power(toy_multi, [])

    def test_unknown_mux_rejected(self, toy_multi, toy_mapped):
        vectors = _vectors(toy_multi.global_q_lines, toy_mapped, 1)
        with pytest.raises(ScanError):
            evaluate_multichain_power(
                toy_multi, vectors,
                ShiftPolicy(mux_ties={"ghost": 1}))


class TestTestTime:
    def test_cycle_accounting(self, toy_mapped):
        one = MultiChainDesign.partition(toy_mapped, 1)
        two = MultiChainDesign.partition(toy_mapped, 2)
        assert total_test_cycles(one, 10) == 10 * 7
        assert total_test_cycles(two, 10) == 10 * 4
        assert total_test_cycles(two, 10, include_capture=False) == 30


class TestEpisodeBatchRouting:
    """Multichain evaluation rides ``simulate_episode_batch``; its
    report must equal the plain cycle-simulation replay's."""

    def test_serial_escape_hatch_matches(self, toy_mapped, toy_multi):
        """The plain cycle-simulation replay (the old serial escape
        hatch, now the test oracle) gives the same report."""
        vectors = _vectors(toy_multi.global_q_lines, toy_mapped, 3,
                           seed=4)
        batched = evaluate_multichain_power(toy_multi, vectors)
        serial = serial_multichain_power(toy_multi, vectors)
        assert batched == serial
