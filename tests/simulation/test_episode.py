"""Tests for the episode-planning layer (batched whole-test-set replay)."""

import pytest
from power.episode_reference import (
    episode_waveforms as serial_waveforms,
    evaluate_scan_power as serial_scan_power,
)

from repro.errors import ScanError
from repro.power.scanpower import ShiftPolicy, evaluate_scan_power
from repro.scan.testview import TestVector
from repro.simulation.episode import (
    EpisodeBatchResult,
    compile_episode_plan,
    episode_batching_enabled,
    simulate_episode_batch,
)


class TestEpisodeBatchToggle:
    """The batched engine is the only path; the resolver that used to
    pick it survives as a constant."""

    def test_default_is_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_EPISODE_BATCH", "0")
        assert episode_batching_enabled(None) is True

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("on", True), ("TRUE", True), ("yes", True),
        ("0", False), ("off", False), ("False", False), ("no", False),
    ])
    def test_env_values(self, monkeypatch, s27_design, make_vectors,
                        value, expected):
        """No spelling of the retired ``$REPRO_EPISODE_BATCH`` changes
        the report: it equals that of the path the value used to select
        (``expected``: batched if true, the serial oracle if false)."""
        vectors = make_vectors(s27_design, 3)
        monkeypatch.setenv("REPRO_EPISODE_BATCH", value)
        report = evaluate_scan_power(s27_design, vectors)
        monkeypatch.delenv("REPRO_EPISODE_BATCH")
        selected = evaluate_scan_power if expected else serial_scan_power
        assert report == selected(s27_design, vectors)


class TestPlanGeometry:
    def test_offsets_and_lengths_with_capture(self, s27_design,
                                              make_vectors):
        vectors = make_vectors(s27_design, 4)
        plan = compile_episode_plan(s27_design, vectors)
        per_episode = s27_design.chain.length + 1
        assert plan.n_episodes == 4
        assert plan.n_cycles == 4 * per_episode
        assert plan.lengths == (per_episode,) * 4
        assert plan.offsets == tuple(range(0, plan.n_cycles, per_episode))
        assert plan.episode_bounds()[-1] == (3 * per_episode,
                                             4 * per_episode)

    def test_offsets_without_capture(self, s27_design, make_vectors):
        vectors = make_vectors(s27_design, 3)
        plan = compile_episode_plan(s27_design, vectors,
                                    include_capture=False)
        assert plan.lengths == (s27_design.chain.length,) * 3
        assert plan.n_cycles == 3 * s27_design.chain.length

    def test_covers_all_input_lines(self, s27_design, make_vectors):
        plan = compile_episode_plan(s27_design, make_vectors(s27_design, 2))
        expected = set(s27_design.circuit.inputs) | \
            set(s27_design.chain.q_lines)
        assert set(plan.waveforms) == expected


class TestPlanMatchesSerialBuilder:
    """The compiled words must equal the serial oracle bit for bit."""

    @pytest.mark.parametrize("include_capture", [True, False])
    @pytest.mark.parametrize("n_vectors", [1, 2, 7])
    def test_traditional_policy(self, s27_design, make_vectors,
                                include_capture, n_vectors):
        vectors = make_vectors(s27_design, n_vectors)
        serial, n_serial = serial_waveforms(
            s27_design, vectors, ShiftPolicy(), include_capture, None)
        plan = compile_episode_plan(s27_design, vectors,
                                    include_capture=include_capture)
        assert plan.n_cycles == n_serial
        assert plan.waveforms == serial

    def test_policy_constants_and_ties(self, s27_design, make_vectors):
        vectors = make_vectors(s27_design, 5, seed=3)
        policy = ShiftPolicy(
            name="proposed",
            pi_values={pi: 1 for pi in
                       list(s27_design.circuit.inputs)[:2]},
            mux_ties={s27_design.chain.q_lines[0]: 0,
                      s27_design.chain.q_lines[-1]: 1})
        serial, _ = serial_waveforms(s27_design, vectors, policy,
                                     True, None)
        plan = compile_episode_plan(
            s27_design, vectors, pi_values=policy.pi_values,
            mux_ties=policy.mux_ties)
        assert plan.waveforms == serial

    def test_initial_state(self, s27_design, make_vectors):
        vectors = make_vectors(s27_design, 3, seed=9)
        initial = (1,) * s27_design.chain.length
        serial, _ = serial_waveforms(s27_design, vectors, ShiftPolicy(),
                                     True, initial)
        plan = compile_episode_plan(s27_design, vectors,
                                    initial_state=initial)
        assert plan.waveforms == serial

    def test_unmapped_circuit(self, toy, make_vectors):
        from repro.scan.testview import ScanDesign
        design = ScanDesign.full_scan(toy)
        vectors = make_vectors(design, 4, seed=5)
        serial, _ = serial_waveforms(design, vectors, ShiftPolicy(),
                                     True, None)
        plan = compile_episode_plan(design, vectors)
        assert plan.waveforms == serial


class TestPlanValidation:
    def test_empty_test_set(self, s27_design):
        with pytest.raises(ScanError, match="empty test set"):
            compile_episode_plan(s27_design, [])

    def test_unknown_mux_tie(self, s27_design, make_vectors):
        with pytest.raises(ScanError, match="unknown cells"):
            compile_episode_plan(s27_design, make_vectors(s27_design, 1),
                                 mux_ties={"nope": 0})

    def test_bad_tie_value(self, s27_design, make_vectors):
        with pytest.raises(ScanError, match="must be 0/1"):
            compile_episode_plan(
                s27_design, make_vectors(s27_design, 1),
                mux_ties={s27_design.chain.q_lines[0]: 2})

    def test_initial_state_length(self, s27_design, make_vectors):
        with pytest.raises(ScanError, match="initial state length"):
            compile_episode_plan(s27_design, make_vectors(s27_design, 1),
                                 initial_state=(0,))

    def test_vector_state_length(self, s27_design):
        bad = TestVector(
            pi_values={pi: 0 for pi in s27_design.circuit.inputs},
            scan_state=(0,))
        with pytest.raises(ScanError, match="scan state length"):
            compile_episode_plan(s27_design, [bad])


class TestSimulateEpisodeBatch:
    def test_matches_cycle_sim(self, s27_design, make_vectors, library):
        from repro.simulation.cyclesim import simulate_cycles
        vectors = make_vectors(s27_design, 6)
        plan = compile_episode_plan(s27_design, vectors)
        batch = simulate_episode_batch(plan, library)
        reference = simulate_cycles(s27_design.circuit, plan.waveforms,
                                    plan.n_cycles, library)
        assert batch.transitions == reference.transitions
        assert batch.leakage_sum_na == reference.leakage_sum_na
        assert batch.mean_leakage_na == reference.mean_leakage_na
        assert batch.total_transitions == reference.total_transitions

    def test_keep_waveforms(self, s27_design, make_vectors):
        plan = compile_episode_plan(s27_design, make_vectors(s27_design, 2))
        batch = simulate_episode_batch(
            plan, keep_waveforms=True)
        assert batch.waveforms is not None
        for line, word in plan.waveforms.items():
            assert batch.waveforms[line] == word

    def test_skip_leakage(self, s27_design, make_vectors):
        plan = compile_episode_plan(s27_design, make_vectors(s27_design, 2))
        batch = simulate_episode_batch(
            plan, collect_leakage=False)
        assert batch.leakage_sum_na == {}
        assert batch.mean_leakage_na == 0.0

    def test_empty_result_mean(self):
        result = EpisodeBatchResult(n_cycles=0, transitions={},
                                    leakage_sum_na={}, offsets=(),
                                    lengths=())
        assert result.mean_leakage_na == 0.0
        assert result.total_transitions == 0


class TestCompileWorkingSet:
    """Shift columns are slices of the vector and response matrices, so
    compiling a long chain allocates O(n_vec x L) beyond the plan."""

    def test_long_chain_compile_is_linear(self):
        import tracemalloc

        from repro.benchgen import generate_scaled
        from repro.scan.testview import ScanDesign
        from repro.simulation.schedule import cached_row_table
        from repro.utils.rng import make_rng

        length, n_vec = 3000, 4
        circuit = generate_scaled(2 * length, seed=1, n_dffs=length)
        design = ScanDesign.full_scan(circuit)
        gen = make_rng(1)
        vectors = [
            TestVector(
                pi_values={pi: int(gen.integers(2))
                           for pi in circuit.inputs},
                scan_state=tuple(int(bit) for bit in
                                 gen.integers(2, size=length)))
            for _ in range(n_vec)]
        cached_row_table(circuit)  # the capture pass's memoized table
        tracemalloc.start()
        try:
            plan = compile_episode_plan(design, vectors)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.n_cycles == n_vec * (length + 1)
        # ``current`` is the plan itself (O(n_vec x L^2) bits, the
        # output); the transient rest must stay linear in n_vec x L.
        # (L, L) index matrices would cost 16 L^2 bytes = 144 MB here.
        assert peak - current < 64 * n_vec * length + (1 << 20)
