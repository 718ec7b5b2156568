"""Working set of the resident scan replay on the default engine.

The big-int engine prices every row of an episode replay as soon as its
word settles and frees each word after its last reader, so a
whole-test-set replay holds the live cut of the topological order, not
every line's waveform.  The full state — one ``ceil(cycles / 8)``-byte
waveform per line — is the yardstick: the traced peak of one
``evaluate_scan_power`` on mapped s5378 must stay well below it.
"""

import tracemalloc

from repro.benchgen.loader import load_circuit
from repro.power.scanpower import ShiftPolicy, evaluate_scan_power
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.schedule import cached_row_table
from repro.techmap.mapper import technology_map
from repro.utils.rng import make_rng

#: Largest allowed traced peak, as a share of the full state's bytes.
MAX_FULL_STATE_SHARE = 0.40


def replay_peak_share(circuit_name: str, n_vectors: int,
                      seed: int) -> tuple[int, int]:
    """``(traced peak, full-state bytes)`` of one warmed replay."""
    circuit = technology_map(load_circuit(circuit_name, seed=1))
    design = ScanDesign.full_scan(circuit)
    gen = make_rng(seed)
    vectors = [
        TestVector(
            pi_values={pi: int(gen.integers(2)) for pi in circuit.inputs},
            scan_state=tuple(int(gen.integers(2))
                             for _ in range(design.chain.length)))
        for _ in range(n_vectors)]
    policy = ShiftPolicy()
    report = evaluate_scan_power(design, vectors, policy)
    tracemalloc.start()
    try:
        again = evaluate_scan_power(design, vectors, policy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again == report
    full_state = len(cached_row_table(circuit).lines) * \
        ((report.n_cycles + 7) // 8)
    return peak, full_state


def test_s5378_replay_holds_the_live_cut():
    peak, full_state = replay_peak_share("s5378", 64, seed=7)
    assert peak <= MAX_FULL_STATE_SHARE * full_state, (
        f"replay traced peak {peak} B is "
        f"{peak / full_state:.0%} of the full state ({full_state} B)")
