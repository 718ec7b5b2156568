"""P1: component performance benchmarks.

Micro-benchmarks of the substrates the experiments lean on.  These run
with pytest-benchmark's normal statistics (multiple rounds), unlike the
one-shot experiment benches.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.atpg.collapse import collapse_faults
from repro.atpg.faults import all_faults
from repro.atpg.faultsim import fault_simulate
from repro.atpg.podem import PodemEngine, generate_test
from repro.atpg.sat import REDUNDANT, TESTABLE, RedundancyProver
from repro.benchgen.loader import load_circuit
from repro.cells.library import default_library
from repro.leakage.estimator import per_sample_leakage
from repro.leakage.observability import monte_carlo_observability
from repro.simulation.bitsim import random_input_words, simulate_packed
from repro.simulation.cyclesim import simulate_cycles
from repro.techmap.mapper import technology_map
from repro.timing.delay import LibraryDelay
from repro.timing.sta import run_sta
from repro.utils.rng import make_rng
from repro.utils.timing import best_of


@pytest.fixture(scope="module")
def s1423_mapped():
    return technology_map(load_circuit("s1423", seed=1))


@pytest.fixture(scope="module")
def s1423_words(s1423_mapped):
    return random_input_words(s1423_mapped, 1024, make_rng(0))


@pytest.fixture(scope="module")
def s5378_mapped():
    return technology_map(load_circuit("s5378", seed=1))


@pytest.fixture(scope="module")
def s5378_words_4096(s5378_mapped):
    return random_input_words(s5378_mapped, 4096, make_rng(2))


def test_perf_packed_simulation_1024(benchmark, s1423_mapped,
                                     s1423_words):
    """1024-pattern packed simulation of a ~900-gate circuit."""
    words = benchmark(simulate_packed, s1423_mapped, s1423_words, 1024)
    assert len(words) > 900
    benchmark.extra_info["gates"] = len(
        s1423_mapped.combinational_gates())
    benchmark.extra_info["patterns"] = 1024


def test_perf_cycle_simulation_with_leakage(benchmark, s1423_mapped,
                                            s1423_words):
    """Cycle simulation incl. per-gate leakage accumulation."""
    result = benchmark(simulate_cycles, s1423_mapped, s1423_words, 1024)
    assert result.mean_leakage_na > 0


def test_perf_per_sample_leakage(benchmark, s1423_mapped, s1423_words):
    samples = benchmark(per_sample_leakage, s1423_mapped, s1423_words,
                        1024)
    assert samples.shape == (1024,)


def test_perf_sta(benchmark, s1423_mapped):
    def full_sta():
        model = LibraryDelay(s1423_mapped)
        return run_sta(s1423_mapped, model)

    sta = benchmark(full_sta)
    assert sta.critical_delay > 0


def test_perf_observability(benchmark, s1423_mapped):
    obs = benchmark.pedantic(
        monte_carlo_observability,
        args=(s1423_mapped, 256),
        kwargs={"seed": 0},
        rounds=1, iterations=1, warmup_rounds=0)
    assert len(obs) == len(list(s1423_mapped.lines()))


#: Enforced row-space vs frozen name-keyed bigint cycle-sim floor (no
#: override: both sides are pure Python on one core).
CYCLE_REPLAY_SPEEDUP_FLOOR = 1.5


def test_perf_bigint_cycle_sim_speedup(benchmark, s5378_mapped,
                                       s5378_words_4096):
    """Product bigint cycle sim vs the frozen name-keyed engine.

    Workload: s5378 x 4096 cycles, transitions + leakage.  The product
    engine
    evaluates the circuit's row table with small-int opcodes and prices
    leakage from exact minterm counts (one popcount per row, shared by
    its readers);
    the oracle fills a name-keyed dict with one ``eval_gate_packed``
    call per gate and runs one ``pattern_count`` per leakage-table
    pattern.  Transitions and leakage floats are asserted bit-identical
    and the ratio is recorded as ``cycle_replay_speedup`` and enforced
    >= 1.5x.
    """
    from tests.simulation import bigint_reference as reference

    library = default_library()
    n = 4096

    def run(oracle):
        if oracle:
            return reference.simulate_cycles(s5378_mapped,
                                             s5378_words_4096, n, library)
        result = simulate_cycles(s5378_mapped, s5378_words_4096, n,
                                 library, backend="bigint")
        return result.transitions, result.leakage_sum_na

    product = run(False)  # also warms the row table
    frozen = run(True)
    assert product[0] == frozen[0]
    assert list(product[1].items()) == list(frozen[1].items())

    # Interleaved rounds: a burst of host noise slows both sides alike.
    oracle_s = replay_s = float("inf")
    for _ in range(5):
        oracle_s = min(oracle_s, best_of(1, lambda: run(True)))
        replay_s = min(replay_s, best_of(1, lambda: run(False)))
    result = benchmark.pedantic(run, args=(False,),
                                rounds=1, iterations=1, warmup_rounds=0)

    speedup = oracle_s / replay_s
    benchmark.extra_info["gates"] = len(
        s5378_mapped.combinational_gates())
    benchmark.extra_info["patterns"] = n
    benchmark.extra_info["oracle_ms"] = round(oracle_s * 1e3, 3)
    benchmark.extra_info["bigint_ms"] = round(replay_s * 1e3, 3)
    benchmark.extra_info["cycle_replay_speedup"] = round(speedup, 2)
    assert result == frozen
    assert speedup >= CYCLE_REPLAY_SPEEDUP_FLOOR, (
        f"bigint cycle-sim speedup {speedup:.2f}x below the "
        f"{CYCLE_REPLAY_SPEEDUP_FLOOR}x floor ({oracle_s * 1e3:.2f} ms "
        f"oracle vs {replay_s * 1e3:.2f} ms row-space engine)")


#: Enforced batched-vs-serial episode replay floor.
EPISODE_SPEEDUP_FLOOR = float(
    os.environ.get("REPRO_BENCH_EPISODE_FLOOR", "2.0"))


def test_perf_episode_batch_speedup(benchmark, s1423_mapped):
    """Whole-test-set episode replay: batched engine vs per-episode loop.

    The Table-I measurement's shape: one scan episode per vector (74
    shift cycles + capture on s1423), evaluated over a full test set.
    The serial oracle (``tests/power/episode_reference.py``) builds
    waveforms with per-vector/cycle/line Python loops plus one scalar
    capture simulation per vector; the batched engine compiles one
    :class:`EpisodePlan` (single packed capture pass + numpy shift
    tensor) and evaluates the whole replay in one fused big-int pass
    over the row table.  Reports are asserted equal (bit-identical by
    contract) and the speedup is recorded as ``episode_batch_speedup``
    and enforced >= 2x (the regression gate diffs it across runs).
    """
    from repro.power.scanpower import evaluate_scan_power
    from repro.scan.testview import ScanDesign, TestVector
    from tests.power.episode_reference import (
        evaluate_scan_power as serial_scan_power,
    )

    design = ScanDesign.full_scan(s1423_mapped)
    gen = make_rng(7)
    vectors = [
        TestVector(
            pi_values={pi: int(gen.integers(2))
                       for pi in design.circuit.inputs},
            scan_state=tuple(int(gen.integers(2))
                             for _ in range(design.chain.length)))
        for _ in range(32)
    ]

    def run(batch):
        evaluate = evaluate_scan_power if batch else serial_scan_power
        return evaluate(design, vectors)

    batched = run(True)  # warms the row-table cache
    serial = run(False)
    assert batched == serial

    serial_s = best_of(3, lambda: run(False))
    batch_s = best_of(3, lambda: run(True))
    result = benchmark.pedantic(run, args=(True,),
                                rounds=1, iterations=1, warmup_rounds=0)

    speedup = serial_s / batch_s
    benchmark.extra_info["n_vectors"] = len(vectors)
    benchmark.extra_info["n_cycles"] = batched.n_cycles
    benchmark.extra_info["serial_ms"] = round(serial_s * 1e3, 3)
    benchmark.extra_info["batch_ms"] = round(batch_s * 1e3, 3)
    benchmark.extra_info["episode_batch_speedup"] = round(speedup, 2)
    assert result == serial
    assert speedup >= EPISODE_SPEEDUP_FLOOR, (
        f"episode batch speedup {speedup:.2f}x below the "
        f"{EPISODE_SPEEDUP_FLOOR}x floor ({serial_s * 1e3:.2f} ms serial "
        f"vs {batch_s * 1e3:.2f} ms batched)")


#: Enforced floor on full-state bytes over the traced replay peak.  The
#: metric is a deterministic allocation count, not a timing, so it needs
#: no relaxation on noisy runners.
REPLAY_MEMORY_EFFICIENCY_FLOOR = 2.5


def test_perf_episode_replay_memory(benchmark):
    """Working set of the resident s5378 scan replay (64 vectors).

    The big-int engine prices each row as it settles and frees every
    word after its last reader, so the replay holds the live cut of the
    topological order instead of every line's whole-episode waveform.
    ``replay_memory_efficiency`` is the full state (lines x
    ``ceil(cycles / 8)`` bytes) over the ``tracemalloc`` peak of one
    warmed ``evaluate_scan_power``; it is enforced >= 2.5 and the
    regression gate diffs its trajectory.
    """
    from tests.power.test_replay_working_set import replay_peak_share

    peak, full_state = benchmark.pedantic(
        replay_peak_share, args=("s5378", 64), kwargs={"seed": 7},
        rounds=1, iterations=1, warmup_rounds=0)
    efficiency = full_state / peak
    benchmark.extra_info["full_state_mb"] = round(full_state / 1e6, 3)
    benchmark.extra_info["replay_peak_mb"] = round(peak / 1e6, 3)
    benchmark.extra_info["replay_memory_efficiency"] = round(
        efficiency, 2)
    assert efficiency >= REPLAY_MEMORY_EFFICIENCY_FLOOR, (
        f"replay peak {peak} B is only {efficiency:.2f}x below the full "
        f"state ({full_state} B); floor "
        f"{REPLAY_MEMORY_EFFICIENCY_FLOOR}x")


#: Enforced disabled-tracing efficiency floor: the instrumented episode
#: path with the recorder off must stay within ~2% of the same path
#: with the spans compiled out entirely.
TRACE_EFFICIENCY_FLOOR = float(
    os.environ.get("REPRO_BENCH_TRACE_EFFICIENCY_FLOOR", "0.98"))


def test_perf_tracing_disabled_overhead(benchmark, s1423_mapped,
                                        monkeypatch):
    """Disabled tracing on the episode-batch workload: near-zero cost.

    ``repro.obs`` instruments the hot paths unconditionally; the
    contract is that a span with the recorder off is two
    ``time.monotonic()`` calls and nothing else.  A direct A/B timing
    of the ~10 ms workload cannot resolve the microsecond-scale cost
    against shared-runner noise, so the overhead is computed from its
    factors: (spans entered per run, counted exactly) x (per-span
    disabled cost, microbenched tight) / (workload time).  The derived
    efficiency is enforced >= 0.98 — it trips if disabled spans ever
    grow real work *or* if instrumentation creeps into an inner loop
    and the span count explodes
    (``$REPRO_BENCH_TRACE_EFFICIENCY_FLOOR`` overrides; the regression
    gate diffs the ``tracing_off_efficiency`` trajectory).
    """
    import sys as _sys

    from repro.obs import trace as obs_trace
    from repro.power.scanpower import evaluate_scan_power
    from repro.scan.testview import ScanDesign, TestVector

    design = ScanDesign.full_scan(s1423_mapped)
    gen = make_rng(7)
    vectors = [
        TestVector(
            pi_values={pi: int(gen.integers(2))
                       for pi in design.circuit.inputs},
            scan_state=tuple(int(gen.integers(2))
                             for _ in range(design.chain.length)))
        for _ in range(32)
    ]

    def run():
        return evaluate_scan_power(design, vectors)

    assert not obs_trace.tracing_enabled()
    reference = run()  # warms the row-table cache
    workload_s = best_of(5, run)

    # Exact span count on this workload: swap every module-level
    # ``span`` reference (plus the one the ``traced`` wrappers resolve
    # inside repro.obs.trace) for a counting subclass.
    real_span = obs_trace.span
    entered = [0]

    class _CountingSpan(real_span):
        def __init__(self, name, **attrs):
            entered[0] += 1
            super().__init__(name, **attrs)

    for name, module in list(_sys.modules.items()):
        if name.startswith("repro") and \
                getattr(module, "span", None) is real_span:
            monkeypatch.setattr(module, "span", _CountingSpan)
    monkeypatch.setattr(obs_trace, "span", _CountingSpan)
    assert run() == reference  # spans never touch results
    monkeypatch.undo()
    spans_per_run = entered[0]
    assert spans_per_run > 0  # the path IS instrumented

    # Per-span disabled cost, microbenched in a tight loop with
    # representative attrs.
    def span_loop():
        for _ in range(1000):
            with real_span("bench.overhead", backend="bigint",
                           cycles=75):
                pass

    span_loop()  # warm
    per_span_s = best_of(5, span_loop) / 1000

    overhead = spans_per_run * per_span_s / workload_s
    efficiency = 1.0 - overhead
    result = benchmark.pedantic(run, rounds=1, iterations=1,
                                warmup_rounds=0)
    assert result == reference
    benchmark.extra_info["n_vectors"] = len(vectors)
    benchmark.extra_info["spans_per_run"] = spans_per_run
    benchmark.extra_info["span_cost_us"] = round(per_span_s * 1e6, 3)
    benchmark.extra_info["workload_ms"] = round(workload_s * 1e3, 3)
    benchmark.extra_info["tracing_off_efficiency"] = round(
        efficiency, 4)
    assert efficiency >= TRACE_EFFICIENCY_FLOOR, (
        f"disabled tracing costs {overhead * 100:.2f}% of the "
        f"episode-batch workload ({spans_per_run} spans x "
        f"{per_span_s * 1e6:.2f} us over {workload_s * 1e3:.2f} ms); "
        f"floor {TRACE_EFFICIENCY_FLOOR}")


#: Enforced one-plan-vs-per-batch fault replay floor.
FAULT_EPISODE_SPEEDUP_FLOOR = float(
    os.environ.get("REPRO_BENCH_FAULT_EPISODE_FLOOR", "3.0"))


def test_perf_fault_episode_speedup(benchmark, s1423_mapped):
    """Whole-test-set fault detection: one plan vs the per-batch loop.

    The Table-I / coverage-evaluation shape: the collapsed fault
    universe against a 1024-pattern test set.  The per-batch loop
    drives 16 independent 64-pattern ``fault_simulate_batch`` calls
    (each re-simulating the good machine and replaying every fault) and
    OR-merges the detection words; the planned path packs the whole
    fault x pattern matrix into one :class:`FaultEpisodePlan` and
    replays it once over one settled good state (a big-int event
    costs about the same at 1024 bits as at 64, so one wide replay
    beats sixteen narrow ones).  Merged detection words are asserted
    bit-identical, the speedup is recorded as ``fault_episode_speedup``
    and enforced >= 3x (``$REPRO_BENCH_FAULT_EPISODE_FLOOR`` overrides;
    the regression gate diffs the trajectory).
    """
    from repro.simulation.backends import get_backend
    from repro.simulation.fault_episode import compile_fault_episode_plan
    from repro.simulation.values import mask

    universe = collapse_faults(s1423_mapped, all_faults(s1423_mapped))
    n_total, chunk = 1024, 64
    words = random_input_words(s1423_mapped, n_total, make_rng(3))
    chunk_words = [
        {line: (word >> start) & mask(chunk)
         for line, word in words.items()}
        for start in range(0, n_total, chunk)
    ]
    engine = get_backend("bigint")

    def per_batch():
        merged: dict = {}
        for i, batch in enumerate(chunk_words):
            result = engine.fault_simulate_batch(
                s1423_mapped, universe, batch, chunk, drop=False)
            for fault, word in result.detected.items():
                merged[fault] = merged.get(fault, 0) | (word << i * chunk)
        return merged

    def one_plan():
        plan = compile_fault_episode_plan(s1423_mapped, universe, words,
                                          n_total)
        return engine.fault_simulate_plan(plan, drop=False)

    reference = one_plan()  # warms the row table + replay tables
    merged = per_batch()
    assert merged == dict(reference.detected)

    batch_s = best_of(3, per_batch)
    plan_s = best_of(3, one_plan)
    result = benchmark.pedantic(one_plan, rounds=1, iterations=1,
                                warmup_rounds=0)

    speedup = batch_s / plan_s
    benchmark.extra_info["n_faults"] = len(universe)
    benchmark.extra_info["patterns"] = n_total
    benchmark.extra_info["batches"] = len(chunk_words)
    benchmark.extra_info["per_batch_ms"] = round(batch_s * 1e3, 3)
    benchmark.extra_info["plan_ms"] = round(plan_s * 1e3, 3)
    benchmark.extra_info["fault_episode_speedup"] = round(speedup, 2)
    assert result.detected == reference.detected
    assert result.remaining == reference.remaining
    assert speedup >= FAULT_EPISODE_SPEEDUP_FLOOR, (
        f"fault episode speedup {speedup:.2f}x below the "
        f"{FAULT_EPISODE_SPEEDUP_FLOOR}x floor ({batch_s * 1e3:.2f} ms "
        f"per-batch vs {plan_s * 1e3:.2f} ms planned)")


def test_perf_fault_simulation(benchmark, s1423_mapped):
    universe = collapse_faults(s1423_mapped, all_faults(s1423_mapped))
    words = random_input_words(s1423_mapped, 64, make_rng(1))

    result = benchmark.pedantic(
        fault_simulate,
        args=(s1423_mapped, universe, words, 64),
        rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["n_faults"] = len(universe)
    benchmark.extra_info["detected_by_64_random"] = result.n_detected
    assert result.n_detected > 0


#: The six Table-I rows of the cold campaign benchmark.
TABLE1_COLD_CIRCUITS = ("s344", "s382", "s444", "s510", "s641", "s713")


def test_perf_podem_universe(benchmark):
    """PODEM over the collapsed universes of the six cold Table-I rows.

    PODEM is most of a Table-I flow's wall time; this times the engine
    alone: one :class:`PodemEngine` per circuit (netlist indexing and
    SCOAP included) and every collapsed fault at the default
    100-backtrack budget.  Records ``podem_ms``, ``faults_per_s`` and the
    total ``backtracks``, which only moves when the decision procedure
    does.  Then times the SAT redundancy prover over the faults PODEM
    aborted (one prover per circuit, as ``generate_tests`` builds it):
    ``sat_ms`` and the ``sat_redundant``/``sat_testable`` split of the
    ``aborted`` faults; the redundant ones must be the set pinned in
    ``tests/atpg/podem_pins.json``.  Then times the prover's structural
    fast path alone over the same aborts: ``screened`` of them settle
    without a miter (each in the pinned redundant set) in
    ``screen_ms``, and building the provers ran ``constant_proofs``
    good-machine constant checks committing ``constants`` constants in
    ``constant_ms``.  No floor: the figures are a trajectory, not a
    gate.
    """
    circuits = [technology_map(load_circuit(name, seed=1))
                for name in TABLE1_COLD_CIRCUITS]
    universes = [collapse_faults(c, all_faults(c)) for c in circuits]
    n_faults = sum(len(universe) for universe in universes)
    aborted: list[list] = [[] for _ in circuits]

    def run() -> int:
        backtracks = 0
        for k, (circuit, universe) in enumerate(zip(circuits, universes)):
            engine = PodemEngine(circuit)
            aborted[k] = []
            for fault in universe:
                result = generate_test(circuit, fault, engine=engine)
                backtracks += result.backtracks
                if result.status == "aborted":
                    aborted[k].append(fault)
        return backtracks

    backtracks = run()
    podem_s = best_of(2, run)
    assert benchmark.pedantic(run, rounds=1, iterations=1,
                              warmup_rounds=0) == backtracks

    def prove_aborts() -> list[list[str]]:
        statuses = []
        for circuit, faults in zip(circuits, aborted):
            prover = RedundancyProver(PodemEngine(circuit))
            statuses.append([prover.prove(fault).status for fault in faults])
        return statuses

    per_circuit = prove_aborts()
    sat_s = best_of(2, prove_aborts)
    statuses = [status for circuit in per_circuit for status in circuit]

    pinned = json.loads((Path(__file__).parents[1] / "tests" / "atpg"
                         / "podem_pins.json").read_text())["sat"]
    provers = [RedundancyProver(PodemEngine(c)) for c in circuits]

    def screen() -> list[list[bool]]:
        return [[prover.settles(fault) for fault in faults]
                for prover, faults in zip(provers, aborted)]

    settled = screen()
    screen_s = best_of(2, screen)
    for name, faults, verdicts, flags in zip(
            TABLE1_COLD_CIRCUITS, aborted, per_circuit, settled):
        redundant = sorted(f"{fault.line}/{fault.stuck_at}"
                           for fault, status in zip(faults, verdicts)
                           if status == REDUNDANT)
        assert hashlib.sha256("\n".join(redundant).encode()).hexdigest() \
            == pinned[name]["redundant_digest"]
        assert all(verdict == REDUNDANT
                   for verdict, flag in zip(verdicts, flags) if flag)

    benchmark.extra_info["circuits"] = len(circuits)
    benchmark.extra_info["n_faults"] = n_faults
    benchmark.extra_info["podem_ms"] = round(podem_s * 1e3, 3)
    benchmark.extra_info["faults_per_s"] = round(n_faults / podem_s, 1)
    benchmark.extra_info["backtracks"] = backtracks
    benchmark.extra_info["aborted"] = len(statuses)
    benchmark.extra_info["sat_ms"] = round(sat_s * 1e3, 3)
    benchmark.extra_info["sat_redundant"] = statuses.count(REDUNDANT)
    benchmark.extra_info["sat_testable"] = statuses.count(TESTABLE)
    benchmark.extra_info["screened"] = sum(map(sum, settled))
    benchmark.extra_info["screen_ms"] = round(screen_s * 1e3, 3)
    benchmark.extra_info["constant_proofs"] = sum(
        prover.constant_proofs for prover in provers)
    benchmark.extra_info["constants"] = sum(
        len(prover.constants) for prover in provers)
    benchmark.extra_info["constant_ms"] = round(
        sum(prover.constant_s for prover in provers) * 1e3, 3)


#: Enforced row-space vs frozen event-driven replay floor (no override:
#: both sides are pure Python on one core, so the ratio is stable).
REPLAY_SPEEDUP_FLOOR = 2.0


def test_perf_bigint_fault_replay_speedup(benchmark, s1423_mapped):
    """Product bigint fault replay vs the frozen event-driven replay.

    The ATPG compaction phase's shape (s1423 collapsed universe x 256
    patterns), replay only: both sides run over one shared bigint good
    machine.  The product replay works on
    integer rows of the circuit's row table (one mutable word list, a
    min-heap of sink rows, inline opcode evaluation); the oracle keeps
    a per-fault dict overlay, level buckets and one
    ``eval_gate_packed`` call per event.  Results are asserted
    bit-identical and the ratio is recorded as ``replay_speedup`` and
    enforced >= 2x (~3.5x on a 2-vCPU Xeon VM).
    """
    from repro.atpg.faultsim import scalar_replay
    from tests.atpg.faultsim_event_reference import (
        scalar_replay as event_replay,
    )

    universe = collapse_faults(s1423_mapped, all_faults(s1423_mapped))
    n = 256
    words = random_input_words(s1423_mapped, n, make_rng(1))
    good = simulate_packed(s1423_mapped, words, n, backend="bigint")

    def run(oracle):
        replay = event_replay if oracle else scalar_replay
        return replay(s1423_mapped, universe, good, n)

    product = run(False)  # also warms the replay tables
    frozen = run(True)
    assert product.detected == frozen.detected
    assert product.remaining == frozen.remaining

    # Interleaved rounds: a burst of host noise slows both sides alike.
    oracle_s = replay_s = float("inf")
    for _ in range(5):
        oracle_s = min(oracle_s, best_of(1, lambda: run(True)))
        replay_s = min(replay_s, best_of(1, lambda: run(False)))
    result = benchmark.pedantic(run, args=(False,),
                                rounds=1, iterations=1, warmup_rounds=0)

    speedup = oracle_s / replay_s
    benchmark.extra_info["n_faults"] = len(universe)
    benchmark.extra_info["patterns"] = n
    benchmark.extra_info["oracle_ms"] = round(oracle_s * 1e3, 3)
    benchmark.extra_info["replay_ms"] = round(replay_s * 1e3, 3)
    benchmark.extra_info["replay_speedup"] = round(speedup, 2)
    assert result == frozen
    assert speedup >= REPLAY_SPEEDUP_FLOOR, (
        f"bigint replay speedup {speedup:.2f}x below the "
        f"{REPLAY_SPEEDUP_FLOOR}x floor ({oracle_s * 1e3:.2f} ms event "
        f"oracle vs {replay_s * 1e3:.2f} ms row-space replay)")


#: Enforce the campaign parallel win only where 4 workers can actually
#: run in parallel; the measured speedup is recorded regardless.
CAMPAIGN_SPEEDUP_FLOOR = float(
    os.environ.get("REPRO_BENCH_CAMPAIGN_FLOOR", "2.0"))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_perf_campaign_table1_parallel(benchmark):
    """6-circuit Table-I campaign: serial vs ``--jobs 4`` wall clock.

    The paper's headline tables are embarrassingly parallel campaigns;
    this pins the orchestration win end to end (pool spawn, job
    pickling, artefact collection included).  Rows are asserted
    bit-identical between the serial and parallel runs; the >= 2x
    wall-clock floor is enforced only on machines with >= 4 usable
    CPUs (recorded as ``campaign_speedup`` everywhere).
    """
    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        circuits=("s344", "s382", "s444", "s510", "s641", "s713"),
        base={"observability_samples": 64, "ivc_trials": 8,
              "ivc_noise_samples": 4},
        name="bench-table1")

    serial = run_campaign(spec, jobs=1)
    parallel = benchmark.pedantic(run_campaign, args=(spec,),
                                  kwargs={"jobs": 4},
                                  rounds=1, iterations=1,
                                  warmup_rounds=0)
    assert parallel.rows() == serial.rows()

    speedup = serial.wall_s / parallel.wall_s
    benchmark.extra_info["n_jobs"] = len(spec.expand())
    benchmark.extra_info["usable_cpus"] = _usable_cpus()
    benchmark.extra_info["serial_s"] = round(serial.wall_s, 3)
    benchmark.extra_info["parallel_s"] = round(parallel.wall_s, 3)
    benchmark.extra_info["campaign_speedup"] = round(speedup, 2)
    if _usable_cpus() >= 4:
        assert speedup >= CAMPAIGN_SPEEDUP_FLOOR, (
            f"campaign --jobs 4 speedup {speedup:.2f}x below the "
            f"{CAMPAIGN_SPEEDUP_FLOOR}x floor "
            f"({serial.wall_s:.2f}s serial vs "
            f"{parallel.wall_s:.2f}s parallel)")


#: Enforced disabled-chaos efficiency floor: the fault-injection probes
#: threaded through the cache/pool/service hot paths must be free when
#: no policy is installed — within ~2% of the same workload's cost.
CHAOS_EFFICIENCY_FLOOR = float(
    os.environ.get("REPRO_BENCH_CHAOS_EFFICIENCY_FLOOR", "0.98"))


def test_perf_chaos_disabled_overhead(benchmark, tmp_path):
    """Disabled chaos probes on the cache hot path: near-zero cost.

    ``repro.chaos`` guards every probe with one module-global ``None``
    check, exactly like disabled tracing.  A direct A/B timing cannot
    resolve the nanosecond-scale check against filesystem noise, so
    the overhead is computed from its factors: (probes entered per
    workload, counted exactly) x (per-probe disabled cost, microbenched
    tight) / (workload time).  The derived efficiency is enforced
    >= 0.98 — it trips if a disabled probe ever grows real work (e.g.
    resolving a policy per call) or if probes creep into an inner loop
    (``$REPRO_BENCH_CHAOS_EFFICIENCY_FLOOR`` overrides; the regression
    gate auto-diffs the ``*_efficiency`` trajectory).
    """
    import repro.chaos as chaos
    from repro.campaign.cache import ResultCache

    assert not chaos.chaos_enabled()
    cache = ResultCache(tmp_path / "bench-cache")
    artefact = {"rows": list(range(64)), "summary": "bench"}
    keys = [cache.key("flow", f"c{i}", "cfg", "code")
            for i in range(64)]

    def workload():
        for key in keys:
            cache.put(key, artefact)
            cache.get(key)

    # Count the probes the workload actually enters.
    counts = {"n": 0}
    real_mangle, real_point = chaos.mangle, chaos.point

    def counting_mangle(site, data):
        counts["n"] += 1
        return real_mangle(site, data)

    def counting_point(site):
        counts["n"] += 1
        real_point(site)

    chaos.mangle, chaos.point = counting_mangle, counting_point
    try:
        workload()
    finally:
        chaos.mangle, chaos.point = real_mangle, real_point
    probes_per_run = counts["n"]
    assert probes_per_run >= len(keys) * 2  # write + read mangles

    workload_s = best_of(5, workload)

    payload = b"x" * 256

    def probe_loop():
        for _ in range(1000):
            chaos.mangle("cache.read", payload)
            chaos.point("cache.write")
            chaos.fires("service.reset")

    probe_loop()  # warm
    per_probe_s = best_of(5, probe_loop) / 3000

    overhead = probes_per_run * per_probe_s / workload_s
    efficiency = 1.0 - overhead
    result = benchmark.pedantic(workload, rounds=1, iterations=1,
                                warmup_rounds=0)
    assert result is None
    benchmark.extra_info["probes_per_run"] = probes_per_run
    benchmark.extra_info["probe_cost_us"] = round(per_probe_s * 1e6, 4)
    benchmark.extra_info["workload_ms"] = round(workload_s * 1e3, 3)
    benchmark.extra_info["chaos_off_efficiency"] = round(efficiency, 4)
    assert efficiency >= CHAOS_EFFICIENCY_FLOOR, (
        f"disabled chaos costs {overhead * 100:.2f}% of the cache "
        f"workload ({probes_per_run} probes x {per_probe_s * 1e6:.3f} "
        f"us over {workload_s * 1e3:.2f} ms); "
        f"floor {CHAOS_EFFICIENCY_FLOOR}")


#: Enforced per-cell-type caps vs frozen per-line walk floor.
CAPS_SPEEDUP_FLOOR = 2.0


def test_perf_power_pricing(benchmark, s1423_mapped):
    """Switched-capacitance map vs the frozen per-line walk.

    Workload: the caps map of mapped s1423 (every line).  The product
    reads each cell type's spec once and walks the fanout lists with a
    per-gate cap; the oracle (``tests/cells/caps_reference.py``) looks
    up the library for every driven pin and every driver.  The maps
    are asserted equal item by item, and the ratio is recorded as
    ``caps_speedup`` and enforced >= 2x (same process, interleaved
    rounds).
    """
    from repro.cells.capacitance import load_map_ff
    from tests.cells import caps_reference as reference

    library = default_library()
    s1423_mapped.topo_order()  # fanout maps built outside the timing

    def run(oracle):
        if oracle:
            return reference.load_map_ff(s1423_mapped, library)
        return load_map_ff(s1423_mapped, library)

    product, frozen = run(False), run(True)
    assert list(product.items()) == list(frozen.items())

    oracle_s = caps_s = float("inf")
    for _ in range(5):
        oracle_s = min(oracle_s, best_of(3, lambda: run(True)))
        caps_s = min(caps_s, best_of(3, lambda: run(False)))
    result = benchmark.pedantic(run, args=(False,),
                                rounds=1, iterations=1, warmup_rounds=0)

    speedup = oracle_s / caps_s
    benchmark.extra_info["lines"] = len(product)
    benchmark.extra_info["oracle_ms"] = round(oracle_s * 1e3, 3)
    benchmark.extra_info["caps_ms"] = round(caps_s * 1e3, 3)
    benchmark.extra_info["caps_speedup"] = round(speedup, 2)
    assert list(result.items()) == list(frozen.items())
    assert speedup >= CAPS_SPEEDUP_FLOOR, (
        f"caps speedup {speedup:.2f}x below the {CAPS_SPEEDUP_FLOOR}x "
        f"floor ({oracle_s * 1e3:.2f} ms oracle vs {caps_s * 1e3:.2f} ms "
        f"per-cell-type map)")
