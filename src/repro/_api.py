"""Aggregated public API, re-exported lazily from :mod:`repro`.

Import from here (or from ``repro`` directly) in applications; import from
the subpackages in library-internal code.
"""

from __future__ import annotations

from repro.atpg import (
    AtpgConfig,
    Fault,
    TestSet,
    all_faults,
    collapse_faults,
    fault_simulate,
    generate_tests,
)
from repro.atpg.podem import PodemEngine
from repro.atpg.scoap import ScoapMeasures, compute_scoap
from repro.benchgen import (
    ISCAS89_STATS,
    TABLE1_CIRCUITS,
    available_circuits,
    circuit_provenance,
    generate_circuit,
    load_circuit,
)
from repro.campaign import (
    ArtifactService,
    CampaignJob,
    CampaignResult,
    CampaignSpec,
    ResultCache,
    ServiceServer,
    load_spec,
    run_campaign,
    run_server,
)
from repro.cells import (
    CellLibrary,
    CellSpec,
    default_library,
    describe_library,
)
from repro.chaos import (
    ChaosPolicy,
    RetryPolicy,
    retry_call,
)
from repro.core import (
    AddMuxResult,
    FlowConfig,
    FlowResult,
    PatternResult,
    ProposedFlow,
    add_mux,
    find_controlled_input_pattern,
    input_control_pattern,
)
from repro.experiments import (
    PAPER_TABLE1,
    run_figure2,
    run_table1,
)
from repro.leakage import (
    circuit_leakage_na,
    expected_leakage_na,
    monte_carlo_observability,
    random_fill_search,
    reorder_for_leakage,
)
from repro.netlist import (
    Circuit,
    Gate,
    GateType,
    X,
    circuit_stats,
    parse_bench,
    parse_bench_file,
    write_bench,
    write_bench_file,
)
from repro.power import (
    PeakPowerReport,
    ScanPowerReport,
    ShiftPolicy,
    analyze_peak_power,
    evaluate_scan_power,
)
from repro.runtime import (
    RuntimeOptions,
    session_defaults,
    set_session_defaults,
    using,
)
from repro.scan import (
    MultiChainDesign,
    MuxPlan,
    ScanCell,
    ScanChain,
    ScanDesign,
    TestVector,
    evaluate_multichain_power,
    insert_muxes,
    reorder_chain,
    reorder_vectors,
)
from repro.simulation import (
    Backend,
    EpisodeBatchResult,
    EpisodePlan,
    FaultEpisodePlan,
    FaultSimSession,
    SequentialSimulator,
    SimState,
    compile_episode_plan,
    compile_fault_episode_plan,
    get_backend,
    resolve_backend,
    simulate_comb,
    simulate_comb3,
    simulate_cycles,
    simulate_packed,
)
from repro.spice import (
    PAPER_NAND2_LEAKAGE_NA,
    TechParams,
    calibrate_to_figure2,
    cell_leakage_table,
    default_tech,
)
from repro.techmap import equivalence_check, technology_map
from repro.timing import LibraryDelay, UnitDelay, critical_path, run_sta

__all__ = [
    # netlist
    "Circuit", "Gate", "GateType", "X", "circuit_stats",
    "parse_bench", "parse_bench_file", "write_bench", "write_bench_file",
    # spice / cells
    "TechParams", "default_tech", "calibrate_to_figure2",
    "cell_leakage_table", "PAPER_NAND2_LEAKAGE_NA",
    "CellLibrary", "CellSpec", "default_library", "describe_library",
    # techmap / timing / simulation
    "technology_map", "equivalence_check",
    "LibraryDelay", "UnitDelay", "run_sta", "critical_path",
    "simulate_comb", "simulate_comb3", "simulate_packed",
    "simulate_cycles", "SequentialSimulator",
    # simulation backends
    "Backend", "SimState", "get_backend", "resolve_backend",
    "EpisodePlan", "EpisodeBatchResult", "compile_episode_plan",
    "FaultEpisodePlan", "FaultSimSession", "compile_fault_episode_plan",
    # scan / power
    "ScanCell", "ScanChain", "ScanDesign", "TestVector",
    "MuxPlan", "insert_muxes",
    "MultiChainDesign", "evaluate_multichain_power",
    "reorder_vectors", "reorder_chain",
    "ShiftPolicy", "ScanPowerReport", "evaluate_scan_power",
    "PeakPowerReport", "analyze_peak_power",
    # leakage
    "circuit_leakage_na", "expected_leakage_na",
    "monte_carlo_observability", "random_fill_search",
    "reorder_for_leakage",
    # atpg
    "Fault", "all_faults", "collapse_faults", "fault_simulate",
    "AtpgConfig", "TestSet", "generate_tests",
    "PodemEngine", "ScoapMeasures", "compute_scoap",
    # core
    "FlowConfig", "ProposedFlow", "FlowResult", "AddMuxResult",
    "add_mux", "PatternResult", "find_controlled_input_pattern",
    "input_control_pattern",
    # benchmarks / experiments
    "load_circuit", "generate_circuit", "available_circuits",
    "circuit_provenance", "ISCAS89_STATS", "TABLE1_CIRCUITS",
    "run_table1", "run_figure2", "PAPER_TABLE1",
    # runtime options (session defaults for every runtime knob)
    "RuntimeOptions", "session_defaults", "set_session_defaults",
    "using",
    # campaigns / artifact service
    "CampaignSpec", "CampaignJob", "CampaignResult", "load_spec",
    "run_campaign", "ResultCache",
    "ArtifactService", "ServiceServer", "run_server",
    # chaos engineering (fault injection + retry policies)
    "ChaosPolicy", "RetryPolicy", "retry_call",
]
