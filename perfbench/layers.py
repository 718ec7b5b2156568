"""The public functions a traced run wraps, and the per-layer metrics.

Layers are the ``src/repro`` packages the workloads reach directly:
``atpg``, ``core``, ``leakage``, ``power``, ``simulation``, ``techmap``,
``benchgen`` and ``campaign``.  Every wrapper replaces a module or class
attribute that the program looks up at call time, so the wrapped call
is the one the program makes (for example ``repro.core.flow`` imports
``generate_tests`` by name, so the flow's own attribute is wrapped).
"""

from __future__ import annotations

import time
import types

from tracer import Tracer

__all__ = ["install", "metrics", "span_cost_s"]

#: Wrapped ``repro.core.flow`` attributes and their span names.
_FLOW_PHASES = (
    ("generate_tests", "atpg.generate_tests"),
    ("add_mux", "core.add_mux"),
    ("find_controlled_input_pattern", "core.find_pattern"),
    ("input_control_pattern", "core.input_control"),
    ("monte_carlo_observability", "leakage.observability"),
    ("random_fill_search", "leakage.ivc"),
    ("reorder_for_leakage", "leakage.reorder"),
)


def _on_podem(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("atpg.podem_backtracks", result.backtracks)
    tracer.count(f"atpg.podem_{result.status}")


def _on_faultsim(tracer: Tracer, args, kwargs, result) -> None:
    # FaultSimSession.simulate(self, faults, input_words, n, drop=...)
    pairs = len(args[1]) * args[3]
    if tracer.active("atpg.generate_tests"):
        tracer.count("atpg.fault_pattern_pairs", pairs)
    else:
        tracer.count("simulation.grade_pairs", pairs)


def _on_replay(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("power.cycles", result.n_cycles)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer entry point the workloads reach."""
    import repro.atpg.generate as generate
    import repro.benchgen.loader as loader
    import repro.campaign.runner as runner
    import repro.campaign.service as service
    import repro.core.flow as flow
    import repro.power.scanpower as scanpower
    import repro.techmap.mapper as mapper
    from repro.campaign.cache import ResultCache
    from repro.simulation.fault_episode import FaultSimSession

    tracer.wrap(flow.ProposedFlow, "run", "flow.run")
    for attr, name in _FLOW_PHASES:
        tracer.wrap(flow, attr, name)
    tracer.wrap(generate, "generate_test", "atpg.podem", _on_podem)
    tracer.wrap(FaultSimSession, "simulate", "simulation.faultsim",
                _on_faultsim)
    for module in (flow, scanpower):
        tracer.wrap(module, "evaluate_scan_power", "power.replay",
                    _on_replay)
    tracer.wrap(scanpower, "compile_episode_plan",
                "simulation.episode_compile")
    for module in (flow, mapper):
        tracer.wrap(module, "technology_map", "techmap.map")
    for module in (loader, runner):
        tracer.wrap(module, "load_circuit", "benchgen.load")
    tracer.wrap(ResultCache, "get", "campaign.cache_get")
    tracer.wrap(ResultCache, "put", "campaign.cache_put")
    for module in (runner, service):
        tracer.wrap(module, "job_identity", "campaign.job_identity")
    tracer.wrap(service.ArtifactService, "dispatch", "campaign.dispatch")
    return tracer


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one recorded span around a no-op call."""
    holder = types.SimpleNamespace(noop=lambda: None)

    def loop() -> float:
        started = time.perf_counter()
        for _ in range(calls):
            holder.noop()
        return time.perf_counter() - started

    bare = loop()
    probe = Tracer()
    probe.wrap(holder, "noop", "probe")
    wrapped = loop()
    probe.uninstall()
    return max(0.0, (wrapped - bare) / calls)


def metrics(tracer: Tracer, traced_wall_s: float,
            **extra: float) -> dict[str, float]:
    """Per-layer metrics from the spans; a layer the workload does not
    reach reads 0.  ``extra`` supplies values measured outside the
    tracer (parallel efficiency, client latency, 304 ratio)."""
    counters = tracer.counters
    podem_calls = len(tracer.durations("atpg.podem"))
    atpg_sims = tracer.durations("simulation.faultsim",
                                 under="atpg.generate_tests")
    grades = tracer.durations("simulation.faultsim",
                              outside="atpg.generate_tests")
    values = {
        "atpg.generate_tests_s": tracer.total("atpg.generate_tests"),
        "atpg.podem_s": tracer.total("atpg.podem"),
        "atpg.podem_calls": podem_calls,
        "atpg.podem_backtracks": counters["atpg.podem_backtracks"],
        "atpg.podem_aborted": counters["atpg.podem_aborted"],
        "atpg.podem_untestable": counters["atpg.podem_untestable"],
        "atpg.podem_detect_ratio":
            counters["atpg.podem_detected"] / podem_calls
            if podem_calls else 0.0,
        "atpg.faultsim_s": sum(atpg_sims),
        "atpg.faultsim_calls": len(atpg_sims),
        "atpg.fault_pattern_pairs": counters["atpg.fault_pattern_pairs"],
        "power.replay_s": tracer.total("power.replay"),
        "power.cycles": counters["power.cycles"],
        "simulation.episode_compile_s":
            tracer.total("simulation.episode_compile"),
        "simulation.grade_first_s": grades[0] if grades else 0.0,
        "simulation.grade_again_s": grades[1] if len(grades) > 1 else 0.0,
        "simulation.fault_pattern_pairs_per_s":
            counters["simulation.grade_pairs"] / sum(grades)
            if grades else 0.0,
        "techmap.map_s": tracer.total("techmap.map"),
        "benchgen.load_s": tracer.total("benchgen.load"),
        "campaign.cache_put_s": tracer.total("campaign.cache_put"),
        "campaign.job_identity_ms":
            tracer.mean_ms("campaign.job_identity"),
        "campaign.cache_get_ms": tracer.mean_ms("campaign.cache_get"),
        "campaign.dispatch_ms": tracer.mean_ms("campaign.dispatch"),
        "flow.unattributed_s": tracer.self_total("flow.run"),
        "trace.overhead_pct":
            100.0 * len(tracer.spans) * span_cost_s() / traced_wall_s,
    }
    for _attr, name in _FLOW_PHASES[1:]:
        values[f"{name}_s"] = tracer.total(name)
    values.update(extra)
    return values
