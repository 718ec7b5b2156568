"""The complete proposed flow (paper Section 4) and its evaluation.

``ProposedFlow.run`` executes, in order:

1. technology mapping to NAND/NOR/INV (paper Section 5);
2. full-scan chain construction (no reordering, as in the paper);
3. stuck-at test generation (ATOM substitute);
4. ``AddMUX`` — MUXes on every pseudo-input off the critical path(s);
5. Monte-Carlo leakage observability for all lines (directive);
6. ``FindControlledInputPattern`` — transition blocking over the
   controlled inputs (PIs + muxed pseudo-inputs);
7. random-search minimum-leakage fill of the don't-care controlled
   inputs (input vector control, refs [14]/[15]);
8. commutative-gate input reordering for the quiescent scan-mode state;
9. power evaluation of the three structures on the *same* test set:
   traditional scan, input control [8], and the proposed structure —
   the paper's Table I row for the circuit.
"""

from __future__ import annotations

import dataclasses

from repro.atpg.generate import TestSet, generate_tests
from repro.core.addmux import AddMuxResult, add_mux
from repro.core.config import FlowConfig
from repro.core.find_pattern import (
    PatternResult,
    find_controlled_input_pattern,
)
from repro.core.input_control import (
    InputControlResult,
    input_control_pattern,
)
from repro.leakage.ivc import IvcResult, random_fill_search
from repro.leakage.observability import monte_carlo_observability
from repro.leakage.reorder import ReorderResult, reorder_for_leakage
from repro.netlist.circuit import Circuit
from repro.obs.trace import traced
from repro.power.scanpower import (
    ScanPowerReport,
    ShiftPolicy,
    evaluate_scan_power,
)
from repro.scan.chain import ScanChain
from repro.scan.mux import MuxPlan
from repro.scan.testview import ScanDesign
from repro.simulation.eval3 import simulate_comb3
from repro.techmap.mapper import is_mapped, technology_map
from repro.utils.rng import derive_seed

__all__ = ["FlowResult", "ProposedFlow"]

METHODS = ("traditional", "input_control", "proposed")


@dataclasses.dataclass
class FlowResult:
    """Everything the flow produced for one circuit."""

    circuit: Circuit                       # tech-mapped netlist
    design: ScanDesign
    test_set: TestSet
    addmux: AddMuxResult
    pattern: PatternResult
    ivc: IvcResult
    input_control: InputControlResult
    reorder: ReorderResult | None
    mux_plan: MuxPlan
    control_values: dict[str, int]
    policies: dict[str, ShiftPolicy]
    reports: dict[str, ScanPowerReport]

    def improvements(self) -> dict[str, tuple[float, float]]:
        """(dynamic %, static %) of the proposed method vs each baseline."""
        proposed = self.reports["proposed"]
        return {
            "vs_traditional":
                proposed.improvement_vs(self.reports["traditional"]),
            "vs_input_control":
                proposed.improvement_vs(self.reports["input_control"]),
        }

    def summary(self) -> str:
        """Multi-line human-readable account of the run."""
        imp = self.improvements()
        trad = self.reports["traditional"]
        ic = self.reports["input_control"]
        prop = self.reports["proposed"]
        lines = [
            f"{self.circuit.name}: "
            f"{len(self.design.pseudo_inputs)} scan cells, "
            f"{len(self.addmux.muxable)} muxed "
            f"({self.addmux.coverage:.0%} coverage), "
            f"{len(self.pattern.blocked_gates)} gates blocked, "
            f"{self.test_set.summary()}",
            f"  dynamic uW/Hz: traditional {trad.dynamic_uw_per_hz:.3e}  "
            f"input-control {ic.dynamic_uw_per_hz:.3e}  "
            f"proposed {prop.dynamic_uw_per_hz:.3e}",
            f"  static uW:     traditional {trad.static_uw:.2f}  "
            f"input-control {ic.static_uw:.2f}  "
            f"proposed {prop.static_uw:.2f}",
            f"  improvement vs traditional: "
            f"dynamic {imp['vs_traditional'][0]:.2f}%, "
            f"static {imp['vs_traditional'][1]:.2f}%",
            f"  improvement vs input control: "
            f"dynamic {imp['vs_input_control'][0]:.2f}%, "
            f"static {imp['vs_input_control'][1]:.2f}%",
        ]
        return "\n".join(lines)


class ProposedFlow:
    """Runs the paper's method end to end on one circuit."""

    def __init__(self, config: FlowConfig | None = None):
        self.config = config or FlowConfig()

    @traced("flow.run")
    def run(self, circuit: Circuit) -> FlowResult:
        """Execute the full flow; see the module docstring for the steps."""
        config = self.config
        library = config.library()

        mapped = circuit if is_mapped(circuit) else technology_map(circuit)
        design = ScanDesign.full_scan(mapped)
        test_set = generate_tests(
            design, config.atpg_config(), backend=config.backend,
            fault_backend=config.fault_simulation_backend(),
            stream_budget=config.stream_budget)

        addmux = add_mux(mapped, library,
                         margin_ps=config.mux_delay_margin_ps)

        observability = None
        if config.use_observability_directive:
            observability = monte_carlo_observability(
                mapped, config.observability_samples,
                seed=derive_seed(config.seed, f"obs:{mapped.name}"),
                library=library, backend=config.backend)

        controlled = set(mapped.inputs) | set(addmux.muxable)
        sources = set(mapped.dff_outputs) - set(addmux.muxable)
        pattern = find_controlled_input_pattern(
            mapped, controlled, sources,
            observability=observability, library=library,
            max_backtracks=config.max_backtracks)

        free = sorted(controlled - set(pattern.assignment))
        ivc = random_fill_search(
            mapped, fixed=pattern.assignment, free_lines=free,
            n_trials=config.ivc_trials,
            seed=derive_seed(config.seed, f"ivc:{mapped.name}"),
            library=library,
            noise_lines=sorted(sources), n_noise=config.ivc_noise_samples,
            backend=config.backend)
        control_values = {**pattern.assignment, **ivc.assignment}

        quiescent = simulate_comb3(mapped, control_values)
        reorder: ReorderResult | None = None
        proposed_circuit = mapped
        if config.reorder_inputs:
            reorder = reorder_for_leakage(mapped, quiescent, library)
            proposed_circuit = reorder.circuit

        mux_plan = MuxPlan(tie_values={
            q: control_values[q] for q in addmux.muxable})

        ic_result = input_control_pattern(
            mapped, library, max_backtracks=config.max_backtracks)

        policies = {
            "traditional": ShiftPolicy(name="traditional"),
            "input_control": ic_result.policy(),
            "proposed": ShiftPolicy(
                name="proposed",
                pi_values={pi: control_values[pi]
                           for pi in mapped.inputs},
                mux_ties=dict(mux_plan.tie_values)),
        }

        proposed_design = design
        if proposed_circuit is not mapped:
            chain = ScanChain.from_circuit(
                proposed_circuit, order=design.chain.q_lines)
            proposed_design = ScanDesign(proposed_circuit, chain)

        reports = {
            "traditional": evaluate_scan_power(
                design, test_set.vectors, policies["traditional"],
                library, config.include_capture_cycles,
                backend=config.backend,
                stream_budget=config.stream_budget),
            "input_control": evaluate_scan_power(
                design, test_set.vectors, policies["input_control"],
                library, config.include_capture_cycles,
                backend=config.backend,
                stream_budget=config.stream_budget),
            "proposed": evaluate_scan_power(
                proposed_design, test_set.vectors, policies["proposed"],
                library, config.include_capture_cycles,
                backend=config.backend,
                stream_budget=config.stream_budget),
        }

        return FlowResult(
            circuit=mapped,
            design=design,
            test_set=test_set,
            addmux=addmux,
            pattern=pattern,
            ivc=ivc,
            input_control=ic_result,
            reorder=reorder,
            mux_plan=mux_plan,
            control_values=control_values,
            policies=policies,
            reports=reports,
        )
