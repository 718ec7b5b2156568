"""Static power: estimation, leakage observability, IVC, pin reordering."""

from repro.leakage.estimator import (
    circuit_leakage_na,
    expected_leakage_na,
    leakage_power_uw,
    per_episode_leakage,
    per_sample_leakage,
)
from repro.leakage.ivc import (
    IvcResult,
    greedy_bit_improvement,
    random_fill_search,
)
from repro.leakage.observability import (
    forced_observability,
    monte_carlo_observability,
)
from repro.leakage.reorder import (
    ReorderResult,
    best_pin_order,
    expected_gate_leakage,
    reorder_for_leakage,
)

__all__ = [
    "circuit_leakage_na",
    "expected_leakage_na",
    "per_sample_leakage",
    "per_episode_leakage",
    "leakage_power_uw",
    "monte_carlo_observability",
    "forced_observability",
    "IvcResult",
    "random_fill_search",
    "greedy_bit_improvement",
    "ReorderResult",
    "expected_gate_leakage",
    "best_pin_order",
    "reorder_for_leakage",
]
