"""Shared helpers for the benchmark suite.

Heavy experiment benches run the measured function exactly once
(``pedantic`` with one round): the quantity of interest is the
regenerated experiment data (attached as ``extra_info``), with wall time
as a by-product.  Set ``REPRO_FULL_TABLE1=1`` to extend the Table I bench
to all twelve circuits.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import FlowConfig

#: Circuits benchmarked by default (small/medium rows of Table I).
SMALL_CIRCUITS = ("s27", "s344", "s382", "s444")

#: Full Table I sweep (only with REPRO_FULL_TABLE1=1).
FULL_CIRCUITS = (
    "s344", "s382", "s444", "s510", "s641", "s713",
    "s1196", "s1238", "s1423", "s1494", "s5378", "s9234",
)


def bench_circuits() -> tuple[str, ...]:
    if os.environ.get("REPRO_FULL_TABLE1", "") not in ("", "0"):
        return FULL_CIRCUITS
    return SMALL_CIRCUITS


@pytest.fixture(scope="session")
def flow_config() -> FlowConfig:
    """The configuration used by every experiment bench."""
    return FlowConfig(seed=1)


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
