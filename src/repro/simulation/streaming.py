"""Retired out-of-core streaming: the ``resolve_stream_budget`` shim.

Episode replays and fault sessions always run resident
(:func:`~repro.simulation.episode.simulate_episode_batch`,
:class:`~repro.simulation.fault_episode.FaultSimSession`); the cycle-
and pattern-window streaming path and its ``stream_budget`` knob are
gone.
"""

from __future__ import annotations

__all__ = ["resolve_stream_budget"]


def resolve_stream_budget(budget: int | None = None) -> None:
    """Always ``None``: streaming is retired, so there is no budget.

    Kept only because ``perfbench/workloads.py`` (``resolved_runtime``)
    imports it to record the resolved runtime, like
    :func:`~repro.simulation.episode.episode_batching_enabled`; it reads
    neither the environment nor the session.
    """
    return None
