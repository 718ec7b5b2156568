"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to discriminate the failure domain.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class NetlistError(ReproError):
    """Structural problem in a gate-level netlist."""


class BenchParseError(NetlistError):
    """An ISCAS89 ``.bench`` file could not be parsed.

    Attributes
    ----------
    line_number:
        1-based line number of the offending line, or ``None`` when the
        error is not tied to a specific line.
    line:
        Text of the offending line (stripped), or ``None``.
    """

    def __init__(self, message: str, line_number: int | None = None,
                 line: str | None = None):
        self.line_number = line_number
        self.line = line
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class UnknownCircuitError(NetlistError, KeyError):
    """A benchmark name the circuit loader cannot resolve.

    Also a :class:`KeyError`, so callers catching a failed name lookup
    keep working; unlike a plain ``KeyError`` it prints its message
    unquoted.
    """

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


class CombinationalLoopError(NetlistError):
    """The combinational part of a circuit contains a cycle.

    Attributes
    ----------
    cycle:
        A list of line names participating in (or reachable within) the
        strongly connected region that prevented levelisation.
    """

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        preview = ", ".join(self.cycle[:8])
        if len(self.cycle) > 8:
            preview += ", ..."
        super().__init__(f"combinational loop through: {preview}")


class MappingError(ReproError):
    """Technology mapping failed or produced an inconsistent netlist."""


class TimingError(ReproError):
    """Static timing analysis failed (e.g. unknown cell delay)."""


class SimulationError(ReproError):
    """Logic simulation was asked to do something impossible."""


class CharacterizationError(ReproError):
    """Device-model evaluation or cell characterisation failed."""


class ScanError(ReproError):
    """Scan insertion / scan chain construction problem."""


class AtpgError(ReproError):
    """Test generation failed in an unexpected way (not just an abort)."""


class JustificationError(ReproError):
    """Internal inconsistency inside the PODEM-like justification engine.

    Note: an *unjustifiable* objective is a normal outcome reported through
    return values, not through this exception.
    """


class ConfigError(ReproError):
    """Invalid configuration passed to a flow or experiment."""


class RuntimeOptionError(ConfigError, SimulationError):
    """A runtime knob (:data:`repro.runtime.KNOBS`) holds a bad value,
    from a flag, the session, a ``FlowConfig`` or the environment; the
    message names the field, its flag and its env var."""


class ChaosError(ConfigError):
    """Invalid chaos spec, unknown injection site or bad retry policy.

    A :class:`ConfigError`: a bad ``--chaos`` spec should fail fast at
    option-resolution time exactly like any other invalid knob.
    """


class CampaignError(ReproError):
    """Campaign orchestration failed (queue, worker or artefact layer)."""


class QueueError(CampaignError):
    """The filesystem work queue is missing, corrupt or inconsistent."""


class ServiceError(ReproError):
    """The artifact service could not be configured or started."""


class ExperimentError(ReproError):
    """An experiment harness could not produce its artefact."""
