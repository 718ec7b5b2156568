"""Campaign specs, job expansion and the resumable run manifest.

A :class:`CampaignSpec` is the declarative description of a sweep:
circuits x seeds x config overrides on top of a base
:class:`~repro.core.config.FlowConfig`.  :meth:`CampaignSpec.expand`
turns it into a deterministic, ordered list of :class:`CampaignJob`\\ s
(circuit-major, then seed, then override index) — result ordering is a
function of the spec alone, never of worker scheduling.

The :class:`Manifest` is the audit log of one campaign: one
:class:`JobRecord` per job with status, provenance (freshly run vs
cache hit), wall time and cache key, written atomically after every
job completion.  Resumability itself lives in the content-addressed
cache — a re-run recomputes each job's key and skips everything the
cache already holds — so the manifest can be deleted freely without
losing progress; it exists to make a campaign's history inspectable
(and uploadable as a CI artifact).
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path
from typing import Any

import repro.chaos as chaos
from repro.chaos import retry_call
from repro.core.config import FlowConfig
from repro.errors import ConfigError
from repro.utils.hashing import stable_digest

__all__ = ["CampaignSpec", "CampaignJob", "JobRecord", "Manifest",
           "load_spec"]


@dataclasses.dataclass(frozen=True)
class CampaignJob:
    """One expanded (circuit, seed, config) point of a campaign."""

    job_id: str
    circuit: str
    seed: int
    #: Seed for the synthetic-netlist loader; mirrors the experiment
    #: harnesses (``run_table1`` loads with the flow seed, ablations
    #: always load with seed 1).
    circuit_seed: int
    config_kwargs: dict[str, Any] = dataclasses.field(
        default_factory=dict)

    def flow_config(self) -> FlowConfig:
        """The job's :class:`FlowConfig` (seed applied last)."""
        kwargs = dict(self.config_kwargs)
        known = {field.name for field in dataclasses.fields(FlowConfig)}
        unknown = set(kwargs) - known
        if unknown:
            raise ConfigError(
                f"unknown FlowConfig field(s) in campaign config: "
                f"{', '.join(sorted(unknown))}")
        atpg = kwargs.get("atpg")
        if isinstance(atpg, dict):
            from repro.atpg.generate import AtpgConfig
            kwargs["atpg"] = AtpgConfig(**atpg)
        kwargs["seed"] = self.seed
        return FlowConfig(**kwargs)


def config_kwargs(config: FlowConfig) -> dict[str, Any]:
    """``config`` as JSON-serializable ``FlowConfig`` kwargs."""
    payload = dataclasses.asdict(config)
    if payload.get("atpg") is None:
        payload.pop("atpg", None)
    return payload


#: Job kinds a campaign spec may declare: ``flow`` runs the full
#: proposed flow per (circuit, seed, config) point; ``figure2``
#: regenerates the paper's Figure-2 leakage tables (circuit-free — the
#: circuits axis is a label only, defaulting to ``("figure2",)``).
SPEC_KINDS = ("flow", "figure2")


#: How spec-field type errors name the JSON types.
_JSON_TYPES = {str: ("a string", "strings"), int: ("an integer", "integers"),
               dict: ("an object", "objects")}


def _spec_field(payload: dict[str, Any], key: str, default: Any,
                kind: type, item: type | None = None) -> Any:
    """``payload[key]`` (``default`` when absent) after a JSON type
    check: ``kind`` is the field's type, ``item`` that of a list's
    entries.  A mismatch raises :class:`ConfigError` naming the field
    and the type it expects."""
    if key not in payload:
        return default
    value = payload[key]
    valid = isinstance(value, kind)
    if item is None:
        expected = _JSON_TYPES[kind][0]
    else:
        valid = valid and all(
            isinstance(entry, item) and not isinstance(entry, bool)
            for entry in value)
        expected = f"a list of {_JSON_TYPES[item][1]}"
    if not valid:
        raise ConfigError(
            f"campaign spec field {key!r} must be {expected}, "
            f"got {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """Declarative sweep: circuits x seeds x config overrides."""

    circuits: tuple[str, ...]
    seeds: tuple[int, ...] = (1,)
    #: Each override dict patches ``base``; one job per grid point.
    overrides: tuple[dict[str, Any], ...] = ({},)
    #: Base ``FlowConfig`` kwargs shared by every job.
    base: dict[str, Any] = dataclasses.field(default_factory=dict)
    name: str = "campaign"
    #: What each job computes; see :data:`SPEC_KINDS`.
    kind: str = "flow"

    def __post_init__(self) -> None:
        if self.kind not in SPEC_KINDS:
            raise ConfigError(
                f"unknown campaign kind {self.kind!r}; "
                f"available: {', '.join(SPEC_KINDS)}")
        if not self.circuits:
            raise ConfigError("campaign spec needs at least one circuit")
        if self.kind == "figure2":
            # run_figure2() depends on the default library only: a grid
            # would execute the identical computation once per point,
            # and a circuit name would mislabel the job and manifest.
            if len(self.circuits) > 1 or len(self.seeds) > 1 \
                    or len(self.overrides) > 1:
                raise ConfigError(
                    "figure2 campaigns have no circuit/seed/override "
                    "axes (the leakage tables depend only on the cell "
                    "library)")
            if self.circuits != ("figure2",):
                raise ConfigError(
                    "figure2 campaigns take no circuit; omit "
                    "'circuits' (it defaults to [\"figure2\"], a "
                    "label only)")
        if not self.seeds:
            raise ConfigError("campaign spec needs at least one seed")
        if not self.overrides:
            raise ConfigError(
                "campaign spec needs at least one override point "
                "(use {} for the base config)")
        # seeds are an expansion axis, never a config field: a 'seed'
        # buried in base/overrides would be silently overwritten by
        # the job seed and collapse an intended sweep
        if "seed" in self.base or \
                any("seed" in override for override in self.overrides):
            raise ConfigError(
                "put seeds in the campaign spec's 'seeds' axis, not in "
                "'base'/'overrides' (the per-job seed always wins)")
        # duplicate grid points would produce duplicate job ids: the
        # manifest (keyed by job id) would collapse them while the
        # runner executed the same flow twice
        from repro.utils.hashing import canonical_json
        for axis, values in (("circuits", self.circuits),
                             ("seeds", self.seeds),
                             ("overrides",
                              tuple(canonical_json(o)
                                    for o in self.overrides))):
            if len(set(values)) != len(values):
                raise ConfigError(
                    f"campaign spec has duplicate entries on the "
                    f"{axis!r} axis")

    def expand(self) -> list[CampaignJob]:
        """Deterministic job list: circuit-major, then seed, then
        override index."""
        jobs: list[CampaignJob] = []
        multi_cfg = len(self.overrides) > 1
        multi_seed = len(self.seeds) > 1
        for circuit in self.circuits:
            for seed in self.seeds:
                for index, override in enumerate(self.overrides):
                    parts = [circuit]
                    if multi_seed:
                        parts.append(f"seed{seed}")
                    if multi_cfg:
                        parts.append(f"cfg{index}")
                    jobs.append(CampaignJob(
                        job_id="/".join(parts),
                        circuit=circuit,
                        seed=seed,
                        circuit_seed=seed or 1,
                        config_kwargs={**self.base, **override},
                    ))
        return jobs

    def digest(self) -> str:
        """Stable content hash of the spec (manifest ownership check)."""
        return stable_digest(self.to_dict())

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "circuits": list(self.circuits),
            "seeds": list(self.seeds),
            "overrides": [dict(o) for o in self.overrides],
            "base": dict(self.base),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "CampaignSpec":
        unknown = set(payload) - {"name", "kind", "circuits", "seeds",
                                  "overrides", "base"}
        if unknown:
            raise ConfigError(
                f"unknown campaign spec field(s): "
                f"{', '.join(sorted(unknown))}")
        kind = _spec_field(payload, "kind", "flow", str)
        circuits = _spec_field(payload, "circuits", None, list, str)
        if circuits is None:
            # figure2 jobs are circuit-free; the axis is just a label.
            if kind == "figure2":
                circuits = ("figure2",)
            else:
                raise ConfigError("campaign spec is missing 'circuits'")
        return cls(
            circuits=tuple(circuits),
            seeds=tuple(_spec_field(payload, "seeds", (1,), list, int)),
            overrides=tuple(dict(o) for o in _spec_field(
                payload, "overrides", ({},), list, dict)),
            base=dict(_spec_field(payload, "base", {}, dict)),
            name=_spec_field(payload, "name", "campaign", str),
            kind=kind,
        )


def load_spec(path: str | Path) -> CampaignSpec:
    """Load a JSON campaign spec file (see README "Campaigns")."""
    path = Path(path)
    try:
        with path.open() as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read campaign spec: {exc}") from None
    except ValueError as exc:
        raise ConfigError(
            f"campaign spec {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"campaign spec {path} must be a JSON object")
    return CampaignSpec.from_dict(payload)


# ---------------------------------------------------------------------- #
# manifest
# ---------------------------------------------------------------------- #

#: Job lifecycle states recorded in the manifest.
STATUSES = ("pending", "running", "done", "failed")

#: How a finished job's artefact was obtained.
SOURCES = ("run", "cache")


@dataclasses.dataclass
class JobRecord:
    """Status + provenance of one campaign job."""

    job_id: str
    circuit: str
    seed: int
    config_hash: str
    cache_key: str | None = None
    status: str = "pending"
    source: str | None = None
    #: Compute seconds of the job itself (worker-side monotonic clock,
    #: load included); independent of scheduling position, so slow
    #: jobs are findable from the manifest even in parallel runs.
    wall_s: float = 0.0
    error: str | None = None
    #: Per-phase compute seconds (``repro.obs`` span names -> total
    #: duration) collected while the job executed; ``None`` for cache
    #: hits and records written before the observability layer.
    phases: dict[str, float] | None = None

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobRecord":
        return cls(**payload)


class Manifest:
    """Atomic JSON journal of one campaign run.

    The file is rewritten (temp file + ``os.replace``) after every
    recorded job, so a killed run leaves a consistent manifest listing
    exactly the jobs that finished.
    """

    VERSION = 1

    def __init__(self, path: str | Path, spec_digest: str):
        self.path = Path(path)
        self.spec_digest = spec_digest
        self.records: dict[str, JobRecord] = {}

    @classmethod
    def open(cls, path: str | Path, spec_digest: str) -> "Manifest":
        """Load the manifest at ``path``, keeping prior records only
        when they belong to the same spec (digest match); a different
        or unreadable manifest is replaced, not merged."""
        manifest = cls(path, spec_digest)
        try:
            with manifest.path.open() as handle:
                payload = json.load(handle)
            if (payload.get("version") == cls.VERSION
                    and payload.get("spec_digest") == spec_digest):
                manifest.records = {
                    rec["job_id"]: JobRecord.from_dict(rec)
                    for rec in payload.get("jobs", [])
                }
        except (OSError, ValueError, KeyError, TypeError):
            pass
        return manifest

    def record(self, record: JobRecord, save: bool = True) -> None:
        """Insert/update one job record (and checkpoint to disk)."""
        self.records[record.job_id] = record
        if save:
            self.save()

    def stats(self) -> dict[str, int]:
        """Counts by status plus cache-hit/fresh-run totals."""
        stats = {status: 0 for status in STATUSES}
        stats["cached"] = 0
        stats["executed"] = 0
        for record in self.records.values():
            stats[record.status] = stats.get(record.status, 0) + 1
            if record.status == "done":
                if record.source == "cache":
                    stats["cached"] += 1
                else:
                    stats["executed"] += 1
        return stats

    def save(self) -> None:
        """Atomically rewrite the manifest file (retried on transient
        I/O failure — the manifest checkpoints after every job, so one
        flaky write must not kill a campaign)."""
        payload = {
            "version": self.VERSION,
            "spec_digest": self.spec_digest,
            "jobs": [self.records[job_id].to_dict()
                     for job_id in sorted(self.records)],
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        retry_call(lambda: self._save_once(payload),
                   site="manifest.write")

    def _save_once(self, payload: dict[str, Any]) -> None:
        chaos.point("manifest.write")
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=".tmp-manifest-", suffix=".json")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:  # pragma: no cover - already replaced/gone
                pass
            raise
