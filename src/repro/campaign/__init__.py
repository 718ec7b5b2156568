"""Campaign orchestration: pools, result cache, resumable sweeps.

The campaign layer sits between the flow (:mod:`repro.core.flow`) and
the experiment harnesses (:mod:`repro.experiments`):

* :mod:`repro.campaign.pool` — a persistent, non-daemonic worker pool,
  pre-warmed once and reused by every campaign job;
* :mod:`repro.campaign.cache` — a content-addressed on-disk artefact
  cache keyed by (circuit fingerprint, canonical config hash, code
  fingerprint);
* :mod:`repro.campaign.manifest` — campaign specs, deterministic job
  expansion and the per-job status manifest;
* :mod:`repro.campaign.runner` — the executor tying them together with
  deterministic result ordering regardless of worker count;
* :mod:`repro.campaign.service` — the ``repro serve`` HTTP artifact
  API answering experiment queries from the cache.

See README "Campaigns" and "Artifact service" for the spec format,
resume semantics and the service endpoints.
"""

from repro.campaign.cache import ResultCache
from repro.campaign.manifest import (
    CampaignJob,
    CampaignSpec,
    JobRecord,
    Manifest,
    load_spec,
)
from repro.campaign.pool import (
    WorkerPool,
    WorkerPoolError,
)
from repro.campaign.runner import (
    FIGURE2_ARTEFACT_KIND,
    FLOW_ARTEFACT_KIND,
    CampaignResult,
    execute_job,
    figure2_from_artefact,
    job_identity,
    run_campaign,
    run_flow_jobs,
)
from repro.campaign.service import (
    ArtifactService,
    ServiceMetrics,
    ServiceServer,
    run_server,
)

__all__ = [
    "FIGURE2_ARTEFACT_KIND",
    "FLOW_ARTEFACT_KIND",
    "ArtifactService",
    "CampaignJob",
    "CampaignResult",
    "CampaignSpec",
    "JobRecord",
    "Manifest",
    "ResultCache",
    "ServiceMetrics",
    "ServiceServer",
    "WorkerPool",
    "WorkerPoolError",
    "execute_job",
    "figure2_from_artefact",
    "job_identity",
    "load_spec",
    "run_campaign",
    "run_flow_jobs",
    "run_server",
]
