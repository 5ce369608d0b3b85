"""The epoch service: a long-lived auctioneer with churn and history.

This package promotes the one-shot networked round of :mod:`repro.net`
into a production-style service:

* :mod:`repro.service.membership` — SU admission/retirement between
  epochs, dense wire-id reassignment, pseudonym quarantine and the
  version-keyed ``gc`` ring rotation;
* :mod:`repro.service.scheduler` — the epoch loop itself (churn →
  roster barrier → round → audit → persist) with fixed-interval or
  as-fast-as-possible cadence and straggler retirement;
* :mod:`repro.service.store` — the persistent, digest-manifested epoch
  history behind ``repro epochs show/validate``;
* :mod:`repro.service.soak` — the sustained-load soak driver (Poisson
  join/leave churn, concurrent SU fleets, per-epoch differential
  equivalence) behind ``repro loadgen --soak``.
"""

from repro.service.membership import (
    MembershipDelta,
    MembershipError,
    MembershipManager,
    MembershipSnapshot,
    rotate_ring,
)
from repro.service.scheduler import (
    EpochConfig,
    EpochRecord,
    EpochScheduler,
    result_document,
    service_entropy,
)
from repro.service.soak import SoakConfig, SoakReport, churn_plan, run_soak
from repro.service.store import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA_VERSION,
    RUN_KIND,
    EpochStore,
    load_epoch_result,
    load_manifest,
    validate_run,
)

__all__ = [
    "EpochConfig",
    "EpochRecord",
    "EpochScheduler",
    "EpochStore",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA_VERSION",
    "MembershipDelta",
    "MembershipError",
    "MembershipManager",
    "MembershipSnapshot",
    "RUN_KIND",
    "SoakConfig",
    "SoakReport",
    "churn_plan",
    "load_epoch_result",
    "load_manifest",
    "result_document",
    "rotate_ring",
    "run_soak",
    "service_entropy",
    "validate_run",
]
