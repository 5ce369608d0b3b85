"""Cross-scheme comparison harness (``repro compare``).

Runs every requested privacy scheme through the *networked* runtime
(self-hosted memory transport, the loadgen driver) on **identical seeds**:
the population, the protocol seed and every round's entropy label are pure
functions of the compare seed, so the schemes answer the same auction with
the same bidders and the same masking randomness.  Per scheme the harness
measures

* **wire bytes** — exact bytes on the (memory) transport, plus the
  protocol-level framed/location/bid byte split from the round results;
* **crypto ops** — the instrumented primitive counters
  (``crypto.hmac``, ``crypto.ope.encrypt`` / ``decrypt``, ...);
* **round wall time** — loadgen's measured elapsed seconds and latency
  histogram (machine-dependent timers and histograms, which the baseline
  gate never reads);
* **adversary replay** — the recorded trace is replayed through the
  paper's attacks: the ranking-based BCM candidate-area attack
  (:func:`repro.attacks.against_lppa.lppa_bcm_attack`) and the BPM
  refinement (:func:`repro.attacks.bpm.bpm_attack`), reporting mean
  candidate cells per user — *smaller means more leakage*;
* **audit exactness** — the same trace must pass the scheme's strict
  communication-cost audit (Theorem 4 for PPBS, the OPE width model for
  Bloom).

Everything lands in one ``BENCH_schemes.json`` artifact (standard obs
schema) under per-scheme key prefixes (``schemes.<name>.*``), so
``repro metrics show/validate/diff`` all work on it.  CI gates it like
every other artifact: ``repro metrics diff`` against the committed
baseline under ``benchmarks/baselines/`` compares every counter and gauge
exactly and names every mismatched or one-sided key.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro import obs
from repro.obs import trace
from repro.analysis.trace_audit import rankings_by_round
from repro.attacks.against_lppa import lppa_bcm_attack
from repro.attacks.bpm import bpm_attack
from repro.crypto.cache import get_mask_cache
from repro.geo.datasets import make_database
from repro.lppa.bids_ope import reset_ope_cache
from repro.lppa.schemes.registry import get_scheme
from repro.net.loadgen import LoadgenConfig, build_population, run_loadgen

__all__ = [
    "ARTIFACT_NAME",
    "CompareConfig",
    "SchemeMeasurement",
    "run_compare",
    "fold_measurements",
    "format_compare_table",
]

#: Canonical artifact name: ``repro compare`` writes ``BENCH_schemes.json``.
ARTIFACT_NAME = "schemes"


@dataclass(frozen=True)
class CompareConfig:
    """One comparison run: which schemes, over which (shared) auction."""

    schemes: Tuple[str, ...] = ("ppbs", "bloom")
    n_users: int = 8
    n_channels: int = 6
    rounds: int = 2
    seed: int = 1
    area: int = 4
    grid_n: int = 20
    check_equivalence: bool = True
    #: Top-fraction cut the ranking-based BCM attack uses.
    bcm_fraction: float = 0.5
    #: Candidate-cell fraction the BPM refinement keeps (smallest dq first).
    bpm_keep_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("need at least one scheme to compare")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError("duplicate scheme names in the compare set")
        if self.rounds < 1:
            raise ValueError("need at least one round")

    def loadgen_config(self, scheme: str) -> LoadgenConfig:
        """The identical-seed loadgen run of one scheme."""
        return LoadgenConfig(
            n_users=self.n_users,
            n_channels=self.n_channels,
            rounds=self.rounds,
            seed=self.seed,
            area=self.area,
            grid_n=self.grid_n,
            transport="memory",
            check_equivalence=self.check_equivalence,
            scheme=scheme,
        )


@dataclass(frozen=True)
class SchemeMeasurement:
    """Everything the harness measured about one scheme's run."""

    scheme: str
    rounds: int
    wire_bytes: int
    framed_bytes: int
    revenue: int
    elapsed_s: float
    p50_latency_s: float
    bcm_mean_cells: float
    bpm_mean_cells: float
    comm_audit_exact: bool
    equivalence_checked: int
    counters: Dict[str, int]

    def crypto_ops(self) -> Dict[str, int]:
        """The primitive-operation counters (``crypto.*``) of this run."""
        return {
            key: value
            for key, value in self.counters.items()
            if key.startswith("crypto.") and "cache" not in key
        }

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table emission (the README's measured table)."""
        return {
            "scheme": self.scheme,
            "wire_bytes": self.wire_bytes,
            "framed_bytes": self.framed_bytes,
            "hmac_ops": self.counters.get("crypto.hmac", 0),
            "ope_ops": (
                self.counters.get("crypto.ope.encrypt", 0)
                + self.counters.get("crypto.ope.decrypt", 0)
            ),
            "round_ms": round(self.elapsed_s / self.rounds * 1e3, 2),
            "bcm_cells": round(self.bcm_mean_cells, 1),
            "bpm_cells": round(self.bpm_mean_cells, 1),
            "revenue": self.revenue,
            "audit_exact": self.comm_audit_exact,
        }


def _replay_attacks(
    events: Sequence[Mapping[str, Any]],
    config: CompareConfig,
    users,
    database,
) -> Tuple[float, float]:
    """Mean BCM / BPM candidate cells per user, averaged over rounds.

    Both numbers come from the *recorded* trace — the same events a curious
    auctioneer holds — never from protocol-internal state, so they are
    honest adversary-replay measurements.
    """
    by_round = rankings_by_round(trace.adversary_view(list(events)))
    if not by_round:
        raise ValueError("trace carries no adversary-visible rankings")
    bcm_means: List[float] = []
    bpm_means: List[float] = []
    for round_idx in sorted(by_round):
        channels = by_round[round_idx]
        rankings = [channels[ch] for ch in range(database.n_channels)]
        masks = lppa_bcm_attack(
            database, rankings, config.n_users, config.bcm_fraction
        )
        bcm_means.append(
            sum(int(mask.sum()) for mask in masks) / len(masks)
        )
        refined = [
            int(
                bpm_attack(
                    database,
                    users[su],
                    mask,
                    keep_fraction=config.bpm_keep_fraction,
                ).sum()
            )
            for su, mask in enumerate(masks)
        ]
        bpm_means.append(sum(refined) / len(refined))
    return (
        sum(bcm_means) / len(bcm_means),
        sum(bpm_means) / len(bpm_means),
    )


def _run_scheme(name: str, config: CompareConfig) -> SchemeMeasurement:
    """One scheme's full instrumented run (fresh registry + recorder)."""
    from repro.analysis.trace_audit import audit_comm_cost

    # Fairness: no scheme inherits another's warm caches.
    get_mask_cache().clear()
    reset_ope_cache()

    registry = obs.MetricsRegistry()
    recorder = trace.TraceRecorder()
    with obs.collecting(registry), obs.tracing(recorder):
        report = asyncio.run(run_loadgen(config.loadgen_config(name)))
    events = recorder.events()

    comm = audit_comm_cost(events, strict=True)
    grid, users = build_population(config.loadgen_config(name))
    database = make_database(
        config.area, n_channels=config.n_channels, grid=grid
    )
    bcm_cells, bpm_cells = _replay_attacks(events, config, users, database)

    return SchemeMeasurement(
        scheme=name,
        rounds=report.rounds_completed,
        wire_bytes=report.wire_bytes,
        framed_bytes=sum(
            int(s["framed_bytes"]) for s in report.round_summaries
        ),
        revenue=sum(int(s["revenue"]) for s in report.round_summaries),
        elapsed_s=report.elapsed_s,
        p50_latency_s=report.p50_latency_s,
        bcm_mean_cells=bcm_cells,
        bpm_mean_cells=bpm_cells,
        comm_audit_exact=all(r.exact for r in comm.rounds),
        equivalence_checked=report.equivalence_checked,
        counters=registry.totals(),
    )


def run_compare(
    config: CompareConfig,
) -> List[SchemeMeasurement]:
    """Run every configured scheme on identical seeds; see module docstring.

    Raises ``ValueError`` for unknown scheme names (before any run starts)
    and propagates :class:`~repro.net.loadgen.EquivalenceFailure` if a
    networked round diverges from its in-process session.
    """
    for name in config.schemes:
        get_scheme(name)  # fail fast on unknown names, before any run
    return [_run_scheme(name, config) for name in config.schemes]


def fold_measurements(
    measurements: Sequence[SchemeMeasurement],
) -> obs.MetricsRegistry:
    """All measurements folded into one registry under per-scheme prefixes.

    The result is a normal obs registry, so the standard artifact writer,
    validator, OpenMetrics renderer and ``repro metrics diff`` all apply.
    """
    registry = obs.MetricsRegistry()
    for m in measurements:
        prefix = f"schemes.{m.scheme}"
        for key, value in sorted(m.counters.items()):
            registry.count(f"{prefix}.{key}", value)
        registry.count(f"{prefix}.wire_bytes", m.wire_bytes)
        registry.count(f"{prefix}.framed_bytes", m.framed_bytes)
        registry.count(f"{prefix}.rounds", m.rounds)
        registry.count(f"{prefix}.equivalence_checked", m.equivalence_checked)
        registry.set_gauge(f"{prefix}.revenue", float(m.revenue))
        registry.set_gauge(f"{prefix}.bcm_mean_cells", m.bcm_mean_cells)
        registry.set_gauge(f"{prefix}.bpm_mean_cells", m.bpm_mean_cells)
        registry.set_gauge(
            f"{prefix}.comm_audit_exact", 1.0 if m.comm_audit_exact else 0.0
        )
        # Wall clock: recorded for humans, excluded from baseline checks.
        registry.record_seconds(f"{prefix}.elapsed", m.elapsed_s, m.rounds)
    return registry


def format_compare_table(measurements: Sequence[SchemeMeasurement]) -> str:
    """The human-readable cross-scheme table ``repro compare`` prints."""
    from repro.experiments.tables import format_table

    return format_table(
        [m.as_row() for m in measurements],
        title="Privacy schemes on identical seeds (networked runtime)",
    )


def write_compare_artifact(
    path: str,
    measurements: Sequence[SchemeMeasurement],
    config: CompareConfig,
) -> Path:
    """Write the artifact and re-validate it; returns the written path.

    The artifact on disk has already passed
    :func:`repro.obs.artifact.load_artifact` validation.
    """
    registry = fold_measurements(measurements)
    written = obs.write_artifact(
        path,
        ARTIFACT_NAME,
        registry,
        config={
            "schemes": ",".join(config.schemes),
            "users": config.n_users,
            "channels": config.n_channels,
            "rounds": config.rounds,
            "seed": config.seed,
            "area": config.area,
            "grid": config.grid_n,
            "bcm_fraction": config.bcm_fraction,
            "bpm_keep_fraction": config.bpm_keep_fraction,
        },
    )
    obs.load_artifact(written)  # round-trip validation
    return written
