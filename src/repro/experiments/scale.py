"""Scale sweep: one full-crypto LPPA round at 1k–100k SUs (``BENCH_scale``).

The paper evaluates 100-SU rounds, but a deployed CRN auction clears far
larger regions.  This sweep times one in-process round per population
size, so the scaling curve lands in the perf trajectory next to the micro
benches.  The round builds its conflict graph from the masked conflict
index (DESIGN.md §9), the same path as the networked server, so it never
reads the SUs' plaintext cells.

What the numbers mean
---------------------
``round_wall_s`` is the whole round: bidder-side masking, auctioneer-side
conflict graph + psd allocation, and TTP charging.  ``auctioneer_wall_s``
isolates the two auctioneer-side phases (the ``lppa.conflict_graph`` timer
plus the ``psd_allocation`` phase), where the index lookups and the
per-channel rankings live.  Bidder-side masking is client-side work in a
deployment (each SU masks its own submission).  ``collector_wall_s`` is
the time CPython's cyclic garbage collector ran during the point (the
``runtime.gc`` timer; the round itself runs with the collector paused,
DESIGN.md §7).

The population is synthetic (uniform cells, uniform bids) at the paper's
density — the grid side grows as ``ceil(sqrt(10 N))`` so ~10% of cells are
occupied at every size, matching the 100-SU / 100×100-grid evaluation
setup.  All randomness is label-addressed off ``scale:<seed>:<size>``, so
any two runs see the same users.

``peak_rss_mib`` is the process's peak resident set size (``ru_maxrss``)
read right after the point.  The peak never falls, so a sweep runs its
sizes in ascending order and each reading is the peak up to that size.
It is printed in the table only: RSS is not deterministic, so it is not a BENCH gauge (``repro
metrics diff`` compares gauges exactly).

``verify=True`` checks the two masked-index jobs against independent
computations that share no code with the index: the round's conflict graph
must equal the plaintext graph of the same users' cells
(:func:`~repro.auction.conflict.build_conflict_graph`), and each channel's
PSD ranking must equal :func:`~repro.auction.table.rank_values` over the
disclosed expanded values.  The CI ``scale-smoke`` job runs exactly this
at 1k and 4k SUs, where the index spans several 2048-set blocks.
"""

from __future__ import annotations

import math
import random
import resource
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.auction.bidders import SecondaryUser
from repro.auction.conflict import build_conflict_graph
from repro.auction.table import rank_values
from repro.geo.grid import GridSpec
from repro.lppa.session import run_lppa_auction
from repro.obs.clock import Stopwatch
from repro.obs.registry import MetricsRegistry, PHASE_TIMER_PREFIX

__all__ = [
    "DEFAULT_SIZES",
    "ScalePoint",
    "grid_side",
    "synthesize_population",
    "run_scale_point",
    "run_scale_sweep",
    "format_scale_table",
]

#: The committed-baseline sweep sizes.
DEFAULT_SIZES = (1_000, 10_000, 100_000)

_TWO_LAMBDA = 6
_BMAX = 127
_N_CHANNELS = 6
_SEED = b"lppa-session"


def grid_side(n_users: int) -> int:
    """Grid side keeping the paper's SU density (~10 cells per SU).

    1k SUs land on the paper's own 100×100 lattice; larger populations get
    proportionally larger areas so conflict-degree statistics stay
    comparable across sizes instead of saturating.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    return max(100, math.isqrt(10 * n_users - 1) + 1)


def synthesize_population(
    n_users: int,
    *,
    n_channels: int = _N_CHANNELS,
    bmax: int = _BMAX,
    seed: int = 0,
) -> Tuple[List[SecondaryUser], GridSpec]:
    """A uniform synthetic population at the paper's density.

    Deterministic in ``(n_users, n_channels, bmax, seed)``, so any two
    machines reproducing the committed baseline see the same users.
    """
    side = grid_side(n_users)
    grid = GridSpec(rows=side, cols=side)
    rng = random.Random(f"scale:{seed}:{n_users}")
    users = [
        SecondaryUser(
            user_id=i,
            cell=(rng.randrange(side), rng.randrange(side)),
            beta=1.0,
            bids=tuple(rng.randrange(0, bmax + 1) for _ in range(n_channels)),
        )
        for i in range(n_users)
    ]
    return users, grid


@dataclass
class ScalePoint:
    """One population size's measurements.

    ``verified`` is ``None`` when the plaintext check did not run, else
    whether the round's conflict graph and PSD rankings matched it.
    ``peak_rss_mib`` is the process's peak RSS after the point and
    ``collector_wall_s`` the cyclic collector's time during it (see the
    module docstring).
    """

    size: int
    grid_side: int
    n_channels: int
    n_edges: int
    winners: int
    round_wall_s: float
    auctioneer_wall_s: float
    peak_rss_mib: float = 0.0
    verified: Optional[bool] = None
    collector_wall_s: float = 0.0


def _peak_rss_mib() -> float:
    """The process's peak RSS so far (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _collector_seconds(registry: MetricsRegistry) -> float:
    """Cyclic-collector time (``runtime.gc``, every phase scope) of one point."""
    return sum(
        stat.seconds
        for key, stat in registry.timers.items()
        if key.rsplit("/", 1)[-1] == "runtime.gc"
    )


def _auctioneer_seconds(registry: MetricsRegistry) -> float:
    """Conflict-graph + psd-allocation wall time from one round's registry."""
    total = 0.0
    for key, stat in registry.timers.items():
        if key.endswith("/lppa.conflict_graph") or key == "lppa.conflict_graph":
            total += stat.seconds
        elif key == f"{PHASE_TIMER_PREFIX}/psd_allocation":
            total += stat.seconds
    return total


def run_scale_point(
    size: int,
    *,
    n_channels: int = _N_CHANNELS,
    seed: int = 0,
    verify: bool = False,
) -> ScalePoint:
    """Time one round of ``size`` SUs; optionally verify its masked jobs.

    ``verify`` builds the plaintext conflict graph of the same cells and
    ranks the disclosed expanded values (unmeasured), and records whether
    both equal what the round computed from masked material.
    """
    users, grid = synthesize_population(
        size, n_channels=n_channels, seed=seed
    )
    watch = Stopwatch()
    with obs.collecting(MetricsRegistry()) as registry:
        result = run_lppa_auction(
            users,
            grid,
            two_lambda=_TWO_LAMBDA,
            bmax=_BMAX,
            seed=_SEED,
            entropy=f"scale:{seed}:{size}".encode(),
        )
    point = ScalePoint(
        size=size,
        grid_side=grid.rows,
        n_channels=n_channels,
        n_edges=result.conflict_graph.n_edges,
        winners=len(result.outcome.wins),
        round_wall_s=watch.elapsed(),
        auctioneer_wall_s=_auctioneer_seconds(registry),
        collector_wall_s=_collector_seconds(registry),
        peak_rss_mib=_peak_rss_mib(),
    )
    if verify:
        with obs.unmeasured():
            graph = build_conflict_graph([user.cell for user in users], _TWO_LAMBDA)
            rankings = [
                rank_values(
                    {d.user_id: d.channels[ch].masked_expanded for d in result.disclosures}
                )
                for ch in range(n_channels)
            ]
            point.verified = (
                graph == result.conflict_graph and rankings == result.rankings
            )
    _record_point(point)
    return point


def _record_point(point: ScalePoint) -> None:
    """Fold one point into the ambient obs registry (the BENCH artifact)."""
    if obs.get_active() is None:
        return
    prefix = f"scale.{point.size}"
    obs.record_seconds(f"{prefix}.round", point.round_wall_s)
    obs.record_seconds(f"{prefix}.auctioneer", point.auctioneer_wall_s)
    obs.record_seconds(f"{prefix}.collector", point.collector_wall_s)
    obs.count(f"{prefix}.edges", point.n_edges)
    obs.count(f"{prefix}.winners", point.winners)
    if point.verified is not None:
        obs.count(f"{prefix}.verified", int(point.verified))


def run_scale_sweep(
    sizes: Sequence[int] = DEFAULT_SIZES,
    *,
    n_channels: int = _N_CHANNELS,
    seed: int = 0,
    verify: bool = False,
    progress=None,
) -> List[ScalePoint]:
    """One :func:`run_scale_point` per size, smallest first."""
    points = []
    for size in sorted(sizes):
        if progress is not None:
            progress(size)
        points.append(
            run_scale_point(
                size, n_channels=n_channels, seed=seed, verify=verify
            )
        )
    return points


def format_scale_table(points: Sequence[ScalePoint]) -> str:
    """The human-readable sweep summary the CLI prints."""
    verdicts = {None: "-", True: "ok", False: "MISMATCH"}
    lines = [
        f"{'SUs':>8}  {'grid':>9}  {'edges':>9}  {'winners':>8}  "
        f"{'round':>9}  {'auctioneer':>11}  {'collector':>10}  {'peak RSS':>10}  "
        f"{'plaintext':>9}",
    ]
    for p in points:
        lines.append(
            f"{p.size:>8}  {p.grid_side:>4}x{p.grid_side:<4}  {p.n_edges:>9}  "
            f"{p.winners:>8}  {p.round_wall_s:8.2f}s  "
            f"{p.auctioneer_wall_s:10.2f}s  {p.collector_wall_s:9.2f}s  "
            f"{p.peak_rss_mib:6.0f} MiB  "
            f"{verdicts[p.verified]:>9}"
        )
    return "\n".join(lines)
