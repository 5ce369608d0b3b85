"""The benchmark's four workloads, driven through the program's public API.

Every workload is a closed loop in one process with one event-loop thread:
round r+1 starts only after round r completes, and each SU answers once
per phase.  All share the paper's setting: PPBS, a 100x100 grid over
75 km, 6 channels, 2*lambda = 6, bmax = 127 and no zero disguise.  The
seed picks the round entropies and the TTP keys; the population of the
round workloads is fixed (``POPULATION_SEED``), because a different roster
changes the work a round does by more than the host noise this benchmark
must resolve.  ``run_soak`` derives population, churn plan and entropies
from its one seed, so there the seed picks all of them, among the plans
that keep the roster at its initial size on average (:func:`soak_seed`).

A run does a fixed amount of work -- a number of rounds set by
``--seconds`` at the reference host speed -- so its per-round counts and
bytes are a function of the seed alone, however fast the host happens to
be.  Every round has its own entropy label, as in a deployment.

``round25_mem``
    25 SUs over ``MemoryTransport``: the paper-scale round with every
    layer except the socket.  The mask cache is warm; bid submission is
    over half the round.
``round2_tcp``
    2 SUs over loopback ``TcpTransport``: the smallest round, where
    per-frame cost (codec, framing, socket, loop wake-ups) is the
    largest share it reaches anywhere.
``churn_soak``
    ``run_soak``: population 36, Poisson join/leave with mean 2 per epoch,
    history in a temporary run dir, epochs back to back.  Churned SUs miss
    the mask cache and force rekeys and reseats: the cache's write side,
    and the only workload running ``service.membership``/``store``.
``scale250_inproc``
    250 SUs through in-process ``run_lppa_auction`` on the default round
    path.  The conflict graph, PSD ranking and the time outside the timed
    phases grow faster than N; no net code runs.  (1000 SUs was planned,
    but its 2-second rounds straddle the host's speed changes: see
    STEADINESS.md.)
"""

from __future__ import annotations

import asyncio
import contextlib
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.crypto.cache import MaskCache, set_mask_cache
from repro.lppa.policies import KeepZeroPolicy
from repro.lppa.session import LppaResult, run_lppa_auction
from repro.lppa.ttp import TrustedThirdParty
from repro.net.client import SUClient
from repro.net.loadgen import LoadgenConfig, build_population, protocol_seed, round_entropy
from repro.net.server import AuctioneerServer, ServerConfig
from repro.net.transport import MemoryTransport, TcpTransport
from repro.service.scheduler import service_entropy
from repro.service.soak import SoakConfig, churn_plan, run_soak
from repro.service.store import EpochStore, validate_run

import checks
import probe
from tracer import IdleSelector, LayerTracer, Target

__all__ = [
    "TARGETS",
    "WORKLOADS",
    "RunOutcome",
    "Workload",
    "run_setup_sample",
    "run_workload",
    "soak_seed",
]

GRID_N = 100
POPULATION_SEED = 1
N_CHANNELS = 6
PROTOCOL = {"two_lambda": 6, "bmax": 127}
SOAK_EPOCHS = 16
SOAK_CHURN = 2.0
#: Networked rounds re-run in process, spread evenly over the run.
REFERENCE_SAMPLES = 8
#: Soak epochs re-run in process (of the first call; later calls repeat it).
SOAK_REFERENCE_EPOCHS = (1, 5, 10, 15)
#: Generous phase deadlines: a slow host must never turn into stragglers.
DEADLINE_S = 60.0

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    """One named workload."""

    name: str
    kind: str           # "net" | "soak" | "inproc"
    n_users: int
    transport: str = "memory"
    #: Measured units (rounds; ``run_soak`` calls for the soak) per second
    #: of ``--seconds`` at the reference host speed.  A run does this fixed
    #: work, so its counts and bytes depend on the seed alone.
    units_per_s: float = 1.0
    #: Warm-up units run before measuring (not measured).
    warmup: int = 1
    #: Probe units timed after each round.
    probe_reps: int = 1

    def roster_seed(self, seed: int) -> int:
        """The seed of this workload's population."""
        return seed if self.kind == "soak" else POPULATION_SEED

    def units(self, seconds: float) -> int:
        """Measured units for a run of ``seconds`` (at least two)."""
        return max(2, round(seconds * self.units_per_s))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("round25_mem", "net", 25, "memory", units_per_s=24, warmup=8, probe_reps=4),
        Workload("round2_tcp", "net", 2, "tcp", units_per_s=120, warmup=20, probe_reps=1),
        Workload("churn_soak", "soak", 36, units_per_s=0.6, warmup=1, probe_reps=4),
        Workload("scale250_inproc", "inproc", 250, units_per_s=4, warmup=1, probe_reps=8),
    )
}


def _cipher_blocks(args: tuple, kwargs: dict) -> int:
    data = args[2] if len(args) > 2 else kwargs["plaintext"]
    return -(-len(data) // 8)


#: The layers the traced run times, each at its public functions.
TARGETS: List[Target] = [
    ("lppa.entropy.bidder_rng", "repro.lppa.entropy:bidder_rng", None),
    ("lppa.entropy.bidder_rng", "repro.lppa.entropy:derive_round_rngs", None),
    # ctr_decrypt calls ctr_encrypt, so blocks are counted once, there.
    ("crypto.speck", "repro.crypto.speck:ctr_encrypt", _cipher_blocks),
    ("crypto.speck", "repro.crypto.speck:ctr_decrypt", None),
    ("crypto.hmac", "repro.crypto.backend:hmac_digest", None),
    ("crypto.hmac", "repro.crypto.backend:hmac_digest_batch", None),
    ("crypto.hmac", "repro.crypto.backend:hmac_digest_pairs", None),
    ("prefix.mask", "repro.prefix.membership:mask_specs", None),
    ("prefix.pad", "repro.prefix.membership:pad_masked_set", None),
    ("prefix.range_cover", "repro.prefix.ranges:range_cover", None),
    ("lppa.bids", "repro.lppa.bids_advanced:submit_bids_advanced", None),
    ("lppa.locations", "repro.lppa.location:submit_locations", None),
    ("lppa.locations", "repro.lppa.location:submit_location", None),
    *[
        ("lppa.codec", f"repro.lppa.codec:{op}_{what}", None)
        for op in ("encode", "decode")
        for what in ("masked_set", "location", "bids")
    ],
    ("net.frames", "repro.net.frames:encode_frame", None),
    ("net.frames", "repro.net.frames:decode_frame", None),
    ("service.membership", "repro.service.membership:MembershipManager.apply", None),
    ("service.membership", "repro.service.membership:MembershipManager.keyring", None),
    ("service.store", "repro.service.store:EpochStore.record_epoch", None),
]


def soak_config(seed: int, **runtime) -> SoakConfig:
    """The churn soak's configuration for ``run_soak`` seed ``seed``."""
    return SoakConfig(
        population=WORKLOADS["churn_soak"].n_users, epochs=SOAK_EPOCHS, n_channels=N_CHANNELS,
        seed=seed, grid_n=GRID_N, join_rate=SOAK_CHURN, leave_rate=SOAK_CHURN,
        location_deadline=DEADLINE_S, bid_deadline=DEADLINE_S, **PROTOCOL, **runtime,
    )


def soak_seed(seed: int) -> int:
    """The ``run_soak`` seed for benchmark seed ``seed``.

    The first of ``seed * 10**6, seed * 10**6 + 1, ...`` whose churn plan
    keeps exactly the initial roster size on average over the measured
    epochs (1 and up).  Unconditioned, the mean roster of a 16-epoch plan
    spreads by about 18% between seeds (interquartile range over 40
    seeds), and every end-to-end metric of the soak with it.
    """
    candidate = seed * 10**6
    while True:
        config = soak_config(candidate)
        members = set(range(config.n_initial))
        total = 0
        for epoch, delta in enumerate(churn_plan(config)):
            members = (members - set(delta.leaves)) | set(delta.joins)
            total += len(members) if epoch else 0
        if total == config.n_initial * (SOAK_EPOCHS - 1):
            return candidate
        candidate += 1


def population(seed: int, n_users: int):
    """The CLI's population recipe on the paper's grid, keyed by ``seed``."""
    return build_population(
        LoadgenConfig(
            n_users=n_users, n_channels=N_CHANNELS, seed=seed, grid_n=GRID_N, **PROTOCOL
        )
    )


# -- measurement windows --------------------------------------------------


@dataclass
class Window:
    """Measured rounds: raw durations plus the probe time next to each."""

    reps: int
    cycles: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)
    framed: List[int] = field(default_factory=list)
    edges: List[int] = field(default_factory=list)

    def add(self, cycle_s: float, latency_s: float, probe_s: float, result: LppaResult) -> None:
        """One round: its cycle time (round plus bookkeeping, no probe),
        its latency, the mean probe either side and its result."""
        self.cycles.append(cycle_s)
        self.latencies.append(latency_s)
        self.probes.append(probe_s)
        self.framed.append(result.framed_bytes)
        self.edges.append(len(result.conflict_graph.edges))

    @property
    def rounds(self) -> int:
        return len(self.cycles)

    def _factors(self) -> List[float]:
        return [probe.scale(self.reps, p) for p in self.probes]

    def rounds_per_s(self, corrected: bool = True) -> float:
        """Rounds over the summed cycle times (probe time excluded)."""
        if corrected:
            return self.rounds / sum(c * f for c, f in zip(self.cycles, self._factors()))
        return self.rounds / sum(self.cycles)

    def latency_ms(self, q: float, corrected: bool = True) -> float:
        """Latency quantile ``q`` in milliseconds."""
        values = self.latencies
        if corrected:
            values = [v * f for v, f in zip(values, self._factors())]
        if q == 0.5 or len(values) < 2:
            return statistics.median(values) * 1e3
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        return cuts[round(q * 100) - 1] * 1e3

    def correction(self) -> float:
        """Corrected over raw total cycle time."""
        return sum(c * f for c, f in zip(self.cycles, self._factors())) / sum(self.cycles)


@dataclass
class Outputs:
    """Every round's digest, plus the results kept for reference checks."""

    digests: List[str] = field(default_factory=list)
    kept: Dict[int, Tuple[LppaResult, Tuple[int, ...]]] = field(default_factory=dict)
    bad: set = field(default_factory=set)
    problems: List[str] = field(default_factory=list)

    def record(
        self,
        result: LppaResult,
        *,
        members: Sequence[int] = (),
        stragglers: Sequence[int] = (),
        keep: bool = False,
    ) -> int:
        """Digest one round (keeping its result if asked); returns its serial."""
        serial = len(self.digests)
        self.digests.append(checks.round_digest(result, members))
        if keep:
            self.kept[serial] = (result, tuple(members))
        if stragglers:
            self.fail([serial], f"round {serial}: stragglers {list(stragglers)}")
        return serial

    def fail(self, serials: Sequence[int], why: str) -> None:
        """Mark rounds failed."""
        self.bad.update(serials)
        self.problems.append(why)

    @property
    def attempted(self) -> int:
        return len(self.digests)


class Profile:
    """Layer tracer, program registry and loop idle time, read as deltas."""

    def __init__(self, selector: Optional[IdleSelector]) -> None:
        self.tracer = LayerTracer(TARGETS)
        self.registry = obs.MetricsRegistry()
        self.selector = selector
        self.totals: Dict[str, float] = {}
        self._mark: Dict[str, float] = {}

    def _snapshot(self) -> Dict[str, float]:
        flat: Dict[str, float] = {}
        for layer, stat in self.tracer.stats.items():
            flat[f"self:{layer}"] = stat.self_s
            flat[f"calls:{layer}"] = stat.calls
            flat[f"work:{layer}"] = stat.work
        for key, value in self.registry.counters.items():
            flat[f"counter:{key}"] = value
        for key, stat in self.registry.timers.items():
            flat[f"timer:{key}"] = stat.seconds
        flat["idle_s"] = self.selector.idle_s if self.selector is not None else 0.0
        return flat

    def begin(self) -> None:
        """Start a measured stretch."""
        self._mark = self._snapshot()

    def end(self) -> None:
        """Add everything since :meth:`begin` to the totals."""
        for key, value in self._snapshot().items():
            self.totals[key] = self.totals.get(key, 0) + value - self._mark.get(key, 0)

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        """Wrap the layers and collect the program's own metrics."""
        with self.tracer, obs.collecting(self.registry):
            if self.selector is not None:
                self.selector.counting = True
            try:
                yield
            finally:
                if self.selector is not None:
                    self.selector.counting = False


# -- set-up ----------------------------------------------------------------


class NetRig:
    """A server and its SU clients over one transport."""

    def __init__(self, server: AuctioneerServer, tasks: List[asyncio.Future], users, grid) -> None:
        self.server = server
        self.tasks = tasks
        self.users = users
        self.grid = grid

    @classmethod
    async def open(
        cls, wl: Workload, seed: int, timings: Dict[str, float], *, connect: int
    ) -> "NetRig":
        """Build population, keyring and server; connect ``connect`` SUs."""
        t0 = clock()
        grid, users = population(wl.roster_seed(seed), wl.n_users)
        t1 = clock()
        transport = TcpTransport("127.0.0.1", 0) if wl.transport == "tcp" else MemoryTransport()
        server = AuctioneerServer(
            ServerConfig(
                n_users=wl.n_users,
                n_channels=N_CHANNELS,
                grid=grid,
                seed=protocol_seed(seed),
                location_deadline=DEADLINE_S,
                bid_deadline=DEADLINE_S,
                **PROTOCOL,
            ),
            transport,
        )
        t2 = clock()
        await server.start()
        clients = [
            SUClient(
                su, user, server.keyring, server.scale, grid, PROTOCOL["two_lambda"],
                transport, policy=KeepZeroPolicy(), frame_timeout=DEADLINE_S,
            )
            for su, user in enumerate(users[:connect])
        ]
        tasks = [asyncio.ensure_future(c.run(1 << 62)) for c in clients]
        await server.wait_for_clients(connect, timeout=DEADLINE_S)
        t3 = clock()
        timings.update(
            {"geo.population_s": t1 - t0, "crypto.keyring_s": t2 - t1, "net.connect_s": t3 - t2}
        )
        return cls(server, tasks, users, grid)

    async def close(self) -> None:
        """Say BYE and wait for every client to finish."""
        await self.server.stop()
        await asyncio.wait_for(asyncio.gather(*self.tasks), DEADLINE_S)


def _inproc_setup(wl: Workload, seed: int, timings: Dict[str, float]):
    """Population and the TTP keyring ``run_lppa_auction`` derives; returns
    ``(grid, users)``."""
    t0 = clock()
    grid, users = population(wl.roster_seed(seed), wl.n_users)
    t1 = clock()
    TrustedThirdParty.setup(protocol_seed(seed), N_CHANNELS, bmax=PROTOCOL["bmax"])
    timings.update(
        {"geo.population_s": t1 - t0, "crypto.keyring_s": clock() - t1, "net.connect_s": 0.0}
    )
    return grid, users


async def setup_sample(wl: Workload, seed: int) -> Dict[str, float]:
    """Everything before the first round: population, keyring, server
    listening and every SU connected and welcomed (times in seconds)."""
    timings: Dict[str, float] = {}
    if wl.kind == "soak":
        seed = soak_seed(seed)
    if wl.kind == "inproc":
        _inproc_setup(wl, seed, timings)
        return timings
    connect = soak_config(seed).n_initial if wl.kind == "soak" else wl.n_users
    rig = await NetRig.open(wl, seed, timings, connect=connect)
    await rig.close()
    return timings


# -- measured loops ---------------------------------------------------------


@dataclass
class RunOutcome:
    """What one run measured and checked."""

    setup: Dict[str, float]
    first_round_s: float
    plain: Window
    outputs: Outputs
    traced: Optional[Window] = None
    profile: Optional[Profile] = None
    epoch_overhead_s: List[float] = field(default_factory=list)


class _Rounds:
    """Closed-loop rounds of the net and in-process workloads; round ``i``
    uses entropy label ``i``, so no two rounds of a run repeat."""

    def __init__(self, wl: Workload, seed: int, outputs: Outputs, total: int, samples: int):
        self.wl = wl
        self.seed = seed
        self.outputs = outputs
        self.rig: Optional[NetRig] = None
        self.users = None
        self.grid = None
        self.last_probe = 0.0
        self.kept = {round(i * (total - 1) / max(1, samples - 1)) for i in range(samples)}

    async def one(self) -> Tuple[float, float, LppaResult]:
        """Run the next round; returns (cycle seconds, latency seconds, result)."""
        index = self.outputs.attempted
        entropy = round_entropy(self.seed, index)
        keep = index in self.kept
        t0 = clock()
        if self.rig is not None:
            report = await self.rig.server.run_round(entropy)
            t1 = clock()
            self.outputs.record(report.result, stragglers=report.stragglers, keep=keep)
            return t1 - t0, report.latency_s, report.result
        result = run_lppa_auction(
            self.users, self.grid, seed=protocol_seed(self.seed),
            policy=KeepZeroPolicy(), entropy=entropy, **PROTOCOL,
        )
        t1 = clock()
        self.outputs.record(result, keep=keep)
        return t1 - t0, t1 - t0, result

    async def run(self, window: Window, count: int) -> None:
        """``count`` measured rounds, each followed by a probe."""
        for _ in range(count):
            cycle_s, latency_s, result = await self.one()
            p = probe.probe(self.wl.probe_reps)
            window.add(cycle_s, latency_s, (self.last_probe + p) / 2, result)
            self.last_probe = p


async def _run_rounds(
    wl: Workload, seed: int, seconds: float, profile: Optional[Profile], sampler
) -> RunOutcome:
    units = wl.units(seconds)
    outputs = Outputs()
    samples = REFERENCE_SAMPLES if wl.kind == "net" else 1
    rounds = _Rounds(wl, seed, outputs, wl.warmup + units, samples)
    setup: Dict[str, float] = {}
    if wl.kind == "net":
        rounds.rig = await NetRig.open(wl, seed, setup, connect=wl.n_users)
        rounds.users, rounds.grid = rounds.rig.users, rounds.rig.grid
    else:
        rounds.grid, rounds.users = _inproc_setup(wl, seed, setup)
    try:
        sampler()
        first_round_s = (await rounds.one())[1]
        for _ in range(wl.warmup - 1):
            await rounds.one()
        rounds.last_probe = probe.probe(wl.probe_reps)
        outcome = RunOutcome(setup, first_round_s, Window(wl.probe_reps), outputs)
        if profile is None:
            await rounds.run(outcome.plain, units)
        else:
            await rounds.run(outcome.plain, units // 2)
            outcome.traced = Window(wl.probe_reps)
            outcome.profile = profile
            with profile.active():
                profile.begin()
                await rounds.run(outcome.traced, units - units // 2)
                profile.end()
    finally:
        if rounds.rig is not None:
            await rounds.rig.close()
    # The in-process workload is checked against the sharded round path,
    # which must be bit-identical to the default one.
    options = {} if wl.kind == "net" else {"shards": 1}
    for serial, (result, _) in sorted(outputs.kept.items()):
        problem = checks.reference_mismatch(
            result, rounds.users, rounds.grid, seed=protocol_seed(seed),
            entropy=round_entropy(seed, serial), **PROTOCOL, **options,
        )
        if problem is not None:
            outputs.fail([serial], f"round {serial} vs in-process reference: {problem}")
    return outcome


class _Soak:
    """Back-to-back ``run_soak`` calls.  Each call starts from a cold mask
    cache with the same seed, so every call repeats the first one exactly."""

    def __init__(self, wl: Workload, seed: int, outputs: Outputs, tmp_root: Path) -> None:
        self.wl = wl
        self.seed = seed
        self.outputs = outputs
        self.tmp_root = tmp_root
        self.first_epoch_s = 0.0
        self.first_call: List[str] = []

    async def call(
        self, window: Optional[Window], overheads: List[float], profile: Optional[Profile]
    ) -> None:
        """One ``run_soak`` call; epoch 0 is not measured."""
        wl = self.wl
        config = soak_config(
            self.seed, run_dir=tempfile.mkdtemp(prefix="soak-", dir=self.tmp_root)
        )
        # A fresh service process starts with an empty cache: without this,
        # churned SUs would hit entries the previous call wrote.
        set_mask_cache(MaskCache())
        marks: List[Tuple[float, float, float]] = []
        record_epoch = vars(EpochStore)["record_epoch"]

        def probed_record_epoch(store, index, document, **kwargs):
            path = record_epoch(store, index, document, **kwargs)
            t = clock()
            if profile is not None and index in (0, SOAK_EPOCHS - 1):
                (profile.begin if index == 0 else profile.end)()
            marks.append((t, probe.probe(wl.probe_reps), clock()))
            return path

        EpochStore.record_epoch = probed_record_epoch  # type: ignore[method-assign]
        try:
            report = await run_soak(config)
        finally:
            EpochStore.record_epoch = record_epoch  # type: ignore[method-assign]
        first = not self.first_call
        serials = []
        for record in report.records:
            serials.append(self.outputs.record(
                record.report.result, members=record.members,
                stragglers=record.straggler_logicals,
                keep=first and record.epoch in SOAK_REFERENCE_EPOCHS,
            ))
        digests = self.outputs.digests[serials[0]:] if serials else []
        if first:
            self.first_call = digests
            self.first_epoch_s = report.records[0].report.latency_s
        elif digests != self.first_call:
            self.outputs.fail(serials, "soak call differs from the first call")
        errors = validate_run(config.run_dir)
        shutil.rmtree(config.run_dir)
        if errors or len(report.records) != SOAK_EPOCHS:
            self.outputs.fail(serials, f"soak history: {errors[:3]}")
        if window is None:
            return
        for epoch in range(1, len(marks)):
            cycle_s = marks[epoch][0] - marks[epoch - 1][2]
            latency_s = report.records[epoch].report.latency_s
            window.add(
                cycle_s, latency_s, (marks[epoch - 1][1] + marks[epoch][1]) / 2,
                report.records[epoch].report.result,
            )
            overheads.append(cycle_s - latency_s)


async def _run_soak(
    wl: Workload, seed: int, seconds: float, profile: Optional[Profile], sampler,
    tmp_root: Path,
) -> RunOutcome:
    units = wl.units(seconds)
    setup: Dict[str, float] = {}
    rig = await NetRig.open(wl, seed, setup, connect=soak_config(seed).n_initial)
    await rig.close()
    sampler()
    outputs = Outputs()
    soak = _Soak(wl, seed, outputs, tmp_root)
    for _ in range(wl.warmup):
        await soak.call(None, [], None)
    outcome = RunOutcome(setup, soak.first_epoch_s, Window(wl.probe_reps), outputs)
    overheads: List[float] = []
    if profile is None:
        for _ in range(units):
            await soak.call(outcome.plain, overheads, None)
    else:
        for _ in range(units // 2):
            await soak.call(outcome.plain, [], None)
        outcome.traced = Window(wl.probe_reps)
        outcome.profile = profile
        with profile.active():
            for _ in range(units - units // 2):
                await soak.call(outcome.traced, overheads, profile)
    outcome.epoch_overhead_s = overheads
    grid, users = population(seed, wl.n_users)
    for serial, (result, members) in sorted(outputs.kept.items()):
        problem = checks.reference_mismatch(
            result, [users[m] for m in members], grid, seed=protocol_seed(seed),
            entropy=service_entropy(seed, serial), **PROTOCOL,
        )
        if problem is not None:
            outputs.fail([serial], f"epoch {serial} vs in-process round: {problem}")
    return outcome


def run_workload(
    wl: Workload,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    sampler,
    tmp_root: Path,
) -> RunOutcome:
    """Set up, warm up, measure and check one workload in this process.

    ``sampler`` runs once set-up is done and before warm-up (the caller
    takes extra set-up samples there).  With ``trace`` the measured
    units are split: the first half untraced, the second traced.
    """
    selector = IdleSelector() if trace else None
    profile = Profile(selector) if trace else None
    if wl.kind == "soak":
        coro = _run_soak(wl, soak_seed(seed), seconds, profile, sampler, tmp_root)
    else:
        coro = _run_rounds(wl, seed, seconds, profile, sampler)
    factory = (lambda: asyncio.SelectorEventLoop(selector)) if selector is not None else None
    with asyncio.Runner(loop_factory=factory) as runner:
        return runner.run(coro)


def run_setup_sample(wl: Workload, seed: int) -> Dict[str, float]:
    """:func:`setup_sample` on a fresh event loop."""
    with asyncio.Runner() as runner:
        return runner.run(setup_sample(wl, seed))
