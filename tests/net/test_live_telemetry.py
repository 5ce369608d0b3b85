"""Live telemetry must not change a networked auction (PR-8 acceptance).

The same 25-SU auction over the memory transport runs twice:

* **baseline** — the pre-telemetry path: flight recorder only, no metrics
  registry, no scrape endpoint, no per-client recorders;
* **instrumented** — everything on at once: a collecting registry, the
  ``metrics_port`` OpenMetrics endpoint scraped while the server is live,
  one private :class:`TraceRecorder` per SU client, and the per-process
  traces merged afterwards.

Results, wire accounting, the server's trace summary and the Theorem-4
communication audit must be bit-identical between the two runs — the
telemetry layer observes the protocol, it never participates in it.
"""

import asyncio

from repro import obs
from repro.analysis.trace_audit import audit_comm_cost
from repro.net.client import SUClient
from repro.net.loadgen import (
    LoadgenConfig,
    LoadgenReport,
    build_population,
    check_result_equivalence,
    protocol_seed,
    round_entropy,
)
from repro.net.server import AuctioneerServer, ServerConfig
from repro.net.transport import MemoryTransport
from repro.obs.hist import Histogram
from repro.obs.openmetrics import validate_openmetrics
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceRecorder, merge_traces, validate_trace

N_USERS = 25
N_CHANNELS = 6
ROUNDS = 2
SEED = 8

CONFIG = LoadgenConfig(
    n_users=N_USERS, n_channels=N_CHANNELS, rounds=ROUNDS, seed=SEED,
)


async def _scrape(address):
    """One raw ``GET /metrics`` against the live endpoint."""
    host, port = address.rsplit(":", 1)
    reader, writer = await asyncio.open_connection(host, int(port))
    writer.write(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"200 OK" in head.splitlines()[0]
    return body.decode("utf-8")


async def _scenario(grid, users, *, metrics_port=None, client_recorders=None):
    """One full multi-round auction; returns everything worth comparing."""
    transport = MemoryTransport()
    server = AuctioneerServer(
        ServerConfig(
            n_users=CONFIG.n_users,
            n_channels=CONFIG.n_channels,
            grid=grid,
            two_lambda=CONFIG.two_lambda,
            bmax=CONFIG.bmax,
            seed=protocol_seed(CONFIG.seed),
            metrics_port=metrics_port,
        ),
        transport,
    )
    await server.start()
    clients = [
        SUClient(
            su_id, user, server.keyring, server.scale, grid,
            CONFIG.two_lambda, transport,
            recorder=client_recorders[su_id] if client_recorders else None,
        )
        for su_id, user in enumerate(users)
    ]

    async def _play(client):
        # SUClient.run keeps no per-round history; collect the documents here.
        await client.connect()
        try:
            return [await client.run_round() for _ in range(ROUNDS)]
        finally:
            client.close()

    tasks = [asyncio.ensure_future(_play(c)) for c in clients]
    await server.wait_for_clients(CONFIG.n_users, timeout=10.0)
    reports = [
        await server.run_round(round_entropy(CONFIG.seed, r))
        for r in range(ROUNDS)
    ]
    scraped = None
    if metrics_port is not None:
        scraped = await _scrape(server.metrics_address)
    client_rounds = await asyncio.gather(*tasks)
    await server.stop()
    return server, reports, client_rounds, clients, scraped


def _run_baseline(grid, users):
    recorder = TraceRecorder(capacity=100_000)
    with obs.tracing(recorder):
        out = asyncio.run(_scenario(grid, users))
    return out, recorder


def _run_instrumented(grid, users):
    registry = MetricsRegistry()
    recorder = TraceRecorder(capacity=100_000)
    client_recorders = [
        TraceRecorder(capacity=4096) for _ in range(N_USERS)
    ]
    with obs.collecting(registry, trace=recorder):
        out = asyncio.run(
            _scenario(grid, users, metrics_port=0,
                      client_recorders=client_recorders)
        )
    return out, recorder, registry, client_recorders


class TestLiveTelemetryDifferential:
    """One shared pair of runs, asserted from several angles."""

    @classmethod
    def setup_class(cls):
        grid, users = build_population(CONFIG)
        cls.base_out, cls.base_rec = _run_baseline(grid, users)
        (cls.inst_out, cls.inst_rec, cls.registry,
         cls.client_recs) = _run_instrumented(grid, users)

    def test_results_bit_identical(self):
        _, base_reports, base_rounds, _, _ = self.base_out
        _, inst_reports, inst_rounds, _, _ = self.inst_out
        for base, inst in zip(base_reports, inst_reports):
            check_result_equivalence(inst.result, base.result)
            assert inst.participants == base.participants
            assert inst.stragglers == base.stragglers
        # Every SU saw byte-identical RESULT documents in both runs.
        for base_client, inst_client in zip(base_rounds, inst_rounds):
            assert [r.result for r in inst_client] == [
                r.result for r in base_client
            ]

    def test_wire_accounting_identical(self):
        base_server = self.base_out[0]
        inst_server = self.inst_out[0]
        assert inst_server.wire.total_bytes == base_server.wire.total_bytes
        assert inst_server.wire.bytes_in == base_server.wire.bytes_in
        assert inst_server.wire.bytes_out == base_server.wire.bytes_out
        assert self.inst_rec.wire_totals() == self.base_rec.wire_totals()

    def test_server_trace_summary_identical(self):
        assert self.inst_rec.summary() == self.base_rec.summary()

    def test_theorem4_audit_identical(self):
        base = audit_comm_cost(self.base_rec.events(), strict=False)
        inst = audit_comm_cost(self.inst_rec.events(), strict=False)
        assert base.passed and inst.passed
        assert [r.as_row() for r in inst.rounds] == [
            r.as_row() for r in base.rounds
        ]

    def test_live_scrape_is_valid_and_carries_round_latency(self):
        scraped = self.inst_out[4]
        assert scraped is not None
        assert validate_openmetrics(scraped) == []
        assert "repro_net_round_latency" in scraped
        assert scraped.rstrip().endswith("# EOF")

    def test_correlation_key_shared_without_wire_bytes(self):
        server = self.inst_out[0]
        server_sessions = {
            e.get("session") for e in self.inst_rec.events()
            if e.get("session")
        }
        assert server_sessions == {server.session_key}
        for su_id, recorder in enumerate(self.client_recs):
            events = recorder.events()
            assert events, f"client {su_id} recorded nothing"
            assert {e.get("session") for e in events} == {server.session_key}
            assert {e.get("role") for e in events} == {f"su:{su_id}"}

    def test_merged_trace_validates_and_spans_all_roles(self):
        sources = [(self.inst_rec.header(), self.inst_rec.events())]
        sources.extend(
            (rec.header(), rec.events()) for rec in self.client_recs
        )
        header, events = merge_traces(sources)
        assert validate_trace([header] + events) == []
        assert len(events) == sum(len(e) for _, e in sources)
        roles = {e.get("role") for e in events if e.get("role")}
        assert "server" in roles
        assert {f"su:{i}" for i in range(N_USERS)} <= roles
        sessions = {e.get("session") for e in events if e.get("session")}
        assert sessions == {self.inst_out[0].session_key}

    def test_client_frame_rtt_histograms_recorded(self):
        totals = {}
        for key, hist in self.registry.histograms.items():
            bare = key.rsplit("/", 1)[-1]
            totals[bare] = totals.get(bare, 0) + hist.count
        # Two timed request/response exchanges (LOCATION, BIDS) per SU per
        # round, and one end-to-end latency sample per SU per round.
        assert totals["net.client.frame_rtt"] == N_USERS * ROUNDS * 2
        assert totals["net.client.round_latency"] == N_USERS * ROUNDS
        assert totals["net.round.latency"] == ROUNDS


def test_histogram_percentiles_track_exact_sort_within_one_bucket():
    """The loadgen acceptance bound: histogram-backed p50/p95/p99 stay
    within one multiplicative bucket width of the exact sorted-sample
    percentile, for a latency-shaped distribution."""
    import random as _random

    from repro.net.loadgen import LoadgenReport, _percentile

    rng = _random.Random(13)
    report = LoadgenReport(
        address="test", n_users=1, rounds_completed=0, elapsed_s=1.0
    )
    samples = [rng.lognormvariate(-4.0, 1.0) for _ in range(5000)]
    for value in samples:
        report.record_latency(value, epoch=0)
    assert report.raw_latencies_s is None  # bounded by default
    ordered = sorted(samples)
    width = Histogram().growth
    for q, estimate in (
        (0.50, report.p50_latency_s),
        (0.95, report.p95_latency_s),
        (0.99, report.p99_latency_s),
    ):
        exact = _percentile(ordered, q)
        assert exact / width <= estimate <= exact * width


# --- per-epoch histograms and steady-state percentiles ------------------------


def _epoch_report() -> LoadgenReport:
    report = LoadgenReport(
        address="test", n_users=2, rounds_completed=3, elapsed_s=1.0
    )
    # Epoch 0 is pathologically cold; epochs 1-2 are the steady state.
    for sample in (5.0, 6.0):
        report.record_latency(sample, epoch=0)
    for epoch in (1, 2):
        for sample in (0.010, 0.012):
            report.record_latency(sample, epoch=epoch)
    return report


def test_epoch_histograms_slice_the_aggregate():
    report = _epoch_report()
    assert set(report.epoch_hists) == {0, 1, 2}
    assert report.latency_hist.count == 6
    assert sum(h.count for h in report.epoch_hists.values()) == 6
    assert report.epoch_quantile(0, 0.5) > 1.0
    assert report.epoch_quantile(1, 0.5) < 1.0
    assert report.epoch_quantile(9, 0.5) == 0.0  # no such epoch


def test_steady_histogram_excludes_warmup_epochs():
    report = _epoch_report()
    steady = report.steady_histogram(1)
    assert steady.count == 4
    # The cold epoch dominates the aggregate p99 but not the steady p99.
    assert report.p99_latency_s > 1.0
    assert steady.quantile(0.99) < 1.0


def test_record_metrics_emits_steady_keys_only_when_asked():
    report = _epoch_report()

    plain = MetricsRegistry()
    with obs.collecting(plain):
        report.record_metrics()
    assert "net.loadgen.latency" in plain.histograms
    assert "net.loadgen.steady_latency" not in plain.histograms

    steady = MetricsRegistry()
    with obs.collecting(steady):
        report.record_metrics(steady_warmup=1)
    assert steady.histograms["net.loadgen.steady_latency"].count == 4
    assert steady.timers["net.loadgen.steady_latency_p99"].seconds < 1.0


def test_format_adds_a_steady_line():
    report = _epoch_report()
    assert "steady" not in report.format()
    text = report.format(steady_warmup=1)
    assert "steady" in text and "epochs >= 1" in text
