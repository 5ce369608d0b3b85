"""Command-line entry point: ``python -m repro <command>``.

Gives the whole reproduction a zero-code driving surface:

* ``figures``   — regenerate every paper figure's series (smoke scale by
  default; ``--full`` for the EXPERIMENTS.md scale);
* ``theorems``  — the Theorem 1-3 validation tables and Theorem 4 cost;
* ``ablations`` — the design-choice ablations;
* ``coverage``  — print one area/channel's coverage map as ASCII;
* ``baselines`` — LPPA vs cloaking / Paillier / OPE comparisons;
* ``report``    — every experiment, one markdown file;
* ``demo``      — one quick private auction round with a result summary;
* ``metrics``   — inspect, validate, diff and serve ``BENCH_*.json``
  artifacts (``metrics serve`` exposes one over HTTP as OpenMetrics);
* ``trace``     — the protocol flight recorder: record, inspect, audit,
  merge and export ``TRACE_*.jsonl`` event streams;
* ``slo``       — evaluate SLO rules against a live ``/metrics`` scrape
  endpoint or a benchmark artifact; exits nonzero on breach (CI gate).

Every experiment command additionally accepts ``--metrics PATH``: the run
executes with a :mod:`repro.obs` registry collecting and a
schema-versioned benchmark artifact is written to PATH (see
``docs/OBSERVABILITY.md``).  ``--trace PATH`` mirrors that UX for the
flight recorder: the run executes with :mod:`repro.obs.trace` recording
and the event stream is written as JSONL to PATH.  The two flags compose.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import Any, Callable, Dict, List, Optional

from repro import __version__

__all__ = ["main", "build_parser"]

#: Commands that accept ``--metrics`` (everything that runs protocol code).
_METRICS_COMMANDS = (
    "figures",
    "theorems",
    "ablations",
    "baselines",
    "report",
    "demo",
    "serve",
    "loadgen",
    "scale",
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LPPA (ICDCS 2013) reproduction driver",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--scheme",
        default=None,
        metavar="NAME",
        help="privacy scheme for protocol runs (default: $REPRO_SCHEME or "
        "ppbs); `repro compare` lists the registered names",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workers_flag(command_parser) -> None:
        command_parser.add_argument(
            "--workers",
            type=int,
            default=None,
            metavar="N",
            help="parallel sweep workers (default: $REPRO_WORKERS or serial); "
            "results are bit-identical at any worker count",
        )
        command_parser.add_argument(
            "--timings",
            action="store_true",
            help="print one engine timing line per sweep to stderr",
        )

    def add_metrics_flag(command_parser) -> None:
        command_parser.add_argument(
            "--metrics",
            default=None,
            metavar="PATH",
            help="collect obs metrics for this run and write a BENCH_*.json "
            "artifact to PATH (a directory gets the canonical file name)",
        )
        command_parser.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="record the protocol flight recorder for this run and write "
            "the event stream as TRACE_*.jsonl to PATH (a directory gets "
            "the canonical file name); composes with --metrics",
        )

    figures = sub.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument(
        "--full", action="store_true", help="EXPERIMENTS.md scale (slow)"
    )
    figures.add_argument(
        "--only",
        choices=("fig4", "fig5"),
        default=None,
        help="restrict to one figure family",
    )
    add_workers_flag(figures)
    add_metrics_flag(figures)

    theorems = sub.add_parser("theorems", help="validate Theorems 1-4")
    add_metrics_flag(theorems)
    ablations = sub.add_parser("ablations", help="run the design-choice ablations")
    add_workers_flag(ablations)
    add_metrics_flag(ablations)

    coverage = sub.add_parser("coverage", help="print a coverage map")
    coverage.add_argument("--area", type=int, default=3, choices=(1, 2, 3, 4))
    coverage.add_argument("--channel", type=int, default=0)
    coverage.add_argument("--channels", type=int, default=30,
                          help="how many channels to build")
    coverage.add_argument("--step", type=int, default=2,
                          help="downsampling factor for the ASCII render")

    baselines = sub.add_parser(
        "baselines", help="compare LPPA against cloaking / Paillier"
    )
    add_metrics_flag(baselines)

    report = sub.add_parser("report", help="write the full markdown report")
    report.add_argument("--out", default="lppa_report.md")
    report.add_argument("--full", action="store_true")
    report.add_argument("--no-extensions", action="store_true")
    add_workers_flag(report)
    add_metrics_flag(report)

    demo = sub.add_parser("demo", help="run one private auction round")
    demo.add_argument("--users", type=int, default=40)
    demo.add_argument("--channels", type=int, default=20)
    demo.add_argument("--replace", type=float, default=0.3,
                      help="zero-replace probability 1-p0")
    demo.add_argument("--seed", type=int, default=42)
    add_metrics_flag(demo)

    def add_net_flags(command_parser) -> None:
        """Parameters a serve/loadgen pair must agree on for the runs to be
        the same auction (seed -> keys, entropy, population)."""
        command_parser.add_argument("--users", type=int, default=8)
        command_parser.add_argument("--channels", type=int, default=6)
        command_parser.add_argument("--rounds", type=int, default=3)
        command_parser.add_argument("--seed", type=int, default=1)
        command_parser.add_argument(
            "--area", type=int, default=4, choices=(1, 2, 3, 4)
        )
        command_parser.add_argument(
            "--grid", type=int, default=20, metavar="N",
            help="use an NxN cell lattice (cell size scales to keep 75 km)",
        )
        command_parser.add_argument(
            "--ttp-period", type=int, default=None, metavar="T",
            help="run the TTP periodically-online (window every T time units) "
            "instead of always-on",
        )
        command_parser.add_argument(
            "--ttp-capacity", type=int, default=None, metavar="C",
            help="charge requests served per TTP window (default: --users)",
        )

    serve = sub.add_parser(
        "serve", help="run the auctioneer as a TCP server (pair with loadgen)"
    )
    add_net_flags(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 binds an ephemeral port)")
    serve.add_argument("--location-deadline", type=float, default=10.0,
                       metavar="SEC", help="location-phase deadline")
    serve.add_argument("--bid-deadline", type=float, default=10.0,
                       metavar="SEC", help="bid-phase deadline")
    serve.add_argument("--join-timeout", type=float, default=60.0,
                       metavar="SEC",
                       help="how long to wait for all --users SUs to register")
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve a live OpenMetrics scrape endpoint on PORT "
        "(0 binds an ephemeral port); GET /metrics and /healthz",
    )
    serve.add_argument("--metrics-host", default="127.0.0.1",
                       help="bind address of the scrape endpoint")
    serve.add_argument(
        "--epochs", type=int, default=None, metavar="N",
        help="run as a long-lived epoch service for N epochs (fixed "
        "membership of --users SUs; entropy labels follow the service "
        "scheme, so pair clients with `loadgen --connect --entropy service`)",
    )
    serve.add_argument(
        "--epoch-interval", type=float, default=0.0, metavar="SEC",
        help="pace epoch starts on a fixed schedule (0 = as fast as "
        "the SUs answer; only with --epochs)",
    )
    serve.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="persist per-epoch results and metrics under DIR "
        "(see `repro epochs show/validate`; only with --epochs)",
    )
    serve.add_argument(
        "--uvloop", action="store_true",
        help="use uvloop if installed (falls back to asyncio with a warning)",
    )
    add_metrics_flag(serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive concurrent SU clients against an auctioneer server",
    )
    add_net_flags(loadgen)
    loadgen.add_argument("--replace", type=float, default=0.0,
                         help="zero-replace probability 1-p0")
    loadgen.add_argument(
        "--transport", choices=("memory", "tcp"), default="memory",
        help="self-hosted server transport (ignored with --connect)",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=0)
    loadgen.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="dial a running `repro serve` instead of self-hosting "
        "(the two sides must share --seed/--users/--channels/--area/--grid)",
    )
    loadgen.add_argument(
        "--check-equivalence", action="store_true",
        help="re-run every round in-process and demand bit-identical results",
    )
    loadgen.add_argument(
        "--raw-latencies", action="store_true",
        help="keep every raw latency sample for exact percentiles (memory "
        "grows with rounds; default: bounded histogram only)",
    )
    loadgen.add_argument(
        "--entropy", choices=("loadgen", "service"), default="loadgen",
        help="per-round entropy scheme: 'loadgen' pairs with `repro serve`, "
        "'service' with `repro serve --epochs` (ignored with --soak, which "
        "is always 'service')",
    )
    loadgen.add_argument(
        "--soak", action="store_true",
        help="soak mode: self-host an epoch service and drive --rounds "
        "epochs with Poisson SU churn between them (--users is the "
        "population; --initial-members SUs are seated at epoch 0)",
    )
    loadgen.add_argument(
        "--initial-members", type=int, default=None, metavar="N",
        help="SUs seated at epoch 0 in soak mode (default: 2/3 of --users)",
    )
    loadgen.add_argument(
        "--join-rate", type=float, default=0.0, metavar="L",
        help="soak mode: Poisson mean SU joins per epoch boundary",
    )
    loadgen.add_argument(
        "--leave-rate", type=float, default=0.0, metavar="L",
        help="soak mode: Poisson mean SU leaves per epoch boundary",
    )
    loadgen.add_argument(
        "--warmup", type=int, default=1, metavar="N",
        help="soak mode: epochs excluded from the steady-state percentiles",
    )
    loadgen.add_argument(
        "--interval", type=float, default=0.0, metavar="SEC",
        help="soak mode: pace epoch starts on a fixed schedule",
    )
    loadgen.add_argument(
        "--retire-after", type=int, default=None, metavar="K",
        help="soak mode: retire an SU after K consecutive straggled epochs",
    )
    loadgen.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="soak mode: persist per-epoch history under DIR "
        "(see `repro epochs show/validate`)",
    )
    loadgen.add_argument(
        "--uvloop", action="store_true",
        help="use uvloop if installed (falls back to asyncio with a warning)",
    )
    add_metrics_flag(loadgen)

    compare = sub.add_parser(
        "compare",
        help="run every privacy scheme on identical seeds and write "
        "BENCH_schemes.json (wire bytes, crypto ops, latency, BCM/BPM)",
    )
    compare.add_argument(
        "--schemes", default="ppbs,bloom", metavar="A,B,...",
        help="comma-separated scheme names to run (default: ppbs,bloom)",
    )
    compare.add_argument("--users", type=int, default=8)
    compare.add_argument("--channels", type=int, default=6)
    compare.add_argument("--rounds", type=int, default=2)
    compare.add_argument("--seed", type=int, default=1)
    compare.add_argument("--area", type=int, default=4, choices=(1, 2, 3, 4))
    compare.add_argument(
        "--grid", type=int, default=20, metavar="N",
        help="use an NxN cell lattice (cell size scales to keep 75 km)",
    )
    compare.add_argument(
        "--out", default="BENCH_schemes.json", metavar="PATH",
        help="artifact output path (a directory gets BENCH_schemes.json)",
    )
    compare.add_argument(
        "--no-equivalence", action="store_true",
        help="skip the per-round bit-identity check against the in-process "
        "session (faster; the default checks every round)",
    )

    epochs = sub.add_parser(
        "epochs",
        help="inspect a persisted epoch-service run directory",
    )
    epochs_sub = epochs.add_subparsers(dest="epochs_command", required=True)
    epochs_show = epochs_sub.add_parser(
        "show", help="summarize a run's manifest and per-epoch results"
    )
    epochs_show.add_argument("run_dir", help="run directory with manifest.json")
    epochs_validate = epochs_sub.add_parser(
        "validate",
        help="verify a run's history is complete and untampered "
        "(manifest shape, file digests, artifact schemas)",
    )
    epochs_validate.add_argument("run_dir", help="run directory with manifest.json")

    scale = sub.add_parser(
        "scale",
        help="one-round-per-size scale sweep (BENCH_scale; see DESIGN.md §9)",
    )
    scale.add_argument(
        "--sizes",
        default=None,
        metavar="N[,N...]",
        help="comma-separated SU population sizes (default: 1000,10000,100000)",
    )
    scale.add_argument("--channels", type=int, default=6, metavar="N")
    scale.add_argument("--seed", type=int, default=0, metavar="N")
    scale.add_argument(
        "--verify",
        action="store_true",
        help="fail unless each size's conflict graph equals the plaintext "
        "graph of the same cells (the CI scale-smoke check)",
    )
    add_metrics_flag(scale)

    metrics = sub.add_parser(
        "metrics", help="inspect / validate / diff BENCH_*.json artifacts"
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)

    diff = metrics_sub.add_parser(
        "diff",
        help="compare two artifacts' counters and gauges exactly; "
        "exit 1 on any mismatch",
    )
    diff.add_argument("baseline", help="baseline BENCH_*.json")
    diff.add_argument("current", help="current BENCH_*.json")

    show = metrics_sub.add_parser("show", help="pretty-print one artifact")
    show.add_argument("path", help="BENCH_*.json to display")
    show.add_argument(
        "--format",
        choices=("human", "openmetrics"),
        default="human",
        help="output format (openmetrics prints the scrape exposition)",
    )

    validate = metrics_sub.add_parser(
        "validate", help="check an artifact against the schema"
    )
    validate.add_argument("path", help="BENCH_*.json to validate")

    metrics_serve = metrics_sub.add_parser(
        "serve",
        help="serve one artifact's metrics as an OpenMetrics scrape endpoint",
    )
    metrics_serve.add_argument("path", help="BENCH_*.json to serve")
    metrics_serve.add_argument("--host", default="127.0.0.1")
    metrics_serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port for GET /metrics (0 binds an ephemeral port)",
    )

    trace = sub.add_parser(
        "trace", help="record / inspect / audit protocol flight-recorder traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_run = trace_sub.add_parser(
        "run", help="run full-crypto auction rounds and record a trace"
    )
    trace_run.add_argument("--users", type=int, default=12)
    trace_run.add_argument("--channels", type=int, default=6)
    trace_run.add_argument("--area", type=int, default=3, choices=(1, 2, 3, 4))
    trace_run.add_argument(
        "--grid", type=int, default=20, metavar="N",
        help="use an NxN cell lattice (cell size scales to keep 75 km)",
    )
    trace_run.add_argument("--rounds", type=int, default=2)
    trace_run.add_argument("--seed", type=int, default=42)
    trace_run.add_argument("--replace", type=float, default=0.3,
                           help="zero-replace probability 1-p0")
    trace_run.add_argument("--out", default="TRACE_run.jsonl", metavar="PATH")

    trace_show = trace_sub.add_parser("show", help="summarize one trace")
    trace_show.add_argument("path", help="TRACE_*.jsonl to display")

    trace_validate = trace_sub.add_parser(
        "validate", help="check a trace against the event schema"
    )
    trace_validate.add_argument("path", help="TRACE_*.jsonl to validate")

    trace_audit = trace_sub.add_parser(
        "audit",
        help="replay a trace through the comm-cost (Theorem 4) and privacy "
        "(BCM) auditors",
    )
    trace_audit.add_argument("path", help="TRACE_*.jsonl to audit")
    trace_audit.add_argument(
        "--fractions", default="0.25,0.5", metavar="F1,F2,...",
        help="top-fraction cuts for the ranking-based BCM attack",
    )
    trace_audit.add_argument(
        "--no-privacy", action="store_true",
        help="skip the privacy auditor (e.g. for traces without run metadata)",
    )
    trace_audit.add_argument(
        "--no-comm", action="store_true",
        help="skip the communication-cost auditor",
    )

    trace_export = trace_sub.add_parser(
        "export", help="convert a trace to Chrome trace-event format (Perfetto)"
    )
    trace_export.add_argument("path", help="TRACE_*.jsonl to convert")
    trace_export.add_argument("--out", default=None, metavar="PATH",
                              help="output .json (default: input with .chrome.json)")

    trace_merge = trace_sub.add_parser(
        "merge",
        help="join per-process traces (server / SUs / TTP) into one "
        "causally-ordered timeline",
    )
    trace_merge.add_argument(
        "paths", nargs="+", help="two or more TRACE_*.jsonl files to merge"
    )
    trace_merge.add_argument(
        "--out", default="TRACE_merged.jsonl", metavar="PATH",
        help="merged trace output path",
    )
    trace_merge.add_argument(
        "--roles", default=None, metavar="R1,R2,...",
        help="comma-separated role names, one per input, stamped on events "
        "that do not already carry a role",
    )

    slo = sub.add_parser(
        "slo",
        help="evaluate SLO rules against live metrics or a BENCH artifact",
    )
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    slo_check = slo_sub.add_parser(
        "check", help="evaluate one SLO rules file; exit 1 on breach"
    )
    slo_check.add_argument("slo_file", help="SLO rules JSON (schema v1)")
    source = slo_check.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--artifact", default=None, metavar="PATH",
        help="evaluate against a BENCH_*.json artifact's metrics",
    )
    source.add_argument(
        "--url", default=None, metavar="URL",
        help="evaluate against a live scrape endpoint "
        "(e.g. http://127.0.0.1:9100/metrics)",
    )
    slo_check.add_argument(
        "--warn-only", action="store_true",
        help="report breaches but exit 0 (advisory CI gates)",
    )
    return parser


def _engine_report_hook(args):
    """``on_report=`` callback printing engine timings when asked for."""
    if not getattr(args, "timings", False):
        return None

    def emit(report) -> None:
        print(report.summary(), file=sys.stderr)

    return emit


def _cmd_figures(args) -> int:
    from repro.experiments import (
        FULL,
        SMOKE,
        fig4ab_channel_sweep,
        fig4c_four_areas,
        fig5_performance_sweep,
        fig5_privacy_sweep,
        format_table,
    )

    config = FULL if args.full else SMOKE
    workers = args.workers
    on_report = _engine_report_hook(args)
    if args.only in (None, "fig4"):
        print(format_table(fig4ab_channel_sweep(config, workers=workers,
                                                on_report=on_report),
                           title="Fig 4(a)(b): cells / success vs channels (Area 4)"))
        print()
        print(format_table(fig4c_four_areas(config, workers=workers,
                                            on_report=on_report),
                           title="Fig 4(c): the four areas"))
        print()
    if args.only in (None, "fig5"):
        print(format_table(fig5_privacy_sweep(config, workers=workers,
                                              on_report=on_report),
                           title="Fig 5(a)-(d): privacy under LPPA (Area 3)"))
        print()
        print(format_table(fig5_performance_sweep(config, workers=workers,
                                                  on_report=on_report),
                           title="Fig 5(e)(f): performance under LPPA (Area 3)"))
    return 0


def _cmd_theorems(args) -> int:
    from repro.experiments import (
        format_table,
        theorem1_table,
        theorem2_table,
        theorem3_table,
        theorem4_table,
    )

    print(format_table(theorem1_table(), title="Theorem 1"))
    print()
    print(format_table(theorem2_table(), title="Theorem 2 (see EXPERIMENTS.md erratum)"))
    print()
    print(format_table(theorem3_table(), title="Theorem 3 (printed formula approximate)"))
    print()
    print(format_table(theorem4_table(), title="Theorem 4: communication cost"))
    return 0


def _cmd_ablations(args) -> int:
    from repro.experiments import (
        ablation_cr_expansion,
        ablation_disguise_policy,
        ablation_id_mixing,
        ablation_revalidation,
        format_table,
    )

    workers = args.workers
    on_report = _engine_report_hook(args)
    print(format_table(ablation_id_mixing(), title="ID mixing (§V.C.3)"))
    print()
    print(format_table(ablation_revalidation(workers=workers,
                                             on_report=on_report),
                       title="TTP charging mode (§V.B)"))
    print()
    print(format_table(ablation_cr_expansion(workers=workers,
                                             on_report=on_report),
                       title="cr expansion (§V.B)"))
    print()
    print(format_table(ablation_disguise_policy(workers=workers,
                                                on_report=on_report),
                       title="Disguise law (§IV.C.3)"))
    return 0


def _cmd_coverage(args) -> int:
    from repro.geo import make_coverage_map
    from repro.viz import render_coverage

    if args.channel < 0 or args.channel >= args.channels:
        print("channel index outside the built range", file=sys.stderr)
        return 2
    coverage_map = make_coverage_map(args.area, n_channels=args.channels)
    cov = coverage_map.channels[args.channel]
    print(f"Area {args.area}, channel {args.channel}: "
          f"{cov.availability_fraction():.1%} of cells usable "
          f"('#' = protected PU coverage)")
    print(render_coverage(coverage_map, args.channel, step=args.step))
    return 0


def _cmd_demo(args) -> int:
    from repro.auction import generate_users, run_plain_auction
    from repro.geo import make_database
    from repro.lppa import UniformReplacePolicy, run_lppa_auction

    database = make_database(3, n_channels=args.channels)
    users = generate_users(database, args.users, random.Random(args.seed))
    result = run_lppa_auction(
        users,
        database.coverage.grid,
        two_lambda=6,
        bmax=127,
        policy=UniformReplacePolicy(args.replace),
        entropy=f"demo:{args.seed}",
    )
    plain = run_plain_auction(users, random.Random(args.seed), two_lambda=6)
    outcome = result.outcome
    print(f"users {args.users}, channels {args.channels}, 1-p0 {args.replace}")
    print(f"revenue        {outcome.sum_of_winning_bids()} "
          f"(plain {plain.sum_of_winning_bids()})")
    print(f"satisfaction   {outcome.user_satisfaction():.1%}")
    print(f"wire volume    {result.total_bytes / 1024:.1f} KiB")
    print(f"conflict edges {result.conflict_graph.n_edges}")
    return 0


def _cmd_scale(args) -> int:
    from repro.experiments.scale import (
        DEFAULT_SIZES,
        format_scale_table,
        run_scale_sweep,
    )

    if args.sizes is None:
        sizes = list(DEFAULT_SIZES)
    else:
        try:
            sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
        except ValueError:
            print("--sizes expects comma-separated integers", file=sys.stderr)
            return 2
        if not sizes or any(n < 1 for n in sizes):
            print("--sizes expects positive integers", file=sys.stderr)
            return 2

    def progress(size: int) -> None:
        print(f"scale: running {size} SUs...", file=sys.stderr)

    points = run_scale_sweep(
        sizes,
        n_channels=args.channels,
        seed=args.seed,
        verify=args.verify,
        progress=progress,
    )
    print(format_scale_table(points))
    failed = [p.size for p in points if p.verified is False]
    for size in failed:
        print(f"scale: {size} SUs: conflict graph differs from the "
              "plaintext graph", file=sys.stderr)
    return 1 if failed else 0


def _cmd_baselines(args) -> int:
    from repro.experiments import (
        ablation_masking_backend,
        baseline_comparison_table,
        cloaking_comparison_table,
        format_table,
    )

    print(format_table(cloaking_comparison_table(),
                       title="Location cloaking vs LPPA (dense world)"))
    print()
    print(format_table(baseline_comparison_table(),
                       title="Paillier secure auction (ref [7]) vs LPPA, communication"))
    print()
    print(format_table(ablation_masking_backend(),
                       title="Masking backends: per-entry trade-offs"))
    return 0


def _cmd_report(args) -> int:
    from repro.experiments import FULL, SMOKE
    from repro.experiments.report import write_report

    path = write_report(
        args.out,
        FULL if args.full else SMOKE,
        include_extensions=not args.no_extensions,
        workers=args.workers,
        on_report=_engine_report_hook(args),
    )
    print(f"report written to {path}")
    return 0


def _load_artifact_or_fail(path: str) -> Optional[Dict[str, Any]]:
    """Load + validate one artifact; on failure print why and return None."""
    from repro import obs

    try:
        return obs.load_artifact(path)
    except (OSError, ValueError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _cmd_metrics(args) -> int:
    from repro import obs

    if args.metrics_command == "validate":
        if _load_artifact_or_fail(args.path) is None:
            return 2
        print(f"{args.path}: valid (schema v{obs.SCHEMA_VERSION})")
        return 0
    if args.metrics_command == "serve":
        document = _load_artifact_or_fail(args.path)
        if document is None:
            return 2
        return _serve_artifact_metrics(document, host=args.host, port=args.port)
    if args.metrics_command == "show":
        document = _load_artifact_or_fail(args.path)
        if document is None:
            return 2
        if args.format == "openmetrics":
            from repro.obs.openmetrics import render_openmetrics

            sys.stdout.write(render_openmetrics(document["metrics"]))
            return 0
        print(f"artifact   {document['name']}")
        print(f"schema     v{document['schema_version']}")
        print(f"created    {document['created_at']}")
        print(f"git sha    {document['git_sha']}")
        if document.get("config"):
            print("config:")
            for key in sorted(document["config"]):
                print(f"  {key} = {document['config'][key]!r}")
        counters = document["metrics"]["counters"]
        timers = document["metrics"]["timers"]
        if counters:
            print("counters:")
            for key in sorted(counters):
                print(f"  {key:<48} {counters[key]}")
        if timers:
            print("timers (mean seconds x count):")
            for key in sorted(timers):
                stat = timers[key]
                mean = stat["seconds"] / stat["count"] if stat["count"] else 0.0
                print(f"  {key:<48} {mean:.6f} x {stat['count']}")
        histograms = document["metrics"].get("histograms", {})
        if histograms:
            from repro.obs.hist import Histogram

            print("histograms (p50 / p99 x count):")
            for key in sorted(histograms):
                hist = Histogram.from_dict(histograms[key])
                print(f"  {key:<48} {hist.quantile(0.5):.6f} / "
                      f"{hist.quantile(0.99):.6f} x {hist.count}")
        gauges = document["metrics"].get("gauges", {})
        if gauges:
            print("gauges:")
            for key in sorted(gauges):
                print(f"  {key:<48} {gauges[key]:g}")
        return 0
    # diff
    baseline = _load_artifact_or_fail(args.baseline)
    current = _load_artifact_or_fail(args.current)
    if baseline is None or current is None:
        return 2
    report = obs.diff_artifacts(baseline, current)
    print(report.format())
    return 0 if report.matches else 1


def _serve_artifact_metrics(document: Dict[str, Any], *, host: str,
                            port: int) -> int:
    """Serve one loaded artifact's metrics snapshot until interrupted."""
    import asyncio

    from repro.obs.live import MetricsHttpServer

    snapshot = document["metrics"]

    async def _serve() -> int:
        server = MetricsHttpServer(lambda: snapshot, host=host, port=port)
        await server.start()
        print(f"serving OpenMetrics for artifact {document['name']!r} on "
              f"http://{server.address}/metrics (Ctrl-C to stop)", flush=True)
        try:
            while True:
                await asyncio.sleep(3600)
        finally:
            await server.stop()

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        return 0


def _load_trace_or_fail(path: str):
    """Load + validate one trace; on failure print why and return None."""
    from repro.obs import trace as trace_mod

    try:
        return trace_mod.load_trace(path)
    except (OSError, ValueError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _cmd_trace_run(args) -> int:
    from repro import obs
    from repro.geo.datasets import make_database
    from repro.geo.grid import GridSpec
    from repro.auction import generate_users
    from repro.lppa import UniformReplacePolicy, run_lppa_auction

    grid = GridSpec(rows=args.grid, cols=args.grid, cell_km=75.0 / args.grid)
    database = make_database(args.area, n_channels=args.channels, grid=grid)
    users = generate_users(database, args.users, random.Random(args.seed))
    recorder = obs.TraceRecorder()
    with obs.tracing(recorder):
        # The auditors rebuild the (public) spectrum database from this
        # record; everything in it is public knowledge in the threat model.
        recorder.meta(
            "run_meta",
            vis="public",
            area=args.area,
            n_channels=args.channels,
            grid_rows=args.grid,
            grid_cols=args.grid,
            cell_km=grid.cell_km,
            db_seed="lppa-repro",
            n_users=args.users,
            rounds=args.rounds,
            seed=args.seed,
            replace=args.replace,
        )
        for round_idx in range(args.rounds):
            result = run_lppa_auction(
                users,
                grid,
                two_lambda=6,
                bmax=127,
                policy=UniformReplacePolicy(args.replace),
                entropy=f"trace-run:{args.seed}:{round_idx}",
            )
            print(
                f"round {round_idx}: {len(result.outcome.wins)} winners, "
                f"{result.framed_bytes} wire bytes"
            )
    target = recorder.write_jsonl(args.out)
    print(f"trace written to {target} ({len(recorder)} events, "
          f"{recorder.dropped} dropped)")
    return 0


def _cmd_trace_show(args) -> int:
    loaded = _load_trace_or_fail(args.path)
    if loaded is None:
        return 2
    header, events = loaded
    print(f"trace      {args.path}")
    print(f"schema     v{header['schema_version']}")
    print(f"events     {header['event_count']} "
          f"(dropped {header['dropped']}, capacity {header['capacity']})")
    by_type: Dict[str, int] = {}
    by_kind: Dict[str, int] = {}
    by_path: Dict[str, int] = {}
    rounds = set()
    wire_total = 0
    payload_total = 0
    for record in events:
        by_type[record["type"]] = by_type.get(record["type"], 0) + 1
        if record.get("round") is not None:
            rounds.add(record["round"])
        if record["type"] == "message":
            by_kind[record["kind"]] = by_kind.get(record["kind"], 0) + 1
            wire_total += record.get("wire_size") or 0
            payload_total += record.get("payload_bytes") or 0
        elif record["type"] == "span":
            by_path[record["path"]] = by_path.get(record["path"], 0) + 1
    print(f"rounds     {len(rounds)}")
    print("events by type:")
    for key in sorted(by_type):
        print(f"  {key:<24} {by_type[key]}")
    if by_kind:
        print("messages by kind:")
        for key in sorted(by_kind):
            print(f"  {key:<24} {by_kind[key]}")
        print(f"wire bytes {wire_total} (payload {payload_total})")
    if by_path:
        print("spans by path:")
        for key in sorted(by_path):
            print(f"  {key:<24} {by_path[key]}")
    return 0


def _cmd_trace_validate(args) -> int:
    from repro.obs.trace import TRACE_SCHEMA_VERSION

    if _load_trace_or_fail(args.path) is None:
        return 2
    print(f"{args.path}: valid (trace schema v{TRACE_SCHEMA_VERSION})")
    return 0


def _cmd_trace_audit(args) -> int:
    from repro.analysis.trace_audit import (
        TraceAuditError,
        audit_comm_cost,
        audit_privacy,
    )

    loaded = _load_trace_or_fail(args.path)
    if loaded is None:
        return 2
    _, events = loaded
    failed = False

    if not args.no_comm:
        try:
            comm = audit_comm_cost(events, strict=False)
        except TraceAuditError as exc:
            print(f"comm-cost audit: ERROR: {exc}", file=sys.stderr)
            return 2
        for row in comm.rounds:
            cells = row.as_row()
            print("comm-cost round {round}: N={N} k={k} w={w} "
                  "predicted {predicted_kbits} kbit, measured "
                  "{measured_kbits} kbit, exact={exact}".format(**cells))
        if comm.passed:
            print(f"comm-cost audit: PASS "
                  f"({comm.messages_checked} messages checked, "
                  f"{len(comm.rounds)} rounds exact against Theorem 4)")
        else:
            failed = True
            print(f"comm-cost audit: FAIL ({len(comm.errors)} divergences)",
                  file=sys.stderr)
            for error in comm.errors:
                print(f"  {error}", file=sys.stderr)

    if not args.no_privacy:
        database = _database_from_trace(events)
        if database is None:
            print(
                "privacy audit: SKIP (no run_meta record in the trace; "
                "record with `repro trace run` to enable it)",
                file=sys.stderr,
            )
        else:
            try:
                fractions = tuple(
                    float(f) for f in str(args.fractions).split(",") if f
                )
                privacy = audit_privacy(events, database, fractions=fractions)
            except (TraceAuditError, ValueError) as exc:
                print(f"privacy audit: ERROR: {exc}", file=sys.stderr)
                return 2
            n_cells = database.coverage.grid.n_cells
            for row in privacy.rounds:
                print(
                    f"privacy round {row.round} top-{row.fraction:.0%}: "
                    f"mean candidate area {row.mean_cells:.1f} cells "
                    f"({row.mean_cells / n_cells:.1%} of the grid), "
                    f"min {row.min_cells}, max {row.max_cells}, "
                    f"empty {row.empty_results}/{row.n_users}"
                )
            print(f"privacy audit: PASS ({privacy.n_events_consumed} "
                  "adversary-visible events consumed)")

    return 1 if failed else 0


def _database_from_trace(events):
    """Rebuild the public spectrum database a trace was recorded against."""
    from repro.geo.datasets import make_database
    from repro.geo.grid import GridSpec

    for record in events:
        if record.get("type") == "meta" and record.get("name") == "run_meta":
            meta = record.get("args") or {}
            try:
                grid = GridSpec(
                    rows=int(meta["grid_rows"]),
                    cols=int(meta["grid_cols"]),
                    cell_km=float(meta["cell_km"]),
                )
                return make_database(
                    int(meta["area"]),
                    n_channels=int(meta["n_channels"]),
                    grid=grid,
                    seed=str(meta.get("db_seed", "lppa-repro")),
                )
            except (KeyError, TypeError, ValueError):
                return None
    return None


def _cmd_trace_export(args) -> int:
    import json

    from repro.obs.trace import chrome_trace

    loaded = _load_trace_or_fail(args.path)
    if loaded is None:
        return 2
    _, events = loaded
    out = args.out
    if out is None:
        base = args.path
        if base.endswith(".jsonl"):
            base = base[: -len(".jsonl")]
        out = base + ".chrome.json"
    document = chrome_trace(events)
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"chrome trace written to {out} "
          f"({len(document['traceEvents'])} trace events); load it in "
          "https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_trace_merge(args) -> int:
    from repro.obs.trace import merge_traces, write_jsonl_records

    traces = []
    for path in args.paths:
        loaded = _load_trace_or_fail(path)
        if loaded is None:
            return 2
        traces.append(loaded)
    roles = None
    if args.roles is not None:
        roles = [part.strip() or None for part in args.roles.split(",")]
        if len(roles) != len(traces):
            print(
                f"error: --roles names {len(roles)} sources but "
                f"{len(traces)} traces were given",
                file=sys.stderr,
            )
            return 2
    try:
        header, events = merge_traces(traces, roles=roles)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    target = write_jsonl_records(args.out, header, events)
    print(f"merged trace written to {target} "
          f"({len(events)} events from {len(traces)} sources)")
    return 0


def _cmd_trace(args) -> int:
    return {
        "run": _cmd_trace_run,
        "show": _cmd_trace_show,
        "validate": _cmd_trace_validate,
        "audit": _cmd_trace_audit,
        "export": _cmd_trace_export,
        "merge": _cmd_trace_merge,
    }[args.trace_command](args)


def _cmd_slo(args) -> int:
    from repro.obs.slo import (
        MetricsView,
        evaluate_slos,
        load_slo_file,
    )

    try:
        document = load_slo_file(args.slo_file)
    except (OSError, ValueError) as exc:
        print(f"error: {args.slo_file}: {exc}", file=sys.stderr)
        return 2
    if args.artifact is not None:
        artifact = _load_artifact_or_fail(args.artifact)
        if artifact is None:
            return 2
        view = MetricsView.from_snapshot(artifact["metrics"])
        source = args.artifact
    else:
        import urllib.error
        import urllib.request

        url = args.url
        if "://" not in url:
            url = f"http://{url}"
        if not url.rstrip("/").endswith("/metrics"):
            url = url.rstrip("/") + "/metrics"
        try:
            with urllib.request.urlopen(url, timeout=10.0) as response:
                text = response.read().decode("utf-8")
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"error: scraping {url}: {exc}", file=sys.stderr)
            return 2
        try:
            view = MetricsView.from_openmetrics(text)
        except ValueError as exc:
            print(f"error: {url} is not a valid exposition: {exc}",
                  file=sys.stderr)
            return 2
        source = url
    report = evaluate_slos(document, view, warn_only=args.warn_only)
    print(f"SLO check: {args.slo_file} vs {source}")
    print(report.format())
    return 1 if report.failed else 0


def _cmd_serve(args) -> int:
    import asyncio
    import contextlib

    from repro import obs
    from repro.net import RoundAborted
    from repro.net.loadgen import LoadgenConfig, hosted_server, round_entropy

    config = LoadgenConfig(
        n_users=args.users,
        n_channels=args.channels,
        seed=args.seed,
        grid_n=args.grid,
        scheme=_resolved_scheme(),
        transport="tcp",
        host=args.host,
        port=args.port,
        location_deadline=args.location_deadline,
        bid_deadline=args.bid_deadline,
        ttp_period=args.ttp_period,
        ttp_capacity=args.ttp_capacity,
    )

    # A scrape endpoint with no registry collecting would serve an empty
    # exposition; when --metrics-port is given without --metrics, collect
    # for the lifetime of the serve run (the artifact is simply not
    # written).  An outer _run_with_metrics registry takes precedence.
    collect = (
        obs.collecting()
        if args.metrics_port is not None and obs.get_active() is None
        else contextlib.nullcontext()
    )

    async def _serve() -> int:
        async with hosted_server(
            config,
            metrics_port=args.metrics_port,
            metrics_host=args.metrics_host,
        ) as server:
            print(f"serving on {server.address}", flush=True)
            if server.metrics_address is not None:
                print(f"metrics on http://{server.metrics_address}/metrics",
                      flush=True)
            try:
                if args.epochs is not None:
                    return await _serve_epochs(args, server)
                await server.wait_for_clients(
                    args.users, timeout=args.join_timeout
                )
                for round_index in range(args.rounds):
                    report = await server.run_round(
                        round_entropy(args.seed, round_index)
                    )
                    print(
                        f"round {round_index}: "
                        f"{len(report.result.outcome.wins)} winners, "
                        f"{len(report.participants)} participants, "
                        f"{report.latency_s * 1e3:.1f} ms",
                        flush=True,
                    )
            except (RoundAborted, asyncio.TimeoutError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        print(
            f"served {args.rounds} rounds, "
            f"{server.wire.total_bytes} wire bytes",
            flush=True,
        )
        return 0

    from repro.service.eventloop import run as run_loop

    with collect:
        return run_loop(_serve(), use_uvloop=args.uvloop)


async def _serve_epochs(args, server) -> int:
    """``repro serve --epochs``: the fixed-membership epoch loop.

    Clients hold their connections across epochs (no churn, so the ring is
    never rotated); a remote fleet pairs with
    ``repro loadgen --connect HOST:PORT --entropy service``.
    """
    from repro.net import RoundAborted
    from repro.net.loadgen import protocol_seed
    from repro.service import (
        EpochConfig,
        EpochScheduler,
        EpochStore,
        MembershipManager,
    )

    membership = MembershipManager(
        args.users,
        initial_members=range(args.users),
        master_seed=protocol_seed(args.seed),
        base_ring=server.keyring,
    )
    store = None
    if args.run_dir is not None:
        store = EpochStore(
            args.run_dir,
            config={
                "users": args.users,
                "channels": args.channels,
                "epochs": args.epochs,
                "seed": args.seed,
            },
        )
    scheduler = EpochScheduler(
        server,
        membership,
        EpochConfig(
            epochs=args.epochs,
            seed=args.seed,
            interval_s=args.epoch_interval,
            roster_timeout=args.join_timeout,
        ),
        store=store,
    )
    try:
        records = await scheduler.run()
    except (RoundAborted, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        outcome = record.report.result.outcome
        print(
            f"epoch {record.epoch}: {len(outcome.wins)} winners, "
            f"{len(record.report.participants)} participants, "
            f"{record.report.latency_s * 1e3:.1f} ms",
            flush=True,
        )
    print(
        f"served {len(records)} epochs, "
        f"{server.wire.total_bytes} wire bytes",
        flush=True,
    )
    if store is not None:
        print(f"epoch history in {store.root}", flush=True)
    return 0


def _resolved_scheme() -> str:
    """The active scheme name (set by ``--scheme`` / ``$REPRO_SCHEME``)."""
    from repro.lppa.schemes.registry import resolve_scheme

    return resolve_scheme(None).name


def _cmd_compare(args) -> int:
    from repro.experiments.compare import (
        CompareConfig,
        format_compare_table,
        run_compare,
        write_compare_artifact,
    )
    from repro.net.loadgen import EquivalenceFailure

    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    try:
        config = CompareConfig(
            schemes=schemes,
            n_users=args.users,
            n_channels=args.channels,
            rounds=args.rounds,
            seed=args.seed,
            area=args.area,
            grid_n=args.grid,
            check_equivalence=not args.no_equivalence,
        )
        measurements = run_compare(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EquivalenceFailure as exc:
        print(f"equivalence FAILED: {exc}", file=sys.stderr)
        return 1
    print(format_compare_table(measurements))
    try:
        written = write_compare_artifact(args.out, measurements, config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"artifact written to {written} (validated)")
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio

    from repro.net.loadgen import EquivalenceFailure, LoadgenConfig, run_loadgen

    if args.soak:
        return _cmd_loadgen_soak(args)

    config = LoadgenConfig(
        n_users=args.users,
        n_channels=args.channels,
        rounds=args.rounds,
        seed=args.seed,
        area=args.area,
        grid_n=args.grid,
        replace=args.replace,
        transport=args.transport,
        host=args.host,
        port=args.port,
        connect=args.connect,
        check_equivalence=args.check_equivalence,
        ttp_period=args.ttp_period,
        ttp_capacity=args.ttp_capacity,
        raw_latencies=args.raw_latencies,
        entropy_scheme=args.entropy,
        scheme=_resolved_scheme(),
    )
    try:
        report = asyncio.run(run_loadgen(config))
    except EquivalenceFailure as exc:
        print(f"equivalence FAILED: {exc}", file=sys.stderr)
        return 1
    report.record_metrics()
    print(report.format())
    return 0


def _cmd_loadgen_soak(args) -> int:
    """``repro loadgen --soak``: the self-hosted epoch-service soak."""
    from repro.net.loadgen import EquivalenceFailure
    from repro.service import SoakConfig, run_soak
    from repro.service.eventloop import run as run_loop

    if args.connect is not None:
        print("error: --soak self-hosts its server; drop --connect",
              file=sys.stderr)
        return 2
    try:
        config = SoakConfig(
            population=args.users,
            initial_members=args.initial_members,
            epochs=args.rounds,
            n_channels=args.channels,
            seed=args.seed,
            area=args.area,
            grid_n=args.grid,
            join_rate=args.join_rate,
            leave_rate=args.leave_rate,
            transport=args.transport,
            host=args.host,
            port=args.port,
            interval_s=args.interval,
            warmup_epochs=args.warmup,
            check_equivalence=args.check_equivalence,
            run_dir=args.run_dir,
            retire_after=args.retire_after,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_loop(run_soak(config), use_uvloop=args.uvloop)
    except EquivalenceFailure as exc:
        print(f"equivalence FAILED: {exc}", file=sys.stderr)
        return 1
    report.loadgen.record_metrics(steady_warmup=config.warmup_epochs)
    print(report.format(warmup=config.warmup_epochs))
    return 0


def _cmd_epochs(args) -> int:
    from repro.service import load_manifest, validate_run

    if args.epochs_command == "validate":
        errors = validate_run(args.run_dir)
        if errors:
            print(f"run {args.run_dir} is INVALID:")
            for error in errors:
                print(f"  - {error}")
            return 1
        print(f"run {args.run_dir} OK")
        return 0

    # show
    try:
        manifest = load_manifest(args.run_dir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = manifest.get("summary", {})
    print(f"epoch run {args.run_dir}")
    print(f"  kind        {manifest['kind']} "
          f"(schema v{manifest['schema_version']})")
    print(f"  created     {manifest.get('created_at', '?')}")
    if manifest.get("git_sha"):
        print(f"  git         {manifest['git_sha']}")
    for key in sorted(manifest.get("config", {})):
        print(f"  config      {key} = {manifest['config'][key]}")
    print(f"  epochs      {len(manifest['epochs'])}")
    for entry in manifest["epochs"]:
        s = entry.get("summary", {})
        marks = []
        if s.get("stragglers"):
            marks.append(f"{s['stragglers']} stragglers")
        if s.get("equivalent"):
            marks.append("equivalent")
        suffix = f" ({', '.join(marks)})" if marks else ""
        print(
            f"    epoch {entry['index']}: "
            f"v{s.get('version', '?')} {s.get('members', '?')} SUs, "
            f"{s.get('winners', '?')} winners, "
            f"revenue {s.get('revenue', '?')}{suffix}"
        )
    for key in sorted(summary):
        print(f"  summary     {key} = {summary[key]}")
    if manifest.get("attachments"):
        for name in sorted(manifest["attachments"]):
            print(f"  attachment  {name}")
    return 0


def _artifact_name(args) -> str:
    """Canonical artifact name for a CLI run, e.g. ``figures-fig4``."""
    name = str(args.command)
    only = getattr(args, "only", None)
    if only:
        name = f"{name}-{only}"
    return name


def _scalar_config(args) -> Dict[str, Any]:
    """The JSON-scalar view of the parsed arguments, for artifact config."""
    config: Dict[str, Any] = {}
    for key, value in vars(args).items():
        if key in ("command", "metrics", "trace"):
            continue
        if value is None or isinstance(value, (bool, int, float, str)):
            config[key] = value
    return config


def _run_with_metrics(handler: Callable[[Any], int], args) -> int:
    """Run one command under a collecting registry; write the artifact.

    The whole command is timed as ``cli.<command>``; the artifact holds
    what the command itself measured and nothing else.
    """
    from repro import obs

    registry = obs.MetricsRegistry()
    with obs.collecting(registry):
        with obs.timer(f"cli.{args.command}"):
            code = handler(args)
    written = obs.write_artifact(
        args.metrics, _artifact_name(args), registry, config=_scalar_config(args)
    )
    print(f"metrics artifact written to {written}", file=sys.stderr)
    return code


def _run_with_trace(handler: Callable[[Any], int], args) -> int:
    """Run one command with the flight recorder on; write the JSONL trace."""
    from pathlib import Path

    from repro import obs
    from repro.obs.trace import TRACE_FILE_PREFIX

    recorder = obs.TraceRecorder()
    with obs.tracing(recorder):
        code = handler(args)
    target = Path(args.trace)
    if target.is_dir() or str(args.trace).endswith(("/", "\\")):
        target = target / f"{TRACE_FILE_PREFIX}{_artifact_name(args)}.jsonl"
    written = recorder.write_jsonl(target)
    print(
        f"trace written to {written} ({len(recorder)} events, "
        f"{recorder.dropped} dropped)",
        file=sys.stderr,
    )
    return code


_COMMANDS: Dict[str, Callable[[Any], int]] = {
    "figures": _cmd_figures,
    "report": _cmd_report,
    "baselines": _cmd_baselines,
    "theorems": _cmd_theorems,
    "ablations": _cmd_ablations,
    "coverage": _cmd_coverage,
    "demo": _cmd_demo,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "compare": _cmd_compare,
    "scale": _cmd_scale,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
    "slo": _cmd_slo,
    "epochs": _cmd_epochs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.scheme is not None:
        from repro.lppa.schemes.registry import set_active_scheme

        try:
            set_active_scheme(args.scheme)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    handler = _COMMANDS[args.command]
    if args.command in _METRICS_COMMANDS and getattr(args, "trace", None):
        handler = functools.partial(_run_with_trace, handler)
    if args.command in _METRICS_COMMANDS and getattr(args, "metrics", None):
        return _run_with_metrics(handler, args)
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
