"""LPPA benchmark: one workload per process, checked, with one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload round25_mem --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` splits the
measured time into an untraced half and a traced half and prints the
per-layer metrics.  The last line of standard output is always one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Lines before it are human-readable diagnostics.

End-to-end times are corrected for the host's speed by a probe timed next
to every round (see ``probe.py``); the raw figures are printed alongside.
The program is imported from ``src/`` next to this directory and nowhere
else: without it the benchmark exits with an error and prints no result.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

#: Set-up samples taken in fresh child processes (the run's own is one
#: more): half before warm-up, half after the measured rounds, so that one
#: slow stretch of the host does not cover them all.
SETUP_SAMPLES = 6

END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
    "wire_kb_per_round": "KiB",
    "success_ratio": "share",
}

PER_LAYER = {
    "setup.import_s": "s",
    "geo.population_s": "s",
    "crypto.keyring_s": "s",
    "net.connect_s": "s",
    "round.first_round_ms": "ms",
    "round.location_submission_ms": "ms",
    "round.bid_submission_ms": "ms",
    "round.psd_allocation_ms": "ms",
    "round.ttp_charging_ms": "ms",
    "round.unattributed_ms": "ms",
    "round.unattributed_share": "share",
    "lppa.entropy.bidder_rng_ms": "ms",
    "crypto.speck_ms": "ms",
    "crypto.speck.blocks": "count",
    "crypto.hmac_ms": "ms",
    "crypto.hmac.digests": "count",
    "prefix.mask_ms": "ms",
    "prefix.pad_ms": "ms",
    "prefix.range_cover_ms": "ms",
    "prefix.masked_digests": "count",
    "lppa.bids_ms": "ms",
    "lppa.locations_ms": "ms",
    "crypto.mask_cache.hit_ratio": "share",
    "lppa.codec_ms": "ms",
    "net.frames_ms": "ms",
    "net.frames": "count",
    "net.loop_idle_ms": "ms",
    "auction.conflict_ms": "ms",
    "auction.conflict.edge_yield": "share",
    "prefix.membership_checks": "count",
    "service.membership_ms": "ms",
    "service.store_ms": "ms",
    "service.rekeys": "count",
    "service.reseats": "count",
    "service.epoch_overhead_ms": "ms",
    "host.probe_ms": "ms",
    "host.rounds_per_s_raw": "1/s",
    "host.latency_p50_ms_raw": "ms",
    "round.latency_p95_ms": "ms",
    "round.latency_p99_ms": "ms",
    "round.latency_samples": "count",
    "trace.overhead_pct": "%",
}

PHASES = ("location_submission", "bid_submission", "psd_allocation", "ttp_charging")

#: Layers timed by wrapping, reported as ``<layer>_ms`` per round.
TIMED_LAYERS = (
    "lppa.entropy.bidder_rng",
    "crypto.speck",
    "crypto.hmac",
    "prefix.mask",
    "prefix.pad",
    "prefix.range_cover",
    "lppa.bids",
    "lppa.locations",
    "lppa.codec",
    "net.frames",
    "service.membership",
    "service.store",
)

#: Slack for the layer-sum check (timer reads of nested spans).
LAYER_SUM_SLACK = 1.001


def _import_program():
    """Import the benchmark (and with it the program) from ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return workloads


def _setup_total(sample: Dict[str, float]) -> float:
    return (
        sample["setup.import_s"]
        + sample["geo.population_s"]
        + sample["crypto.keyring_s"]
        + sample["net.connect_s"]
    )


def _child_setup_sample(workload: str, seed: int) -> Dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _bare_sum(totals: Dict[str, float], kind: str, name: str, scope: str = "") -> float:
    """Sum a program counter/timer over phase scopes (``scope`` restricts)."""
    prefix = f"{kind}:"
    return sum(
        value
        for key, value in totals.items()
        if key.startswith(prefix)
        and key[len(prefix):].startswith(scope)
        and key.rsplit("/", 1)[-1].removeprefix(prefix) == name
    )


def _layer_metrics(wl, outcome, samples: List[Dict[str, float]]) -> Tuple[Dict[str, float], bool]:
    """Per-layer metrics of the traced half, and whether the layer sum holds."""
    plain, traced, profile = outcome.plain, outcome.traced, outcome.profile
    totals = profile.totals
    rounds = traced.rounds
    k = traced.correction()

    def per_round_ms(seconds: float) -> float:
        return seconds / rounds * 1e3 * k

    def per_round(count: float) -> float:
        return count / rounds

    wall_s = sum(traced.latencies)
    phase_s = {p: totals.get(f"timer:phase/{p}", 0.0) for p in PHASES}
    layer_self_s = sum(totals.get(f"self:{layer}", 0.0) for layer in TIMED_LAYERS)
    layer_sum_ok = (
        sum(phase_s.values()) <= wall_s * LAYER_SUM_SLACK
        and layer_self_s <= sum(traced.cycles) * LAYER_SUM_SLACK
    )
    unattributed_s = wall_s - sum(phase_s.values())
    hits = _bare_sum(totals, "counter", "crypto.mask_cache.hits")
    misses = _bare_sum(totals, "counter", "crypto.mask_cache.misses")
    location_checks = _bare_sum(
        totals, "counter", "prefix.membership_checks", "location_submission/"
    )
    metrics: Dict[str, float] = {
        name: statistics.median(s[name] for s in samples)
        for name in ("setup.import_s", "geo.population_s", "crypto.keyring_s", "net.connect_s")
    }
    metrics["round.first_round_ms"] = outcome.first_round_s * 1e3
    for p in PHASES:
        metrics[f"round.{p}_ms"] = per_round_ms(phase_s[p])
    metrics["round.unattributed_ms"] = per_round_ms(unattributed_s)
    metrics["round.unattributed_share"] = unattributed_s / wall_s
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_ms"] = per_round_ms(totals.get(f"self:{layer}", 0.0))
    metrics["crypto.speck.blocks"] = per_round(totals.get("work:crypto.speck", 0))
    metrics["crypto.hmac.digests"] = per_round(_bare_sum(totals, "counter", "crypto.hmac"))
    metrics["prefix.masked_digests"] = per_round(
        _bare_sum(totals, "counter", "prefix.masked_digests")
    )
    metrics["crypto.mask_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["net.frames"] = per_round(totals.get("calls:net.frames", 0))
    metrics["net.loop_idle_ms"] = totals.get("idle_s", 0.0) / rounds * 1e3
    metrics["auction.conflict_ms"] = per_round_ms(
        _bare_sum(totals, "timer", "lppa.conflict_graph")
    )
    metrics["auction.conflict.edge_yield"] = (
        sum(traced.edges) / location_checks if location_checks else 0.0
    )
    metrics["prefix.membership_checks"] = per_round(
        _bare_sum(totals, "counter", "prefix.membership_checks")
    )
    metrics["service.rekeys"] = per_round(_bare_sum(totals, "counter", "service.rekeys"))
    metrics["service.reseats"] = per_round(_bare_sum(totals, "counter", "service.reseats"))
    overheads = outcome.epoch_overhead_s
    metrics["service.epoch_overhead_ms"] = (
        sum(overheads) / len(overheads) * 1e3 * k if overheads else 0.0
    )
    metrics["host.probe_ms"] = statistics.median(plain.probes) * 1e3
    metrics["host.rounds_per_s_raw"] = plain.rounds_per_s(corrected=False)
    metrics["host.latency_p50_ms_raw"] = plain.latency_ms(0.5, corrected=False)
    metrics["round.latency_p95_ms"] = plain.latency_ms(0.95)
    metrics["round.latency_p99_ms"] = plain.latency_ms(0.99)
    metrics["round.latency_samples"] = plain.rounds
    metrics["trace.overhead_pct"] = (plain.rounds_per_s() / traced.rounds_per_s() - 1) * 100
    print(
        f"{wl.name}: layer-sum {'ok' if layer_sum_ok else 'FAILED'}: "
        f"phases {sum(phase_s.values()) / rounds * 1e3:.3f} ms + unattributed "
        f"{unattributed_s / rounds * 1e3:.3f} ms = round wall {wall_s / rounds * 1e3:.3f} ms; "
        f"unattributed share {unattributed_s / wall_s:.4f}; "
        f"layer self time {layer_self_s / rounds * 1e3:.3f} ms of "
        f"{sum(traced.cycles) / rounds * 1e3:.3f} ms per cycle"
    )
    return metrics, layer_sum_ok


def _end_to_end(outcome, samples: List[Dict[str, float]]) -> Dict[str, float]:
    """End-to-end metrics of the (untraced) measured rounds."""
    plain, outputs = outcome.plain, outcome.outputs
    return {
        "setup_s": statistics.median(_setup_total(s) for s in samples),
        "rounds_per_s": plain.rounds_per_s(),
        "latency_p50_ms": plain.latency_ms(0.5),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wire_kb_per_round": sum(plain.framed) / len(plain.framed) / 1024,
        "success_ratio": (outputs.attempted - len(outputs.bad)) / outputs.attempted,
    }


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    setup_samples: int = SETUP_SAMPLES,
    recorded: Optional[str] = "file",
) -> Dict[str, object]:
    """Run one workload in this process; returns the result document.

    ``recorded`` is the run digest the outputs must reproduce: ``"file"``
    reads it from ``digests.json``; ``None`` skips that comparison.
    """
    workloads = _import_program()
    import_s = time.perf_counter() - _T0
    import checks

    if workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload]
    samples: List[Dict[str, float]] = []

    def sampler() -> None:
        for _ in range(setup_samples // 2):
            samples.append(_child_setup_sample(workload, seed))

    tmp = TMP_ROOT / f"run-{seed}-{id(samples):x}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.run_workload(
            wl, seed, seconds, trace=trace, sampler=sampler, tmp_root=tmp
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()
    for _ in range(setup_samples - setup_samples // 2):
        samples.append(_child_setup_sample(workload, seed))
    samples.insert(0, {"setup.import_s": import_s, **outcome.setup})

    outputs = outcome.outputs
    digest = checks.run_digest(outputs.digests)
    if recorded == "file":
        expected = checks.recorded_digest(workload, seed, outputs.attempted)
    else:
        expected = recorded
    if expected is not None and digest != expected:
        outputs.fail(range(outputs.attempted), f"run digest {digest} != recorded {expected}")
    print(f"{workload}: seed {seed}, {outputs.attempted} rounds, run digest {digest} "
          f"({'recorded' if expected else 'no recorded digest'})")
    for problem in outputs.problems[:10]:
        print(f"{workload}: CHECK FAILED: {problem}")

    correct = not outputs.bad
    if trace:
        metrics, layer_sum_ok = _layer_metrics(wl, outcome, samples)
        correct = correct and layer_sum_ok
        units = PER_LAYER
    else:
        metrics = _end_to_end(outcome, samples)
        units = END_TO_END
        plain = outcome.plain
        print(
            f"{workload}: raw {plain.rounds_per_s(corrected=False):.3f} rounds/s, "
            f"raw p50 {plain.latency_ms(0.5, corrected=False):.3f} ms, "
            f"probe median {statistics.median(plain.probes) * 1e3:.3f} ms "
            f"(x{plain.correction():.4f} to reference speed), "
            f"p95 {plain.latency_ms(0.95):.3f} ms, p99 {plain.latency_ms(0.99):.3f} ms "
            f"over {plain.rounds} rounds"
        )
    return {
        "correct": correct,
        "attempted": outputs.attempted,
        "failed": len(outputs.bad),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES, help=argparse.SUPPRESS)
    parser.add_argument("--no-recorded", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if args.setup_sample:
        workloads = _import_program()
        import_s = time.perf_counter() - _T0
        wl = workloads.WORKLOADS[args.workload]
        sample = {"setup.import_s": import_s, **workloads.run_setup_sample(wl, args.seed)}
        print(json.dumps(sample))
        return 0
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    result = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        setup_samples=args.setup_samples, recorded=None if args.no_recorded else "file",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
