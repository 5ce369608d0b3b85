"""The command-line driver."""

import json

import pytest

from repro.cli import build_parser, main


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip()


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_demo(capsys):
    assert main(["demo", "--users", "10", "--channels", "6", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "revenue" in out and "satisfaction" in out


def test_coverage(capsys):
    assert main(
        ["coverage", "--area", "4", "--channel", "1", "--channels", "4",
         "--step", "4"]
    ) == 0
    out = capsys.readouterr().out
    assert "usable" in out
    assert "#" in out or "." in out


def test_coverage_bad_channel(capsys):
    assert main(
        ["coverage", "--channel", "10", "--channels", "4"]
    ) == 2


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in ("figures", "theorems", "ablations", "coverage", "demo"):
        args = parser.parse_args(
            [command] if command != "coverage" else [command, "--area", "1"]
        )
        assert args.command == command


def test_theorems_command(capsys):
    assert main(["theorems"]) == 0
    out = capsys.readouterr().out
    for heading in ("Theorem 1", "Theorem 2", "Theorem 3", "Theorem 4"):
        assert heading in out


def _shrink_smoke(monkeypatch):
    # Keep it fast: shrink the smoke preset for this invocation.
    import repro.experiments as exp
    from repro.experiments.config import ExperimentConfig

    tiny = ExperimentConfig(
        n_users=10, n_channels=10, channel_sweep=(10,),
        bpm_fractions=(0.5,), attack_fractions=(0.5,),
        zero_replace_probs=(0.5,), n_users_sweep=(10,), n_rounds=1,
        bpm_max_cells=100, two_lambda=6, bmax=127, seed="cli-test",
    )
    monkeypatch.setattr(exp, "SMOKE", tiny)


def test_figures_only_fig4(capsys, monkeypatch):
    _shrink_smoke(monkeypatch)
    assert main(["figures", "--only", "fig4"]) == 0
    out = capsys.readouterr().out
    assert "Fig 4(a)(b)" in out and "Fig 4(c)" in out
    assert "Fig 5" not in out


def test_figures_metrics_writes_valid_artifact(capsys, monkeypatch, tmp_path):
    from repro import obs

    _shrink_smoke(monkeypatch)
    target = tmp_path / "out.json"
    assert main(["figures", "--only", "fig4", "--metrics", str(target)]) == 0
    assert "metrics artifact written" in capsys.readouterr().err
    document = obs.load_artifact(target)
    assert document["name"] == "figures-fig4"
    assert document["config"]["only"] == "fig4"
    # The artifact holds the command's own measurements and nothing else.
    timers = document["metrics"]["timers"]
    assert timers["cli.figures"]["count"] == 1
    assert not any(key.startswith("calibration") for key in timers)
    # Collection is torn down once the command finishes.
    assert obs.get_active() is None


def test_demo_metrics_records_protocol_phases(capsys, tmp_path):
    from repro import obs

    target = tmp_path / "bench"
    target.mkdir()
    assert main(
        ["demo", "--users", "8", "--channels", "5", "--seed", "1",
         "--metrics", f"{target}/"]
    ) == 0
    document = obs.load_artifact(target / "BENCH_demo.json")
    timers = document["metrics"]["timers"]
    for phase in ("location_submission", "bid_submission",
                  "psd_allocation", "ttp_charging"):
        assert f"phase/{phase}" in timers, phase
    assert document["metrics"]["totals"]["lppa.bid_submissions"] == 8


def _write_artifact(path, *, hmac, mean_seconds):
    from repro.obs.artifact import build_artifact
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    registry.count("crypto.hmac", hmac)
    registry.record_seconds("mask", mean_seconds * 10, 10)
    path.write_text(json.dumps(build_artifact(path.stem, registry)))
    return path


def test_metrics_diff_exit_codes(capsys, tmp_path):
    base = _write_artifact(tmp_path / "base.json", hmac=100, mean_seconds=0.01)
    slower = _write_artifact(tmp_path / "slower.json", hmac=100, mean_seconds=0.5)
    more = _write_artifact(tmp_path / "more.json", hmac=101, mean_seconds=0.01)
    fewer = _write_artifact(tmp_path / "fewer.json", hmac=99, mean_seconds=0.01)
    unreadable = tmp_path / "unreadable.json"
    unreadable.write_text("not json")

    # Equal counters match whatever the timers say.
    assert main(["metrics", "diff", str(base), str(base)]) == 0
    assert main(["metrics", "diff", str(base), str(slower)]) == 0
    capsys.readouterr()
    # One counter moved by +1 or -1 fails, and the output names the key.
    for changed in (more, fewer):
        assert main(["metrics", "diff", str(base), str(changed)]) == 1
        out = capsys.readouterr().out
        assert "crypto.hmac" in out and "MISMATCH" in out
    assert main(["metrics", "diff", str(base), str(unreadable)]) == 2
    assert main(["metrics", "diff", str(tmp_path / "missing.json"), str(base)]) == 2


def test_metrics_diff_summary_names_regressed_keys(capsys, tmp_path):
    """On exit 1 the report must say *which* keys changed, not just how
    many — it is what CI logs surface first.  Timers are not compared, so
    the slower ``mask`` timer is not named."""
    base = _write_artifact(tmp_path / "base.json", hmac=100, mean_seconds=0.01)
    worse = _write_artifact(tmp_path / "worse.json", hmac=300, mean_seconds=0.03)
    assert main(["metrics", "diff", str(base), str(worse)]) == 1
    out = capsys.readouterr().out
    changed = [line for line in out.splitlines() if "->" in line]
    assert len(changed) == 1
    assert "crypto.hmac" in changed[0] and "100 -> 300" in changed[0]
    assert "mask" not in out


def test_metrics_show_and_validate(capsys, tmp_path):
    artifact = _write_artifact(tmp_path / "one.json", hmac=7, mean_seconds=0.01)
    assert main(["metrics", "show", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "crypto.hmac" in out and "7" in out
    assert main(["metrics", "validate", str(artifact)]) == 0
    assert "valid" in capsys.readouterr().out


def test_metrics_commands_reject_bad_artifacts(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    missing = tmp_path / "missing.json"
    assert main(["metrics", "validate", str(bad)]) == 2
    assert main(["metrics", "show", str(missing)]) == 2
    good = _write_artifact(tmp_path / "good.json", hmac=1, mean_seconds=0.01)
    assert main(["metrics", "diff", str(good), str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def _record_trace(tmp_path, capsys, **overrides):
    out = tmp_path / "TRACE_cli.jsonl"
    argv = ["trace", "run", "--users", "8", "--channels", "4",
            "--grid", "10", "--rounds", "1", "--seed", "5",
            "--out", str(out)]
    for key, value in overrides.items():
        argv.extend([f"--{key}", str(value)])
    assert main(argv) == 0
    capsys.readouterr()
    return out


def test_trace_run_show_validate(capsys, tmp_path):
    trace_path = _record_trace(tmp_path, capsys)
    assert trace_path.exists()

    assert main(["trace", "show", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "events by type" in out
    assert "bid_submission" in out
    assert "wire bytes" in out

    assert main(["trace", "validate", str(trace_path)]) == 0
    assert "valid" in capsys.readouterr().out


def test_trace_audit_passes_on_recorded_run(capsys, tmp_path):
    trace_path = _record_trace(tmp_path, capsys)
    assert main(["trace", "audit", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "comm-cost audit: PASS" in out
    assert "exact=True" in out
    assert "privacy audit: PASS" in out
    assert "mean candidate area" in out


def test_trace_audit_fails_on_tampered_trace(capsys, tmp_path):
    trace_path = _record_trace(tmp_path, capsys)
    lines = trace_path.read_text().splitlines()
    doctored = []
    for line in lines:
        record = json.loads(line)
        if record.get("kind") == "bid_submission":
            record["wire_size"] += 3
        doctored.append(json.dumps(record))
    trace_path.write_text("\n".join(doctored) + "\n")
    assert main(["trace", "audit", str(trace_path), "--no-privacy"]) == 1
    assert "comm-cost audit: FAIL" in capsys.readouterr().err


def test_trace_export_chrome(capsys, tmp_path):
    trace_path = _record_trace(tmp_path, capsys)
    out = tmp_path / "out.chrome.json"
    assert main(["trace", "export", str(trace_path), "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["traceEvents"]
    assert "chrome trace written" in capsys.readouterr().out


def test_trace_commands_reject_bad_files(capsys, tmp_path):
    missing = tmp_path / "missing.jsonl"
    assert main(["trace", "show", str(missing)]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "instant"}\n')
    assert main(["trace", "validate", str(bad)]) == 2
    assert main(["trace", "audit", str(bad)]) == 2
    capsys.readouterr()


def test_demo_with_trace_flag(capsys, tmp_path):
    from repro.obs.trace import load_trace

    target = tmp_path / "traces"
    target.mkdir()
    assert main(
        ["demo", "--users", "8", "--channels", "5", "--seed", "1",
         "--trace", f"{target}/"]
    ) == 0
    err = capsys.readouterr().err
    assert "trace written to" in err
    header, events = load_trace(target / "TRACE_demo.jsonl")
    assert header["event_count"] == len(events)
    kinds = {e.get("kind") for e in events if e["type"] == "message"}
    assert "location_submission" in kinds and "bid_submission" in kinds


def test_demo_trace_and_metrics_compose(capsys, tmp_path):
    from repro import obs

    target = tmp_path / "both"
    target.mkdir()
    assert main(
        ["demo", "--users", "8", "--channels", "5", "--seed", "1",
         "--metrics", f"{target}/", "--trace", f"{target}/"]
    ) == 0
    assert (target / "BENCH_demo.json").exists()
    assert (target / "TRACE_demo.jsonl").exists()
    document = obs.load_artifact(target / "BENCH_demo.json")
    assert "phase/bid_submission" in document["metrics"]["timers"]


def test_metrics_show_openmetrics_format(capsys, tmp_path):
    from repro.obs.openmetrics import validate_openmetrics

    artifact = _write_artifact(tmp_path / "om.json", hmac=7, mean_seconds=0.01)
    assert main(
        ["metrics", "show", str(artifact), "--format", "openmetrics"]
    ) == 0
    out = capsys.readouterr().out
    assert validate_openmetrics(out) == []
    assert "repro_crypto_hmac_total 7" in out
    assert out.rstrip().endswith("# EOF")


def test_trace_merge_cli(capsys, tmp_path):
    from repro.obs.trace import load_trace

    first = _record_trace(tmp_path, capsys, seed=5)
    second = tmp_path / "TRACE_second.jsonl"
    assert main(
        ["trace", "run", "--users", "8", "--channels", "4", "--grid", "10",
         "--rounds", "1", "--seed", "6", "--out", str(second)]
    ) == 0
    capsys.readouterr()
    merged = tmp_path / "TRACE_merged.jsonl"
    assert main(
        ["trace", "merge", str(first), str(second),
         "--roles", "runA,runB", "--out", str(merged)]
    ) == 0
    assert "merged trace written" in capsys.readouterr().out
    header, events = load_trace(merged)
    assert header["merged_from"] == 2
    assert header["sources"] == ["runA", "runB"]
    assert {e["src"] for e in events} == {"0", "1"}
    assert [e["seq"] for e in events] == list(range(len(events)))


def test_trace_merge_rejects_mismatched_roles_and_bad_files(capsys, tmp_path):
    trace_path = _record_trace(tmp_path, capsys)
    assert main(
        ["trace", "merge", str(trace_path), "--roles", "a,b",
         "--out", str(tmp_path / "m.jsonl")]
    ) == 2
    assert main(
        ["trace", "merge", str(trace_path), str(tmp_path / "missing.jsonl"),
         "--out", str(tmp_path / "m.jsonl")]
    ) == 2
    assert "error:" in capsys.readouterr().err


def _write_slo_inputs(tmp_path, *, p99_max):
    from repro.obs.artifact import build_artifact
    from repro.obs.hist import Histogram
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    hist = Histogram()
    for value in (0.01, 0.02, 0.05):
        hist.observe(value)
    registry.merge_histogram("net.loadgen.latency", hist)
    registry.count("net.loadgen.rounds", 10)
    registry.record_seconds("net.loadgen.elapsed", 2.0)
    artifact = tmp_path / "bench.json"
    artifact.write_text(json.dumps(build_artifact("lg", registry)))
    rules = {
        "schema_version": 1,
        "rules": [
            {"name": "p99 latency",
             "value": {"kind": "histogram", "key": "net.loadgen.latency",
                       "stat": "p99"},
             "max": p99_max},
            {"name": "rounds per second",
             "value": {"kind": "ratio",
                       "num": {"kind": "counter",
                               "key": "net.loadgen.rounds"},
                       "den": {"kind": "timer", "key": "net.loadgen.elapsed",
                               "stat": "sum"}},
             "min": 0.5},
        ],
    }
    slo = tmp_path / "slo.json"
    slo.write_text(json.dumps(rules))
    return artifact, slo


def test_slo_check_exit_codes(capsys, tmp_path):
    artifact, slo = _write_slo_inputs(tmp_path, p99_max=1.0)
    assert main(["slo", "check", str(slo), "--artifact", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "0 breached" in out

    artifact, slo = _write_slo_inputs(tmp_path, p99_max=0.001)
    assert main(["slo", "check", str(slo), "--artifact", str(artifact)]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert main(
        ["slo", "check", str(slo), "--artifact", str(artifact), "--warn-only"]
    ) == 0
    assert "WARN" in capsys.readouterr().out


def test_slo_check_missing_metric_is_a_breach(capsys, tmp_path):
    artifact = _write_artifact(tmp_path / "a.json", hmac=1, mean_seconds=0.01)
    rules = {
        "schema_version": 1,
        "rules": [{"name": "unmeasured",
                   "value": {"kind": "gauge", "key": "never.recorded"},
                   "max": 1.0}],
    }
    slo = tmp_path / "slo.json"
    slo.write_text(json.dumps(rules))
    assert main(["slo", "check", str(slo), "--artifact", str(artifact)]) == 1
    assert "missing" in capsys.readouterr().out


def test_slo_check_rejects_bad_inputs(capsys, tmp_path):
    artifact, slo = _write_slo_inputs(tmp_path, p99_max=1.0)
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["slo", "check", str(bad), "--artifact", str(artifact)]) == 2
    assert main(["slo", "check", str(slo), "--artifact", str(bad)]) == 2
    assert main(
        ["slo", "check", str(slo), "--url", "127.0.0.1:1"]
    ) == 2
    assert "error:" in capsys.readouterr().err


def test_committed_loadgen_slo_file_is_valid():
    from pathlib import Path

    from repro.obs.slo import load_slo_file

    committed = (
        Path(__file__).parent.parent / "benchmarks" / "slo"
        / "loadgen_smoke.json"
    )
    document = load_slo_file(committed)
    assert [rule["name"] for rule in document["rules"]] == [
        "loadgen p99 latency", "rounds per second", "mask cache hit ratio",
    ]


def test_metrics_serve_and_slo_check_url(tmp_path, capsys):
    """The standalone artifact endpoint, scraped by the SLO gate over HTTP."""
    import threading
    import time
    import urllib.request

    artifact, slo = _write_slo_inputs(tmp_path, p99_max=1.0)
    from repro.cli import _load_artifact_or_fail, _serve_artifact_metrics

    document = _load_artifact_or_fail(str(artifact))
    port_holder = {}

    # _serve_artifact_metrics blocks; probe the printed port via a thread
    # that runs the same server object the CLI would.
    import asyncio

    from repro.obs.live import MetricsHttpServer

    async def scenario():
        server = MetricsHttpServer(
            lambda: document["metrics"], host="127.0.0.1", port=0
        )
        await server.start()
        port_holder["port"] = server.port
        started.set()
        while not done.is_set():
            await asyncio.sleep(0.02)
        await server.stop()

    started = threading.Event()
    done = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(scenario()), daemon=True
    )
    thread.start()
    assert started.wait(timeout=10.0)
    try:
        url = f"http://127.0.0.1:{port_holder['port']}/metrics"
        with urllib.request.urlopen(url, timeout=10.0) as response:
            assert b"repro_net_loadgen_latency_seconds_bucket" in response.read()
        assert main(["slo", "check", str(slo), "--url", url]) == 0
        assert "0 breached" in capsys.readouterr().out
    finally:
        done.set()
        thread.join(timeout=10.0)
        time.sleep(0)
