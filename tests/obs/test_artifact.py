"""BENCH_*.json artifacts: build, write, load, validate."""

import json
import subprocess

import pytest

from repro.obs import artifact
from repro.obs.artifact import (
    ARTIFACT_PREFIX,
    SCHEMA_VERSION,
    build_artifact,
    load_artifact,
    validate_artifact,
    write_artifact,
)
from repro.obs.registry import MetricsRegistry


def _registry():
    registry = MetricsRegistry()
    with registry.phase("p"):
        registry.count("ops", 3)
        registry.record_seconds("work", 0.25, 5)
    return registry


def test_build_artifact_shape():
    document = build_artifact("unit", _registry(), config={"n": 4})
    assert document["schema_version"] == SCHEMA_VERSION
    assert document["name"] == "unit"
    assert document["config"] == {"n": 4}
    assert document["metrics"]["counters"] == {"p/ops": 3}
    assert document["metrics"]["totals"] == {"ops": 3}
    assert document["metrics"]["timers"]["p/work"] == {
        "seconds": 0.25,
        "count": 5,
        "min": 0.05,
        "max": 0.05,
    }
    assert validate_artifact(document) == []


def test_git_sha_is_resolved_once_per_process(monkeypatch):
    """Two artifacts, at most one ``git`` process: an epoch service writes
    one artifact per epoch."""
    calls = []
    real_run = subprocess.run

    def counting_run(args, **kwargs):
        calls.append(args)
        return real_run(args, **kwargs)

    artifact.git_sha.cache_clear()
    monkeypatch.setattr(artifact.subprocess, "run", counting_run)
    try:
        first = build_artifact("one", _registry())
        second = build_artifact("two", _registry())
    finally:
        artifact.git_sha.cache_clear()
    assert [c[0] for c in calls] == ["git"]
    assert first["git_sha"] == second["git_sha"]


def test_build_artifact_rejects_empty_name():
    with pytest.raises(ValueError):
        build_artifact("", _registry())


def test_write_and_load_roundtrip(tmp_path):
    target = tmp_path / "custom.json"
    written = write_artifact(target, "unit", _registry(), config={"n": 4})
    assert written == target
    document = load_artifact(written)
    assert document["name"] == "unit"
    assert document["metrics"]["counters"] == {"p/ops": 3}


def test_write_into_directory_uses_canonical_name(tmp_path):
    written = write_artifact(tmp_path, "micro", _registry())
    assert written.name == f"{ARTIFACT_PREFIX}micro.json"
    assert written.parent == tmp_path
    assert load_artifact(written)["name"] == "micro"


def test_load_rejects_invalid(tmp_path):
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(ValueError, match="schema_version"):
        load_artifact(bad)


def test_validate_reports_every_violation():
    document = build_artifact("unit", _registry())
    document["schema_version"] = 2
    document["git_sha"] = ""
    document["config"] = []
    document["metrics"]["counters"]["p/ops"] = "three"
    document["metrics"]["timers"]["p/work"] = {"seconds": -1, "count": 0}
    errors = validate_artifact(document)
    assert len(errors) == 5
    assert any("schema_version" in e for e in errors)
    assert any("git_sha" in e for e in errors)
    assert any("config" in e for e in errors)
    assert any("p/ops" in e for e in errors)
    assert any("p/work" in e for e in errors)


def test_validate_non_object():
    assert validate_artifact([1, 2]) == ["artifact must be a JSON object"]


def test_validate_checks_totals_against_counters():
    """``slo check --artifact`` reads ``totals``: they must be integers equal
    to the per-name fold of the counters, or the artifact is invalid."""
    registry = _registry()
    with registry.phase("q"):
        registry.count("ops", 4)
    document = build_artifact("unit", registry)
    assert document["metrics"]["totals"] == {"ops": 7}
    assert validate_artifact(document) == []

    document["metrics"]["totals"]["ops"] = "seven"
    assert validate_artifact(document) == ["total 'ops' must be an integer, got 'seven'"]
    document["metrics"]["totals"]["ops"] = 8
    assert validate_artifact(document) == ["total 'ops' is 8 but its counters sum to 7"]
    document["metrics"]["totals"] = {"ops": 7, "ghost": 1}
    assert validate_artifact(document) == ["total 'ghost' is 1 but its counters sum to 0"]
    document["metrics"]["totals"] = {}
    assert validate_artifact(document) == ["total 'ops' is missing (its counters sum to 7)"]


def test_committed_baselines_are_valid():
    from pathlib import Path

    baselines = sorted(
        (Path(__file__).parents[2] / "benchmarks" / "baselines").glob("BENCH_*.json")
    )
    assert baselines
    for path in baselines:
        assert validate_artifact(json.loads(path.read_text())) == [], path.name
