"""The exact baseline gate (``repro metrics diff``): counters and gauges."""

import copy

from repro.obs.artifact import build_artifact
from repro.obs.diff import diff_artifacts
from repro.obs.registry import MetricsRegistry


def _artifact(name, *, hmac=1000, mean_ms=10.0, extra=None):
    registry = MetricsRegistry()
    registry.count("crypto.hmac", hmac)
    registry.set_gauge("crypto.mask_cache.size", 40.0)
    registry.record_seconds("mask", mean_ms / 1e3 * 50, 50)
    registry.observe("round.latency", mean_ms / 1e3)
    if extra:
        registry.count(extra)
    return build_artifact(name, registry)


def _doc(counters=None, gauges=None):
    return {"metrics": {"counters": counters or {}, "gauges": gauges or {}}}


def test_identical_artifacts_match():
    report = diff_artifacts(_artifact("base"), _artifact("cur"))
    assert report.matches
    assert report.compared == 2
    assert (report.changed, report.added, report.removed) == ([], [], [])
    assert report.format().splitlines()[-1] == "match"


def test_counter_regression_detected():
    """No threshold: one HMAC more, or one fewer, is a mismatch."""
    for step in (1, -1):
        report = diff_artifacts(
            _artifact("base", hmac=1000), _artifact("cur", hmac=1000 + step)
        )
        assert not report.matches
        assert [(d.kind, d.key, d.base, d.current) for d in report.changed] == [
            ("counter", "crypto.hmac", 1000, 1000 + step)
        ]


def test_gauge_change_is_named():
    report = diff_artifacts(
        _doc(gauges={"crypto.mask_cache.size": 40.0}),
        _doc(gauges={"crypto.mask_cache.size": 41.0}),
    )
    assert not report.matches
    assert [(d.kind, d.key) for d in report.changed] == [
        ("gauge", "crypto.mask_cache.size")
    ]


def test_mask_cache_counters_are_gated():
    """Cache counters are deterministic for a fixed workload: no key is
    exempt because of its name."""
    base = _doc({"schemes.ppbs.crypto.mask_cache.hits": 120,
                 "schemes.ppbs.wire_bytes": 9000})
    current = copy.deepcopy(base)
    current["metrics"]["counters"]["schemes.ppbs.crypto.mask_cache.hits"] += 1
    report = diff_artifacts(base, current)
    assert not report.matches
    assert [d.key for d in report.changed] == ["schemes.ppbs.crypto.mask_cache.hits"]
    assert "schemes.ppbs.crypto.mask_cache.hits" in report.format()


def test_timer_and_histogram_differences_are_ignored():
    report = diff_artifacts(
        _artifact("base", mean_ms=10.0), _artifact("cur", mean_ms=80.0)
    )
    assert report.matches
    # Timers and histograms on one side only are not read either.
    registry = MetricsRegistry()
    registry.count("crypto.hmac", 1000)
    registry.set_gauge("crypto.mask_cache.size", 40.0)
    assert diff_artifacts(_artifact("base"), build_artifact("bare", registry)).matches


def test_totals_are_not_read():
    base = _artifact("base")
    current = copy.deepcopy(base)
    current["metrics"]["totals"]["crypto.hmac"] = 0
    assert diff_artifacts(base, current).matches


def test_one_sided_keys_are_mismatches():
    report = diff_artifacts(
        _artifact("base", extra="only.in.base"),
        _artifact("cur", extra="only.in.current"),
    )
    assert not report.matches
    assert report.changed == []
    assert report.added == ["counter:only.in.current"]
    assert report.removed == ["counter:only.in.base"]


def test_one_sided_keys_are_all_named_in_the_output():
    """No truncation: every added/removed key appears verbatim."""
    registry_base = MetricsRegistry()
    registry_cur = MetricsRegistry()
    registry_base.count("shared", 1)
    registry_cur.count("shared", 1)
    for i in range(12):
        registry_cur.count(f"new.key{i:02d}")
    report = diff_artifacts(
        build_artifact("base", registry_base), build_artifact("cur", registry_cur)
    )
    text = report.format()
    for i in range(12):
        assert f"new.key{i:02d}" in text
    assert "only in current (12)" in text


def test_key_that_changed_kind_is_named_not_silently_skipped():
    """A counter re-recorded as a gauge is one-sided *per kind*: it must be
    named in both lists, not vanish from the union comparison."""
    registry_base = MetricsRegistry()
    registry_base.count("occupancy", 3)
    registry_cur = MetricsRegistry()
    registry_cur.set_gauge("occupancy", 3.0)
    report = diff_artifacts(
        build_artifact("base", registry_base), build_artifact("cur", registry_cur)
    )
    assert not report.matches
    assert report.added == ["gauge:occupancy"]
    assert report.removed == ["counter:occupancy"]
    text = report.format()
    assert "gauge:occupancy" in text and "counter:occupancy" in text


def test_baseline_check_names_every_divergent_key():
    baseline = _doc({"schemes.a.x": 1, "schemes.a.gone": 2})
    current = _doc({"schemes.a.x": 3, "schemes.a.new": 4})
    report = diff_artifacts(baseline, current)
    assert [(d.key, d.base, d.current) for d in report.changed] == [
        ("schemes.a.x", 1, 3)
    ]
    assert report.removed == ["counter:schemes.a.gone"]
    assert report.added == ["counter:schemes.a.new"]
    text = report.format()
    assert "schemes.a.x" in text and "1 -> 3" in text
    assert "only in baseline (1): counter:schemes.a.gone" in text
    assert "only in current (1): counter:schemes.a.new" in text
    assert diff_artifacts(baseline, baseline).matches


def test_format_mentions_regressions():
    report = diff_artifacts(
        _artifact("base", hmac=100), _artifact("cur", hmac=200)
    )
    text = report.format()
    assert "changed (1):" in text
    assert "crypto.hmac" in text and "100 -> 200  (+100)" in text
    assert text.splitlines()[-1] == "MISMATCH"


def test_report_names_every_changed_key():
    registry_base = MetricsRegistry()
    registry_cur = MetricsRegistry()
    for i in range(9):
        registry_base.count(f"key{i}", 10)
        registry_cur.count(f"key{i}", 9)
    report = diff_artifacts(
        build_artifact("base", registry_base), build_artifact("cur", registry_cur)
    )
    text = report.format()
    assert "9 changed" in text
    for i in range(9):
        assert f"key{i}" in text
