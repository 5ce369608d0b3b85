"""Machine-readable benchmark artifacts (``BENCH_<name>.json``).

One artifact captures one measured run: the metrics snapshot of a
:class:`~repro.obs.registry.MetricsRegistry`, the configuration that
produced it, the git commit it measured and a timestamp.  The schema is
versioned so CI tooling can refuse artifacts it does not understand
instead of mis-reading them.

Schema (version 1)::

    {
      "schema_version": 1,
      "name": "<artifact name, e.g. 'micro_protocol'>",
      "created_at": "<ISO-8601 UTC timestamp>",
      "git_sha": "<commit hash or 'unknown'>",
      "config": { ...flat JSON object describing the workload... },
      "metrics": {
        "counters": {"<phase.path>/<metric>": int, ...},
        "timers":   {"<key>": {"seconds": float, "count": int,
                               "min": float?, "max": float?}, ...},
        "totals":   {"<metric>": int, ...},
        "histograms": {"<key>": {"count": int, "sum": float,
                                 "buckets": {"<i>": int, ...}, ...}, ...}?,
        "gauges":   {"<key>": float, ...}?
      }
    }

The ``histograms``/``gauges`` sections and the timer ``min``/``max``
fields are schema-additive: artifacts written before they existed stay
valid, and consumers must treat their absence as "not recorded" — never
as zero.

``totals`` is derived, not recorded: it must equal the per-name fold of
``counters`` (every ``<phase.path>/<metric>`` summed under ``<metric>``),
because ``repro slo check --artifact`` reads it in place of the counters.

``repro metrics diff`` (:mod:`repro.obs.diff`) compares the counters and
gauges of two such files exactly; CI diffs every fresh artifact against
its committed baseline in ``benchmarks/baselines/``.
"""

from __future__ import annotations

import functools
import json
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.registry import MetricsRegistry, fold_counters

__all__ = [
    "SCHEMA_VERSION",
    "ARTIFACT_PREFIX",
    "git_sha",
    "build_artifact",
    "write_artifact",
    "load_artifact",
    "validate_artifact",
]

#: Current artifact schema version; bump on breaking layout changes.
SCHEMA_VERSION = 1

#: File-name prefix the benchmark suite and CI glob for.
ARTIFACT_PREFIX = "BENCH_"


@functools.lru_cache(maxsize=None)
def git_sha() -> str:
    """The current commit hash, or ``"unknown"`` outside a usable git repo.

    Resolved once per process: an epoch service writes one artifact per
    epoch, and forking ``git`` for each cost more than writing it.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def build_artifact(
    name: str,
    registry: MetricsRegistry,
    *,
    config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the schema-versioned artifact document for one run."""
    if not name:
        raise ValueError("artifact name must be non-empty")
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "git_sha": git_sha(),
        "config": dict(config or {}),
        "metrics": registry.snapshot(),
    }


def write_artifact(
    path: Union[str, Path],
    name: str,
    registry: MetricsRegistry,
    *,
    config: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write one artifact as pretty-printed JSON; returns the final path.

    ``path`` may be a directory (existing, or spelled with a trailing
    separator), in which case the file lands there under the canonical
    ``BENCH_<name>.json`` name; any other path is used verbatim.
    """
    document = build_artifact(name, registry, config=config)
    target = Path(path)
    if target.is_dir() or str(path).endswith(("/", "\\")):
        target = target / f"{ARTIFACT_PREFIX}{name}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return target


def load_artifact(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate one artifact; raises ``ValueError`` when invalid."""
    document = json.loads(Path(path).read_text())
    errors = validate_artifact(document)
    if errors:
        raise ValueError(
            f"{path} is not a valid BENCH artifact: " + "; ".join(errors)
        )
    return document


def _type_error(field: str, expected: str, value: Any) -> str:
    return f"field {field!r} must be {expected}, got {type(value).__name__}"


def validate_artifact(document: Any) -> List[str]:
    """All schema violations in ``document`` (empty list == valid)."""
    errors: List[str] = []
    if not isinstance(document, dict):
        return ["artifact must be a JSON object"]
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    for field, kind in (("name", str), ("created_at", str), ("git_sha", str)):
        value = document.get(field)
        if not isinstance(value, kind) or not value:
            errors.append(f"field {field!r} must be a non-empty string")
    config = document.get("config")
    if not isinstance(config, dict):
        errors.append(_type_error("config", "an object", config))
    metrics = document.get("metrics")
    if not isinstance(metrics, dict):
        errors.append(_type_error("metrics", "an object", metrics))
        return errors
    counters = metrics.get("counters")
    counters_ok = isinstance(counters, dict)
    if not counters_ok:
        errors.append(_type_error("metrics.counters", "an object", counters))
    else:
        for key, value in counters.items():
            if not _is_int(value):
                counters_ok = False
                errors.append(
                    f"counter {key!r} must be an integer, got {value!r}"
                )
    totals = metrics.get("totals")
    if not isinstance(totals, dict):
        errors.append(_type_error("metrics.totals", "an object", totals))
    elif counters_ok:
        errors.extend(_check_totals(counters, totals))
    timers = metrics.get("timers")
    if not isinstance(timers, dict):
        errors.append(_type_error("metrics.timers", "an object", timers))
    else:
        for key, stat in timers.items():
            if (
                not isinstance(stat, dict)
                or not isinstance(stat.get("seconds"), (int, float))
                or isinstance(stat.get("seconds"), bool)
                or stat.get("seconds", -1) < 0
                or not isinstance(stat.get("count"), int)
                or isinstance(stat.get("count"), bool)
                or stat.get("count", 0) < 1
            ):
                errors.append(
                    f"timer {key!r} must be "
                    '{"seconds": float >= 0, "count": int >= 1}'
                )
                continue
            errors.extend(_check_min_max(f"timer {key!r}", stat))
    histograms = metrics.get("histograms")
    if histograms is not None:
        if not isinstance(histograms, dict):
            errors.append(
                _type_error("metrics.histograms", "an object", histograms)
            )
        else:
            for key, hist in histograms.items():
                errors.extend(_check_histogram(key, hist))
    gauges = metrics.get("gauges")
    if gauges is not None:
        if not isinstance(gauges, dict):
            errors.append(_type_error("metrics.gauges", "an object", gauges))
        else:
            for key, value in gauges.items():
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    errors.append(f"gauge {key!r} must be a number, got {value!r}")
    return errors


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_totals(counters: Dict[str, Any], totals: Dict[str, Any]) -> List[str]:
    """``totals`` must be integers equal to the per-name fold of ``counters``."""
    errors: List[str] = []
    folded = fold_counters(counters)
    for name, value in totals.items():
        if not _is_int(value):
            errors.append(f"total {name!r} must be an integer, got {value!r}")
        elif value != folded.get(name):
            errors.append(
                f"total {name!r} is {value} but its counters sum to "
                f"{folded.get(name, 0)}"
            )
    for name in sorted(folded.keys() - totals.keys()):
        errors.append(f"total {name!r} is missing (its counters sum to {folded[name]})")
    return errors


def _check_min_max(label: str, stat: Dict[str, Any]) -> List[str]:
    """Optional min/max fields: numbers with min <= max, or both absent.

    Absent means "not recorded" (an older artifact) — validation must not
    demand them, and diffing must not read absence as zero.
    """
    errors: List[str] = []
    has_min, has_max = "min" in stat, "max" in stat
    if has_min != has_max:
        errors.append(f"{label} must carry 'min' and 'max' together")
        return errors
    if not has_min:
        return errors
    for field in ("min", "max"):
        value = stat[field]
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or value < 0
        ):
            errors.append(f"{label} field {field!r} must be a number >= 0")
            return errors
    if stat["min"] > stat["max"]:
        errors.append(f"{label} has min > max")
    return errors


def _check_histogram(key: str, hist: Any) -> List[str]:
    label = f"histogram {key!r}"
    if not isinstance(hist, dict):
        return [f"{label} must be an object"]
    errors: List[str] = []
    count = hist.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        errors.append(f"{label} field 'count' must be a non-negative int")
        return errors
    total = hist.get("sum")
    if not isinstance(total, (int, float)) or isinstance(total, bool) or total < 0:
        errors.append(f"{label} field 'sum' must be a number >= 0")
    buckets = hist.get("buckets")
    if not isinstance(buckets, dict):
        errors.append(f"{label} field 'buckets' must be an object")
    else:
        bucket_total = 0
        for index, value in buckets.items():
            if (
                not str(index).isdigit()
                or not isinstance(value, int)
                or isinstance(value, bool)
                or value < 1
            ):
                errors.append(
                    f"{label} bucket {index!r} must map a digit index to int >= 1"
                )
                return errors
            bucket_total += value
        if bucket_total != count:
            errors.append(f"{label} bucket counts do not sum to 'count'")
    if count > 0:
        errors.extend(_check_min_max(label, hist))
    return errors
