"""Exact comparison of two ``BENCH_*.json`` artifacts: the baseline gate.

``diff_artifacts`` compares a *baseline* artifact against a *current* one
on their deterministic sections only:

* **counters** (scoped keys such as ``bid_submission/crypto.hmac``) — the
  paper's cost model (Theorem 4's bits, HMAC and masked-digest counts,
  TTP decrypts) in integers that are a pure function of the workload;
* **gauges** — occupancy levels such as ``crypto.mask_cache.size``, equally
  fixed for a fixed workload.

Every shared key must hold the same value, with no threshold and no
exclusion list: a refactor that adds one HMAC to bid submission is a
mismatch, and so is one that saves one.  Keys found on only one side are
mismatches too, each named with its kind (``counter:lppa.rounds``).  The
one-sided check is per kind, so a key that *moved* kinds (a counter
re-recorded as a gauge) is named in both lists instead of silently
dropping out of the comparison.

Timers, histograms and ``totals`` are never read.  Seconds measure the
host, not the protocol; ``perfbench`` bounds time end to end, and
``totals`` is a fold of the counters (checked by
:func:`repro.obs.artifact.validate_artifact`).

The CLI front-end is ``python -m repro metrics diff``: exit 0 when the
artifacts match, 1 on any mismatch, 2 when an artifact cannot be read.
CI runs it against every committed baseline in ``benchmarks/baselines/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping

__all__ = ["Delta", "DiffReport", "diff_artifacts"]


@dataclass(frozen=True)
class Delta:
    """One shared key whose value differs between baseline and current."""

    key: str
    kind: str  # "counter" | "gauge"
    base: float
    current: float

    def describe(self) -> str:
        """One aligned human-readable line for the diff report."""
        return (
            f"{self.kind:<8} {self.key:<56} "
            f"{self.base:g} -> {self.current:g}  ({self.current - self.base:+g})"
        )


@dataclass
class DiffReport:
    """Everything one artifact comparison found."""

    baseline_name: str
    current_name: str
    compared: int = 0
    changed: List[Delta] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)

    @property
    def matches(self) -> bool:
        """True when every counter and gauge is equal on both sides."""
        return not (self.changed or self.added or self.removed)

    def format(self) -> str:
        """The multi-line report ``repro metrics diff`` prints."""
        lines = [
            f"metrics diff: {self.baseline_name} (baseline) vs "
            f"{self.current_name} (current), counters and gauges exact",
            f"compared {self.compared} shared keys: {len(self.changed)} changed, "
            f"{len(self.added)} only in current, "
            f"{len(self.removed)} only in baseline",
        ]
        if self.changed:
            lines.append(f"changed ({len(self.changed)}):")
            lines.extend(f"  {d.describe()}" for d in self.changed)
        # Name every one-sided key: a truncated list is how a renamed
        # metric slips past the gate unnoticed.
        if self.added:
            lines.append(f"only in current ({len(self.added)}): "
                         + ", ".join(self.added))
        if self.removed:
            lines.append(f"only in baseline ({len(self.removed)}): "
                         + ", ".join(self.removed))
        lines.append("match" if self.matches else "MISMATCH")
        return "\n".join(lines)


def diff_artifacts(baseline: Mapping[str, Any], current: Mapping[str, Any]) -> DiffReport:
    """Compare two loaded artifacts; see the module docstring for the rules."""
    report = DiffReport(
        baseline_name=str(baseline.get("name", "?")),
        current_name=str(current.get("name", "?")),
    )
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    for kind, section in (("counter", "counters"), ("gauge", "gauges")):
        base: Mapping[str, float] = base_metrics.get(section) or {}
        cur: Mapping[str, float] = cur_metrics.get(section) or {}
        shared = sorted(base.keys() & cur.keys())
        report.compared += len(shared)
        report.changed.extend(
            Delta(key=key, kind=kind, base=base[key], current=cur[key])
            for key in shared
            if base[key] != cur[key]
        )
        report.added.extend(f"{kind}:{key}" for key in sorted(cur.keys() - base.keys()))
        report.removed.extend(f"{kind}:{key}" for key in sorted(base.keys() - cur.keys()))
    report.added.sort()
    report.removed.sort()
    return report
