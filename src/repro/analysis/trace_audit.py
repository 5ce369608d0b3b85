"""Trace-driven auditors: check the paper's claims against recorded events.

:mod:`repro.obs.trace` records what the protocol *actually emitted*; this
module replays those recordings against the claims:

* :func:`audit_comm_cost` — each round is checked against its privacy
  scheme's exact size model (the round's ``protocol_setup`` meta names the
  scheme; untagged rounds are PPBS).  For PPBS, Theorem 4 is exact for the
  advanced scheme (per user-channel: a ``w + 1``-digest family plus a tail
  padded to ``2w - 2`` digests), so the masked-bid bytes measured per
  message must equal :func:`repro.analysis.comm_cost.predicted_bid_bits`
  *to the bit*; for the Bloom scheme the model is the fixed per-channel OPE
  ciphertext width.  The auditor also re-derives every message's framing
  from the scheme's codec arithmetic
  (:meth:`~repro.lppa.schemes.base.PrivacyScheme.expected_framing`),
  failing loudly on any divergence — if an encoder change shifts a single
  byte, the audit, not just a unit test, catches it.

* :func:`audit_privacy` — "what could this auctioneer have learned from
  exactly these messages": the auditor filters the trace down to the
  adversary-visible stream (:func:`repro.obs.trace.adversary_view`),
  rebuilds the per-channel rankings the curious auctioneer saw, and runs
  the paper's ranking-based BCM pipeline
  (:func:`repro.attacks.against_lppa.lppa_bcm_attack`) on them, reporting
  the candidate-area / anonymity-set trajectory per round.  Because it
  consumes only ``public``/``auctioneer`` events, the report *is* the
  adversary's knowledge — SU- and TTP-side records never reach it.

Layering note: recording lives in ``repro.obs`` (no protocol imports);
consumption lives here in ``repro.analysis`` where the attack and theorem
modules already are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.attacks.against_lppa import lppa_bcm_attack
from repro.geo.database import GeoLocationDatabase
from repro.obs.trace import adversary_view

__all__ = [
    "TraceAuditError",
    "CommRoundAudit",
    "CommAuditReport",
    "PrivacyRoundAudit",
    "PrivacyAuditReport",
    "audit_comm_cost",
    "audit_privacy",
    "rankings_by_round",
]

Record = Dict[str, Any]


class TraceAuditError(AssertionError):
    """A recorded event stream contradicts a claim it is audited against."""


@dataclass(frozen=True)
class CommRoundAudit:
    """Theorem 4 versus measured bytes for one recorded round."""

    round: int
    n_users: int
    n_channels: int
    width: int
    digest_bytes: int
    predicted_bits: float
    measured_masked_bits: int
    location_bytes: int
    total_wire_bytes: int

    @property
    def exact(self) -> bool:
        return self.measured_masked_bits == self.predicted_bits

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table emission."""
        return {
            "round": self.round,
            "N": self.n_users,
            "k": self.n_channels,
            "w": self.width,
            "predicted_kbits": round(self.predicted_bits / 1000, 1),
            "measured_kbits": round(self.measured_masked_bits / 1000, 1),
            "exact": self.exact,
        }


@dataclass(frozen=True)
class CommAuditReport:
    """All rounds' communication audits plus framing-check accounting."""

    rounds: Tuple[CommRoundAudit, ...]
    messages_checked: int
    errors: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.errors


def _round_of(record: Record) -> int:
    value = record.get("round")
    return -1 if value is None else int(value)


def audit_comm_cost(
    records: Sequence[Record], *, strict: bool = True
) -> CommAuditReport:
    """Replay a trace and cross-check every wire size against the formulas.

    ``records`` is the event list of a loaded trace (header excluded or
    included — header records are ignored).  With ``strict`` (the default)
    any divergence raises :class:`TraceAuditError`; otherwise the report
    carries the error strings and ``passed`` is ``False``.
    """
    errors: List[str] = []
    setups: Dict[int, Record] = {}
    by_round: Dict[int, List[Record]] = {}
    for record in records:
        kind = record.get("type")
        if kind == "meta" and record.get("name") == "protocol_setup":
            setups[_round_of(record)] = record
        elif kind == "message":
            by_round.setdefault(_round_of(record), []).append(record)

    if not by_round:
        raise TraceAuditError(
            "trace contains no message events — nothing to audit "
            "(fastsim traces carry no wire messages; audit a session trace)"
        )

    # Schemes own the framing arithmetic and the bid-material size model;
    # the import is deferred so repro.analysis stays importable without
    # dragging the protocol layer in at module-import time.
    from repro.lppa.schemes.registry import get_scheme

    rounds: List[CommRoundAudit] = []
    checked = 0
    for round_idx in sorted(by_round):
        messages = by_round[round_idx]
        setup = setups.get(round_idx)
        args = (setup.get("args") or {}) if setup is not None else {}
        # Rounds recorded without a scheme-tagged setup are PPBS (the
        # default scheme adds no tag, keeping pre-seam traces auditable).
        scheme = get_scheme(str(args.get("scheme", "ppbs")))
        bid_msgs = [m for m in messages if m["kind"] == "bid_submission"]
        loc_msgs = [m for m in messages if m["kind"] == "location_submission"]

        for msg in messages:
            checked += 1
            payload = msg.get("payload_bytes")
            wire = msg.get("wire_size")
            if payload is None or wire is None:
                errors.append(
                    f"round {round_idx}: {msg['kind']} event (seq {msg.get('seq')}) "
                    "lacks size accounting"
                )
                continue
            kind = msg["kind"]
            framing = scheme.expected_framing(kind, msg)
            if framing is None:
                continue  # the scheme makes no framing claim for this kind
            expected = payload + framing
            if wire != expected:
                errors.append(
                    f"round {round_idx}: {kind} su={msg.get('su')} wire_size "
                    f"{wire} != payload {payload} + framing (expected {expected})"
                )

        if not bid_msgs:
            continue
        if setup is None:
            errors.append(
                f"round {round_idx}: bid submissions recorded but no "
                "protocol_setup meta — cannot form the Theorem 4 prediction"
            )
            continue
        fields, scheme_errors = scheme.audit_bid_round(round_idx, bid_msgs, args)
        errors.extend(scheme_errors)
        if fields is None:
            continue
        rounds.append(
            CommRoundAudit(
                round=round_idx,
                location_bytes=sum(int(m.get("payload_bytes") or 0) for m in loc_msgs),
                total_wire_bytes=sum(int(m.get("wire_size") or 0) for m in messages),
                **fields,
            )
        )

    if not rounds and not errors:
        raise TraceAuditError(
            "trace contains messages but no bid submissions — nothing to "
            "check against Theorem 4"
        )
    report = CommAuditReport(
        rounds=tuple(rounds), messages_checked=checked, errors=tuple(errors)
    )
    if strict and errors:
        raise TraceAuditError(
            f"communication-cost audit failed ({len(errors)} divergences): "
            + "; ".join(errors[:5])
            + ("; ..." if len(errors) > 5 else "")
        )
    return report


@dataclass(frozen=True)
class PrivacyRoundAudit:
    """BCM candidate-area statistics for one round and one top-fraction."""

    round: int
    fraction: float
    n_users: int
    mean_cells: float
    min_cells: int
    max_cells: int
    empty_results: int  # users whose robust intersection still emptied

    @property
    def mean_area_fraction(self) -> float:
        """Mean candidate cells over the users audited, as raw cell count
        (normalize by the grid size for an area fraction)."""
        return self.mean_cells

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table emission."""
        return {
            "round": self.round,
            "fraction": self.fraction,
            "users": self.n_users,
            "mean_cells": round(self.mean_cells, 2),
            "min_cells": self.min_cells,
            "max_cells": self.max_cells,
            "empty": self.empty_results,
        }


@dataclass(frozen=True)
class PrivacyAuditReport:
    """The anonymity-set / candidate-area trajectory of one trace."""

    rounds: Tuple[PrivacyRoundAudit, ...]
    n_events_consumed: int
    robust: bool


def rankings_by_round(
    events: Sequence[Record],
) -> Dict[int, Dict[int, List[List[int]]]]:
    """Per-channel ranking records grouped by round (``-1``: no round).

    Pass the adversary-visible stream
    (:func:`repro.obs.trace.adversary_view`) to replay what the curious
    auctioneer saw.
    """
    grouped: Dict[int, Dict[int, List[List[int]]]] = {}
    for record in events:
        if record.get("type") != "ranking":
            continue
        grouped.setdefault(_round_of(record), {})[int(record["channel"])] = [
            list(cls) for cls in record["classes"]
        ]
    return grouped


def audit_privacy(
    records: Sequence[Record],
    database: GeoLocationDatabase,
    *,
    fractions: Sequence[float] = (0.25, 0.5),
    robust: bool = True,
) -> PrivacyAuditReport:
    """Run the ranking-based BCM attack on the adversary-visible stream.

    ``database`` is the public geo-location spectrum database (the paper's
    adversary holds it by assumption — it is not part of the trace).  The
    auditor deliberately narrows the record stream with
    :func:`repro.obs.trace.adversary_view` first, so SU-side and TTP-side
    events cannot leak into the attack even if present in the file.

    Raises :class:`TraceAuditError` when the trace carries no usable
    ranking events or a round's channel set does not match the database.
    """
    visible = adversary_view(records)
    announcements = [
        r
        for r in visible
        if r.get("type") == "meta" and r.get("name") == "auction_announcement"
    ]
    by_round = rankings_by_round(visible)
    if not by_round:
        raise TraceAuditError(
            "no adversary-visible ranking events in the trace — "
            "the privacy audit has nothing to attack"
        )
    n_users_by_round: Dict[int, int] = {
        _round_of(a): int((a.get("args") or {}).get("n_users", 0))
        for a in announcements
    }

    rounds: List[PrivacyRoundAudit] = []
    for round_idx in sorted(by_round):
        channels = by_round[round_idx]
        if sorted(channels) != list(range(database.n_channels)):
            raise TraceAuditError(
                f"round {round_idx}: recorded channels {sorted(channels)} do "
                f"not cover the database's {database.n_channels} channels"
            )
        rankings = [channels[ch] for ch in range(database.n_channels)]
        n_users = n_users_by_round.get(round_idx, 0)
        if n_users <= 0:
            n_users = max(
                (max((max(cls) for cls in rk if cls), default=-1) for rk in rankings),
                default=-1,
            ) + 1
        if n_users <= 0:
            raise TraceAuditError(
                f"round {round_idx}: cannot determine the bidder population"
            )
        for fraction in fractions:
            masks = lppa_bcm_attack(
                database, rankings, n_users, fraction, robust=robust
            )
            cell_counts = [int(mask.sum()) for mask in masks]
            rounds.append(
                PrivacyRoundAudit(
                    round=round_idx,
                    fraction=fraction,
                    n_users=n_users,
                    mean_cells=sum(cell_counts) / len(cell_counts),
                    min_cells=min(cell_counts),
                    max_cells=max(cell_counts),
                    empty_results=sum(1 for c in cell_counts if c == 0),
                )
            )
    return PrivacyAuditReport(
        rounds=tuple(rounds), n_events_consumed=len(visible), robust=robust
    )
