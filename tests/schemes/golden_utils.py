"""Golden capture/compare helpers for the per-scheme differential suites.

Refactors of the round core must leave every privacy scheme bit-identical:
results, trace summaries, the communication audit and wire bytes, on the
in-process, fastsim and TCP paths.  This module computes a deterministic
"golden document" for a fixed scenario using only public APIs, one per
scheme:

* ``goldens/ppbs_goldens.json`` — captured from the tree before the
  privacy-scheme seam existed; ``test_ppbs_differential.py`` compares it;
* ``goldens/bloom_goldens.json`` — captured from the tree that still had a
  Bloom-only value backend; ``test_bloom_differential.py`` compares it.
  It adds a digest of the full in-process trace event sequence (timestamps
  and durations stripped), which pins event order and every field — the
  per-channel ``ranking`` -> ``ope_column`` pairs and the ``protocol_setup``
  arguments included.

Regenerate with

    PYTHONPATH=src:tests python -m schemes.golden_utils [ppbs|bloom]

Regenerating a file is only legitimate when a change *intends* to alter
that scheme's wire behaviour.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Sequence, Tuple

from repro.analysis.trace_audit import audit_comm_cost
from repro.lppa.fastsim import run_fast_lppa
from repro.lppa.session import run_lppa_auction
from repro.net.loadgen import (
    LoadgenConfig,
    build_population,
    protocol_seed,
    round_entropy,
    run_loadgen,
)
from repro.obs.trace import TraceRecorder, recording

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Event fields that carry wall-clock time, dropped from the trace digest.
_CLOCK_FIELDS = ("ts", "dur")

#: The pinned scenario (loadgen-recipe population, CI-sized).
SCENARIO = dict(
    n_users=8,
    n_channels=6,
    rounds=2,
    seed=1,
    area=4,
    grid_n=20,
    two_lambda=6,
    bmax=127,
)


def _canonical_digest(doc: Any) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def result_document(result: Any) -> Dict[str, Any]:
    """Canonical JSON view of an Lppa/FastLppa result's public fields."""
    doc: Dict[str, Any] = {
        "n_users": result.outcome.n_users,
        "wins": [
            [w.bidder, w.channel, w.charge, bool(w.valid)]
            for w in result.outcome.wins
        ],
        "revenue": result.outcome.sum_of_winning_bids(),
        "edges": sorted(list(edge) for edge in result.conflict_graph.edges),
        "rankings": result.rankings,
    }
    for name in ("location_bytes", "bid_bytes", "masked_set_bytes", "framed_bytes"):
        value = getattr(result, name, None)
        if value is not None:
            doc[name] = value
    return doc


def trace_summary_document(recorder: TraceRecorder) -> Dict[str, Any]:
    """Deterministic slice of a trace: event/message census + wire totals.

    Timestamps and sequence numbers are excluded; kinds, counts and the
    exact byte accounting are what the refactor must preserve.
    """
    kinds: Dict[str, int] = {}
    message_kinds: Dict[str, int] = {}
    payload_total = 0
    wire_total = 0
    for event in recorder.events():
        kind = str(event.get("type"))
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "message":
            mk = str(event.get("kind"))
            message_kinds[mk] = message_kinds.get(mk, 0) + 1
            payload_total += int(event.get("payload_bytes") or 0)
            wire_total += int(event.get("wire_size") or 0)
    return {
        "event_kinds": kinds,
        "message_kinds": message_kinds,
        "payload_bytes": payload_total,
        "wire_size_bytes": wire_total,
    }


def comm_audit_document(recorder: TraceRecorder) -> Dict[str, Any]:
    """The Theorem-4 audit, reduced to its deterministic numbers."""
    report = audit_comm_cost(recorder.events(), strict=True)
    return {
        "messages_checked": report.messages_checked,
        "rounds": [
            {
                "round": audit.round,
                "n_users": audit.n_users,
                "n_channels": audit.n_channels,
                "width": audit.width,
                "digest_bytes": audit.digest_bytes,
                "predicted_bits": audit.predicted_bits,
                "measured_masked_bits": audit.measured_masked_bits,
                "exact": audit.exact,
                "location_bytes": audit.location_bytes,
                "total_wire_bytes": audit.total_wire_bytes,
            }
            for audit in report.rounds
        ],
    }


def trace_digest(recorder: TraceRecorder) -> str:
    """SHA-256 of every event in order, clock fields stripped."""
    return _canonical_digest(
        [
            {k: v for k, v in event.items() if k not in _CLOCK_FIELDS}
            for event in recorder.events()
        ]
    )


def _in_process_rounds(scheme: str) -> Tuple[list, TraceRecorder]:
    config = LoadgenConfig(**SCENARIO)
    grid, users = build_population(config)
    recorder = TraceRecorder()
    rounds = []
    with recording(recorder):
        for index in range(config.rounds):
            result = run_lppa_auction(
                users,
                grid,
                two_lambda=config.two_lambda,
                bmax=config.bmax,
                seed=protocol_seed(config.seed),
                entropy=round_entropy(config.seed, index),
                scheme=scheme,
            )
            rounds.append(result_document(result))
    return rounds, recorder


def capture_in_process(scheme: str = "ppbs") -> Dict[str, Any]:
    """The crypto session path: per-round result digests + trace + audit."""
    rounds, recorder = _in_process_rounds(scheme)
    return {
        "rounds": rounds,
        "result_digest": _canonical_digest(rounds),
        "trace_summary": trace_summary_document(recorder),
        "comm_audit": comm_audit_document(recorder),
    }


def capture_trace_digest(scheme: str) -> str:
    """:func:`trace_digest` of the in-process rounds' full trace."""
    return trace_digest(_in_process_rounds(scheme)[1])


def capture_fastsim() -> Dict[str, Any]:
    """The integer path: per-round digests of outcome/conflict/rankings."""
    config = LoadgenConfig(**SCENARIO)
    _, users = build_population(config)
    rounds = []
    for index in range(config.rounds):
        result = run_fast_lppa(
            users,
            two_lambda=config.two_lambda,
            bmax=config.bmax,
            entropy=round_entropy(config.seed, index),
        )
        rounds.append(result_document(result))
    return {"rounds": rounds, "result_digest": _canonical_digest(rounds)}


def capture_tcp(scheme: str = "ppbs") -> Dict[str, Any]:
    """The networked path over real TCP, equivalence-checked per round."""
    config = LoadgenConfig(
        transport="tcp", check_equivalence=True, scheme=scheme, **SCENARIO
    )
    report = asyncio.run(run_loadgen(config))
    return {
        "rounds_completed": report.rounds_completed,
        "equivalence_checked": report.equivalence_checked,
        "wire_bytes": report.wire_bytes,
        "round_summaries": report.round_summaries,
    }


def golden_path(scheme: str) -> Path:
    """Where one scheme's golden document lives."""
    return GOLDEN_DIR / f"{scheme}_goldens.json"


def capture_goldens(scheme: str = "ppbs") -> Dict[str, Any]:
    """One scheme's golden document.

    The fastsim path is scheme-independent, so only PPBS pins it; the
    other schemes pin the full trace digest instead.
    """
    document: Dict[str, Any] = {
        "scenario": dict(SCENARIO),
        "in_process": capture_in_process(scheme),
        "tcp": capture_tcp(scheme),
    }
    if scheme == "ppbs":
        document["fastsim"] = capture_fastsim()
    else:
        document["scheme"] = scheme
        document["trace_digest"] = capture_trace_digest(scheme)
    return document


def load_goldens(scheme: str = "ppbs") -> Dict[str, Any]:
    return json.loads(golden_path(scheme).read_text())


def main(argv: Sequence[str] = ()) -> None:
    scheme = argv[0] if argv else "ppbs"
    document = capture_goldens(scheme)
    path = golden_path(scheme)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"goldens written to {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
