"""Output checks: round digests, recorded digests, in-process references.

Every check runs outside the timed window.  Reference rounds run under a
``MetricsRegistry`` of their own, so verification never reaches the
counters a traced run reports.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro import obs
from repro.lppa.policies import KeepZeroPolicy
from repro.lppa.session import LppaResult, run_lppa_auction
from repro.net.loadgen import EquivalenceFailure, check_result_equivalence

__all__ = [
    "run_digest",
    "recorded_digest",
    "reference_mismatch",
    "round_digest",
]

_DIGESTS_FILE = Path(__file__).with_name("digests.json")


def round_digest(result: LppaResult, members: Sequence[int] = ()) -> str:
    """SHA-256 of one round's winners, channels, charges and byte counts."""
    document = {
        "members": list(members),
        "wins": [[w.bidder, w.channel, w.charge, w.valid] for w in result.outcome.wins],
        "framed_bytes": result.framed_bytes,
        "location_bytes": result.location_bytes,
        "bid_bytes": result.bid_bytes,
        "masked_set_bytes": result.masked_set_bytes,
    }
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def run_digest(digests: Sequence[str]) -> str:
    """SHA-256 over a run's round digests, in round order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def recorded_digest(workload: str, seed: int, rounds: int) -> Optional[str]:
    """The run digest recorded for ``(workload, seed, rounds)``, if any."""
    recorded: Dict[str, Dict[str, str]] = json.loads(_DIGESTS_FILE.read_text())
    return recorded.get(workload, {}).get(f"{seed}:{rounds}")


def reference_mismatch(
    result: LppaResult, users, grid, *, seed: bytes, entropy: str, **options: int
) -> Optional[str]:
    """Re-run the round in process; describe the first difference, if any."""
    with obs.collecting(obs.MetricsRegistry()):
        reference = run_lppa_auction(
            users, grid, seed=seed, policy=KeepZeroPolicy(), entropy=entropy, **options
        )
    try:
        check_result_equivalence(result, reference)
    except EquivalenceFailure as exc:
        return str(exc)[:300]
    return None
