"""The pluggable LPPA round core.

One auction round is a fixed phase pipeline (setup → location submission →
bid submission → PSD allocation → TTP charging) with two plug points:

* a **value backend** (:class:`CryptoBackend` / :class:`PlainBackend`) —
  what the values flowing through the phases are; the crypto backend runs
  every privacy scheme through the scheme's hooks (``scheme.backend``);
* a **driver** (:class:`InProcessDriver` / the net server's driver) —
  where submissions come from and how the TTP/result exchanges travel.

The three public execution paths are thin wrappers over this package:

=====================================================  ===========  ============
wrapper                                                backend      driver
=====================================================  ===========  ============
:func:`repro.lppa.session.run_lppa_auction`            crypto       in-process
:func:`repro.lppa.fastsim.run_fast_lppa`               plain        in-process
:class:`repro.net.server.AuctioneerServer.run_round`   crypto       network
=====================================================  ===========  ============

See ``DESIGN.md`` ("The round core") for the full architecture notes.
"""

from repro.lppa.round.backends import (
    PLAIN_BACKEND,
    CryptoBackend,
    PlainBackend,
    ValueBackend,
)
from repro.lppa.round.core import (
    PHASE_STEPS,
    PhaseStep,
    collector_paused,
    execute_round,
    execute_round_async,
    observe_steps,
)
from repro.lppa.round.drivers import IN_PROCESS_DRIVER, InProcessDriver, RoundDriver
from repro.lppa.round.results import FastLppaResult, LppaResult
from repro.lppa.round.state import RoundState

__all__ = [
    "IN_PROCESS_DRIVER",
    "PHASE_STEPS",
    "PLAIN_BACKEND",
    "CryptoBackend",
    "FastLppaResult",
    "InProcessDriver",
    "LppaResult",
    "PhaseStep",
    "PlainBackend",
    "RoundDriver",
    "RoundState",
    "ValueBackend",
    "collector_paused",
    "execute_round",
    "execute_round_async",
    "observe_steps",
]
