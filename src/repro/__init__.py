"""LPPA — Location Privacy Preserving Dynamic Spectrum Auction (ICDCS 2013).

A complete reproduction of Liu, Zhu, Du, Chen and Guan's LPPA system:

* :mod:`repro.crypto` — from-scratch SHA-256 / HMAC / Speck64-CTR and the
  TTP key machinery;
* :mod:`repro.prefix` — prefix membership verification (families, range
  covers, numericalization, HMAC-masked sets);
* :mod:`repro.geo` — synthetic FCC-style coverage maps: four 75 km x 75 km
  areas, 129 channels, availability + per-cell quality database;
* :mod:`repro.auction` — the dynamic spectrum auction substrate (bidders,
  conflict graphs, the greedy Algorithm 3, the plaintext baseline);
* :mod:`repro.lppa` — the paper's contribution: PPBS (private location and
  bid submission) and PSD (masked allocation + TTP charging);
* :mod:`repro.attacks` — BCM, BPM and the anti-LPPA adversary, with the
  Shokri-style privacy metrics;
* :mod:`repro.analysis` — Theorems 1-4, Monte-Carlo validation,
  communication-cost accounting;
* :mod:`repro.experiments` — harnesses regenerating every figure of the
  paper's evaluation.

Quick start::

    import random
    from repro.geo import make_database
    from repro.auction import generate_users
    from repro.lppa import run_lppa_auction

    db = make_database(area=3, n_channels=20)
    users = generate_users(db, 50, random.Random(7))
    result = run_lppa_auction(
        users, db.coverage.grid, two_lambda=6, bmax=127, entropy="quickstart"
    )
    print(result.outcome.sum_of_winning_bids())
"""

from repro.attacks import bcm_attack, bpm_attack, lppa_bcm_attack, score_attack
from repro.auction import generate_users, run_plain_auction
from repro.geo import GridSpec, make_coverage_map, make_database
from repro.lppa import (
    TrustedThirdParty,
    UniformReplacePolicy,
    run_fast_lppa,
    run_lppa_auction,
)

__version__ = "1.0.0"

__all__ = [
    "bcm_attack",
    "bpm_attack",
    "lppa_bcm_attack",
    "score_attack",
    "generate_users",
    "run_plain_auction",
    "GridSpec",
    "make_coverage_map",
    "make_database",
    "TrustedThirdParty",
    "UniformReplacePolicy",
    "run_fast_lppa",
    "run_lppa_auction",
    "__version__",
]
