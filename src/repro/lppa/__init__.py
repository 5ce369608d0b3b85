"""LPPA — the paper's contribution: PPBS + PSD.

* Privacy Preserving Bid Submission: private location submission
  (:mod:`repro.lppa.location`), basic (:mod:`repro.lppa.bids_basic`) and
  advanced (:mod:`repro.lppa.bids_advanced`) private bid submission.
* Private Spectrum Distribution: masked-table allocation
  (:mod:`repro.lppa.psd`) and TTP charging (:mod:`repro.lppa.ttp`).
* Endpoints and orchestration: the keyless auctioneer steps
  (:mod:`repro.lppa.auctioneer`), :mod:`repro.lppa.session`, pseudonym
  mixing in :mod:`repro.lppa.idpool`.
"""

from repro.lppa.campaign import Campaign, RoundRecord
from repro.lppa.cloaking import cloak_cell, cloak_users, run_cloaked_auction
from repro.lppa.batching import (
    ChargeQueue,
    ChargingReport,
    TtpSchedule,
    simulate_charging,
)
from repro.lppa.codec import (
    decode_bids,
    decode_location,
    encode_bids,
    encode_location,
    framing_overhead,
)
from repro.lppa.bids_advanced import (
    BidScale,
    ChannelDisclosure,
    SubmissionDisclosure,
    disguise_and_expand,
    submit_bids_advanced,
    submit_population_bids,
)
from repro.lppa.fastsim import FastLppaResult, run_fast_lppa
from repro.lppa.bids_basic import (
    decrypt_bid_value,
    encrypt_bid_value,
    submit_bids_basic,
)
from repro.lppa.idpool import IdPool
from repro.lppa.location import (
    build_private_conflict_graph,
    coordinate_width,
    submit_location,
)
from repro.lppa.messages import BidSubmission, LocationSubmission, MaskedBid
from repro.lppa.policies import (
    KeepZeroPolicy,
    LinearDecreasingPolicy,
    UniformDisguisePolicy,
    UniformReplacePolicy,
    ZeroDisguisePolicy,
)
from repro.lppa.psd import masked_rankings
from repro.lppa.session import LppaResult, run_lppa_auction
from repro.lppa.ttp import ChargeDecision, ChargeStatus, TrustedThirdParty

__all__ = [
    "Campaign",
    "RoundRecord",
    "cloak_cell",
    "cloak_users",
    "run_cloaked_auction",
    "ChargeQueue",
    "ChargingReport",
    "TtpSchedule",
    "simulate_charging",
    "decode_bids",
    "decode_location",
    "encode_bids",
    "encode_location",
    "framing_overhead",
    "BidScale",
    "ChannelDisclosure",
    "SubmissionDisclosure",
    "disguise_and_expand",
    "submit_bids_advanced",
    "submit_population_bids",
    "FastLppaResult",
    "run_fast_lppa",
    "decrypt_bid_value",
    "encrypt_bid_value",
    "submit_bids_basic",
    "IdPool",
    "build_private_conflict_graph",
    "coordinate_width",
    "submit_location",
    "BidSubmission",
    "LocationSubmission",
    "MaskedBid",
    "KeepZeroPolicy",
    "LinearDecreasingPolicy",
    "UniformDisguisePolicy",
    "UniformReplacePolicy",
    "ZeroDisguisePolicy",
    "masked_rankings",
    "LppaResult",
    "run_lppa_auction",
    "ChargeDecision",
    "ChargeStatus",
    "TrustedThirdParty",
]
