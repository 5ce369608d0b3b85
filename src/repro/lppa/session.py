"""End-to-end orchestration of one LPPA auction round.

:func:`run_lppa_auction` is the single call the examples and the experiment
harness build on.  It is a thin wrapper over the round core
(:mod:`repro.lppa.round`): the crypto value backend plays every protocol
role in-process —

1. TTP setup — keys, ``rd``, ``cr``, bid scale (:class:`TrustedThirdParty`);
2. bidders — masked location submissions and advanced bid submissions;
3. auctioneer — private conflict graph, masked allocation;
4. TTP charging — batched decryption/verification;
5. bookkeeping — communication-cost accounting and the attacker-facing
   views (per-channel bid rankings) used by the evaluation.

This module owns only the call-signature conveniences (entropy
resolution, the shared default policy) and re-exports
:class:`~repro.lppa.round.results.LppaResult` from its historical home.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs import trace
from repro.auction.bidders import SecondaryUser
from repro.geo.grid import GridSpec
from repro.lppa.entropy import derive_round_rngs
from repro.lppa.policies import KeepZeroPolicy, ZeroDisguisePolicy
from repro.lppa.round import (
    IN_PROCESS_DRIVER,
    LppaResult,
    RoundState,
    execute_round,
)
from repro.lppa.schemes.registry import resolve_scheme
from repro.utils.rng import Seed, fresh_rng

__all__ = ["LppaResult", "run_lppa_auction"]


def run_lppa_auction(
    users: Sequence[SecondaryUser],
    grid: GridSpec,
    *,
    two_lambda: int,
    bmax: int,
    seed: bytes = b"lppa-session",
    rd: int = 4,
    cr: int = 8,
    policy: Optional[ZeroDisguisePolicy] = None,
    entropy: Optional[Seed] = None,
    shards: Optional[int] = None,
    scheme: Optional[str] = None,
) -> LppaResult:
    """One complete private auction round.

    Parameters
    ----------
    users:
        The bidder population (their cells/bids stay on the SU side; only
        masked material reaches the auctioneer).
    grid:
        The area's cell lattice (defines coordinate bit widths).
    two_lambda:
        Interference-square side in cells.
    bmax:
        Public upper bound on original bid values.
    seed, rd, cr:
        TTP setup parameters.
    policy:
        Zero-disguise policy shared by all users this round (defaults to no
        disguise); per-user policies are possible by calling the submission
        layer directly.
    entropy:
        The round's seed label: derives one stream per bidder (expansion
        offsets, disguises, tail fillers, nonces) plus an allocation stream
        (channel/tie choices) via :func:`repro.lppa.entropy.derive_round_rngs`,
        so the round's conflict graph, rankings, allocations and charges are
        identical to a :func:`repro.lppa.fastsim.run_fast_lppa` run with the
        same ``entropy`` — the enforced fastsim equivalence contract.
        ``None`` draws fresh entropy from :func:`repro.utils.rng.fresh_rng`.
    shards:
        Compatibility only: ``None`` and ``1`` both run the one round path.
        Process sharding was removed; any other value raises ValueError.
    scheme:
        Privacy scheme name (argument, else the CLI-set active scheme, else
        ``$REPRO_SCHEME``, else ``ppbs``).  ``ppbs`` runs the paper's
        protocol bit-identically to the historical code path; ``bloom``
        runs Bloom-filter locations + OPE bids end to end.
    """
    if shards not in (None, 1):
        raise ValueError(
            f"shards={shards!r}: process sharding was removed; pass None or 1"
        )
    if not users:
        raise ValueError("need at least one user")
    n_channels = users[0].n_channels
    if any(u.n_channels != n_channels for u in users):
        raise ValueError("all users must bid over the same channel set")
    if entropy is None:
        entropy = fresh_rng().getrandbits(128)
    user_rngs, alloc_rng = derive_round_rngs(entropy, len(users))
    if policy is None:
        policy = KeepZeroPolicy()

    state = RoundState(
        backend=resolve_scheme(scheme).backend,
        driver=IN_PROCESS_DRIVER,
        n_users=len(users),
        n_channels=n_channels,
        two_lambda=two_lambda,
        bmax=bmax,
        rd=rd,
        cr=cr,
        seed=seed,
        grid=grid,
        users=users,
        user_rngs=user_rngs,
        alloc_rng=alloc_rng,
        policies=[policy] * len(users),
        tr=trace.get_active(),
    )
    execute_round(state)
    result: LppaResult = state.result
    return result
