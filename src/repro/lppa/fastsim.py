"""Fast numeric simulation of an LPPA round (for the large experiment sweeps).

The HMAC masking is *order-preserving by design*: every decision the
auctioneer makes — conflict edges, per-channel bid order, column maxima —
equals what it would compute from the underlying integers.  The test suite
proves this equivalence on the real crypto path (identical conflict graphs,
identical rankings, identical allocations for a fixed ``entropy``).  The
evaluation sweeps of Figs. 4-5 need thousands of auction rounds, so they run this
simulator, which executes *exactly the same value pipeline*
(:func:`repro.lppa.bids_advanced.disguise_and_expand`) and the same
Algorithm 3, skipping only the HMAC/encryption plumbing whose outputs are
functionally determined by those values.

Anything that measures the cryptography itself (communication cost,
protocol latency, TTP verification) uses the full path in
:mod:`repro.lppa.session` instead.

:func:`run_fast_lppa` is a thin wrapper over the round core
(:mod:`repro.lppa.round`) with the plain (integer) value backend, and
returns a :class:`~repro.lppa.round.results.FastLppaResult`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.obs import trace
from repro.auction.bidders import SecondaryUser
from repro.auction.conflict import ConflictGraph
from repro.lppa import entropy as _entropy
from repro.lppa.policies import ZeroDisguisePolicy
from repro.lppa.round import (
    IN_PROCESS_DRIVER,
    PLAIN_BACKEND,
    FastLppaResult,
    RoundState,
    collector_paused,
    execute_round,
)
from repro.utils.rng import Seed, fresh_rng

__all__ = [
    "FastLppaResult",
    "run_fast_lppa",
]


@collector_paused()
def run_fast_lppa(
    users: Sequence[SecondaryUser],
    *,
    two_lambda: int,
    bmax: int,
    rd: int = 4,
    cr: int = 8,
    policy: Union[ZeroDisguisePolicy, Sequence[ZeroDisguisePolicy], None] = None,
    entropy: Optional[Seed] = None,
    conflict: Optional[ConflictGraph] = None,
    revalidate: bool = False,
    pricing: str = "first",
    scheme: Optional[str] = None,
) -> FastLppaResult:
    """One LPPA round at integer level: disguise/expand, allocate, charge.

    The conflict graph is the plaintext one — provably equal to the private
    protocol's output.  Charging follows the TTP's rules: a winner whose
    *true* offset value lies in the zero band ``[0, rd]`` is invalid.

    ``entropy`` is the round's seed label, split by
    :func:`repro.lppa.entropy.derive_round_rngs` into one stream per user
    plus an allocation stream, so the round's results match a full-crypto
    :func:`repro.lppa.session.run_lppa_auction` run with the same
    ``entropy`` and do not depend on how other randomness consumers
    interleave.  ``None`` draws fresh entropy from the fork-safe
    :func:`repro.utils.rng.fresh_rng`.

    ``revalidate`` enables the section-V.B extension: the TTP's
    invalid-winner notifications feed back into the allocation loop, which
    retries the channel instead of wasting it (at the cost of
    ``ttp_rejections`` extra TTP queries and the per-query information
    leak the paper's batch mode avoids).

    ``pricing`` selects the charging rule: ``"first"`` (the paper) or
    ``"second"`` (the truthfulness extension of
    :func:`repro.auction.pricing.charge_wins`, incompatible with
    ``revalidate``).

    ``scheme`` resolves exactly as in :func:`repro.lppa.session.run_lppa_auction`
    (argument, else active scheme, else ``$REPRO_SCHEME``, else ``ppbs``) and
    is validated here; the *result* is scheme-independent by construction —
    every registered scheme shares the integer value pipeline this simulator
    executes, which is what the per-scheme differential suites pin.
    """
    from repro.lppa.schemes.registry import resolve_scheme

    resolve_scheme(scheme)  # validate the name; the value pipeline is shared
    if pricing not in ("first", "second"):
        raise ValueError('pricing must be "first" or "second"')
    if pricing == "second" and revalidate:
        raise ValueError("second pricing and revalidation cannot be combined")
    if not users:
        raise ValueError("need at least one user")
    n_channels = users[0].n_channels
    if any(u.n_channels != n_channels for u in users):
        raise ValueError("all users must bid over the same channel set")
    if entropy is None:
        entropy = fresh_rng().getrandbits(128)
    user_rngs, alloc_rng = _entropy.derive_round_rngs(entropy, len(users))

    # §IV.C.3: "the zero-replace probabilities are selected independently
    # by each user" — accept one shared policy or one per user.
    if policy is None or isinstance(policy, ZeroDisguisePolicy):
        per_user = [policy] * len(users)
    else:
        per_user = list(policy)
        if len(per_user) != len(users):
            raise ValueError("need exactly one policy per user")

    state = RoundState(
        backend=PLAIN_BACKEND,
        driver=IN_PROCESS_DRIVER,
        n_users=len(users),
        n_channels=n_channels,
        two_lambda=two_lambda,
        bmax=bmax,
        rd=rd,
        cr=cr,
        users=users,
        user_rngs=user_rngs,
        alloc_rng=alloc_rng,
        policies=per_user,
        pricing=pricing,
        revalidate=revalidate,
        conflict=conflict,
        tr=trace.get_active(),
    )
    execute_round(state)
    result: FastLppaResult = state.result
    return result
