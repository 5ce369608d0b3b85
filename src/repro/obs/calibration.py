"""Fixed crypto micro-calibration recorded into every metrics artifact.

A ``BENCH_*.json`` produced by ``repro figures --metrics`` only contains
the operations that workload happened to execute — the Fig. 4 attack
sweeps, for instance, never touch the HMAC masking at all.  CI still needs
every artifact to answer "did this PR make the crypto hot paths slower?",
so the CLI appends this deterministic, fixed-size micro-workload to every
``--metrics`` run (and the benchmark suite records it too):

* HMAC prefix-family masking and a padded range cover (the PPBS wire
  objects; also drives the ``crypto.hmac`` counter);
* masked membership checks (the auctioneer's only primitive);
* Paillier keygen/encrypt/add/decrypt (the ref-[7] comparator's hot ops);
* the keyed OPE table build + encrypt/decrypt (the §IV.B alternative).

Everything is seeded through the label-addressed RNG scheme, so the *work*
is identical on every machine and across runs — only the measured seconds
differ, which is exactly what ``repro metrics diff`` compares.  All metrics
land under the ``calibration`` phase, keeping them separable from the
surrounding workload's own numbers.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.obs.registry import MetricsRegistry

__all__ = ["CALIBRATION_PHASE", "run_calibration"]

#: Phase name under which every calibration metric is recorded.
CALIBRATION_PHASE = "calibration"

_SEED = "obs-calibration"
_HMAC_KEY = b"obs-calibration-key"
_WIDTH = 12  # prefix bit width: 2^12 domain, the bid-scale order of magnitude
_PAILLIER_BITS = 128  # exercises the math, not the hardness (cheap keygen)
_OPE_DOMAIN = 256


def run_calibration(
    registry: Optional[MetricsRegistry] = None, *, repeats: int = 8
) -> None:
    """Record the fixed micro-workload's counters and timers.

    Uses the explicitly passed ``registry`` if given, else whatever is
    currently collecting; a silent no-op when neither exists, so callers
    never need to guard the call.
    """
    # Imported lazily: repro.obs is imported *by* the crypto layer, so a
    # module-level import here would be circular.
    from repro.crypto.cache import cache_disabled
    from repro.crypto.ope import OrderPreservingEncoder
    from repro.crypto.paillier import generate_paillier_keypair
    from repro.prefix.membership import (
        MaskSpec,
        is_member,
        mask_range,
        mask_specs,
        mask_value,
    )
    from repro.utils.rng import spawn_rng

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if registry is not None:
        with obs.collecting(registry):
            run_calibration(repeats=repeats)
        return
    if obs.get_active() is None:
        return

    with obs.phase(CALIBRATION_PHASE):
        pad_rng = spawn_rng(_SEED, "pad")
        # The masked-digest cache is bypassed so the calibration performs
        # the same HMAC work no matter what ran before it in the process —
        # the whole point is cross-run comparability of a fixed workload.
        with cache_disabled():
            with obs.timer("mask_value"):
                families = [
                    mask_value(_HMAC_KEY, 37 * (i + 1) % (1 << _WIDTH), _WIDTH)
                    for i in range(repeats)
                ]
            with obs.timer("mask_specs_batch"):
                mask_specs(
                    [
                        MaskSpec.family(
                            _HMAC_KEY, 37 * (i + 1) % (1 << _WIDTH), _WIDTH
                        )
                        for i in range(repeats)
                    ]
                )
            with obs.timer("mask_range"):
                ranges = [
                    mask_range(
                        _HMAC_KEY,
                        100 * i,
                        100 * i + 512,
                        _WIDTH,
                        pad_to=2 * _WIDTH - 2,
                        rng=pad_rng,
                    )
                    for i in range(repeats)
                ]
        with obs.timer("membership"):
            for family in families:
                for masked_range in ranges:
                    is_member(family, masked_range)

        paillier_rng = spawn_rng(_SEED, "paillier")
        with obs.timer("paillier_keygen"):
            key = generate_paillier_keypair(_PAILLIER_BITS, paillier_rng)
        with obs.timer("paillier_roundtrip"):
            total = key.public.encrypt(0, paillier_rng)
            for i in range(repeats):
                total = key.public.add(
                    total, key.public.encrypt(i + 1, paillier_rng)
                )
            decrypted = key.decrypt(total)
        if decrypted != repeats * (repeats + 1) // 2:
            raise AssertionError("Paillier calibration round-trip failed")

        with obs.timer("ope_setup"):
            encoder = OrderPreservingEncoder(_HMAC_KEY, _OPE_DOMAIN)
        with obs.timer("ope_roundtrip"):
            for i in range(repeats):
                value = (53 * i) % _OPE_DOMAIN
                if encoder.decrypt(encoder.encrypt(value)) != value:
                    raise AssertionError("OPE calibration round-trip failed")
