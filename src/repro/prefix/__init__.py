"""Prefix membership verification — the building block of PPBS.

Implements the SafeQ-style machinery the paper builds on: prefix families
``G(x)``, minimal range covers ``Q([a, b])``, numericalization ``O(.)``, and
HMAC-masked set membership.
"""

from repro.prefix.membership import (
    DEFAULT_DIGEST_BYTES,
    MaskedSet,
    is_member,
    mask_prefixes,
    mask_range,
    mask_value,
)
from repro.prefix.numericalize import (
    numericalize,
    numericalize_set,
    numericalized_to_bytes,
)
from repro.prefix.prefixes import Prefix, bit_width_for, prefix_family
from repro.prefix.ranges import max_cover_size, range_cover

__all__ = [
    "DEFAULT_DIGEST_BYTES",
    "MaskedSet",
    "is_member",
    "mask_prefixes",
    "mask_range",
    "mask_value",
    "numericalize",
    "numericalize_set",
    "numericalized_to_bytes",
    "Prefix",
    "bit_width_for",
    "prefix_family",
    "max_cover_size",
    "range_cover",
]
