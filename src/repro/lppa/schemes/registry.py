"""The privacy-scheme registry: schemes by name, selection by precedence.

One process can host several complete privacy protocols
(:class:`~repro.lppa.schemes.base.PrivacyScheme`); this module is the
single place they are looked up:

* :func:`get_scheme` — name -> scheme instance (``ValueError`` on unknown
  names, listing what *is* registered);
* :func:`resolve_scheme` — the selection precedence every entry point
  shares: explicit argument > CLI-set active scheme > ``$REPRO_SCHEME`` >
  the default ``ppbs``;
* :func:`scheme_for_payload` — wire bytes -> scheme, by the leading
  payload tag byte (each scheme's codecs use a distinct tag).

The registry module itself imports no scheme, so the scheme modules can
import it without a cycle.  The built-in schemes are registered by the
:mod:`repro.lppa.schemes` package ``__init__``, which Python runs before
this module whatever imports it first: importing the registry registers
``ppbs`` and ``bloom``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.lppa.schemes.base import PrivacyScheme

__all__ = [
    "SCHEME_ENV",
    "DEFAULT_SCHEME",
    "available_schemes",
    "get_scheme",
    "register",
    "resolve_scheme",
    "scheme_for_payload",
    "set_active_scheme",
]

#: Environment variable selecting the scheme when no argument does.
SCHEME_ENV = "REPRO_SCHEME"

#: The paper's protocol; selecting it is bit-identical to the pre-seam code.
DEFAULT_SCHEME = "ppbs"

_registry: Dict[str, PrivacyScheme] = {}
_active: Optional[str] = None


def register(scheme: PrivacyScheme) -> PrivacyScheme:
    """Add one scheme under its ``name``; re-registering a name raises."""
    name = scheme.name
    if not name or name == "abstract":
        raise ValueError("scheme must carry a concrete registry name")
    existing = _registry.get(name)
    if existing is not None and type(existing) is not type(scheme):
        raise ValueError(f"scheme {name!r} already registered")
    _registry[name] = scheme
    return scheme


def available_schemes() -> Tuple[str, ...]:
    """Registered scheme names, sorted (the ``--scheme`` choices)."""
    return tuple(sorted(_registry))


def get_scheme(name: str) -> PrivacyScheme:
    """Look one scheme up by name."""
    scheme = _registry.get(name)
    if scheme is None:
        raise ValueError(
            f"unknown privacy scheme {name!r} "
            f"(registered: {', '.join(sorted(_registry))})"
        )
    return scheme


def set_active_scheme(name: Optional[str]) -> None:
    """Install a process-wide scheme choice (the CLI's ``--scheme`` flag).

    ``None`` clears it.  The active scheme ranks below an explicit
    argument and above ``$REPRO_SCHEME`` in :func:`resolve_scheme`.
    """
    global _active
    if name is not None:
        get_scheme(name)  # validate eagerly: a typo should fail at the flag
    _active = name


def resolve_scheme(name: Optional[str] = None) -> PrivacyScheme:
    """The shared selection rule: argument > active > env > ``ppbs``."""
    if name is not None:
        return get_scheme(name)
    if _active is not None:
        return get_scheme(_active)
    env = os.environ.get(SCHEME_ENV)
    if env:
        return get_scheme(env)
    return get_scheme(DEFAULT_SCHEME)


def scheme_for_payload(data: bytes) -> PrivacyScheme:
    """Which scheme's codec produced this payload, by its leading tag byte."""
    if data:
        tag = data[:1]
        for scheme in _registry.values():
            if tag in (scheme.location_tag, scheme.bid_tag):
                return scheme
    raise ValueError(
        f"payload tag {data[:1]!r} matches no registered scheme"
    )
