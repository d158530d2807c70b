"""Content fingerprints and lookup keys over canonical JSON, defined once.

Two different questions are asked of a JSON-shaped value, and each has
one answer here:

* **Integrity** — "is this the thing that was stamped?"
  :func:`fingerprint_json` is the CRC32C of the canonical-JSON
  encoding.  The write-ahead journal stamps each campaign with its
  spec's fingerprint and the resume path cross-checks it.  A CRC
  detects damage to one value against its own stamp, which is all
  this use asks of it.
* **Identity** — "have I seen this request before?"
  :func:`identity_json` is a 128-bit BLAKE2b digest of the same
  canonical encoding.  The scheduling service keys its memo cache, its
  request ledger and its clients' retry headers by it.  A lookup key
  must not collide across the many distinct values a long-lived cache
  or ledger sees, and a 32-bit CRC does: it is affine, so colliding
  inputs are easy to construct, and by the birthday bound a ledger
  expects one after ~77 k settled requests.
"""

from __future__ import annotations

import hashlib

from .checksum import crc32c_hex
from .journal import canonical_json

__all__ = ["fingerprint_json", "identity_json"]


def fingerprint_json(obj) -> str:
    """Fixed-width hex CRC32C of ``obj``'s canonical-JSON encoding.

    ``obj`` must be JSON-safe (dicts with string keys, lists, strings,
    numbers, bools, None).  Two objects fingerprint equal when their
    canonical JSON is byte-identical, so dict ordering never matters
    but numeric types do (``1`` and ``1.0`` differ).  An integrity
    stamp, not an identity: see :func:`identity_json` for lookups.
    """
    return crc32c_hex(canonical_json(obj).encode())


def identity_json(obj) -> str:
    """32 hex characters of BLAKE2b-128 over ``obj``'s canonical JSON.

    The lookup key of a JSON-safe value: equal for byte-identical
    canonical JSON (as :func:`fingerprint_json`), and collision
    resistant, so two different values never share a key in practice.
    """
    return hashlib.blake2b(
        canonical_json(obj).encode(), digest_size=16
    ).hexdigest()
