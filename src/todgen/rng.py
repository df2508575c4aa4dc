"""Deterministic RNG derivation, stable across processes."""

from __future__ import annotations

import hashlib
import random

__all__ = ["derive_rng"]


def derive_rng(*parts) -> random.Random:
    """Random generator keyed by the given parts (hash-seed independent)."""
    canon = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(canon.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
