"""Deterministic seed derivation.

A single master seed governs a whole run. Every randomized subcomponent
(selection tie-breaks, exploration draws, bootstrap replicates) derives its
own stream as SHA-256 over the master seed and a label path, so adding or
reordering one component never perturbs another.
"""

from __future__ import annotations

import hashlib


def derive_seed(master: int, *labels: str | int) -> int:
    """Map (master seed, label path) to a uint64 seed for numpy Generators."""
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:8], "big")
