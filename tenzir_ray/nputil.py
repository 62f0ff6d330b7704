"""Shared numpy micro-kernels used across stages (single source for
fixes — e.g. dtype/overflow tweaks — instead of per-module copies)."""

from __future__ import annotations

import sys

import numpy as np

from tenzir_ray._ship import ship_by_value


def mix_key_hashes(df, cols) -> np.ndarray:
    """Combined uint64 hash over multiple key columns of a pandas frame:
    multiply-then-xor (FNV-style) so equal values in two key columns
    don't cancel to one hot bucket (plain XOR would). Shared by every
    bucketed-groupby path — the equal-columns-cancel bug was fixed here
    once so it stays fixed everywhere."""
    import pandas as pd

    h = pd.util.hash_array(df[cols[0]].to_numpy())
    for k in cols[1:]:
        h = (h * np.uint64(0x100000001B3)) ^ pd.util.hash_array(
            df[k].to_numpy())
    return h


def fmix64(x):
    """murmur3's 64-bit finalizer, on a Python int or a uint64 array
    alike, so the key bloom's build and probe and the exchange's
    :func:`key_buckets` share one mixer. Not in place: ``key_buckets``
    passes read-only zero-copy Arrow views. Persisted ``"h": 2`` key
    blooms pin its output."""
    x = x ^ (x >> 33)
    x = (x * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    x = x ^ (x >> 33)
    x = (x * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 33)


def within_group_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0), [0..c1), ... concatenated — the standard grouped-arange
    used by every vectorized explode (chunks per doc, intervals per
    segment)."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


ship_by_value(sys.modules[__name__])
