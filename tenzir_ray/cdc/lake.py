"""Partitioned Parquet lake table with exactly-once CDC merge-apply.

The heart of the engine (BASELINE.json north_star): change batches flow
through ``ray.data.Dataset.map_batches`` over zero-copy Arrow into a
hash-partitioned merge-apply, LSN-ordered last-writer-wins per key
``(conv_id, turn_idx)``, with schema evolution (additive columns + type
widening via :class:`SchemaRegistry`) and an idempotent two-phase commit
manifest so replays after failure converge to the identical final table.

Physical layout (reference analog: one store file per partition +
catalog, libtenzir/src/active_partition.cpp:103-187)::

    root/
      _log/v<N>.json          # commit N: one lineage record + registry
                              #   (manifest.py; the only metadata a
                              #   commit writes)
      _manifest.json          # checkpoint: folded state up to some N
      part=<k>/epoch-<id>-<uuid>.parquet     # base file (live iff in manifest)
      part=<k>/delta-<id>-<uuid>.parquet     # delta file: LWW-reduced changes
                                             #   incl. delete tombstones (_op);
                                             #   readers merge, optimize() compacts

Dataflow per epoch (one bounded chunk of the binlog)::

    read changes (Dataset, arrival order ≠ lsn order)
      → Exchange.run(transform=_NormalizeCombine)   # stages/exchange.py:
        #   the input's blocks, grouped up to batch_size rows, one plain
        #   Ray task per group. Per batch: reject null keys/lsn/op and
        #   unknown ops, PARTIAL LWW reduce (combiner — the skew defense:
        #   a hot key leaves each batch as one row per turn), conform to
        #   the registry schema, tag each row with its bucket, the
        #   partition k = crc32(conv_id) % P; the task then packs the
        #   group's rows into the one exchange (fs staging file or
        #   object-store segments). Retry-safe: the exchange index only
        #   names successful attempts' outputs.
      → min(touched partitions, CPUs) Ray tasks     # _reduce_group:
        #   every n-th touched partition to the same task; a task
        #   reduces its partitions one at a time (_PartitionReducer):
        #   read the partition's bucket; a full rewrite also loads the
        #   partition's live files. One kernel call picks the LWW winners
        #   in (conv_id, turn_idx) order; the mode only names the file
        #   (epoch-/delta-/append-). Write it, emit a lineage record
      → driver collects the tiny lineage records → atomic manifest commit

Every merge — the stage-1 combiner, stage 2, merge-on-read, ``lookup``,
``final_table`` and ``optimize`` — is the one LWW kernel
:func:`_winners`: one dictionary encode of ``conv_id``, one integer
lexsort, winners out already key-sorted.

Scale notes: P (num_partitions) is chosen so one partition's live rows
fit a worker's heap (e.g. 64Ki partitions at 100 TB); an epoch is a
bounded micro-batch of the log sized to the cluster's object store. Only
partitions actually touched by the epoch are read back, and a small
epoch against a large base appends DELTA files instead of rewriting
(merge-on-read) — epoch cost tracks change volume, not base size;
``optimize()`` compacts deltas back into single base files (the
reference's partition rebuild, builtins/commands/rebuild.cpp:26).
"""

from __future__ import annotations

import hashlib
import os
import time
import uuid
import zlib
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from tenzir_ray.cdc.manifest import REGISTRY_NAME, Manifest
from tenzir_ray.cdc.registry import SchemaRegistry
from tenzir_ray.nputil import fmix64

META_COLS = ("lsn", "op")
KEY_COLS = ("conv_id", "turn_idx")
LSN_COL = "_lsn"  # lsn column name as stored in lake files
OP_COL = "_op"    # op column as stored in DELTA files (delete tombstones)
CHANGE_TYPE_COL = "_change_type"  # preimage-feed classification column


def _factorize(col) -> tuple[np.ndarray, pa.Array]:
    """Dictionary-encode a column in Arrow (C, no Python objects):
    returns (codes int array, dictionary of unique values)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    d = arr.dictionary_encode()
    if isinstance(d, pa.ChunkedArray):
        d = d.combine_chunks()
    return d.indices.to_numpy(zero_copy_only=False).astype(np.int64), d.dictionary


def stable_part_of_uniques(uniq: list[str], num_partitions: int) -> np.ndarray:
    """Deterministic hash partition per unique conv_id: crc32(u) % P.
    crc32 runs only once per unique value (conversations repeat across
    turns), never per row."""
    h = np.fromiter(
        (zlib.crc32(str(u).encode()) for u in uniq), dtype=np.int64, count=len(uniq)
    )
    return (h % num_partitions).astype(np.int32)


def _winners(tbl: pa.Table, drop_deletes: bool = False) -> pa.Table:
    """The LWW kernel: per ``(conv_id, turn_idx)`` key, the row with the
    greatest ``lsn`` (ties → first occurrence), returned in key order.
    Delete tombstones stay winners unless ``drop_deletes``.

    ``conv_id`` is dictionary-encoded once and its dictionary ranked in
    Arrow, so one integer lexsort both picks the winners and orders
    them — no string ever becomes a Python object."""
    n = tbl.num_rows
    if n == 0:
        return tbl
    codes, uniq = _factorize(tbl.column("conv_id"))
    conv = pc.rank(uniq).to_numpy(zero_copy_only=False)[codes]
    turn = tbl.column("turn_idx").to_numpy(zero_copy_only=False)
    lsn = tbl.column("lsn").to_numpy(zero_copy_only=False)
    order = np.lexsort((-lsn, turn, conv))
    sc, st = conv[order], turn[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = (sc[1:] != sc[:-1]) | (st[1:] != st[:-1])
    keep = order[first]
    if drop_deletes:
        op = tbl.column("op").take(keep)
        keep = keep[pc.not_equal(op, "delete").to_numpy(zero_copy_only=False)]
    return tbl.take(keep)


#: exchange column carrying each stage-1 row's bucket (see _NormalizeCombine)
BUCKET_COL = "_bucket"


def _bucket_of(batch: pa.Table, num_buckets: int) -> np.ndarray:
    """The lake's exchange bucket function: the bucket _NormalizeCombine
    already derived from the persisted partition function."""
    return batch.column(BUCKET_COL).to_numpy(zero_copy_only=False)


class _NormalizeCombine:
    """Stage-1 exchange transform: reject null keys/lsn/op and unknown ops,
    partial-LWW-reduce the batch, conform the winners' payload to the
    registry schema, and attach ``_bucket``: the partition
    ``crc32(conv_id) % P``."""

    def __init__(self, registry_json: str, num_partitions: int):
        self.registry = SchemaRegistry.from_json(registry_json)
        self.num_partitions = num_partitions

    def __call__(self, batch: pa.Table) -> pa.Table:
        for c in (*KEY_COLS, *META_COLS):
            if batch.column(c).null_count:
                # a null key or lsn has no place in the LWW order, and a
                # null op would poison every later merge-on-read
                raise ValueError(f"change batch has null {c!r} values")
        # checked before the combine, so a losing row's op is checked too:
        # any other op would be applied as an upsert
        bad = set(pc.unique(batch.column("op")).to_pylist()) - {
            "insert", "update", "delete"}
        if bad:
            raise ValueError(f"change batch has unknown op values "
                             f"{sorted(bad)}; expected insert, update or delete")
        win = _winners(batch)
        out = self.registry.conform(win.select(
            [c for c in win.column_names if c not in META_COLS]))
        out = out.append_column("lsn", win.column("lsn").cast(pa.int64()))
        out = out.append_column("op", win.column("op").cast(pa.string()))
        codes, uniq = _factorize(out.column("conv_id"))
        part = stable_part_of_uniques(uniq.to_pylist(), self.num_partitions)[codes]
        return out.append_column(BUCKET_COL, pa.array(part))


def _load_stored(root: str, rel: str, registry: SchemaRegistry,
                 key: "str | None" = None) -> pa.Table:
    """Load a lake file (base or delta) → conformed payload + lsn + op,
    the row shape :func:`_winners` merges. Base files carry implicit
    op=insert; delta files persist OP_COL.

    Every load is one plain ``ParquetFile`` read without Arrow's thread
    pool: every caller already runs one Ray task per CPU, and
    ``pq.read_table``'s dataset layer and thread handoff cost more per
    file than a delta file's few rows do. A lake file is one row group,
    so a pushed-down filter would decode the whole file anyway.

    ``key`` keeps only that conversation's rows (``conv_id == key``),
    before conforming, so only they are conformed. Equality on the
    group-key prefix commutes with the LWW merge: it keeps whole
    (conv, turn) groups, so merge-then-filter ≡ filter-then-merge. Which
    files are worth loading for a key is the key bloom's call, not this
    function's: :func:`_bloom_build` hashes a mix of ``crc32(key)``
    (``"h": 2``) rather than the raw ``crc32`` the partition function
    also uses, so a file of the key's partition that lacks the key is
    loaded about 1% of the time, not about half of it."""
    with pq.ParquetFile(os.path.join(root, rel)) as f:
        stored = f.read(use_threads=False)
    if key is not None:
        stored = stored.filter(pc.equal(stored.column(KEY_COLS[0]), key))
    lsn_col = stored.column(LSN_COL).cast(pa.int64())
    if OP_COL in stored.column_names:
        op_col = stored.column(OP_COL).cast(pa.string())
    else:
        op_col = pa.repeat(pa.scalar("insert", pa.string()), stored.num_rows)
    payload = registry.conform(
        stored.select(
            [c for c in stored.column_names if c not in (LSN_COL, OP_COL)]
        )
    )
    payload = payload.append_column("lsn", lsn_col)
    return payload.append_column("op", op_col)


def _live_rows(root: str, rels: list[str], registry: SchemaRegistry,
               key: "str | None" = None) -> pa.Table:
    """Merge-on-read of one partition's files: the live rows (LWW winners,
    tombstones dropped) as payload + lsn, in key order; with ``key``,
    only that conversation's (see :func:`_load_stored`)."""
    tables = [_load_stored(root, rel, registry, key) for rel in rels]
    if not tables:
        return registry.schema.empty_table().append_column(
            "lsn", pa.array([], pa.int64()))
    merged = pa.concat_tables(tables, promote_options="permissive")
    return _winners(merged, drop_deletes=True).drop_columns(["op"])


def _write_file(root: str, rel: str, tbl: pa.Table,
                compression_level: int = 1) -> None:
    """Write-then-rename (posix_filesystem.cpp:29): a crash never leaves a
    partial file under a name the manifest could reference."""
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(tbl, path + ".tmp", compression="zstd",
                   compression_level=compression_level)
    os.replace(path + ".tmp", path)


#: per-file key bloom: bits are sized at ~10 per distinct conv (≈1% false
#: positives) and capped so one file's filter stays small in the manifest
#: JSON; override the cap with $TENZIR_RAY_BLOOM_MAX_BYTES (0 disables).
BLOOM_MAX_BYTES_ENV = "TENZIR_RAY_BLOOM_MAX_BYTES"
DEFAULT_BLOOM_MAX_BYTES = 8192


def _bloom_build(uniq: list) -> dict | None:
    """Bloom filter over a file's distinct key values (Kirsch-Mitzenmacher
    double hashing: h_i = h1 + i·h2). Built once per written file from the
    dictionary of uniques — hashing cost is per distinct conv, not per
    row — and carried in the manifest's file_stats so equality reads can
    skip whole files (the point-lookup analog of the zone maps; reference
    synopsis: sketch part of partition_synopsis.hpp).

    ``h1``/``h2`` are the high and low halves of ``fmix64(crc32(key))``.
    The partition function is ``crc32(key) % P`` too, so every key of a
    file's partition shares ``crc32``'s low bits; CRC is affine, so the
    raw ``crc32`` and the ``crc32`` of a prefixed key (the legacy pair)
    vary together, a 256-bit delta-file bloom saw only 256/P probe
    patterns per partition and passed about half of the absent keys. The
    mix spreads all 32 bits over both halves. ``"h": 2`` marks that hash;
    a bloom without ``h`` predates it and :func:`_bloom_maybe_contains`
    probes it with the legacy pair."""
    n = len(uniq)
    if n == 0:
        return None
    import base64

    max_bits = int(os.environ.get(BLOOM_MAX_BYTES_ENV,
                                  DEFAULT_BLOOM_MAX_BYTES)) * 8
    if max_bits <= 0:
        return None
    m = int(min(max(256, n * 10), max_bits))
    k = max(1, min(8, round(0.693 * m / n)))
    mix = fmix64(np.fromiter((zlib.crc32(str(u).encode()) for u in uniq),
                             np.uint64, n))
    h1 = mix >> np.uint64(32)
    h2 = (mix & np.uint64(0xFFFFFFFF)) | np.uint64(1)
    bits = np.zeros(m, dtype=bool)
    for i in range(k):
        bits[((h1 + np.uint64(i) * h2) % np.uint64(m)).astype(np.int64)] = True
    return {"m": m, "k": k, "h": 2,
            "b64": base64.b64encode(np.packbits(bits).tobytes()).decode()}


def _bloom_maybe_contains(bl: dict, value) -> bool:
    """Definitely-absent test (False = provably not in the file). Tests
    bytes in place — no full unpack per call (packbits is MSB-first).
    Plain Python ints throughout: a numpy scalar per probe costs ~10×."""
    import base64

    buf = base64.b64decode(bl["b64"])
    v = str(value).encode()
    if bl.get("h") == 2:
        mix = fmix64(zlib.crc32(v))
        h1, h2 = mix >> 32, (mix & 0xFFFFFFFF) | 1
    else:
        h1 = zlib.crc32(v)
        h2 = zlib.crc32(b"\x9e\x37" + v) | 1
    m = bl["m"]
    for i in range(bl["k"]):
        pos = (h1 + i * h2) % m
        if not (buf[pos >> 3] >> (7 - (pos & 7))) & 1:
            return False
    return True


def _token_bloom(col, cap: int = 65536) -> "dict | None":
    """Bloom over a string column's distinct whitespace TOKENS — the
    full-text point-search analog of the key bloom: ``search(term)``
    can skip a whole partition when every file's token bloom rejects
    the term. ``cap`` bounds the distinct-token set fed to the sizing
    formula (beyond it the filter saturates gracefully — pruning power
    degrades, correctness doesn't: a bloom only ever proves ABSENCE)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    try:
        toks = pc.split_pattern_regex(arr, pattern=r"\s+")
        flat = toks.flatten()
        uniq = pc.unique(flat)
    except Exception:
        return None
    vals = [u for u in uniq.to_pylist()[:cap] if u]
    return _bloom_build(vals)


def _zone_stats(tbl: pa.Table, token_cols: "tuple | list" = ()) -> dict:
    """Per-file zone map: ``{col: [min, max]}`` over the payload's
    numeric/boolean columns and string keys (truncated to 64 chars) —
    the reference's partition-synopsis min-max sketch
    (libtenzir/include/tenzir/partition_synopsis.hpp) carried in the
    manifest so readers can skip whole files without opening them.
    Nulls are ignored (a comparison predicate never matches null);
    all-null/empty columns are omitted (no pruning claim)."""
    out: dict = {}
    for name in tbl.column_names:
        if name in (OP_COL, CHANGE_TYPE_COL):
            continue
        col = tbl.column(name)
        t = col.type
        is_ts = pa.types.is_timestamp(t)
        if not (pa.types.is_integer(t) or pa.types.is_floating(t)
                or pa.types.is_boolean(t) or pa.types.is_string(t)
                or pa.types.is_large_string(t) or is_ts):
            continue
        try:
            mm = pc.min_max(col)
        except Exception:
            continue
        mn, mx = mm["min"].as_py(), mm["max"].as_py()
        if mn is None or mx is None:
            continue
        if is_ts:
            # ISO 'T'-separated strings in the JSON manifest; _zone_skip
            # parses them (and ISO literals) back for a typed compare
            out[name] = [mn.isoformat(), mx.isoformat()]
            continue
        if isinstance(mn, str):
            # truncating the MAX upward keeps the bound conservative
            # ("abc…" prefix + 0x10FFFF sentinel covers every extension)
            if len(mn) > 64:
                mn = mn[:64]
            if len(mx) > 64:
                mx = mx[:64] + "\U0010ffff"
        out[name] = [mn, mx]
    # key bloom: conv_id ranges of sibling files almost always overlap
    # (zone maps can't prune equality on a hashed-in key), so point
    # lookups get a membership sketch instead
    if KEY_COLS[0] in tbl.column_names and tbl.num_rows:
        col = tbl.column(KEY_COLS[0])
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            uniq = [u for u in pc.unique(
                col.combine_chunks() if isinstance(col, pa.ChunkedArray)
                else col).to_pylist() if u is not None]
            bl = _bloom_build(uniq)
            if bl is not None:
                out[f"_bloom:{KEY_COLS[0]}"] = bl
    for tc in token_cols:
        if tc in tbl.column_names and tbl.num_rows:
            col = tbl.column(tc)
            if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
                bl = _token_bloom(col)
                if bl is not None:
                    out[f"_bloom:tok:{tc}"] = bl
    return out


_ISO_DATE_RE = None


def _zone_norm(v, mn, mx):
    """Normalize an ISO-date-shaped literal + bounds trio to datetimes
    so timestamp pruning compares typed values, not mixed-separator
    strings ('2025-01-02 07:00' vs '2025-01-02T07:00' are the same
    instant but lexically unordered)."""
    global _ISO_DATE_RE
    if not (isinstance(v, str) and isinstance(mn, str)):
        return v, mn, mx
    if _ISO_DATE_RE is None:
        import re

        _ISO_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}([ T]|$)")
    if _ISO_DATE_RE.match(v) and _ISO_DATE_RE.match(mn):
        from datetime import datetime

        try:
            return (datetime.fromisoformat(v),
                    datetime.fromisoformat(mn),
                    datetime.fromisoformat(mx))
        except ValueError:
            return v, mn, mx
    return v, mn, mx


def _zone_skip(stats: "dict | None", conjuncts: list) -> bool:
    """True iff the file provably contains no matching row for the
    AND-ed ``(col, op, value)`` conjuncts. Missing stats → keep."""
    if not stats:
        return False
    for col, op, v in conjuncts:
        if op == "==" and isinstance(v, str):
            bl = stats.get(f"_bloom:{col}")
            if bl is not None and not _bloom_maybe_contains(bl, v):
                return True
        mm = stats.get(col)
        if not mm:
            continue
        mn, mx = mm
        v, mn, mx = _zone_norm(v, mn, mx)
        try:
            if op == "==" and (v < mn or v > mx):
                return True
            if op == "<" and not (mn < v):
                return True
            if op == "<=" and not (mn <= v):
                return True
            if op == ">" and not (mx > v):
                return True
            if op == ">=" and not (mx >= v):
                return True
            if op == "!=" and mn == mx == v:
                return True
        except TypeError:
            continue  # incomparable literal/stat types: keep the file
    return False


def _rank_quantize(col, bits: int) -> np.ndarray:
    """Per-row rank of a column, scaled to ``[0, 2^bits)`` — rank (not
    min-max) quantization spreads codes uniformly regardless of value
    distribution, so Z-order chunking stays balanced under skew. Strings
    rank via their dictionary's sort order (no per-row string compares);
    nulls/NaNs sort last (deterministic)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    t = arr.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        d = arr.dictionary_encode()
        idx = pc.fill_null(d.indices, -1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        dict_order = pc.sort_indices(d.dictionary).to_numpy(
            zero_copy_only=False).astype(np.int64)
        inv = np.empty(len(dict_order), dtype=np.int64)
        inv[dict_order] = np.arange(len(dict_order))
        idx = np.where(idx < 0, len(dict_order), idx)  # nulls last
        val_rank = np.append(inv, len(dict_order))[idx]
        order = np.argsort(val_rank, kind="stable")
    else:
        v = arr.to_numpy(zero_copy_only=False)
        order = np.argsort(v, kind="stable")  # NaN (nulls) sort last
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return (rank.astype(np.uint64) * np.uint64((1 << bits) - 1)
            // np.uint64(max(n - 1, 1)))


def _zorder_argsort(tbl: pa.Table, cols: list[str]) -> np.ndarray:
    """Row order by Morton code: interleave the bits of each clustered
    column's rank-quantized value (bit budget split evenly, ≤64 total).
    Chunking a Morton-sorted table bounds EVERY dimension's min-max
    spread per chunk, which is what makes the per-chunk zone maps prune
    on any clustered column (the Z-order curve's locality property)."""
    present = [c for c in cols if c in tbl.column_names]
    n = tbl.num_rows
    if not present or n == 0:
        return np.arange(n)
    # ≤16 bits/column keeps the rank·scale product inside uint64 and 16
    # bits already separates 65k chunk boundaries per dimension
    bits = max(1, min(16, 64 // len(present)))
    codes = [_rank_quantize(tbl.column(c), bits) for c in present]
    z = np.zeros(n, dtype=np.uint64)
    nc = len(codes)
    for b in range(bits):
        for j, code in enumerate(codes):
            z |= ((code >> np.uint64(b)) & np.uint64(1)) << np.uint64(b * nc + j)
    return np.argsort(z, kind="stable")


def _reduce_group(reducer: "_PartitionReducer", parts: list) -> list[dict]:
    """Stage 2 task (both transports): reduce each partition in turn from
    its exchange bucket."""
    return [reducer._reduce_one(part, reducer.read([part])) for part in parts]


class _PartitionReducer:
    """Stage 2, per touched partition: take the partition's exchanged
    changes, merge with its live base rows, final LWW by lsn, write the
    new partition file, return a lineage record. ``read`` is the
    exchange's bucket reader (:meth:`Exchange.reader`)."""

    def __init__(self, root: str, read, registry_json: str, epoch_id: str,
                 base_files: dict[int, list[str]], payload_cols: list[str],
                 modes: dict[int, str] | None = None,
                 change_feed: bool = False,
                 token_cols: "tuple | list" = ()):
        self.token_cols = tuple(token_cols)
        self.change_feed = change_feed
        self.root = root
        self.read = read
        self.registry = SchemaRegistry.from_json(registry_json)
        self.epoch_id = epoch_id
        self.base_files = base_files  # part -> list of live file relpaths
        self.payload_cols = payload_cols
        self.modes = modes or {}     # part -> "full" | "delta" | "append"

    def _stored(self, t: pa.Table, with_op: bool) -> pa.Table:
        """Merged rows (payload + lsn + op) → the lake's file columns."""
        out = t.select(self.payload_cols).append_column(LSN_COL, t.column("lsn"))
        return out.append_column(OP_COL, t.column("op")) if with_op else out

    def _preimage_feed(self, net: pa.Table, base: list[pa.Table]) -> pa.Table:
        """Delta-CDF-with-preimages feed for one partition: classify each
        net change against the pre-epoch live state (already loaded for
        the merge) into ``_change_type`` ∈ insert / update_preimage /
        update_postimage / delete. Preimage rows carry the REPLACED row's
        payload and lsn; a delete of a key that never lived emits nothing
        (Delta semantics — differs from the plain postimage feed, which
        keeps every tombstone).

        Both sides come out of :func:`_winners`, key-sorted and unique per
        key, so one dictionary ranked over both sides' ``conv_id`` gives a
        composite integer key ``(conv rank, turn rank)`` sorted on each
        side, and ``np.searchsorted`` matches every net change to its
        base row."""
        base_live = (_winners(pa.concat_tables(base, promote_options="permissive"),
                              drop_deletes=True) if base else None)

        def _with_type(t: pa.Table, ct: str) -> pa.Table:
            return self._stored(t, with_op=True).append_column(
                CHANGE_TYPE_COL,
                pa.repeat(pa.scalar(ct, pa.string()), t.num_rows))

        is_del = pc.equal(net.column("op"), "delete").to_numpy(
            zero_copy_only=False)
        if base_live is None or base_live.num_rows == 0:
            return _with_type(net.filter(pa.array(~is_del)), "insert")

        nn = net.num_rows
        codes, uniq = _factorize(pa.chunked_array(
            net.column("conv_id").chunks + base_live.column("conv_id").chunks))
        conv = pc.rank(uniq).to_numpy(zero_copy_only=False)[codes]
        turns, turn = np.unique(np.concatenate([
            net.column("turn_idx").to_numpy(zero_copy_only=False),
            base_live.column("turn_idx").to_numpy(zero_copy_only=False),
        ]), return_inverse=True)
        key = conv.astype(np.int64) * len(turns) + turn
        net_key, base_key = key[:nn], key[nn:]
        bi = np.searchsorted(base_key, net_key)
        has_base = bi < len(base_key)
        has_base[has_base] = base_key[bi[has_base]] == net_key[has_base]

        pieces = []
        ins = ~has_base & ~is_del
        if ins.any():
            pieces.append(_with_type(net.filter(pa.array(ins)), "insert"))
        upd = has_base & ~is_del
        if upd.any():
            pieces.append(_with_type(base_live.take(pa.array(bi[upd])),
                                     "update_preimage"))
            pieces.append(_with_type(net.filter(pa.array(upd)),
                                     "update_postimage"))
        dele = has_base & is_del
        if dele.any():
            pieces.append(_with_type(base_live.take(pa.array(bi[dele])),
                                     "delete"))
        if not pieces:
            return _with_type(net.slice(0, 0), "insert")
        feed = pa.concat_tables(pieces, promote_options="permissive")
        # a key's preimage and postimage share the key: a STABLE key sort
        # keeps the preimage first
        return feed.take(pc.sort_indices(
            feed, sort_keys=[(c, "ascending") for c in KEY_COLS]))

    def _reduce_one(self, part: int, raw: pa.Table) -> dict:
        # stage 1 already conformed the payload and typed lsn/op
        changes = raw.drop_columns([BUCKET_COL])
        change_lsn = changes.column("lsn").to_numpy(zero_copy_only=False)
        mode = self.modes.get(part, "full")
        if mode == "append" and pc.any(
                pc.not_equal(changes.column("op"), "insert")).as_py():
            # append-only epochs (the reference's import semantics,
            # importer.cpp) land INSERTs of new keys as a fresh file next
            # to an untouched base; key disjointness vs the base is the
            # CALLER's contract, non-insert ops are rejected loudly
            raise ValueError(
                "append_only epoch contains update/delete ops — "
                "use the default upsert path for those")
        # only a full rewrite reads the base: delta and append files are
        # merged by readers (merge-on-read), optimize() compacts them
        base = ([_load_stored(self.root, rel, self.registry)
                 for rel in self.base_files.get(part, ())]
                if mode == "full" else [])
        # changes first: an lsn tie goes to the change. Winners keep
        # delete tombstones, so a late-arriving earlier segment
        # (out-of-order backfill) cannot resurrect the key; tombstones die
        # at compaction (optimize()), once the log is known applied in
        # order up to a watermark.
        final = _winners(pa.concat_tables([changes, *base],
                                          promote_options="permissive"))
        n_tomb = int(pc.sum(pc.cast(pc.equal(final.column("op"), "delete"),
                                    pa.int64())).as_py() or 0)
        # a rewritten base or an append file keeps _op only when
        # tombstones survive: the all-insert common case stays payload+_lsn
        out = self._stored(final, with_op=mode == "delta" or n_tomb > 0)
        prefix = "epoch" if mode == "full" else mode
        rel = (f"part={part}/{prefix}-{self.epoch_id}-"
               f"{uuid.uuid4().hex[:8]}.parquet")
        _write_file(self.root, rel, out)

        # change-data-feed (Delta-Lake _change_data analog): persist the
        # epoch's NET applied changes — intra-epoch LWW winners including
        # delete tombstones — in a dedicated _cdf/ file that survives
        # compaction. In delta mode this equals the delta file; a separate
        # copy keeps the feed readable after optimize() collects the delta.
        # change_feed="preimages" additionally emits the replaced rows
        # (update_preimage / delete content) — possible exactly here, where
        # the base was read anyway for the merge.
        cdf_rel = None
        if self.change_feed:
            net = _winners(changes) if base else final
            cdf_tbl = (self._preimage_feed(net, base)
                       if self.change_feed == "preimages"
                       else self._stored(net, with_op=True))
            cdf_rel = (f"_cdf/part={part}/cdf-{self.epoch_id}-"
                       f"{uuid.uuid4().hex[:8]}.parquet")
            _write_file(self.root, cdf_rel, cdf_tbl)

        # deterministic content checksum: sha256 over the sorted output's
        # Arrow IPC bytes (single C pass, no pandas round-trip)
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, out.schema) as w:
            w.write_table(out)
        checksum = int.from_bytes(
            hashlib.sha256(sink.getvalue()).digest()[:8], "big"
        ) & ((1 << 63) - 1)
        counts = ({"rows": 0, "delta_rows": out.num_rows} if mode == "delta"
                  else {"rows": out.num_rows - n_tomb, "delta_rows": 0})
        return {
            "part": part,
            # this epoch's change-lsn range (lineage)
            "lsn_lo": int(change_lsn.min()) if len(change_lsn) else -1,
            "lsn_hi": int(change_lsn.max()) if len(change_lsn) else -1,
            # the partition's lineage entry (manifest.py Manifest.fold):
            # append/delta ADD the file with counter increments, a full
            # rewrite REPLACES the file set
            "entry": {
                "mode": mode,
                ("files" if mode == "full" else "add"): [rel],
                **counts,
                "tombstones": n_tomb,
                # applied-LSN watermark (resume checkpoint): every key's
                # winner, so the max over all rows the partition merged
                "lsn_high": (int(pc.max(final.column("lsn")).as_py())
                             if final.num_rows else -1),
                "checksum": checksum,
                "new_file": rel,
                **({"cdf_file": cdf_rel} if cdf_rel else {}),
                "file_stats": {rel: _zone_stats(out, self.token_cols)},
            },
        }


def _needs_merge(info: dict) -> bool:
    """Whether reading one partition needs the LWW merge: pending delta
    rows or surviving tombstones do, and so does ``tombstones=None``, a
    pre-round-4 record whose tombstone count is unknown. Any other
    partition's files are pure payload + lsn with (by contract) disjoint
    keys, so concatenating them IS its live state."""
    return ((info.get("delta_rows") or 0) > 0
            or info.get("tombstones") is None
            or info["tombstones"] > 0)


class _PartitionLoader:
    """``read()``'s loader: per call, one partition's live payload rows.
    A partition that needs the merge (:func:`_needs_merge`) yields its
    LWW-merged files (tombstones dropped); any other yields each file on
    its own, so memory stays bounded per file. Every yielded table is
    conformed to the registry before ``flt`` filters it and ``columns``
    projects it. ``read()`` feeds it at most one task per CPU, one
    partition per batch."""

    __name__ = "partition_load"

    def __init__(self, root: str, plan: dict, registry_json: str,
                 columns: list[str] | None, flt):
        self.root = root
        self.plan = plan  # part → (files to load, whether they merge)
        self.registry = SchemaRegistry.from_json(registry_json)
        self.columns = columns
        self.flt = flt

    def __call__(self, batch: pa.Table):
        for part in batch.column("part").to_pylist():
            rels, merge = self.plan[part]
            if merge:
                tables = [_live_rows(self.root, rels, self.registry)
                          .drop_columns(["lsn"])]
            else:
                tables = (_load_stored(self.root, rel, self.registry)
                          .drop_columns(["lsn", "op"]) for rel in rels)
            for tbl in tables:
                if self.flt is not None:
                    tbl = self.flt.apply(tbl)
                if self.columns:
                    tbl = tbl.select(self.columns)
                yield tbl


class LakeTable:
    """A partitioned Parquet lake table with exactly-once CDC apply."""

    def __init__(self, root: str, num_partitions: int = 16,
                 token_bloom_cols: "tuple | list" = ()):
        #: string columns to carry per-file token BLOOMS for (written at
        #: every apply/optimize by this instance; files written without
        #: them are simply never pruned by search() — correctness is
        #: unaffected, pruning is best-effort)
        self._token_bloom_cols = tuple(token_bloom_cols)
        self.root = root
        os.makedirs(root, exist_ok=True)
        m = Manifest.load(root)
        if m is None:
            m = Manifest(root=root, num_partitions=num_partitions)
        self.manifest = m
        self.num_partitions = m.num_partitions
        reg_path = os.path.join(root, REGISTRY_NAME)  # legacy roots only
        if os.path.exists(reg_path):
            with open(reg_path) as f:
                self.registry = SchemaRegistry.from_json(f.read())
        else:
            self.registry = SchemaRegistry()
        self._sync_registry()

    def refresh(self) -> None:
        """Resync this instance with the published state — pick up commits
        made by OTHER writers (processes/instances) since construction, by
        folding the log records newer than this instance's version
        (``Manifest.reload``). ``apply_changes``/``optimize`` refresh
        automatically; reads are snapshot-consistent against the state
        last seen (call this to see newer commits)."""
        self.manifest.reload()
        self._sync_registry()

    def _sync_registry(self) -> None:
        """Fold the manifest's commit-log registry (the multi-writer
        authority) into this instance's registry — evolve is a lattice
        join, so folding in any order converges."""
        if self.manifest.registry_json:
            other = SchemaRegistry.from_json(self.manifest.registry_json)
            if self.registry.schema is None:
                self.registry = other
            else:
                self.registry.evolve(other.schema)

    # ------------------------------------------------------------------
    def apply_changes(
        self,
        changes: "ray.data.Dataset | pa.Table",
        epoch_id: str,
        num_salts: "int | str" = 0,
        batch_size: int = 262144,
        delta_ratio: float = 0.2,
        epoch_meta: dict[str, Any] | None = None,
        transport: str | None = None,
        change_feed: bool = False,
        append_only: bool = False,
    ) -> dict[str, Any]:
        """Apply one epoch (a bounded chunk of the binlog) exactly once.

        ``append_only=True`` switches to the reference's import
        semantics (append-only partitions, importer.cpp): the epoch must
        be pure INSERTs of keys not already live (the caller's contract
        — never verified against the base, exactly like the reference's
        import, which has no dedup); each partition lands a fresh file
        with its own zone map instead of a rewrite, so reads need no
        merge after any number of append epochs, and time-range
        predicates prune whole epoch files via ``read(filter_expr=)``.

        Returns the epoch lineage record. Re-applying a committed
        ``epoch_id`` is a no-op (idempotence/resume gate). ``epoch_meta``
        is persisted in the lineage record atomically with the data —
        source-offset checkpoints go here (see cdc/broker.py).

        ``num_salts`` is ignored: every epoch runs one exchange whose
        bucket is the partition, and the per-batch LWW combiner is the
        skew defense. A value other than 0 or 1 warns once
        (``DeprecationWarning``). The keyword goes once the benchmark's
        traced probe (``cdcbench/client.py``) stops passing it.

        ``transport`` selects the exchange fabric (default: the
        ``TENZIR_RAY_EXCHANGE_TRANSPORT`` env var, else "fs"):
        "fs" = packed-IPC staging files (page cache locally, shared
        storage on a cluster — fastest where fast shared POSIX storage
        exists); "object" = bucket segments ride Ray's object store
        (plasma moves bytes node-to-node and spills — no shared-FS
        requirement). Both run the one :class:`Exchange`.

        ``change_feed=True`` additionally persists each partition's NET
        applied changes (intra-epoch LWW winners incl. delete tombstones)
        under ``_cdf/`` so :meth:`changes` can stream the applied change
        log later (Delta-Lake change-data-feed analog). Off by default —
        it costs one extra small parquet write per touched partition.
        ``change_feed="preimages"`` also emits the REPLACED rows, tagging
        every feed row with ``_change_type`` (insert / update_preimage /
        update_postimage / delete); preimage capture needs the pre-epoch
        base, so this mode disables the delta (merge-on-read) path for
        the epoch — the same trade Delta Lake's CDF makes on MERGE.
        """
        import ray.data

        # resync with the published state: another writer (process or
        # instance) may have committed since this instance loaded — the
        # commit log makes their epochs visible here, and makes the
        # committed-epoch idempotence check hold ACROSS processes
        self.manifest.reload()
        self._sync_registry()
        if epoch_id in self.manifest.committed_epoch_ids():
            return {"epoch_id": epoch_id, "skipped": True}

        if isinstance(changes, pa.Table):
            changes = ray.data.from_arrow(changes)

        from tenzir_ray.stages.exchange import Exchange, default_transport
        from tenzir_ray.stages.join import _dataset_arrow_schema

        transport = transport or default_transport()
        if transport not in ("fs", "object"):
            raise ValueError(f"unknown exchange transport {transport!r}")
        if num_salts not in (0, 1):
            import warnings

            warnings.warn("apply_changes(num_salts=) is ignored: every "
                          "epoch runs one exchange, one bucket per "
                          "partition", DeprecationWarning, stacklevel=2)
        empty_meta = {
            **(epoch_meta or {}),
            "_exchange": {"rows": 0, "max_part_rows": 0},
        }

        # -- schema evolution: merge the incoming payload schema ---------
        # pandas-block datasets report numpy types: the Arrow schema then
        # comes from one small converted batch (stage 1 converts the
        # blocks itself)
        incoming = _dataset_arrow_schema(changes)
        payload_fields = [
            pa.field(n, t)
            for n, t in zip(incoming.names, incoming.types)
            if n not in META_COLS
        ]
        if payload_fields:
            self.registry.evolve(pa.schema(payload_fields))
        if self.registry.schema is None:
            # nothing to apply and no schema yet: commit an empty epoch so
            # the segment is marked applied (tail_directory resume gate)
            self.manifest.commit_epoch(epoch_id, -1, -1, {}, meta=empty_meta)
            return {"epoch_id": epoch_id, "lsn_min": -1, "lsn_max": -1,
                    "partitions_touched": 0, "rows_live": 0}
        reg_json = self.registry.to_json()
        payload_cols = list(self.registry.schema.names)

        # -- stage 1: normalize + per-batch LWW combine, then the packed
        #    exchange (stages/exchange.py) over either transport --------
        import shutil

        import ray as ray_core

        # one staging dir per attempt: a concurrent writer of the same
        # epoch id stages apart, and a crashed attempt's dir is gc()'s
        staging = os.path.join(self.root, "_staging",
                               f"{epoch_id}-{uuid.uuid4().hex[:12]}")
        try:
            _t0 = time.perf_counter()
            ex = Exchange("cdc", transport, staging=staging)
            # post-combine change rows per partition (bucket = partition)
            index, _, part_rows = ex.run(
                changes, _bucket_of, self.num_partitions, "cdc",
                transform=_NormalizeCombine(reg_json, self.num_partitions),
                batch_size=batch_size,
            )
            touched = sorted(part_rows)
            if not touched:
                # zero-row epoch (e.g. an empty binlog segment): commit an
                # empty lineage record so resume never re-crashes on it
                self.manifest.commit_epoch(epoch_id, -1, -1, {},
                                           meta=empty_meta,
                                           registry_json=reg_json)
                return {"epoch_id": epoch_id, "lsn_min": -1, "lsn_max": -1,
                        "partitions_touched": 0, "rows_live": 0}
            base_files = {
                int(k): info["files"]
                for k, info in self.manifest.partitions.items()
            }

            # delta vs full rewrite per partition (merge-on-read, the fix
            # for merge-on-write amplification in incremental ingest):
            # small change volume against a large base → append a delta
            # file instead of rewriting; accumulated deltas force
            # compaction at the threshold
            modes: dict[int, str] = {}
            if append_only:
                if change_feed == "preimages":
                    raise ValueError(
                        "append_only is incompatible with change_feed="
                        "'preimages' (preimages require the base read; an "
                        "append-only epoch by contract replaces nothing)")
                modes = {k: "append" for k in touched}
            if change_feed == "preimages":
                delta_ratio = 0  # preimages need the base read (docstring)
            if not append_only and delta_ratio > 0:
                for k in touched:
                    info = self.manifest.partitions.get(str(k))
                    if info is None:
                        continue  # no base yet → full
                    base_rows = info.get("rows", 0) or 0
                    pend = info.get("delta_rows", 0) or 0
                    ch = part_rows[k]
                    if base_rows > 0 and ch < delta_ratio * base_rows and (
                        pend + ch
                    ) < 2 * delta_ratio * base_rows:
                        modes[k] = "delta"

            # stage 2 runs as plain Ray tasks, not a Dataset pipeline: a
            # FIXED fan-out of independent tasks with tiny outputs, where
            # the Dataset API adds only launch overhead (~0.5-1s per
            # epoch). Task retries on worker death are preserved
            # (ray.remote default max_retries). The reducer (with the
            # exchange reader) is stored once in plasma.
            ex_schema = pa.schema([*self.registry.schema,
                                   pa.field("lsn", pa.int64()),
                                   pa.field("op", pa.string()),
                                   pa.field(BUCKET_COL, pa.int32())])
            reducer_ref = ray_core.put(_PartitionReducer(
                self.root, ex.reader(index, ex_schema),
                reg_json, epoch_id, base_files, payload_cols,
                modes=modes,
                change_feed=change_feed,
                token_cols=self._token_bloom_cols,
            ))

            # -- stage 2: min(touched, CPUs) tasks, every n-th touched
            #    partition to the same task; a task reduces its
            #    partitions one at a time ---------------------------------
            _t1 = time.perf_counter()
            cpus = int(ray_core.cluster_resources().get("CPU", 1))
            n = max(1, min(len(touched), cpus))
            groups = [touched[i::n] for i in range(n)]
            reduce_task = ray_core.remote(_reduce_group)
            refs = [reduce_task.remote(reducer_ref, g) for g in groups]
            reduced = [r for rs in ray_core.get(refs) for r in rs]
            _t2 = time.perf_counter()
        finally:
            # exchange files are transient: gone on every exit path
            shutil.rmtree(staging, ignore_errors=True)

        # -- two-phase commit -------------------------------------------
        part_results = {str(r["part"]): r["entry"] for r in reduced}
        lsn_min = min(r["lsn_lo"] for r in reduced)
        lsn_max = max(r["lsn_hi"] for r in reduced)
        # exchange stats ride the lineage record (same atomic write), so
        # an epoch's combine ratio and partition skew read from the lake
        commit_meta = {
            **(epoch_meta or {}),
            "_exchange": {
                "rows": int(sum(part_rows.values())),
                "max_part_rows": int(max(part_rows.values())),
            },
        }
        # OCC commit (multi-writer; see manifest.py): append/delta entries
        # compose with concurrent commits under LWW-by-lsn, so a lost CAS
        # retries the same record; a full rewrite of a partition another
        # writer has since changed raises ConcurrentModificationError
        committed = self.manifest.commit_epoch(
            epoch_id, lsn_min, lsn_max, part_results,
            meta=commit_meta, registry_json=reg_json)
        self._sync_registry()
        if not committed:
            # another process applied this very epoch (exactly-once): our
            # uuid-named output files are orphans for gc()
            return {"epoch_id": epoch_id, "skipped": True,
                    "concurrent": True}
        return {
            "epoch_id": epoch_id,
            "lsn_min": lsn_min,
            "lsn_max": lsn_max,
            "partitions_touched": len(part_results),
            "rows_live": sum(e["rows"] + e["delta_rows"]
                             for e in part_results.values()),
            # per-stage wall metrics (engine diagnostics; the reference's
            # per-operator metric stream analog, pipeline.hpp:180)
            "timings": {
                "stage1_exchange_s": round(_t1 - _t0, 3),
                "stage2_reduce_s": round(_t2 - _t1, 3),
                "commit_s": round(time.perf_counter() - _t2, 3),
                "stage1_tasks": ex.stage1_tasks,
                "stage2_tasks": len(groups),
            },
        }

    # ------------------------------------------------------------------
    def _has_deltas(self, state: "dict | None" = None) -> bool:
        """Whether any partition of ``state`` (default: the live state)
        needs merge-on-read (:func:`_needs_merge`)."""
        state = self.manifest.partitions if state is None else state
        return any(_needs_merge(info) for info in state.values())

    def read(self, columns: list[str] | None = None,
             filter=None, as_of: "str | int | None" = None,
             filter_expr: str | None = None,
             parts: "list[int] | None" = None) -> "ray.data.Dataset":
        """Streaming Dataset over the live table (payload columns only).

        At most one loader task per cluster CPU loads the partitions one
        at a time, so a batch never spans two partitions. A partition
        carrying delta rows or tombstones merges on read (LWW); any other
        partition streams its files one by one, unmerged (run
        ``optimize()`` to compact a partition's deltas away).

        ``filter`` (a ``pyarrow.dataset.Expression``) applies to each
        loaded table after its rows are conformed to the registry, so it
        may name a column that older files lack, and after the merge:
        rows must survive LWW BEFORE the predicate (a deleted row must
        not resurrect into the match set).

        ``as_of`` time-travels: read the snapshot as of a committed epoch
        (id or positional index, negatives from the end) by folding the
        lineage records up to it (``Manifest.fold``) — each records the
        files its epoch added or the file set it replaced, so the snapshot
        is exact (Delta-Lake ``versionAsOf``). Snapshots stay readable
        until ``optimize()``/``gc()`` collect superseded files and
        ``truncate_lineage()`` drops the record (VACUUM semantics);
        schemas conform to the CURRENT registry (old snapshots gain
        later-added columns as nulls).

        ``filter_expr`` (expression-language string) compiles to the
        same filter AND prunes whole FILES first via the manifest's
        zone maps (per-file min/max recorded at write time — the
        reference's catalog synopsis pruning, catalog.hpp:90): a file
        whose range provably excludes every simple comparison conjunct
        is never opened. Pruning is decided per partition: only a
        partition that needs no merge drops files, since a merging
        partition's rows must merge before any predicate."""
        import ray.data

        from tenzir_ray.expr import Filter, compile_filter, prune_conjuncts

        state = (self.manifest.partitions if as_of is None
                 else self.manifest.state_as_of(as_of))
        if parts is not None:
            # partition-subset read (e.g. search()'s bloom pruning).
            # Subsetting whole PARTITIONS is always LWW-sound — every
            # version and tombstone of a key lives in its key's partition
            keep = {int(p) for p in parts}
            state = {k: v for k, v in state.items() if int(k) in keep}

        residual = None
        conjuncts: list = []
        if filter_expr is not None:
            compiled = compile_filter(filter_expr)
            if compiled.pushdown is not None:
                filter = (compiled.pushdown if filter is None
                          else filter & compiled.pushdown)
            residual = compiled.residual
            conjuncts = prune_conjuncts(filter_expr)
        flt = (Filter(filter, residual)
               if filter is not None or residual is not None else None)

        plan = {}
        pruned = 0
        for k, info in state.items():
            rels, merge = info["files"], _needs_merge(info)
            if conjuncts and not merge:
                fstats = info.get("file_stats") or {}
                rels = [rel for rel in rels
                        if not _zone_skip(fstats.get(rel), conjuncts)]
                pruned += len(info["files"]) - len(rels)
            if rels:
                plan[int(k)] = (rels, merge)
        self._last_read_pruned = pruned  # observability + tests
        if not plan:
            cols = columns or (list(self.registry.schema.names)
                               if self.registry.schema else ["conv_id"])
            return ray.data.from_arrow(pa.table({c: [] for c in cols}))
        loader = _PartitionLoader(self.root, plan, self.registry.to_json(),
                                  columns, flt)
        cpus = int(ray.cluster_resources().get("CPU", 1))
        return ray.data.from_items(
            [{"part": k} for k in sorted(plan)],
            override_num_blocks=max(1, min(len(plan), cpus)),
        ).map_batches(loader, batch_format="pyarrow", batch_size=1)

    def lookup(self, conv_id, columns: list[str] | None = None) -> pa.Table:
        """Point lookup: the live rows of ONE conversation, LWW-merged.

        The 100 TB read path this layout exists for — cost is
        O(the files that may hold the key), independent of table size:
        the key hash selects the single partition, per-file key BLOOMS
        (built at write time, carried in the manifest) skip files that
        provably don't contain the conversation, and each survivor is
        read whole (a lake file is one row group) and filtered on
        ``conv_id ==`` before it is conformed. Equality on conv_id
        commutes with the LWW merge (it's the group-key prefix), so
        filter-then-merge is exact even across delta files and
        tombstones. ``self._last_lookup_pruned`` records how many files
        the blooms skipped (observability + tests)."""
        key = str(conv_id)
        part = int(stable_part_of_uniques([key], self.num_partitions)[0])
        info = self.manifest.partitions.get(str(part)) or {}
        probe = [(KEY_COLS[0], "==", key)]
        files = info.get("files", [])
        fstats = info.get("file_stats") or {}
        rels = [rel for rel in files if not _zone_skip(fstats.get(rel), probe)]
        self._last_lookup_pruned = len(files) - len(rels)
        if self.registry.schema is None:
            out = pa.table({c: pa.array([], pa.string()) for c in KEY_COLS})
        else:
            out = _live_rows(self.root, rels, self.registry,
                             key).drop_columns(["lsn"])
        if columns is not None:
            out = out.select(columns)
        return out

    def search(self, term: str, column: str = "text",
               columns: list[str] | None = None) -> "ray.data.Dataset":
        """Full-text token search over the live table with bloom-backed
        partition pruning.

        Matches rows whose ``column`` contains ``term`` as a whole
        whitespace token (DuckDB analog:
        ``list_contains(regexp_split_to_array(col, '\\s+'), term)``).

        Pruning: files written by a :class:`LakeTable` constructed with
        ``token_bloom_cols=(column,)`` carry a per-file token bloom in
        the manifest; a PARTITION is skipped when every one of its files
        provably lacks the token. Pruning is partition-granular on
        purpose — a key's every version and tombstone lives in its
        partition, so skipping whole partitions commutes with the LWW
        merge (skipping single files would not: an old matching version
        could resurrect past a pruned newer file). Files without blooms
        are conservatively scanned. ``self._last_search_pruned`` records
        skipped partitions (observability + tests)."""
        token = str(term)
        blkey = f"_bloom:tok:{column}"
        keep: list[int] = []
        pruned = 0
        for k, info in self.manifest.partitions.items():
            files = info.get("files") or []
            if not files:
                continue
            fstats = info.get("file_stats") or {}
            rejected = all(
                (fstats.get(rel) or {}).get(blkey) is not None
                and not _bloom_maybe_contains(fstats[rel][blkey], token)
                for rel in files
            )
            if rejected:
                pruned += 1
            else:
                keep.append(int(k))
        self._last_search_pruned = pruned
        scan_cols = columns
        if scan_cols is not None and column not in scan_cols:
            scan_cols = list(scan_cols) + [column]
        ds = self.read(columns=scan_cols, parts=keep)

        def _contains(t: pa.Table) -> pa.Table:
            if not t.num_rows:
                return t if columns is None else t.select(
                    [c for c in columns if c in t.column_names])
            col = t.column(column)
            arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
            toks = pc.split_pattern_regex(arr, pattern=r"\s+")
            lens = pc.list_value_length(toks).fill_null(0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            flat_eq = pc.equal(toks.flatten(), token)
            eq = flat_eq.to_numpy(zero_copy_only=False)
            eq = np.where(pd.isna(eq), False, eq).astype(bool)
            hit = np.zeros(len(lens), bool)
            if eq.any():
                doc = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
                hit[np.unique(doc[eq])] = True
            out = t.filter(pa.array(hit))
            if columns is not None:
                out = out.select([c for c in columns if c in out.column_names])
            return out

        return ds.map_batches(_contains, batch_format="pyarrow")

    def dedup_incoming(self, ds, column: str = "text",
                       mode: str = "exact", **fuzzy_kwargs):
        """Deduplicate an INCOMING batch against the lake's existing
        corpus before :meth:`apply_changes` — the CDC half of corpus
        hygiene: a re-crawled / re-sent document whose ``column``
        content the lake already holds should not become a new row (or
        churn an existing one).

        - ``mode="exact"``: anti hash-join on the content column via
          the packed exchange (exact string equality; neither side is
          ever gathered — both stream through the same bucketed
          exchange :func:`tenzir_ray.stages.join.hash_join` uses, so
          the lake side can be arbitrarily large).
        - ``mode="fuzzy"``: MinHash-LSH near-dup filter — the lake's
          distinct band keys broadcast once, incoming streams through
          one vectorized ``np.isin`` per batch
          (:func:`tenzir_ray.stages.dedup.fuzzy_decontaminate`;
          size-gated, pass ``max_blocklist_keys``/``bands``/... through
          ``fuzzy_kwargs``). Use when the lake side fits the band-key
          budget (it is the BLOCKLIST here).

        Incoming rows with a null ``column`` are kept (null content
        matches nothing — SQL anti-join semantics). Returns the
        filtered incoming Dataset; compose as
        ``lake.apply_changes(lake.dedup_incoming(changes), ...)``."""
        base = self.read(columns=[column])
        if mode == "exact":
            from tenzir_ray.stages.join import hash_join

            return hash_join(ds, base, on=column, how="anti")
        if mode == "fuzzy":
            from tenzir_ray.stages.dedup import fuzzy_decontaminate

            return fuzzy_decontaminate(ds, base, column=column,
                                       block_column=column,
                                       **fuzzy_kwargs)
        raise ValueError(f"dedup_incoming: unknown mode {mode!r}")

    def merge(self, source, epoch_id: str, *,
              when_matched: str = "update",
              matched_condition: str | None = None,
              when_not_matched: str = "insert",
              validate_unique: bool = True,
              **apply_kwargs) -> dict:
        """Delta-style ``MERGE INTO``: reconcile an arbitrary source
        Dataset against the live table in ONE exactly-once epoch.

        ``source`` carries the table key (conv_id, turn_idx) plus any
        payload columns. Row classification is a key-only semi-join:
        the live key set streams out of a column-pruned scan and meets
        the source over the packed exchange (no driver materialization,
        no full-payload shuffle). Actions:

        - matched rows (key live in the table):
          ``when_matched`` = "update" (replace the row with the source
          row), "delete" (tombstone the key), or "ignore".
          ``matched_condition`` (expression-language string over SOURCE
          columns, e.g. ``"role == 'assistant'"``) restricts the action;
          matched rows failing it are left untouched.
        - unmatched rows: ``when_not_matched`` = "insert" or "ignore".

        All resulting change events share one lsn (``resume_lsn()``), so
        the merge wins LWW against everything already applied; source
        keys must therefore be UNIQUE — like Delta, a multi-row match is
        an error (``validate_unique=True`` enforces it with a key-only
        grouped pass; disable only if the producer guarantees it).
        Downstream (exchange → LWW reduce → manifest commit, idempotent
        replay by ``epoch_id``) is exactly :meth:`apply_changes` —
        re-merging a committed epoch id is a no-op.

        Reference analog: the reference's `import` only appends
        (importer.cpp); conditional reconciliation is part of this
        engine's lake surface (Delta MERGE, Iceberg MERGE INTO).
        """
        import ray.data

        from tenzir_ray.expr import compile_filter

        if when_matched not in ("update", "delete", "ignore"):
            raise ValueError(f"when_matched={when_matched!r}")
        if when_not_matched not in ("insert", "ignore"):
            raise ValueError(f"when_not_matched={when_not_matched!r}")
        self.manifest.reload()
        if epoch_id in self.manifest.committed_epoch_ids():
            return {"epoch_id": epoch_id, "skipped": True}
        if isinstance(source, pa.Table):
            source = ray.data.from_arrow(source)

        if validate_unique:
            from tenzir_ray.stages.exchange import grouped_apply

            def _dups(t: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                g = t.group_by(list(KEY_COLS)).aggregate([([], "count_all")])
                bad = g.filter(pc.greater(g.column("count_all"), 1))
                return pa.table({
                    "conv_id": bad.column("conv_id").cast(pa.string()),
                    "n": bad.column("count_all").cast(pa.int64()),
                })

            dup = grouped_apply(
                source.select_columns(list(KEY_COLS)), list(KEY_COLS),
                _dups, fn_format="pyarrow", tag="merge-dupcheck",
            ).limit(1).take_all()
            if dup:
                raise ValueError(
                    f"merge: source has duplicate keys (e.g. conv_id="
                    f"{dup[0]['conv_id']!r} x{dup[0]['n']}); a multi-row "
                    "match is ambiguous — dedupe the source first")

        live_any = any(info.get("files")
                       for info in self.manifest.partitions.values())
        if live_any:
            from tenzir_ray.stages.join import hash_join

            def _mark(t: pa.Table) -> pa.Table:
                return t.append_column(
                    "__hit", pa.array(np.ones(t.num_rows, np.int8)))

            marked = self.read(columns=list(KEY_COLS)).map_batches(
                _mark, batch_format="pyarrow")
            joined = hash_join(source, marked, on=list(KEY_COLS), how="left")
        else:  # empty table: everything is unmatched
            def _miss(t: pa.Table) -> pa.Table:
                return t.append_column(
                    "__hit", pa.array(np.zeros(t.num_rows, np.int8)))

            joined = source.map_batches(_miss, batch_format="pyarrow")

        base_lsn = self.resume_lsn()
        cond = matched_condition

        def _classify(t: pa.Table) -> pa.Table:
            hit = t.column("__hit").to_numpy(zero_copy_only=False)
            matched = ~pd.isna(hit) & (np.nan_to_num(
                hit.astype(np.float64), nan=0.0) > 0)
            if cond is not None:
                cmask = compile_filter(cond).mask(t)
                act_matched = matched & cmask
            else:
                act_matched = matched
            op = np.full(t.num_rows, "", dtype=object)
            if when_matched != "ignore":
                op[act_matched] = when_matched
            if when_not_matched == "insert":
                op[~matched] = "insert"
            keep = op != ""
            out = t.drop_columns(["__hit"]).filter(pa.array(keep))
            n = out.num_rows
            out = out.append_column("op", pa.array(op[keep], pa.string()))
            return out.append_column(
                "lsn", pa.array(np.full(n, base_lsn, np.int64)))

        events = joined.map_batches(_classify, batch_format="pyarrow")
        rec = self.apply_changes(events, epoch_id, **apply_kwargs)
        return rec

    def final_table(self, as_of: "str | int | None" = None) -> pa.Table:
        """Driver-side full read, sorted by (conv_id, turn_idx) — for
        verification at test scale only (materializes). ``as_of`` reads a
        lineage snapshot (see :meth:`read`)."""
        state = (self.manifest.partitions if as_of is None
                 else self.manifest.state_as_of(as_of))
        tables = [
            _live_rows(self.root, state[k]["files"], self.registry)
            .drop_columns(["lsn"])
            for k in sorted(state, key=int)
        ]
        if not tables:
            # empty lake: preserve the registered schema (a 0-row epoch
            # still registers it) so callers can project/sort columns
            if self.registry.schema is not None:
                return self.registry.schema.empty_table()
            return pa.table({})
        tbl = pa.concat_tables(tables, promote_options="permissive")
        return tbl.take(
            pc.sort_indices(
                tbl, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
            )
        )

    def metrics(self) -> "ray.data.Dataset":
        """Epoch lineage as a Dataset (the reference's `metrics`/
        `diagnostics` stream analog, builtins/operators/metrics.cpp):
        one row per committed epoch with lsn range, partition count,
        commit time, and ``rows``: the rows the epoch wrote — live rows of
        each partition it rewrote plus the rows of each delta or append
        file it added (``rows + delta_rows`` of its lineage entries)."""
        import ray.data

        rows = [
            {
                "epoch_id": e["epoch_id"],
                "lsn_min": e["lsn_min"],
                "lsn_max": e["lsn_max"],
                "committed_at": e["committed_at"],
                "partitions_touched": len(e.get("partitions", {})),
                "rows": sum((p.get("rows") or 0) + (p.get("delta_rows") or 0)
                            for p in e.get("partitions", {}).values()),
            }
            for e in self.manifest.epochs
        ]
        return ray.data.from_items(rows) if rows else ray.data.from_items(
            [{"epoch_id": "", "lsn_min": -1, "lsn_max": -1,
              "committed_at": 0.0, "partitions_touched": 0, "rows": 0}]
        ).limit(0)

    def resume_lsn(self) -> int:
        """Next lsn to tail from (checkpoint/resume-from-offset)."""
        return self.manifest.lsn_high() + 1

    def changes(self, since_lsn: int = 0,
                epochs: "list[str] | None" = None,
                with_epoch_id: bool = False) -> "ray.data.Dataset":
        """Stream the applied change feed (Delta-Lake CDF analog): the NET
        changes each epoch applied — intra-epoch LWW winners per key,
        including delete tombstones — as payload + ``_lsn`` + ``_op`` rows.

        Sources, per epoch in lineage order: the ``_cdf/`` file written
        when the epoch was applied with ``change_feed=True``, else (delta
        epochs only) the delta file itself, which has identical content but
        dies at compaction. Full-rewrite epochs applied WITHOUT
        ``change_feed`` cannot reconstruct per-row attribution → error.

        ``since_lsn`` filters to changes with ``_lsn >= since_lsn`` (epochs
        entirely below are skipped at the driver — file-level pruning);
        ``epochs`` limits to the given epoch ids. ``with_epoch_id=True``
        tags rows with their epoch id (one read per epoch unioned — use
        only over bounded epoch selections).

        Preimage-mode epochs (``change_feed="preimages"``) resume at
        EPOCH granularity: their update_preimage/delete rows carry the
        REPLACED row's lsn by design, so a row-level ``_lsn`` cut would
        silently drop the only record of a delete — instead every row of
        a qualifying epoch (``lsn_max >= since_lsn``) is kept, giving
        at-least-once on the boundary epoch. Use ``epochs=`` for exact
        resume points with a preimage feed."""
        import ray.data

        wanted = None if epochs is None else set(epochs)
        per_epoch: list[tuple[str, list[str]]] = []
        for e in self.manifest.epochs:
            if wanted is not None and e["epoch_id"] not in wanted:
                continue
            if (e.get("meta") or {}).get("_compaction"):
                continue  # compaction republishes files, applies no changes
            if e.get("lsn_max", -1) < since_lsn:
                continue
            files = []
            for k, rec in e.get("partitions", {}).items():
                cdf = rec.get("cdf_file")
                if cdf is None and rec.get("mode") == "delta":
                    cdf = rec.get("new_file")
                if cdf is None:
                    raise ValueError(
                        f"epoch {e['epoch_id']!r} was applied without "
                        "change_feed=True and rewrote partitions in place; "
                        "its per-row changes are not reconstructible")
                files.append(os.path.join(self.root, cdf))
            if files:
                per_epoch.append((e["epoch_id"], files))
        if not per_epoch:
            cols = list(self.registry.schema.names) if self.registry.schema else []
            empty = {c: [] for c in cols + [LSN_COL, OP_COL]}
            if with_epoch_id:
                empty["_epoch_id"] = []
            return ray.data.from_arrow(pa.table(empty))

        def _since(t: pa.Table) -> pa.Table:
            if since_lsn <= 0 or CHANGE_TYPE_COL in t.column_names:
                # preimage feeds: epoch-granular resume only (see above)
                return t
            return t.filter(
                pc.greater_equal(t.column(LSN_COL).cast(pa.int64()), since_lsn)
            )

        # partitioning=None: the part=<k>/ layout is physical, not a hive
        # column — inference would graft a spurious `part` column
        if not with_epoch_id:
            ds = ray.data.read_parquet(
                [f for _, fl in per_epoch for f in fl], partitioning=None)
            return ds.map_batches(_since, batch_format="pyarrow")
        parts = []
        for eid, fl in per_epoch:
            d = ray.data.read_parquet(fl, partitioning=None).map_batches(
                _since, batch_format="pyarrow")
            parts.append(d.add_column(
                "_epoch_id", lambda df, _e=eid: pd.Series([_e] * len(df)),
            ))
        ds = parts[0]
        return ds.union(*parts[1:]) if len(parts) > 1 else ds

    def tail_directory(self, log_dir: str,
                       pattern: str = "*.parquet") -> list[dict]:
        """Tail a directory of binlog segment files (the Kafka/WAL consumer
        analog, reference plugins/kafka): each file, in sorted name order,
        is one epoch keyed by its filename — already-committed segments are
        skipped (resume-from-offset), so re-running after new segments
        arrive applies exactly the new ones."""
        import glob as globmod

        import ray.data

        results = []
        for path in sorted(globmod.glob(os.path.join(log_dir, pattern))):
            epoch_id = os.path.basename(path)
            results.append(self.apply_changes(
                ray.data.read_parquet(path), epoch_id=epoch_id))
        return results

    def reshard(self, dest_root: str, num_partitions: int,
                **apply_kwargs) -> "LakeTable":
        """Rebuild the table under a different partition count — the
        maintenance op a growing table eventually needs (16 partitions
        at 1 TB becomes 256 at 100 TB). Streams each SOURCE partition's
        LWW-merged live rows through the normal apply pipeline into a
        fresh table at ``dest_root``, as ONE exactly-once epoch per
        source partition — so a killed reshard RESUMES where it stopped
        (committed ``reshard-<k>`` epochs skip; the unfinished one
        re-runs deterministically).

        Every row lands with ``lsn = source partition's lsn_high``: a
        stale replay of an already-applied change (lsn ≤ high) loses LWW
        against the resharded row, while genuinely new events win, and
        ``resume_lsn()`` carries over — a broker resuming from its
        checkpoint continues cleanly against the new table. Tombstones
        are compacted away (exactly like :meth:`optimize`): a deleted
        key is simply absent, so replay protection for DELETED keys is
        the epoch/checkpoint layer's job (epoch-id idempotence +
        ``since_lsn``), not per-row LWW — the same contract the rest of
        the engine already has post-compaction. Token-bloom columns
        propagate."""
        if int(num_partitions) < 1:
            raise ValueError("num_partitions must be >= 1")
        dest = LakeTable(dest_root, num_partitions=int(num_partitions),
                         token_bloom_cols=self._token_bloom_cols)

        def _as_inserts(lsn_high: int):
            def f(t: pa.Table) -> pa.Table:
                t = t.append_column("lsn", pa.array(
                    np.full(t.num_rows, lsn_high, np.int64)))
                return t.append_column(
                    "op", pa.array(["insert"] * t.num_rows))
            return f

        for k in sorted(self.manifest.partitions, key=int):
            info = self.manifest.partitions[k]
            if not info.get("files"):
                continue
            epoch = f"reshard-{int(k):05d}"
            if epoch in dest.manifest.committed_epoch_ids():
                continue  # resume: this source partition already moved
            src = self.read(parts=[int(k)])
            lsn_high = int(info.get("lsn_high", 0) or 0)
            dest.apply_changes(
                src.map_batches(_as_inserts(lsn_high),
                                batch_format="pyarrow"),
                epoch_id=epoch, **apply_kwargs)
        return dest

    def clone(self, dest_root: str) -> "LakeTable":
        """Shallow clone (Delta-Lake ``CLONE`` analog): hardlink every
        file under the root — live partitions, historical epoch file
        sets (time travel works in the clone), delta/``_cdf`` feed
        files — plus the checkpoint and commit log. Zero data bytes
        copied on the same filesystem (cross-FS falls back to copy).

        Correct because data files are IMMUTABLE (uuid-named; an apply
        replaces a partition's file SET, never rewrites a file in
        place): writes to either table create new files under its own
        root, and ``gc()``/``optimize()`` only unlink their own root's
        names — the shared inode survives until the last name dies.
        In-flight ``_staging`` is skipped (transient exchange state)."""
        import shutil

        src_real = os.path.realpath(self.root)
        dst_real = os.path.realpath(dest_root)
        if (dst_real == src_real
                or dst_real.startswith(src_real + os.sep)
                or src_real.startswith(dst_real + os.sep)):
            # a nested dest would be walked mid-clone AND its files,
            # unreferenced by the source manifest, would be gc()'d as
            # orphans — silently destroying the clone
            raise ValueError(
                f"clone target {dest_root!r} must not nest with the "
                f"source root {self.root!r}")
        if Manifest.load(dest_root) is not None:
            raise FileExistsError(f"clone target already a lake: {dest_root}")
        os.makedirs(dest_root, exist_ok=True)
        for dirpath, dirnames, filenames in os.walk(self.root):
            rel = os.path.relpath(dirpath, self.root)
            if rel.split(os.sep)[0] == "_staging":
                dirnames[:] = []
                continue
            for fn in filenames:
                src = os.path.join(dirpath, fn)
                dst = (os.path.join(dest_root, fn) if rel == "."
                       else os.path.join(dest_root, rel, fn))
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                try:
                    os.link(src, dst)
                except OSError:  # cross-filesystem / FS without links
                    shutil.copy2(src, dst)
        return LakeTable(dest_root)

    def restore(self, as_of: "str | int",
                epoch_id: "str | None" = None) -> dict:
        """Roll the table back to a lineage snapshot (Delta-Lake
        ``RESTORE TABLE ... TO VERSION AS OF`` analog): publish ONE new
        epoch whose state replaces every current partition's file set
        with the snapshot's as of ``as_of`` (epoch id, or positional
        index — negatives from the end). Metadata-only and O(partitions):
        no data bytes move — data files are immutable and uuid-named, so
        pointing the manifest back at the old set IS the rollback.

        History stays monotonic: the restore is itself a lineage-tracked,
        exactly-once epoch (replaying the same ``epoch_id`` skips), so a
        later ``restore`` can roll FORWARD again and time travel across
        the rollback keeps working. The schema registry is additive-only
        and stays at its current (widest) version — restored rows read
        with nulls in later-added columns, the same contract as any old
        file under evolution.

        Fails loudly (nothing published) if the snapshot references
        files already collected by ``gc()``/``optimize()`` — VACUUM
        bounds how far back a restore can reach, exactly as in Delta.

        The restore does NOT rewind the source-offset checkpoint:
        ``resume_lsn()`` still reflects the binlog high watermark (max
        over all lineage). For a rewind-and-replay flow, re-apply from
        the returned record's ``restored_lsn_high`` + 1; replayed epoch
        ids that were committed BEFORE the restore point are new epochs
        again only if given fresh ids (the idempotence registry is
        append-only by design — it records "this chunk was applied",
        which remains true)."""
        self.manifest.reload()
        self._sync_registry()
        eid = epoch_id or f"restore-{as_of}"
        if eid in self.manifest.committed_epoch_ids():
            return {"epoch_id": eid, "skipped": True}
        snap = self.manifest.state_as_of(as_of)
        missing = [
            f for info in snap.values() for f in info["files"]
            if not os.path.exists(os.path.join(self.root, f))
        ]
        if missing:
            raise FileNotFoundError(
                f"restore({as_of!r}): {len(missing)} snapshot file(s) were "
                f"collected by gc()/optimize() (first: {missing[0]!r}); "
                "this snapshot is no longer restorable")
        restored_lsn = max(
            (e["lsn_max"] for e in
             self.manifest.epochs[: self.manifest.resolve_epoch(as_of) + 1]),
            default=-1)
        # one replacement entry per partition: the snapshot's folded state
        # (files + their stats), or empty where the snapshot had none
        part_results = {
            k: {**snap.get(k, {"files": [], "rows": 0, "tombstones": 0}),
                "mode": "restore", "lsn_high": restored_lsn}
            for k in set(self.manifest.partitions) | set(snap)
        }
        self.manifest.commit_epoch(
            eid, -1, -1, part_results,
            meta={"restore_of": as_of, "restored_lsn_high": restored_lsn})
        return {"epoch_id": eid, "skipped": False,
                "restored_lsn_high": restored_lsn,
                "partitions_touched": len(part_results)}

    def expire(self, filter_expr: str,
               epoch_id: "str | None" = None,
               batch_size: int = 262144) -> dict:
        """Retention delete (row-TTL): scan live rows matching
        ``filter_expr`` (the engine expression language, e.g.
        ``"ts < 2024-01-01T00:00:00"``), turn each matched key into a
        DELETE change, and apply them as one normal exactly-once epoch.

        Distribution: the scan is the streaming :meth:`read` with the
        predicate pushed into the parquet scan (zone maps + row groups
        prune untouched files); only the matched KEYS (conv_id,
        turn_idx) flow into the epoch. All deletes carry the same fresh
        LSN (``resume_lsn()``) — they happen-at the expiry point, after
        every applied change; keys are unique post-LWW so no intra-epoch
        tie exists. Lineage-tracked like any epoch: time travel to
        before the expiry still sees the rows until ``gc()`` collects
        them — retention and VACUUM compose exactly as in Delta."""
        self.manifest.reload()
        eid = epoch_id or (
            "ttl-" + hashlib.sha1(filter_expr.encode()).hexdigest()[:12])
        if eid in self.manifest.committed_epoch_ids():
            return {"epoch_id": eid, "skipped": True}
        ttl_lsn = self.resume_lsn()
        matched = self.read(columns=["conv_id", "turn_idx"],
                            filter_expr=filter_expr)
        # no-match probe (early-stopped, pruned scan): an all-pass filter
        # must still commit an idempotence epoch, but an empty Dataset has
        # no schema for apply_changes to conform
        if not matched.limit(1).take(1):
            self.manifest.commit_epoch(
                eid, ttl_lsn, ttl_lsn, {},
                meta={"ttl_filter": filter_expr, "ttl_matches": 0})
            return {"epoch_id": eid, "skipped": False, "ttl_lsn": ttl_lsn,
                    "rows": 0}

        def _to_deletes(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table({
                "lsn": pa.array(np.full(n, ttl_lsn, dtype=np.int64)),
                "op": pa.array(["delete"] * n, pa.string()),
                "conv_id": batch.column("conv_id"),
                "turn_idx": batch.column("turn_idx"),
            })

        deletes = matched.map_batches(_to_deletes, batch_format="pyarrow")
        rec = self.apply_changes(deletes, eid, batch_size=batch_size,
                                 epoch_meta={"ttl_filter": filter_expr})
        rec["ttl_lsn"] = ttl_lsn
        rec.setdefault("skipped", False)
        return rec

    # -- maintenance (reference: rebuild.cpp compaction + disk_monitor) --
    def gc(self, min_age_s: float = 0.0) -> dict:
        """Remove orphan data files (crashed attempts, superseded epochs)
        and leftover staging dirs. Live data is exactly the manifest's
        file set (catalog-gated reads, catalog.hpp:83).

        Multi-writer caveat: a CONCURRENT writer's freshly-written but
        not-yet-committed partition files look like orphans — pass
        ``min_age_s`` (e.g. 3600) to only collect files older than the
        longest plausible in-flight epoch, or run gc without concurrent
        writers."""
        import glob as globmod
        import shutil

        self.manifest.reload()
        now = time.time()
        live = set(self.manifest.live_files())
        # historical epochs' file sets stay collectible (time-travel
        # snapshots die at gc — VACUUM semantics, documented in read())
        removed_files = 0
        for f in globmod.glob(os.path.join(self.root, "part=*", "*.parquet")):
            if f not in live:
                if min_age_s > 0:
                    try:
                        if now - os.path.getmtime(f) < min_age_s:
                            continue
                    except FileNotFoundError:
                        continue
                os.remove(f)
                removed_files += 1
        removed_staging = 0
        for d in globmod.glob(os.path.join(self.root, "_staging", "*")):
            if min_age_s > 0:
                try:
                    if now - os.path.getmtime(d) < min_age_s:
                        continue
                except FileNotFoundError:
                    continue
            shutil.rmtree(d, ignore_errors=True)
            removed_staging += 1
        return {"files_removed": removed_files, "staging_removed": removed_staging}

    def optimize(self, compression_level: int = 10,
                 parts: list | None = None,
                 cluster_by: list[str] | None = None,
                 target_files: int = 8) -> int:
        """Compact partitions: merge base + delta files (LWW, drop
        tombstones) at a higher zstd level — the reference's partition
        rebuild (builtins/commands/rebuild.cpp:26). One Ray task per
        partition (never a driver loop); write-then-rename per file, then
        one atomic manifest swap, then the files the compaction replaced
        are deleted (nothing else: other writers' in-flight files and
        staging are left alone; older superseded files stay for
        :meth:`gc`). ``parts`` limits compaction to the given partition
        ids (selective rebuild).

        ``cluster_by=[c1, c2, ...]`` Z-ORDER-clusters each partition
        (Delta-Lake ``OPTIMIZE ZORDER BY`` analog): rows sort by the
        interleaved-bit Morton code of the columns' rank-quantized values
        and split into ``target_files`` chunk files, each with its own
        zone map + key bloom — so ``read(filter_expr=)`` range predicates
        on ANY clustered column prune whole chunks, not just the leading
        sort column (a linear sort gives tight zones on one dimension;
        Morton interleave bounds every dimension's spread per chunk).
        Without ``cluster_by`` each partition compacts to ONE key-sorted
        file.

        Multi-writer: a compaction is a full rewrite of its partitions, so
        a concurrent apply to the same partitions raises
        :class:`ConcurrentModificationError` (re-run optimize); appends to
        OTHER partitions interleave freely."""
        import ray as ray_core

        self.manifest.reload()
        self._sync_registry()
        todo = {
            k: info
            for k, info in self.manifest.partitions.items()
            if parts is None or int(k) in {int(p) for p in parts}
        }
        if not todo:
            return 0
        root = self.root
        reg_json = self.registry.to_json()
        n_chunks = max(1, int(target_files)) if cluster_by else 1
        token_cols = self._token_bloom_cols

        @ray_core.remote
        def _compact(k: str, rels: list[str]) -> dict:
            live = _live_rows(root, rels, SchemaRegistry.from_json(reg_json))
            out = live.rename_columns([*live.column_names[:-1], LSN_COL])
            if cluster_by:
                out = out.take(pa.array(_zorder_argsort(out, cluster_by)))
            files, stats = [], {}
            bounds = np.linspace(0, out.num_rows, n_chunks + 1).astype(np.int64)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                if hi <= lo:
                    continue
                chunk = out.slice(int(lo), int(hi - lo))
                new_rel = f"part={k}/compact-{uuid.uuid4().hex[:8]}.parquet"
                _write_file(root, new_rel, chunk, compression_level)
                files.append(new_rel)
                stats[new_rel] = _zone_stats(chunk, token_cols)
            return {"mode": "compact", "files": files, "rows": out.num_rows,
                    "delta_rows": 0, "tombstones": 0, "file_stats": stats}

        # publish via a lineage record (not a bare partitions-map swap) so
        # time-travel's epoch-prefix reconstruction stays consistent with
        # the live state after compaction; changes() skips it (_compaction)
        entries = ray_core.get(
            [_compact.remote(k, info["files"]) for k, info in todo.items()])
        part_results = {
            k: {**e, "lsn_high": info.get("lsn_high", -1)}
            for (k, info), e in zip(todo.items(), entries)
        }
        self.manifest.commit_epoch(
            f"_optimize-{uuid.uuid4().hex[:8]}", -1, -1, part_results,
            meta={"_compaction": True},
        )
        # delete exactly the files this compaction replaced: a sweep
        # (gc) would also take other writers' written-but-uncommitted
        # files and staging, losing their epochs
        for info in todo.values():
            for rel in info["files"]:
                try:
                    os.remove(os.path.join(root, rel))
                except FileNotFoundError:
                    pass
        return len(part_results)

    def truncate_lineage(self, keep_epochs: int = 100) -> int:
        """Retention for the lineage log (disk-monitor analog,
        libtenzir/src/disk_monitor.cpp:68 — bounded history): keep the
        most recent ``keep_epochs`` records; live state is unaffected.
        Change-feed files owned by dropped epochs are deleted (the feed's
        retention IS the lineage retention); time-travel snapshots older
        than the horizon become unreachable. The dropped prefix folds
        (``Manifest.fold``) into one base record that replaces each
        partition's state as of the horizon.

        Admin operation: run WITHOUT concurrent writers (like VACUUM) — it
        writes a new checkpoint and deletes the log records it folds
        (``Manifest.truncate_lineage``). A very stale concurrent writer
        re-claiming a deleted log version is detected and undone by the
        manifest's folded-history guard (manifest.py try_commit_epoch)."""
        self.manifest.reload()
        prefix = self.manifest.truncate_lineage(keep_epochs)
        # after the checkpoint: a crash in between leaves orphan feed
        # files, never lineage that names deleted ones
        for e in prefix:
            for rec in e.get("partitions", {}).values():
                cdf = rec.get("cdf_file")
                if cdf and cdf.startswith("_cdf/"):
                    try:
                        os.remove(os.path.join(self.root, cdf))
                    except FileNotFoundError:
                        pass
        return len(prefix)


import sys as _sys
from tenzir_ray._ship import ship_by_value as _ship
_ship(_sys.modules[__name__])
