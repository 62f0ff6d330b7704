"""SQL set operations over Datasets: INTERSECT / EXCEPT, DISTINCT and
ALL variants (bag semantics). The reference's pipeline algebra exposes
only ``union`` (operator concatenation); these complete the set algebra
the same way the join family extends it — as co-partitioned exchange
stages (no driver materialization, no all-pairs).

Semantics follow the SQL standard exactly, including NULL handling:
set-operation comparisons treat NULLs as EQUAL (IS NOT DISTINCT FROM),
unlike join/WHERE equality. For each distinct tuple t with l copies on
the left and r copies on the right:

- ``intersect``       → 1 copy iff l > 0 and r > 0
- ``intersect all``   → min(l, r) copies
- ``except``          → 1 copy iff l > 0 and r == 0
- ``except all``      → max(l - r, 0) copies

Scale shape: both sides hash-partition by ALL columns through the
packed exchange (fine buckets, reduce tasks coalesced by measured
bytes); each reduce task runs one C pandas groupby-size per side plus
an index-aligned merge — per-task memory is bounded by the bucket, and
a tuple's copies all land in one bucket by construction.
"""

from __future__ import annotations

import sys
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa

from tenzir_ray._ship import ship_by_value
from tenzir_ray.stages.exchange import (
    Exchange,
    coalesce_tasks,
    default_buckets,
    key_buckets,
)
from tenzir_ray.stages.join import _require_schemas, _task_buckets

_OPS = ("intersect", "except")


def _align_right(lschema: pa.Schema, op: str):
    """Right-side exchange transform: reorder columns to the left's
    order and cast to the left's types (set ops require union-compatible
    inputs; an impossible cast raises loudly)."""
    cols = list(lschema.names)

    def _t(batch: pa.Table) -> pa.Table:
        batch = batch.select(cols)
        if batch.schema != lschema:
            batch = batch.cast(lschema)
        return batch

    return _t


class _SetOpReducer:
    def __init__(self, read_l, read_r, op: str, all_rows: bool,
                 schema: pa.Schema):
        self.read_l = read_l
        self.read_r = read_r
        self.op = op
        self.all_rows = all_rows
        self.schema = schema

    def __call__(self, batch: pa.Table) -> pa.Table:
        bl = _task_buckets(batch)
        ldf = self.read_l(bl).to_pandas()
        rdf = self.read_r(bl).to_pandas()
        cols = list(self.schema.names)
        if not len(ldf):  # no left tuples -> empty either way
            return self.schema.empty_table()
        # concat unifies the two sides' pandas dtypes (an all-null
        # string bucket arrives float64 on one side and object on the
        # other — a raw merge would refuse); ONE groupby then counts
        # both sides, dropna=False making NULL tuples compare equal
        ldf["_side"] = np.int8(0)
        rdf["_side"] = np.int8(1)
        both = pd.concat([ldf, rdf], ignore_index=True)
        sz = both.groupby(cols + ["_side"], dropna=False,
                          sort=False).size()
        tab = sz.unstack("_side", fill_value=0)
        l = (tab[0] if 0 in tab.columns
             else pd.Series(0, index=tab.index)).to_numpy(np.int64)
        r = (tab[1] if 1 in tab.columns
             else pd.Series(0, index=tab.index)).to_numpy(np.int64)
        if self.op == "intersect":
            n = np.minimum(l, r) if self.all_rows else (
                ((l > 0) & (r > 0)).astype(np.int64))
        else:  # except
            n = np.maximum(l - r, 0) if self.all_rows else (
                ((l > 0) & (r == 0)).astype(np.int64))
        keys = tab.index.to_frame(index=False)
        keys.columns = cols
        out = keys.loc[keys.index.repeat(n)].reset_index(drop=True)
        for c in cols:  # NaN-keyed groups -> typed nulls for Arrow
            s = out[c]
            if s.isna().any():
                out[c] = s.astype(object).where(s.notna(), None)
        return pa.Table.from_pandas(out, schema=self.schema,
                                    preserve_index=False)


def set_op(left, right, op: str, all_rows: bool = False,
           num_buckets: int | None = None,
           target_task_bytes: int = 128 << 20,
           batch_size: int | None = 65536,
           transport: str | None = None,
           staging_root: str | None = None):
    """``left INTERSECT [ALL] right`` / ``left EXCEPT [ALL] right``
    (``op`` ∈ intersect | except). Column sets must match; the right
    side is reordered and cast to the left's schema. NULLs compare
    equal (SQL set-op rule) end to end: groupby(dropna=False) buckets
    NULL tuples together and pandas merge matches NaN/None keys."""
    if op not in _OPS:
        raise ValueError(f"op must be one of {_OPS}, got {op!r}")
    lschema, rschema = _require_schemas(left, right, op)
    if set(rschema.names) != set(lschema.names):
        raise ValueError(
            f"{op}: column sets differ — left {sorted(lschema.names)} "
            f"vs right {sorted(rschema.names)}")
    import ray.data

    keys = list(lschema.names)
    B = num_buckets or default_buckets()
    ex = Exchange("setop", transport, staging_root)
    by_keys = partial(key_buckets, keys=keys)
    lidx, lbytes, _ = ex.run(left, by_keys, B, "l", batch_size=batch_size)
    ridx, rbytes, _ = ex.run(right, by_keys, B, "r",
                             transform=_align_right(lschema, op),
                             batch_size=batch_size)
    # intersect emits only tuples present on BOTH sides; except must
    # visit every left bucket (right-empty buckets pass left distinct)
    relevant = (set(lidx) & set(ridx)) if op == "intersect" else set(lidx)
    total = {b: lbytes.get(b, 0) + rbytes.get(b, 0) for b in relevant}
    tasks = coalesce_tasks(list(relevant), total, target_task_bytes)
    reducer = _SetOpReducer(
        ex.reader(lidx, lschema), ex.reader(ridx, lschema),
        op, all_rows, lschema)
    if not tasks:
        return ray.data.from_arrow(lschema.empty_table())
    return ray.data.from_items([{"buckets": t} for t in tasks]).map_batches(
        reducer, batch_format="pyarrow", batch_size=1)


def intersect(left, right, **kw):
    """SQL ``INTERSECT`` (pass ``all_rows=True`` for INTERSECT ALL)."""
    return set_op(left, right, "intersect", **kw)


def except_(left, right, **kw):
    """SQL ``EXCEPT`` (pass ``all_rows=True`` for EXCEPT ALL)."""
    return set_op(left, right, "except", **kw)


ship_by_value(sys.modules[__name__])
