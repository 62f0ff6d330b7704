"""Large-large joins on the packed-IPC hash exchange.

The reference has NO stream-stream join (SURVEY §2.5 notes the absence;
enrichment contexts are its only join-like construct) — this is an
engine extension, built on :mod:`tenzir_ray.stages.exchange` (the
shuffle design the CDC lake proved 2-3x faster than Ray's shuffle
backends for partition-keyed patterns):

- both sides exchange into ``num_buckets`` hash buckets (default 8x
  CPUs) as packed Arrow-IPC files — fine-grained, so no bucket holds a
  large fraction of either side;
- reduce tasks are formed by coalescing buckets by MEASURED bytes from
  the stage-1 stats (task size tracks data size; hot buckets stay
  isolated);
- each task joins its buckets in ARROW (`pa.Table.join` — typed null
  padding on outer rows; never object-dtype pandas blocks), or via
  ``pd.merge_asof`` for the as-of variant with an explicit typed cast
  back to the target Arrow schema.

Broadcast `state.context.enrich` remains the right tool for small
dimension sides. Cluster note: the exchange staging dir must live on
shared storage (same documented assumption as the CDC lake).
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


def _arrow_schema(ds_schema, rename: dict | None = None) -> pa.Schema:
    ren = rename or {}
    return pa.schema(
        [pa.field(ren.get(n, n), t) for n, t in zip(ds_schema.names, ds_schema.types)]
    )


def _dataset_arrow_schema(ds) -> pa.Schema:
    """Arrow schema of a Dataset. Arrow-block datasets carry it directly;
    pandas-block datasets (from_pandas) report numpy dtypes, where
    dtype('O') is ambiguous — resolve by converting ONE small batch, or
    (zero-row input) by best-effort dtype mapping (object → string)."""
    sch = ds.schema()
    if sch is None:  # zero-block dataset carries no schema at all
        return pa.schema([])
    try:
        return _arrow_schema(sch)
    except (TypeError, AttributeError):
        pass
    for b in ds.limit(64).iter_batches(batch_format="pyarrow",
                                       batch_size=64):
        if b.num_rows or b.num_columns:
            return b.schema
    def _t(t):
        if isinstance(t, pa.DataType):
            return t
        conv = getattr(t, "to_arrow_dtype", None)
        if conv is not None:
            return conv()
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError):
            return pa.string()
    return pa.schema([pa.field(n, _t(t))
                      for n, t in zip(sch.names, sch.types)])


def _task_buckets(batch: pa.Table) -> list[int]:
    return [int(x) for x in batch.column("buckets").to_pylist()[0]]



def _require_schemas(left, right, op: str):
    """Both sides must expose a schema: Ray returns None for an
    all-empty pipeline (the documented empty-Dataset trap) — fail with
    the cause instead of an AttributeError deep in the rename logic.
    Returns ARROW schemas: pandas-block datasets report numpy dtypes
    (object is ambiguous), which _dataset_arrow_schema resolves."""
    ls, rs = left.schema(), right.schema()
    if ls is None or rs is None:
        side = "left" if ls is None else "right"
        raise ValueError(
            f"{op}: the {side} side has no schema (empty dataset whose "
            "schema Ray dropped); handle emptiness upstream or seed a "
            "typed empty block")
    return _dataset_arrow_schema(left), _dataset_arrow_schema(right)


class _HashJoinReducer:
    def __init__(self, read_l, read_r, lkeys, rkeys, how, out_cols):
        self.read_l = read_l
        self.read_r = read_r
        self.lkeys = lkeys
        self.rkeys = rkeys
        self.join_type = {"inner": "inner", "left": "left outer",
                          "right": "right outer", "full": "full outer",
                          "semi": "left semi", "anti": "left anti"}[how]
        self.coalesce = lkeys == rkeys
        self.out_cols = out_cols

    def __call__(self, batch: pa.Table) -> pa.Table:
        bl = _task_buckets(batch)
        ltbl = self.read_l(bl)
        rtbl = self.read_r(bl)
        joined = ltbl.join(
            rtbl,
            keys=self.lkeys,
            right_keys=self.rkeys,
            join_type=self.join_type,
            coalesce_keys=self.coalesce,
        )
        return joined.select(self.out_cols).combine_chunks()


class _JoinPlan:
    """Shared rename/widen/output plan for the exchange and broadcast
    joins — one source of truth so :func:`skew_join`'s two streams emit
    byte-identical schemas."""

    __slots__ = ("lkeys", "rkeys", "r_key_names", "rename_r", "l_casts",
                 "r_casts", "l_arrow", "r_arrow", "out_cols", "coalesce")


def _plan_join(lschema, rschema, on, right_on, how, right_suffix) -> _JoinPlan:
    lkeys = [on] if isinstance(on, str) else list(on)
    rkeys = lkeys if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on)
    )
    lcols = lschema.names
    key_partner = dict(zip(rkeys, lkeys))
    rename_r = {}
    for c in rschema.names:
        if c in rkeys:
            # a right KEY keeps its name unless it collides with a left
            # column other than its own join partner (which would create
            # duplicate output columns)
            clash = c in lcols and key_partner[c] != c
            rename_r[c] = c + right_suffix if clash else c
        else:
            rename_r[c] = c + right_suffix if c in lcols else c
    r_key_names = [rename_r.get(k, k) for k in rkeys]
    l_arrow = _arrow_schema(lschema)
    r_arrow = _arrow_schema(rschema, rename_r)

    # Arrow's hash join needs IDENTICAL key types; widen each key pair to
    # the common type (int32+int64 → int64 etc., the registry lattice)
    from tenzir_ray.cdc.registry import widen

    l_casts: dict[str, pa.DataType] = {}
    r_casts: dict[str, pa.DataType] = {}
    for lk, rk in zip(lkeys, r_key_names):
        lt = l_arrow.field(lk).type
        rt = r_arrow.field(rk).type
        if not lt.equals(rt):
            wt = widen(lt, rt)
            l_casts[lk] = wt
            r_casts[rk] = wt
            l_arrow = l_arrow.set(
                l_arrow.get_field_index(lk), pa.field(lk, wt)
            )
            r_arrow = r_arrow.set(
                r_arrow.get_field_index(rk), pa.field(rk, wt)
            )

    coalesce = lkeys == r_key_names
    if how in ("semi", "anti"):
        out_cols = list(lcols)  # Arrow's left semi/anti emit LEFT columns
    else:
        out_cols = list(lcols) + [
            c for c in r_arrow.names
            if not (coalesce and c in lkeys) and c not in lcols
        ]
    p = _JoinPlan()
    p.lkeys, p.rkeys, p.r_key_names = lkeys, rkeys, r_key_names
    p.rename_r, p.l_casts, p.r_casts = rename_r, l_casts, r_casts
    p.l_arrow, p.r_arrow = l_arrow, r_arrow
    p.out_cols, p.coalesce = out_cols, coalesce
    return p


def _cast_cols(casts: dict):
    def f(b: pa.Table) -> pa.Table:
        for name, t in casts.items():
            i = b.schema.get_field_index(name)
            b = b.set_column(i, name, b.column(name).cast(t))
        return b

    return f


def _rename_right(plan: _JoinPlan):
    def f(b: pa.Table) -> pa.Table:
        b = b.rename_columns(
            [plan.rename_r.get(c, c) for c in b.column_names]
        )
        return _cast_cols(plan.r_casts)(b)

    return f


def hash_join(left, right, on: str | list[str], right_on: str | list[str] | None = None,
              how: str = "inner", right_suffix: str = "_r",
              num_buckets: int | None = None,
              target_task_bytes: int = 128 << 20,
              batch_size: int | None = 65536,
              transport: str | None = None,
              staging_root: str | None = None):
    """Co-partitioned hash join of two Datasets via the packed exchange.

    ``on``/``right_on`` name the key columns; overlapping non-key columns
    from the right get ``right_suffix``. Supported ``how``: inner, left,
    right, full (both-side outer; key columns coalesce when same-named),
    semi, anti (Arrow left-semi/left-anti — output is the left columns).
    When the two sides' key names differ, both key columns appear in the
    output (pandas-merge convention); identical names coalesce into one.
    ``transport``: "fs" (packed-IPC staging; needs shared storage
    multi-node — configure via ``staging_root`` / $TENZIR_RAY_EXCHANGE_ROOT)
    or "object" (Ray object store, no shared-FS requirement).
    """
    import ray.data

    lschema, rschema = _require_schemas(left, right, "hash_join")
    plan = _plan_join(lschema, rschema, on, right_on, how, right_suffix)
    lkeys, r_key_names = plan.lkeys, plan.r_key_names
    l_arrow, r_arrow, out_cols = plan.l_arrow, plan.r_arrow, plan.out_cols

    B = num_buckets or default_buckets()
    ex = Exchange("join", transport, staging_root)

    lidx, lbytes, _ = ex.run(
        left, partial(key_buckets, keys=lkeys), B, "l",
        transform=_cast_cols(plan.l_casts) if plan.l_casts else None,
        batch_size=batch_size,
    )
    ridx, rbytes, _ = ex.run(
        right, partial(key_buckets, keys=r_key_names), B, "r",
        transform=_rename_right(plan), batch_size=batch_size,
    )
    # semi keeps only matched left rows, so right-empty buckets emit
    # nothing; anti and left must still visit every left bucket; the
    # both-side outers must visit every bucket present on EITHER side
    if how in ("inner", "semi"):
        relevant = set(lidx) & set(ridx)
    elif how in ("full", "right"):
        relevant = set(lidx) | set(ridx)
    else:
        relevant = set(lidx)
    total = {b: lbytes.get(b, 0) + rbytes.get(b, 0) for b in relevant}
    tasks = coalesce_tasks(list(relevant), total, target_task_bytes)
    reducer = _HashJoinReducer(
        ex.reader(lidx, l_arrow), ex.reader(ridx, r_arrow),
        lkeys, r_key_names, how, out_cols,
    )
    if not tasks:
        empty = reducer(pa.table({"buckets": pa.array([[]], pa.list_(pa.int64()))}))
        return ray.data.from_arrow(empty)
    return ray.data.from_items([{"buckets": t} for t in tasks]).map_batches(
        reducer, batch_format="pyarrow", batch_size=1
    )


def _heavy_keys(ds, key: str, capacity: int):
    """Space-saving heavy-hitter pass over one key column: per-batch
    ``value_counts`` truncated to the top ``capacity`` entries, merged on
    the driver with a bounded counter. Returns ``(counts, total_rows)``
    where counts maps key value -> (under-)estimated frequency. One
    column-pruned scan; driver state is O(capacity)."""
    import pyarrow.compute as pc
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(key).combine_chunks()
        vc = col.drop_null().value_counts()
        vals, cnts = vc.field("values"), vc.field("counts")
        if len(vals) > capacity:
            keep = pc.array_sort_indices(cnts, order="descending")[:capacity]
            vals, cnts = vals.take(keep), cnts.take(keep)
        # sentinel null row carries this batch's TOTAL row count, so the
        # driver learns the table size in the same single pass
        return pa.table({
            "k": pa.concat_arrays([vals, pa.nulls(1, vals.type)]),
            "n": pa.concat_arrays([
                cnts.cast(pa.int64()),
                pa.array([batch.num_rows], pa.int64()),
            ]),
        })

    parts = ds.select_columns([key]).map_batches(
        partial, batch_format="pyarrow"
    )
    counts: dict = {}
    total = 0
    for ref in parts.to_arrow_refs():
        t = ray.get(ref)
        for v, n in zip(t.column("k").to_pylist(), t.column("n").to_pylist()):
            if v is None:
                total += n
            else:
                counts[v] = counts.get(v, 0) + n
        if len(counts) > 8 * capacity:
            counts = dict(
                sorted(counts.items(), key=lambda kv: -kv[1])[: 4 * capacity]
            )
    return counts, total


class _BroadcastJoinStage:
    """skew_join's hot stream: Arrow-join each left batch against the
    broadcast right-hot table. The hot rows never shuffle — the right
    slice travels ONCE via ray.put and every task reads it zero-copy."""

    def __init__(self, rtbl_ref, plan: _JoinPlan, how: str):
        self.rtbl_ref = rtbl_ref
        self.plan = plan
        self.how = how
        self._rtbl = None

    __name__ = "_BroadcastJoinStage"

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        if self._rtbl is None:
            r = self.rtbl_ref
            self._rtbl = r if isinstance(r, pa.Table) else ray.get(r)
        p = self.plan
        b = _cast_cols(p.l_casts)(batch) if p.l_casts else batch
        join_type = {"inner": "inner", "left": "left outer",
                     "semi": "left semi", "anti": "left anti"}[self.how]
        out = b.join(
            self._rtbl, keys=p.lkeys, right_keys=p.r_key_names,
            join_type=join_type, coalesce_keys=p.coalesce,
        )
        return out.select(p.out_cols).combine_chunks()


def _key_membership_filter(ds, key: str, value_set: pa.Array, keep_in: bool):
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        m = pc.fill_null(pc.is_in(batch.column(key), value_set=value_set),
                         False)
        # null keys can never be hot -> they route to the exchange side,
        # which already implements the engine's null-key join semantics
        return batch.filter(m if keep_in else pc.invert(m))

    return ds.map_batches(f, batch_format="pyarrow")


def skew_join(left, right, on: str, right_on: str | None = None,
              how: str = "inner", right_suffix: str = "_r",
              hot_keys: list | None = None, hot_frac: float = 0.01,
              max_hot: int = 64, max_broadcast_bytes: int = 256 << 20,
              num_buckets: int | None = None,
              target_task_bytes: int = 128 << 20,
              batch_size: int | None = 65536,
              transport: str | None = None,
              staging_root: str | None = None):
    """Skew-aware hash join: heavy-hitter keys bypass the exchange.

    A hot key (a key holding more than ``hot_frac`` of the left rows,
    top ``max_hot`` of them; or the explicit ``hot_keys`` list) would
    otherwise concentrate its entire row population in one exchange
    bucket → one oversized reduce task. Here the RIGHT side's hot-key
    rows are gathered once (size-gated by ``max_broadcast_bytes``),
    ``ray.put``-broadcast, and the left's hot rows join against them
    inside plain ``map_batches`` — embarrassingly parallel, no shuffle.
    Everything else takes the regular packed-exchange
    :func:`hash_join`; the two streams union (same `_JoinPlan`, so
    schemas are identical).

    Supported ``how``: inner/left/semi/anti (one output row per left
    batch row — broadcast-safe). right/full would emit unmatched RIGHT
    rows from every replica; use :func:`hash_join` for those.

    Cost note: detection is one column-pruned scan of the left and the
    split is one extra scan of each side vs plain ``hash_join`` — worth
    it only under real skew, which is exactly when you reach for this.
    """
    if not isinstance(on, str):
        if len(on) != 1:
            raise ValueError(
                "skew_join handles single-column keys; composite keys "
                "rarely skew — use hash_join"
            )
        on = on[0]
    if right_on is not None and not isinstance(right_on, str):
        right_on = right_on[0]
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(
            f"skew_join: how={how!r} unsupported (broadcast replicas would "
            "duplicate unmatched right rows) — use hash_join"
        )
    import ray
    import ray.data

    lschema, rschema = _require_schemas(left, right, "skew_join")
    plan = _plan_join(lschema, rschema, on, right_on, how, right_suffix)
    rkey_orig = right_on or on

    if hot_keys is None:
        counts, total = _heavy_keys(left, on, capacity=max(256, 8 * max_hot))
        floor = max(1, int(total * hot_frac))
        hot_keys = [
            k for k, n in sorted(counts.items(), key=lambda kv: -kv[1])
            if n >= floor
        ][:max_hot]
    if not hot_keys:
        return hash_join(
            left, right, on, right_on, how, right_suffix, num_buckets,
            target_task_bytes, batch_size, transport, staging_root,
        )

    ktype = _arrow_schema(lschema).field(on).type
    vset = pa.array(hot_keys, type=ktype)
    rktype = _arrow_schema(rschema).field(rkey_orig).type
    rvset = vset if rktype.equals(ktype) else pa.array(hot_keys, type=rktype)

    # gather + broadcast the right side's hot slice, enforcing the size
    # gate INCREMENTALLY so an unexpectedly large slice raises before
    # the driver has materialized all of it
    r_hot = _key_membership_filter(right, rkey_orig, rvset, keep_in=True)
    rtbls: list[pa.Table] = []
    gathered = 0
    for ref in r_hot.to_arrow_refs():
        t = ray.get(ref)
        if not t.num_rows:
            continue
        gathered += t.nbytes
        if gathered > max_broadcast_bytes:
            raise ValueError(
                f"skew_join: hot right slice exceeds "
                f"{max_broadcast_bytes >> 20} MiB — the 'small' side of "
                "the hot keys isn't small; raise max_broadcast_bytes or "
                "use hash_join"
            )
        rtbls.append(t)
    rtbl = (_rename_right(plan)(pa.concat_tables(rtbls))
            if rtbls else _rename_right(plan)(
                pa.Table.from_batches([], schema=_arrow_schema(rschema))))
    rref = ray.put(rtbl)

    hot_out = _key_membership_filter(left, on, vset, keep_in=True).map_batches(
        _BroadcastJoinStage(rref, plan, how), batch_format="pyarrow"
    )
    cold_out = hash_join(
        _key_membership_filter(left, on, vset, keep_in=False),
        _key_membership_filter(right, rkey_orig, rvset, keep_in=False),
        on, right_on, how, right_suffix, num_buckets,
        target_task_bytes, batch_size, transport, staging_root,
    )
    return cold_out.union(hot_out)


class _AsofReducer:
    def __init__(self, read_l, read_r, keys, on, direction, out_schema,
                 tolerance=None):
        self.read_l = read_l
        self.read_r = read_r
        self.keys = keys
        self.on = on
        self.direction = direction
        self.out_schema = out_schema
        self.tolerance = tolerance

    def __call__(self, batch: pa.Table) -> pa.Table:
        bl = _task_buckets(batch)
        ltbl = self.read_l(bl)
        rtbl = self.read_r(bl)
        lhs = ltbl.to_pandas().sort_values(self.on, kind="mergesort")
        if rtbl.num_rows == 0:
            # typed null padding straight in Arrow — no pandas objects
            out = ltbl
            for f in self.out_schema:
                if f.name not in out.column_names:
                    out = out.append_column(f.name, pa.nulls(out.num_rows, f.type))
            return out.select(self.out_schema.names)
        rhs = rtbl.to_pandas().sort_values(self.on, kind="mergesort")
        # string timestamp columns (post NDJSON/syslog parse) merge on
        # their datetime interpretation; the output keeps the ORIGINAL
        # left strings so the typed schema cast below still holds
        orig_on = None
        if lhs[self.on].dtype == object or rhs[self.on].dtype == object:
            orig = lhs[self.on].copy()
            lhs = lhs.assign(**{self.on: pd.to_datetime(lhs[self.on])})
            rhs = rhs.assign(**{self.on: pd.to_datetime(rhs[self.on])})
            order = np.argsort(lhs[self.on].to_numpy(), kind="stable")
            lhs = lhs.iloc[order]
            orig_on = orig.iloc[order]
            rhs = rhs.sort_values(self.on, kind="mergesort")
        # by here tolerance is None | int ns | pd.Timedelta (duration
        # strings were normalized and type-checked at the driver)
        tol = self.tolerance
        if tol is not None and pd.api.types.is_datetime64_any_dtype(
                lhs[self.on]) and not isinstance(tol, pd.Timedelta):
            tol = pd.Timedelta(int(tol), unit="ns")
        merged = pd.merge_asof(
            lhs, rhs, on=self.on, by=self.keys, direction=self.direction,
            tolerance=tol,
        )
        if orig_on is not None:
            # merge_asof preserves left row order/count — restore positionally
            merged[self.on] = orig_on.to_numpy()
        # cast back to the target Arrow schema: unmatched rows turned int
        # columns into float64-with-NaN in pandas; from_pandas restores
        # the typed column with nulls, identical across all tasks
        arrays = [
            pa.array(merged[f.name], type=f.type, from_pandas=True)
            for f in self.out_schema
        ]
        return pa.Table.from_arrays(arrays, schema=self.out_schema)


def asof_join(left, right, by: str | list[str], on: str,
              direction: str = "backward", right_suffix: str = "_r",
              tolerance=None,
              num_buckets: int | None = None,
              target_task_bytes: int = 128 << 20,
              batch_size: int | None = 65536,
              transport: str | None = None,
              staging_root: str | None = None):
    """As-of join: for each left row, the latest right row with
    ``right.on <= left.on`` (direction="backward"; also "forward" /
    "nearest") within the same ``by`` key — the time-series enrichment
    join. ``tolerance`` bounds the match distance (a duration string
    like "1h" / a pd.Timedelta for timestamp — or string-timestamp —
    keys; a NUMBER in NANOSECONDS for timestamp keys, or in the
    column's own units for numeric keys); rows with no right match
    inside the budget pad with nulls. Both sides exchange on the BY key
    (every key's full history lands in one bucket), each reduce task
    runs one vectorized ``pd.merge_asof`` and emits rows cast to a
    fixed typed Arrow schema (no object-dtype padding)."""
    import ray.data

    keys = [by] if isinstance(by, str) else list(by)
    lschema, rschema = _require_schemas(left, right, "asof_join")
    lcols = lschema.names
    rename_r = {
        c: (c + right_suffix if c in lcols and c not in keys and c != on else c)
        for c in rschema.names
    }
    l_arrow = _arrow_schema(lschema)
    r_arrow = _arrow_schema(rschema, rename_r)

    if isinstance(tolerance, str):
        # duration strings only make sense for time-like on-keys: a
        # numeric key would silently take the ns count in its OWN units
        # (e.g. 1.8e12 "seconds" — effectively unbounded)
        on_t = l_arrow.field(on).type
        if not (pa.types.is_timestamp(on_t) or pa.types.is_string(on_t)
                or pa.types.is_large_string(on_t)):
            raise TypeError(
                f"asof_join: duration tolerance {tolerance!r} needs a "
                f"timestamp (or string-timestamp) on-column, got "
                f"{on}: {on_t}; pass a number in the column's units")
        from tenzir_ray.stages.window import _to_ns

        tolerance = int(_to_ns(tolerance))

    # widen mismatched by/on key dtypes to their common type, mirroring
    # hash_join: key_buckets co-buckets int32-vs-int64 fine, but
    # pd.merge_asof raises MergeError on incompatible key dtypes at
    # reduce time — a late, confusing failure for inputs hash_join accepts
    from tenzir_ray.cdc.registry import widen

    l_casts: dict[str, pa.DataType] = {}
    r_casts: dict[str, pa.DataType] = {}
    for k in keys + [on]:
        lt = l_arrow.field(k).type
        rt = r_arrow.field(k).type
        if not lt.equals(rt):
            try:
                wt = widen(lt, rt)
            except TypeError:
                if k == on:
                    # e.g. string-vs-timestamp `on`: the reducer's
                    # to_datetime path reconciles those at merge time
                    continue
                raise
            l_casts[k] = wt
            r_casts[k] = wt
            l_arrow = l_arrow.set(l_arrow.get_field_index(k), pa.field(k, wt))
            r_arrow = r_arrow.set(r_arrow.get_field_index(k), pa.field(k, wt))

    out_schema = pa.schema(
        list(l_arrow)
        + [f for f in r_arrow if f.name not in keys and f.name != on]
    )

    B = num_buckets or default_buckets()
    ex = Exchange("asof", transport, staging_root)

    def _cast(b: pa.Table, casts: dict) -> pa.Table:
        for name, t in casts.items():
            i = b.schema.get_field_index(name)
            b = b.set_column(i, name, b.column(name).cast(t))
        return b

    def _ren(b: pa.Table) -> pa.Table:
        b = b.rename_columns([rename_r.get(c, c) for c in b.column_names])
        return _cast(b, r_casts) if r_casts else b

    by_keys = partial(key_buckets, keys=keys)
    lidx, lbytes, _ = ex.run(
        left, by_keys, B, "l",
        transform=(lambda b: _cast(b, l_casts)) if l_casts else None,
        batch_size=batch_size,
    )
    ridx, rbytes, _ = ex.run(right, by_keys, B, "r", transform=_ren,
                             batch_size=batch_size)
    relevant = set(lidx)  # as-of is a left join
    total = {b: lbytes.get(b, 0) + rbytes.get(b, 0) for b in relevant}
    tasks = coalesce_tasks(list(relevant), total, target_task_bytes)
    reducer = _AsofReducer(
        ex.reader(lidx, l_arrow), ex.reader(ridx, r_arrow),
        keys, on, direction, out_schema, tolerance,
    )
    if not tasks:
        return ray.data.from_arrow(out_schema.empty_table())
    return ray.data.from_items([{"buckets": t} for t in tasks]).map_batches(
        reducer, batch_format="pyarrow", batch_size=1
    )


def _as_num(arr) -> np.ndarray:
    """Comparable numeric view of a numeric/timestamp Arrow column
    (timestamps → int64 microseconds; both join sides use this helper so
    the views are consistent)."""
    a = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    if pa.types.is_timestamp(a.type):
        a = a.cast(pa.timestamp("us")).cast(pa.int64())
    v = a.to_numpy(zero_copy_only=False)
    return v.astype(np.float64) if v.dtype == object else v


from tenzir_ray.nputil import within_group_arange as _within_group_arange


class _StabbingIndex:
    """Interval-stabbing index over ``[lo, hi)`` intervals: elementary
    segments between sorted unique endpoints, with a CSR
    (offsets + interval-ids) map of which intervals cover each segment.
    ``match`` locates every value's segment with one ``searchsorted``
    and fans each value out to ALL covering intervals via the CSR gather
    (overlapping intervals multi-match, exactly the SQL
    ``v >= lo AND v < hi`` join). Shared by the broadcast range_join
    actor and the partitioned reducer."""

    def __init__(self, rlo: np.ndarray, rhi: np.ndarray):
        self.endpoints = np.unique(np.concatenate([rlo, rhi]))
        n_seg = max(len(self.endpoints) - 1, 0)
        start = np.searchsorted(self.endpoints, rlo, side="left")
        end = np.searchsorted(self.endpoints, rhi, side="left")
        reps = (end - start).astype(np.int64)
        seg_idx = np.repeat(start, reps) + _within_group_arange(reps)
        ids_flat = np.repeat(np.arange(len(rlo), dtype=np.int64), reps)
        order = np.argsort(seg_idx, kind="stable")
        self.seg_ids = ids_flat[order]                       # CSR values
        self.seg_count = np.bincount(seg_idx, minlength=n_seg).astype(np.int64)
        self.seg_off = np.r_[0, np.cumsum(self.seg_count)]   # CSR offsets
        self.n_seg = n_seg

    def match(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row_idx, interval_idx) pairs for every containment match."""
        n = len(v)
        if n and self.n_seg:
            vf = v.astype(np.float64)
            seg = np.searchsorted(self.endpoints, v, side="right") - 1
            in_rng = (~np.isnan(vf)) & (seg >= 0) & (seg < self.n_seg)
            segc = np.where(in_rng, seg, 0)
            cnt = np.where(in_rng, self.seg_count[segc], 0)
        else:
            cnt = np.zeros(n, dtype=np.int64)
            segc = np.zeros(n, dtype=np.int64)
        row_idx = np.repeat(np.arange(n, dtype=np.int64), cnt)
        within = _within_group_arange(cnt)
        ids = self.seg_ids[self.seg_off[segc[row_idx]] + within] \
            if len(row_idx) else np.zeros(0, dtype=np.int64)
        return row_idx, ids


def _valid_intervals(rlo: np.ndarray, rhi: np.ndarray) -> np.ndarray:
    """Mask dropping null/NaN endpoints and degenerate (lo >= hi) rows."""
    return (~(np.isnan(rlo.astype(np.float64)) |
              np.isnan(rhi.astype(np.float64)))) & (rlo < rhi)


class _RangeJoiner:
    """Actor-pool interval-join stage: ``__init__`` builds the
    :class:`_StabbingIndex` once per actor from the broadcast right
    table; ``__call__`` matches a whole batch vectorized."""

    def __init__(self, right_ref, on: str, lo: str, hi: str, how: str,
                 by: "str | None", rename_r: dict):
        import ray

        right: pa.Table = ray.get(right_ref)  # once per actor
        self.on = on
        self.how = how
        self.by = by
        rlo = _as_num(right.column(lo))
        rhi = _as_num(right.column(hi))
        ok = _valid_intervals(rlo, rhi)
        if not ok.all():
            right = right.filter(pa.array(ok))
            rlo, rhi = rlo[ok], rhi[ok]
        # right payload with output names (collisions suffixed by caller)
        self.right = right.rename_columns(
            [rename_r.get(c, c) for c in right.column_names]
        )
        self.by_r = rename_r.get(by, by) if by else None
        self.index = _StabbingIndex(rlo, rhi)

    def _null_right(self, n: int) -> list[pa.Array]:
        return [pa.nulls(n, f.type) for f in self.right.schema]

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        v = _as_num(batch.column(self.on)) if n else np.zeros(0)
        left_idx, ids = self.index.match(v)

        if self.by is not None and len(left_idx):
            import pyarrow.compute as pc

            lb = batch.column(self.by).take(pa.array(left_idx))
            rb = self.right.column(self.by_r).take(pa.array(ids))
            keep = pc.fill_null(pc.equal(lb, rb), False)
            if isinstance(keep, pa.ChunkedArray):
                keep = keep.combine_chunks()
            m = keep.to_numpy(zero_copy_only=False).astype(bool)
            left_idx, ids = left_idx[m], ids[m]
        li = pa.array(left_idx)
        ri = pa.array(ids)

        out = batch.take(li)
        rtake = self.right.take(ri)
        for name, col in zip(rtake.column_names, rtake.columns):
            out = out.append_column(name, col)

        if self.how == "left":
            matched = np.zeros(n, dtype=bool)
            if len(li):
                matched[li.to_numpy(zero_copy_only=False)] = True
            if not matched.all():
                rest = batch.filter(pa.array(~matched))
                for f, arr in zip(self.right.schema, self._null_right(rest.num_rows)):
                    rest = rest.append_column(f.name, arr)
                out = pa.concat_tables([out, rest])
        return out.combine_chunks()


def range_join(left, right, on: str, lo: str = "lo", hi: str = "hi",
               how: str = "inner", by: str | None = None,
               right_suffix: str = "_r",
               batch_size: int | None = 65536,
               concurrency: "int | tuple | None" = None,
               max_broadcast_rows: int = 2_000_000):
    """Interval (range) join: each left row matches every right row with
    ``right.lo <= left.on < right.hi`` (half-open, the SQL
    ``v >= lo AND v < hi`` convention; overlapping intervals fan out).
    Optional ``by`` adds an equality key on top of the range predicate.
    ``how``: inner | left. Numeric and timestamp domains supported.

    Scale design: the right side is a BROADCAST dimension table —
    ``ray.put`` once, the stabbing index built once per actor in
    ``__init__``, every batch matched with one vectorized searchsorted +
    CSR gather (no shuffle at all; the left side streams). This is the
    right shape whenever the interval set fits a worker's heap (subnet
    tables, price bands, validity windows, SLA tiers — dimension-sized
    by nature). For a genuinely large-large range join use
    :func:`range_join_partitioned` — it partitions the value DOMAIN
    (quantile buckets over the left side, right intervals replicated
    into every bucket they overlap, the same stabbing join per bucket
    over the exchange fabric); ``max_broadcast_rows`` raises rather
    than silently degrading so the caller picks deliberately.

    Reference analog: the closest construct is context-table enrichment
    with subnet keys (libtenzir/builtins/contexts/lookup_table.cpp's
    subnet mode); a general numeric/temporal range join is an engine
    extension.
    """
    import ray
    import ray.data

    if how not in ("inner", "left"):
        raise ValueError(f"range_join: how must be inner|left, got {how!r}")
    rtbl = right
    if not isinstance(rtbl, pa.Table):
        tables = ray.get(rtbl.to_arrow_refs())
        rtbl = (pa.concat_tables(tables, promote_options="permissive")
                if tables else _arrow_schema(right.schema()).empty_table())
    if rtbl.num_rows > max_broadcast_rows:
        raise ValueError(
            f"range_join: right side has {rtbl.num_rows} rows (> "
            f"{max_broadcast_rows}); broadcast interval joins need a "
            "dimension-sized right side — bucket the domain (see docstring) "
            "or raise max_broadcast_rows if the workers have the heap"
        )
    lcols = set(left.schema().names)
    rename_r = {c: c + right_suffix if c in lcols else c
                for c in rtbl.column_names}
    right_ref = ray.put(rtbl)
    return left.map_batches(
        _RangeJoiner,
        fn_constructor_args=(right_ref, on, lo, hi, how, by, rename_r),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency or (1, 8),
    )


_RB = "__rb__"  # range-bucket column threaded through the exchange


class _RangeJoinReducer:
    """One task per coalesced set of exchange buckets: for each range
    bucket present, build a stabbing index from ITS interval replicas
    and match ITS left rows — replicas are tagged with the bucket they
    serve, so a task holding several buckets never double-matches."""

    def __init__(self, read_l, read_r, on, lo, hi, how, out_schema):
        self.read_l = read_l
        self.read_r = read_r
        self.on = on
        self.lo = lo
        self.hi = hi
        self.how = how
        self.out_schema = out_schema

    def _assemble(self, lsub: pa.Table, rsub: pa.Table) -> pa.Table:
        rlo = _as_num(rsub.column(self.lo)) if rsub.num_rows else np.zeros(0)
        rhi = _as_num(rsub.column(self.hi)) if rsub.num_rows else np.zeros(0)
        ok = _valid_intervals(rlo, rhi)
        if not ok.all():
            rsub = rsub.filter(pa.array(ok))
            rlo, rhi = rlo[ok], rhi[ok]
        v = _as_num(lsub.column(self.on)) if lsub.num_rows else np.zeros(0)
        li, ri = _StabbingIndex(rlo, rhi).match(v) if rsub.num_rows else (
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        out = lsub.take(pa.array(li))
        rtake = rsub.take(pa.array(ri))
        for name, col in zip(rtake.column_names, rtake.columns):
            out = out.append_column(name, col)
        if self.how == "left":
            matched = np.zeros(lsub.num_rows, dtype=bool)
            if len(li):
                matched[li] = True
            if not matched.all():
                rest = lsub.filter(pa.array(~matched))
                for f in rsub.schema:
                    rest = rest.append_column(
                        f.name, pa.nulls(rest.num_rows, f.type))
                out = pa.concat_tables([out, rest])
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        bl = _task_buckets(batch)
        ltbl = self.read_l(bl)
        rtbl = self.read_r(bl)
        lrb = ltbl.column(_RB).to_numpy(zero_copy_only=False)
        rrb = (rtbl.column(_RB).to_numpy(zero_copy_only=False)
               if rtbl.num_rows else np.zeros(0, dtype=lrb.dtype))
        pieces = []
        for rb in np.unique(lrb):
            piece = self._assemble(
                ltbl.filter(pa.array(lrb == rb)),
                rtbl.filter(pa.array(rrb == rb)),
            )
            if piece.num_rows:
                pieces.append(piece.select(self.out_schema.names))
        if not pieces:
            return self.out_schema.empty_table()
        out = pa.concat_tables(pieces)
        # normalize null-padded column types across tasks
        return out.cast(self.out_schema).combine_chunks()


def range_join_partitioned(left, right, on: str, lo: str = "lo",
                           hi: str = "hi", how: str = "inner",
                           right_suffix: str = "_r",
                           num_buckets: int | None = None,
                           sample_quantiles: int = 33,
                           batch_size: int | None = 65536,
                           target_task_bytes: int = 128 << 20,
                           transport: str | None = None,
                           staging_root: str | None = None):
    """Large-large interval join: partition the VALUE DOMAIN instead of
    broadcasting the right side (the scale path :func:`range_join`'s
    docstring names). Bucket boundaries come from per-block quantile
    grids of ``left.on`` (balanced left volume per bucket by
    construction); every right interval replicates into each bucket its
    span overlaps; both sides then ride the standard hash exchange on
    the bucket id, and each reduce task runs the same vectorized
    stabbing join per bucket. Replication factor = interval span /
    bucket width — bounded for dimension-like spans; a single interval
    covering the whole domain replicates everywhere (that side belongs
    in :func:`range_join`'s broadcast instead).

    ``how``: inner | left. Partitioning invariant: every left row lands
    in exactly ONE bucket, so left-outer padding stays per-bucket-local
    and no dedup pass is needed.

    Single-pass: the left pipeline is materialized ONCE up front (the
    exchange is a full materialization barrier anyway — stage 1 writes
    every row to staging before any reduce runs), then both the quantile
    grid and the exchange read the cached blocks; upstream transforms
    never re-execute (VERDICT r3 #4). The grid pass touches only the
    ``on`` column of the cached blocks.
    """
    import ray.data

    if how not in ("inner", "left"):
        raise ValueError(f"range_join_partitioned: how must be inner|left")

    # one execution of the left pipeline; the grid + exchange passes
    # below read these cached blocks (object store, spillable)
    left = left.materialize()
    lschema = _dataset_arrow_schema(left)
    rschema = _dataset_arrow_schema(right)
    lcols = set(lschema.names)
    rename_r = {c: c + right_suffix if c in lcols else c
                for c in rschema.names}
    lo_r, hi_r = rename_r.get(lo, lo), rename_r.get(hi, hi)

    # ---- bucket boundaries from per-block quantile grids of left.on ----
    def _grid(b: pa.Table) -> pa.Table:
        v = _as_num(b.column(on)).astype(np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return pa.table({"q": pa.array([], pa.float64())})
        qs = np.quantile(v, np.linspace(0.0, 1.0, sample_quantiles))
        return pa.table({"q": pa.array(qs)})

    if not lcols:
        # zero-block left (no schema): the join output is empty with
        # the renamed right columns — return it instead of crashing
        empty = pa.schema(
            [pa.field(rename_r.get(f.name, f.name), f.type)
             for f in rschema]
        ).empty_table()
        return ray.data.from_arrow(empty)
    gdf = left.select_columns([on]).map_batches(
        _grid, batch_format="pyarrow").to_pandas()
    grid = (gdf["q"].to_numpy() if "q" in gdf.columns
            else np.zeros(0, dtype=np.float64))
    B = num_buckets or default_buckets()
    if len(grid) == 0:
        boundaries = np.zeros(0, dtype=np.float64)
        B = 1
    else:
        boundaries = np.unique(
            np.quantile(grid, np.linspace(0.0, 1.0, B + 1))[1:-1]
        )

    def _tag_left(b: pa.Table) -> pa.Table:
        v = _as_num(b.column(on)).astype(np.float64)
        rb = np.searchsorted(boundaries, v, side="right").astype(np.int32)
        return b.append_column(_RB, pa.array(rb))

    def _tag_right(b: pa.Table) -> pa.Table:
        b = b.rename_columns([rename_r.get(c, c) for c in b.column_names])
        rlo = _as_num(b.column(lo_r)).astype(np.float64)
        rhi = _as_num(b.column(hi_r)).astype(np.float64)
        ok = _valid_intervals(rlo, rhi)
        if not ok.all():
            b = b.filter(pa.array(ok))
            rlo, rhi = rlo[ok], rhi[ok]
        b0 = np.searchsorted(boundaries, rlo, side="right").astype(np.int64)
        b1 = np.searchsorted(boundaries, rhi, side="left").astype(np.int64)
        reps = b1 - b0 + 1  # inclusive bucket span of [lo, hi)
        idx = np.repeat(np.arange(b.num_rows, dtype=np.int64), reps)
        rb = (np.repeat(b0, reps) + _within_group_arange(reps)).astype(np.int32)
        out = b.take(pa.array(idx))
        return out.append_column(_RB, pa.array(rb))

    l_arrow = lschema.append(pa.field(_RB, pa.int32()))
    r_arrow = pa.schema(
        [pa.field(rename_r.get(f.name, f.name), f.type) for f in rschema]
    ).append(pa.field(_RB, pa.int32()))
    out_schema = pa.schema(
        [f for f in l_arrow if f.name != _RB]
        + [f for f in r_arrow if f.name != _RB]
    )

    ex = Exchange("rjoin", transport, staging_root)
    by_range = partial(key_buckets, keys=[_RB])
    lidx, lbytes, _ = ex.run(left, by_range, B, "l", transform=_tag_left,
                             batch_size=batch_size)
    ridx, rbytes, _ = ex.run(right, by_range, B, "r", transform=_tag_right,
                             batch_size=batch_size)
    relevant = set(lidx) & set(ridx) if how == "inner" else set(lidx)
    total = {b: lbytes.get(b, 0) + rbytes.get(b, 0) for b in relevant}
    tasks = coalesce_tasks(list(relevant), total, target_task_bytes)
    reducer = _RangeJoinReducer(
        ex.reader(lidx, l_arrow), ex.reader(ridx, r_arrow),
        on, lo_r, hi_r, how, out_schema,
    )
    if not tasks:
        return ray.data.from_arrow(out_schema.empty_table())
    return ray.data.from_items([{"buckets": t} for t in tasks]).map_batches(
        reducer, batch_format="pyarrow", batch_size=1
    )


class _CrossJoinStage:
    """Per left batch: repeat-left × tile-right, then (optionally) prune
    by the compiled theta condition. The right table travels ONCE via
    ray.put and is read zero-copy by every task."""

    def __init__(self, rtbl_ref, out_names: list[str], condition):
        self.rtbl_ref = rtbl_ref
        self.out_names = out_names
        self.condition = condition
        self._rtbl = None

    __name__ = "_CrossJoinStage"

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        if self._rtbl is None:
            r = self.rtbl_ref
            self._rtbl = r if isinstance(r, pa.Table) else ray.get(r)
        nl, nr = batch.num_rows, self._rtbl.num_rows
        if nl == 0 or nr == 0:
            lt, rt = batch.slice(0, 0), self._rtbl.slice(0, 0)
        else:
            li = np.repeat(np.arange(nl, dtype=np.int64), nr)
            ri = np.tile(np.arange(nr, dtype=np.int64), nl)
            lt, rt = batch.take(pa.array(li)), self._rtbl.take(pa.array(ri))
        combined = pa.table(
            {c: lt.column(i) for i, c in enumerate(lt.column_names)}
            | {c: rt.column(i) for i, c in enumerate(rt.column_names)}
        ).rename_columns(self.out_names)
        if self.condition is not None:
            combined = self.condition.apply(combined)
        return combined.combine_chunks()


def cross_join(left, right, condition: str | None = None,
               right_suffix: str = "_r",
               max_broadcast_bytes: int = 256 << 20,
               batch_size: int | None = 4096):
    """Broadcast cross join (Cartesian product), optionally pruned by a
    theta ``condition`` — the generic inequality/expression join the
    hash/asof/range family can't express (e.g.
    ``"l_quantity > threshold and l_partkey != p_blockkey"``). The
    reference has no cross join; this completes the two-input algebra
    for dimension-style small right sides.

    Scale shape: the RIGHT side must be small — it is materialized once,
    size-gated by ``max_broadcast_bytes``, ``ray.put``-broadcast, and
    every left batch expands to ``len(batch) × len(right)`` rows before
    the condition mask prunes (that expansion is the cost model: keep
    ``batch_size`` small for wide rights). The left streams — no
    shuffle, no driver materialization of the product.

    Overlapping right column names get ``right_suffix``. The condition
    sees post-rename names."""
    import ray

    lschema, rschema = _require_schemas(left, right, "cross_join")
    rename = {c: (c + right_suffix if c in lschema.names else c)
              for c in rschema.names}
    out_names = list(lschema.names) + [rename[c] for c in rschema.names]
    if len(set(out_names)) != len(out_names):
        raise ValueError(
            f"cross_join: output columns collide after suffixing: "
            f"{out_names}")

    rtbl = pa.concat_tables(
        [ray.get(ref) for ref in right.to_arrow_refs()],
        promote_options="default",
    )
    rtbl = rtbl.rename_columns(
        [rename[c] for c in rtbl.column_names]).combine_chunks()
    if rtbl.nbytes > max_broadcast_bytes:
        raise ValueError(
            f"cross_join: right side is {rtbl.nbytes >> 20} MiB — over "
            f"the {max_broadcast_bytes >> 20} MiB broadcast gate. A "
            "large-large Cartesian product is almost always a bug; if "
            "intended, raise max_broadcast_bytes explicitly.")
    compiled = None
    if condition is not None:
        from tenzir_ray.expr import compile_filter

        compiled = compile_filter(condition)
    stage = _CrossJoinStage(ray.put(rtbl), out_names, compiled)
    return left.map_batches(stage, batch_format="pyarrow",
                            batch_size=batch_size)


ship_by_value(sys.modules[__name__])
