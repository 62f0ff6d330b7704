"""Round-4 additions: scale-proof bucketed-group family (exchange-backed
grouped_apply), and regression tests for the VERDICT r3 'next' list."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds(tbl):
    import ray.data

    return ray.data.from_arrow(tbl)


# ---------------------------------------------------------------------------
# grouped_apply: the fixed-64-bucket replacement


def test_grouped_apply_matches_pandas_groupby(ray_session):
    from tenzir_ray.stages.exchange import grouped_apply

    rng = np.random.default_rng(7)
    n = 20_000
    tbl = pa.table({
        "k": rng.integers(0, 2_000, n),
        "v": rng.normal(size=n),
    })

    def _agg(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", as_index=False).agg(
            s=("v", "sum"), c=("v", "size"))

    out = (grouped_apply(_ds(tbl), ["k"], _agg, num_buckets=256)
           .to_pandas().sort_values("k", ignore_index=True))
    exp = (_agg(tbl.to_pandas())
           .sort_values("k", ignore_index=True))
    assert out["k"].tolist() == exp["k"].tolist()
    assert np.allclose(out["s"], exp["s"])
    assert out["c"].tolist() == exp["c"].tolist()


def test_grouped_apply_parallelism_exceeds_64_and_bounds_task_bytes(
        ray_session):
    """VERDICT r3 #1 'done' check: with fine buckets the reduce stage can
    exceed the old 64-way ceiling, and every task's input is bounded by
    MEASURED bytes (a lone hot bucket still gets its own task)."""
    from functools import partial

    from tenzir_ray.stages.exchange import (
        Exchange,
        coalesce_tasks,
        default_buckets,
        key_buckets,
    )

    rng = np.random.default_rng(11)
    n = 60_000
    tbl = pa.table({
        "k": rng.integers(0, 5_000, n),
        "v": rng.integers(0, 1 << 30, n),
    })
    B = 512
    ex = Exchange("t_grp")
    idx, nbytes, rows = ex.run(_ds(tbl), partial(key_buckets, keys=["k"]),
                               B, "g")
    assert sum(rows.values()) == n
    target = 8 << 10  # 8 KiB per task → many tasks
    tasks = coalesce_tasks(list(idx), nbytes, target_bytes=target)
    assert len(tasks) > 64, len(tasks)
    biggest_bucket = max(nbytes.values())
    for t in tasks:
        task_bytes = sum(nbytes[b] for b in t)
        # bound: a task is ≤ target unless it is one oversized bucket
        assert task_bytes <= max(target, biggest_bucket) + target
    # every bucket lands in exactly one task
    flat = [b for t in tasks for b in t]
    assert sorted(flat) == sorted(idx)
    # and the default policy scales with the cluster, not a constant
    assert default_buckets() >= 32


def test_grouped_apply_full_row_key_and_empty(ray_session):
    from tenzir_ray.stages.exchange import grouped_apply

    tbl = pa.table({"a": [1, 1, 2, 2, 1], "b": ["x", "x", "y", "y", "x"]})

    def _distinct(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()

    out = (grouped_apply(_ds(tbl), None, _distinct)
           .to_pandas().sort_values(["a", "b"], ignore_index=True))
    assert out.to_dict("list") == {"a": [1, 2], "b": ["x", "y"]}

    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.string())})
    assert grouped_apply(_ds(empty), None, _distinct).count() == 0


def test_enumerate_global_unbiased_string_edges(ray_session):
    """Sorted high-skew string key: per-block quantile grids keep the
    range buckets balanced (a first-blocks prefix sample saw only the
    low cluster and put all remaining data in one bucket)."""
    import ray.data

    from tenzir_ray.stages import transforms as T

    # sorted + clustered: 20k copies of a LOW key first, then 20k
    # distinct high keys — the old prefix sample saw only "aaaa"
    keys = ["aaaa"] * 20_000 + [f"z{i:08d}" for i in range(20_000)]
    tbl = pa.table({"k": keys, "i": np.arange(40_000, dtype=np.int64)})
    ds = ray.data.from_arrow(tbl).repartition(20)

    edges = T._order_edges(ds, "k", 16)
    assert len(edges) >= 8, edges  # many usable cut points, not 0-1
    # bucket histogram: no range bucket should hold (almost) everything
    # beyond the unavoidable single-value "aaaa" cluster (50% of rows)
    b = np.searchsorted(edges, np.array(keys, dtype=object), side="right")
    _, counts = np.unique(b, return_counts=True)
    assert counts.max() <= 23_000, counts

    out = T.enumerate_global(ds, "k", out="rn").to_pandas()
    got = out.sort_values("rn")["k"].tolist()
    assert got == sorted(keys)
    assert sorted(out["rn"]) == list(range(40_000))


def test_range_join_partitioned_single_left_execution(ray_session, tmp_path):
    """The left pipeline must execute exactly once (VERDICT r3 #4): a
    marker-dropping map stage upstream of the join writes one file per
    invocation — two files would mean the old grid+exchange double
    execution."""
    import ray.data

    from tenzir_ray.stages.join import range_join_partitioned

    marks = tmp_path / "marks"
    marks.mkdir()

    def _mark(b: pa.Table) -> pa.Table:
        import os
        import uuid

        open(os.path.join(str(marks), uuid.uuid4().hex), "w").close()
        return b

    left = ray.data.from_arrow(pa.table({
        "v": np.arange(100, dtype=np.float64),
        "lid": np.arange(100, dtype=np.int64),
    })).repartition(1).map_batches(_mark, batch_format="pyarrow",
                                   batch_size=None)
    right = ray.data.from_arrow(pa.table({
        "lo": [0.0, 50.0], "hi": [10.0, 60.0], "tag": ["a", "b"],
    }))
    out = range_join_partitioned(left, right, on="v").to_pandas()
    # correctness: v in [0,10) -> a (10 rows), v in [50,60) -> b (10)
    assert sorted(out["tag"].value_counts().to_dict().items()) == [
        ("a", 10), ("b", 10)]
    n_invocations = len(list(marks.iterdir()))
    assert n_invocations == 1, n_invocations


def test_tql_two_input_joins(ray_session, tmp_path):
    """`right=( ... )` sub-pipeline syntax for hash/asof/range joins
    (VERDICT r3 #5) — pure string pipelines end to end."""
    import pyarrow.parquet as pq

    from tenzir_ray.pipelines.tql import parse_pipeline, run_pipeline

    lpath = str(tmp_path / "l.parquet")
    rpath = str(tmp_path / "r.parquet")
    pq.write_table(pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "v": pa.array([10.0, 20.0, 30.0, 40.0]),
    }), lpath)
    pq.write_table(pa.table({
        "k": pa.array([1, 3], pa.int64()),
        "tag": ["a", "c"],
    }), rpath)

    out = run_pipeline(
        f"read_parquet {lpath} "
        f"| hash_join on=k how=inner right=( read_parquet {rpath} "
        "| where tag != 'zzz' ) "
        "| sort k"
    ).to_pandas()
    assert out["k"].tolist() == [1, 3]
    assert out["tag"].tolist() == ["a", "c"]

    # nested pipes inside right=() must not split the outer segment
    steps = parse_pipeline(
        f"hash_join on=k right=( read_parquet {rpath} | where tag == 'a' "
        "| select k, tag ) how=left"
    ).steps
    assert steps[0]["op"] == "hash_join"
    assert steps[0]["how"] == "left"
    assert [s["op"] for s in steps[0]["right"]] == [
        "read_parquet", "where", "select"]

    # range join through the string front-end
    bpath = str(tmp_path / "bands.parquet")
    pq.write_table(pa.table({
        "lo": [0.0, 25.0], "hi": [15.0, 45.0], "band": ["low", "high"],
    }), bpath)
    out = run_pipeline(
        f"read_parquet {lpath} "
        f"| range_join on=v right=( read_parquet {bpath} ) "
        "| sort v"
    ).to_pandas()
    assert out["band"].tolist() == ["low", "high", "high"]

    with pytest.raises(ValueError, match="right"):
        parse_pipeline("hash_join on=k how=inner")


def test_set_get_attributes_roundtrip(ray_session, tmp_path):
    """set_attributes/get_attributes parity ops (reference
    builtins/operators/{set,get}_attributes.cpp) through registry + TQL."""
    import pyarrow.parquet as pq

    from tenzir_ray.pipelines.pipeline import Pipeline
    from tenzir_ray.pipelines.tql import run_pipeline
    from tenzir_ray.stages import transforms as T

    p = str(tmp_path / "d.parquet")
    pq.write_table(pa.table({"x": [1, 2, 3]}), p)

    # library surface: metadata rides the batch schema
    import ray.data

    ds = T.set_attributes(ray.data.from_arrow(pa.table({"x": [1]})),
                          owner="sec-team", ttl="30d")
    b = ds.take_batch(1, batch_format="pyarrow")
    assert b.schema.metadata[b"owner"] == b"sec-team"

    # registry (dict pipeline) + TQL roundtrip
    out = Pipeline([
        {"op": "read_parquet", "paths": p},
        {"op": "set_attributes", "attrs": {"owner": "sec-team"}},
        {"op": "get_attributes"},
    ]).run().to_pandas()
    assert dict(zip(out["name"], out["value"]))["owner"] == "sec-team"

    out = run_pipeline(
        f"read_parquet {p} | set_attributes owner=sec ttl=30d "
        "| get_attributes | sort name"
    ).to_pandas()
    assert out["name"].tolist() == ["owner", "ttl"]
    assert out["value"].tolist() == ["sec", "30d"]


def test_tql2_front_end_subset(ray_session, tmp_path):
    """TQL2-flavored statements (reference tql2/parser.cpp subset):
    newline separators, // comments, bare assignments, let bindings,
    from-with-loader-inference, comma-arg invocations, -field sort."""
    import pyarrow.parquet as pq

    from tenzir_ray.pipelines.tql2 import parse_pipeline2, run_pipeline2

    p = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "price": pa.array([10.0, 20.0, 30.0, 40.0]),
        "discount": pa.array([0.0, 0.5, 0.0, 0.1]),
    }), p)

    out = run_pipeline2(f'''
        // load and score
        let $min_rev = 14.0
        from "{p}"
        rev = price * (1 - discount)   /* assignment statement */
        where rev >= $min_rev
        select k, rev
        sort -rev
    ''').to_pandas()
    assert out["k"].tolist() == [4, 3]
    assert out["rev"].tolist() == [36.0, 30.0]

    # summarize with count() sugar + by clause; `|` also separates
    out = run_pipeline2(
        f'from "{p}" | big = price >= 20 '
        "| summarize total=sum(price), n=count() by big | sort big"
    ).to_pandas()
    assert out["n"].tolist() == [1, 3]
    assert out["total"].tolist() == [10.0, 90.0]

    # malformed inputs fail loudly, not silently
    with pytest.raises(ValueError, match="loader"):
        parse_pipeline2('from "plain.xyz"')
    with pytest.raises(ValueError, match="unbound"):
        parse_pipeline2('from "x.parquet"\nwhere k == $nope')


def test_tql2_if_blocks(ray_session, tmp_path):
    """TQL2 `if` statement blocks (parse_if_stmt): predicate routing
    with SQL-null → else, else-if chains, union of branch outputs."""
    import pyarrow.parquet as pq

    from tenzir_ray.pipelines.tql2 import parse_pipeline2, run_pipeline2

    p = str(tmp_path / "t2.parquet")
    pq.write_table(pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "v": pa.array([10.0, None, 30.0, 40.0]),
    }), p)

    out = run_pipeline2(f'''
        from "{p}"
        if v >= 30 {{
            tier = "hot"
        }} else if v >= 5 {{
            tier = "warm"
        }} else {{
            tier = "unknown"   // null v routes here
        }}
        sort k
    ''').to_pandas()
    assert out["tier"].tolist() == ["warm", "unknown", "hot", "hot"]

    # branch sub-pipelines may filter: if without else keeps the
    # complement unchanged
    out2 = run_pipeline2(f'from "{p}"\nif v >= 30 {{ head 1 }}\nsort k'
                         ).to_pandas()
    assert len(out2) == 3  # one of the two hot rows + both others

    # malformed blocks fail loudly
    with pytest.raises(ValueError, match="non-terminated"):
        parse_pipeline2(f'from "{p}"\nif v >= 30 {{ tier = "x"')
    with pytest.raises(ValueError, match="trailer"):
        parse_pipeline2(f'from "{p}"\nif v >= 1 {{ k = 1 }} nonsense')


def test_tql2_match_blocks(ray_session, tmp_path):
    """TQL2 `match` statements (parser.cpp:150 parses the shape; exec
    semantics are the documented desugar: first arm wins, `_`
    catch-all, no-arm rows pass through)."""
    import pyarrow.parquet as pq

    from tenzir_ray.pipelines.tql2 import parse_pipeline2, run_pipeline2

    p = str(tmp_path / "m.parquet")
    pq.write_table(pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "ev": ["click", "view", "buy", "ping"],
    }), p)

    out = run_pipeline2(f'''
        from "{p}"
        match ev {{
            "click", "view" => {{ kind = "browse" }}
            "buy" => {{ kind = "conversion" }}
            _ => {{ kind = "other" }}
        }}
        sort k
    ''').to_pandas()
    assert out["kind"].tolist() == ["browse", "browse", "conversion", "other"]

    # first matching arm wins; no catch-all → pass-through (null kind)
    out2 = run_pipeline2(f'''
        from "{p}"
        match ev {{ "click" => {{ kind = "a" }}, "click" => {{ kind = "b" }} }}
        sort k
    ''').to_pandas()
    assert out2["kind"].tolist()[0] == "a"
    assert out2["kind"].isna().sum() == 3

    with pytest.raises(ValueError, match="last arm"):
        parse_pipeline2(
            f'from "{p}"\nmatch ev {{ _ => {{ k = 1 }} "x" => {{ k = 2 }} }}')
    with pytest.raises(ValueError, match="=>"):
        parse_pipeline2(f'from "{p}"\nmatch ev {{ "x" {{ k = 2 }} }}')


def test_tql2_block_parser_edges(ray_session, tmp_path):
    """Scanner edges the review falsified: regex-literal braces in
    conditions, quoted `=>` in arm values, strings ending in an escaped
    backslash, newline-before-else layout, and identifier-prefixed
    trailers."""
    import pyarrow.parquet as pq

    from tenzir_ray.pipelines.tql2 import parse_pipeline2, run_pipeline2

    p = str(tmp_path / "e.parquet")
    pq.write_table(pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "s": ["abbc", "a=>b", "a\\"],
    }), p)

    # {2} inside a /regex/ condition is NOT a block opener
    out = run_pipeline2(f'''
        from "{p}"
        if s == /ab{{2}}c/ {{ hit = 1 }} else {{ hit = 0 }}
        sort k
    ''').to_pandas()
    assert out["hit"].tolist() == [1, 0, 0]

    # quoted => inside a match arm value
    out2 = run_pipeline2(f'''
        from "{p}"
        match s {{ "a=>b" => {{ kind = "arrow" }} _ => {{ kind = "plain" }} }}
        sort k
    ''').to_pandas()
    assert out2["kind"].tolist() == ["plain", "arrow", "plain"]

    # string literal ending in an escaped backslash closes correctly
    out3 = run_pipeline2(
        f'from "{p}"\nif s == "a\\\\" {{ hit = 1 }} else {{ hit = 0 }}\nsort k'
    ).to_pandas()
    assert out3["hit"].tolist() == [0, 0, 1]

    # newline-before-else (K&R alternative) parses
    out4 = run_pipeline2(f'''
        from "{p}"
        if k == 1 {{
            m = 1
        }}
        else {{
            m = 2
        }}
        sort k
    ''').to_pandas()
    assert out4["m"].tolist() == [1, 2, 2]

    # identifier-prefixed trailer is rejected, not mis-dispatched
    with pytest.raises(ValueError, match="trailer"):
        parse_pipeline2(f'from "{p}"\nif k == 1 {{ m = 1 }} elsewhere')


def test_tql2_if_assignment_branches_vectorize(ray_session, tmp_path):
    """Assignment-only if/match blocks compile to one order-preserving
    CASE kernel (no union, no materialize): row order survives without
    a sort, existing columns overwrite in place, and incompatible
    cross-branch types fail with the column named."""
    import pyarrow.parquet as pq

    from tenzir_ray.pipelines.pipeline import _vectorized_if_fn
    from tenzir_ray.pipelines.tql2 import parse_pipeline2, run_pipeline2

    p = str(tmp_path / "v.parquet")
    pq.write_table(pa.table({
        "k": pa.array(list(range(8)), pa.int64()),
        "v": pa.array([10.0, None, 30.0, 40.0, 1.0, 2.0, 35.0, None]),
    }), p)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    prev = ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True
    try:
        out = run_pipeline2(f'''
            from "{p}"
            if v >= 30 {{ tier = "hot" }} else if v >= 5 {{ tier = "warm" }}
            else {{ tier = "cold" }}
        ''').to_pandas()
    finally:
        ctx.execution_options.preserve_order = prev
    # one row-preserving map stage: under preserve_order the rows come
    # back in file order WITHOUT a sort (the union fallback interleaves
    # whole branches and cannot honor preserve_order)
    assert out["k"].tolist() == list(range(8))
    assert out["tier"].tolist() == ["warm", "cold", "hot", "hot",
                                    "cold", "cold", "hot", "cold"]

    # the compile probe: assignment-only → kernel; other ops → None
    steps = parse_pipeline2(
        f'from "{p}"\nif v >= 30 {{ t = 1 }} else {{ t = 2 }}').steps
    assert _vectorized_if_fn(steps[1]) is not None
    steps2 = parse_pipeline2(f'from "{p}"\nif v >= 30 {{ head 1 }}').steps
    assert _vectorized_if_fn(steps2[1]) is None

    # int-vs-float branches widen; string-vs-int raises with the column
    ok = run_pipeline2(
        f'from "{p}"\nif v >= 30 {{ x = 1 }} else {{ x = 2.5 }}').to_pandas()
    assert ok["x"].tolist()[:4] == [2.5, 2.5, 1.0, 1.0]
    with pytest.raises(Exception, match="incompatible types"):
        # Ray wraps the worker's TypeError in RayTaskError
        run_pipeline2(
            f'from "{p}"\nif v >= 30 {{ x = "s" }} else {{ x = 2 }}'
        ).to_pandas()

    # SEMANTIC bails: sequential-order dependents take the fallback
    # (duplicate target in a branch; expr referencing an assigned col)
    sdup = parse_pipeline2(
        f'from "{p}"\nif v >= 30 {{ a = k + 1\na = a + 1 }}').steps
    assert _vectorized_if_fn(sdup[1]) is None
    sdep = parse_pipeline2(
        f'from "{p}"\nif v >= 30 {{ z = 1\ny = z + 1 }}').steps
    assert _vectorized_if_fn(sdep[1]) is None
    # ...and the fallback produces the sequential result
    seq = run_pipeline2(
        f'from "{p}"\nif v >= 30 {{ z = 1\ny = z + 1 }}\nsort k'
    ).to_pandas()
    hot = seq[seq["v"] >= 30]
    assert hot["z"].tolist() == [1, 1, 1] and hot["y"].tolist() == [2, 2, 2]

    # predicate GUARDS the branch expression (evaluated on the slice):
    # no divide-by-zero from else rows
    import pyarrow.parquet as pq2

    p2 = str(tmp_path / "g.parquet")
    pq2.write_table(pa.table({
        "n": pa.array([10.0, 8.0, 6.0]),
        "d": pa.array([2.0, 0.0, 3.0]),
    }), p2)
    g = run_pipeline2(
        f'from "{p2}"\nif d != 0 {{ r = n / d }} else {{ r = 0 }}\nsort n'
    ).to_pandas()
    assert g.sort_values("n")["r"].tolist() == [2.0, 0.0, 5.0]

    # fully-empty batches keep a stable typed schema (null-typed
    # constants used to hard-crash Arrow's replace_with_mask)
    from tenzir_ray.pipelines.pipeline import _vectorized_if_fn as _vf
    st = parse_pipeline2(
        f'from "{p2}"\nif d != 0 {{ tag = "y" }} else {{ tag = "n" }}').steps
    fe = _vf(st[1])
    et = pa.table({"n": pa.array([], pa.float64()),
                   "d": pa.array([], pa.float64())})
    assert fe(et).schema.field("tag").type == pa.string()


def test_lake_clone_rejects_nested_dest(ray_session, tmp_path):
    from tenzir_ray.cdc.generate import gen_changes
    from tenzir_ray.cdc.lake import LakeTable

    lake = LakeTable(str(tmp_path / "src"), num_partitions=2)
    lake.apply_changes(gen_changes(100, seed=1), epoch_id="e1")
    with pytest.raises(ValueError, match="nest"):
        lake.clone(str(tmp_path / "src" / "backup"))
    with pytest.raises(ValueError, match="nest"):
        LakeTable(str(tmp_path / "src" / "inner"), num_partitions=2)
        lake.clone(str(tmp_path))


def test_read_parquet_filter_on_unprojected_column(ray_session, tmp_path):
    """filter_expr referencing a column OUTSIDE columns= must still work
    (review r4: the bare-schema injection projected it away)."""
    import pyarrow.parquet as pq

    from tenzir_ray.sources.readers import read_parquet

    p = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"a": [1, 2, 3, 4], "b": [10, 20, 30, 40]}), p)
    out = read_parquet(p, columns=["a"], filter_expr="b > 15").to_pandas()
    assert sorted(out["a"]) == [2, 3, 4]
    assert list(out.columns) == ["a"]
    # unfiltered single-file reads still get the metadata-free schema
    b = read_parquet(p, columns=["a"]).take_batch(1, batch_format="pyarrow")
    assert b.schema.metadata is None


def test_read_parquet_residual_filter_on_unprojected_column(
        ray_session, tmp_path):
    """A RESIDUAL conjunct (CIDR membership — not pushdown-able) that
    references an unprojected column must widen the read and drop the
    extra column after filtering (review r4 follow-up: the earlier fix
    only covered pushdown conjuncts)."""
    import pyarrow.parquet as pq

    from tenzir_ray.sources.readers import read_parquet

    p = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({
        "a": [1, 2, 3],
        "src_ip": ["10.0.0.7", "192.168.1.1", "10.9.9.9"],
    }), p)
    out = read_parquet(
        p, columns=["a"], filter_expr="src_ip in 10.0.0.0/8"
    ).to_pandas()
    assert sorted(out["a"]) == [1, 3]
    assert list(out.columns) == ["a"]
    # mixed pushdown + residual, both on unprojected columns
    out2 = read_parquet(
        p, columns=["a"], filter_expr="src_ip in 10.0.0.0/8 and a > 1"
    ).to_pandas()
    assert sorted(out2["a"]) == [3]


def test_tql2_bare_comparison_rejected_loudly():
    from tenzir_ray.pipelines.tql2 import parse_pipeline2

    # not an assignment: rejected loudly at PARSE time (an unknown `x`
    # invocation with a stray `==` argument), never a silent set step
    with pytest.raises(ValueError, match="unexpected argument"):
        parse_pipeline2("x == 1")
    steps = parse_pipeline2("flag = x == 1").steps
    assert steps[0] == {"op": "set", "flag": "x == 1"}


def test_scratch_gc_reclaims_dead_pid_dirs(tmp_path, monkeypatch):
    import os
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entry

    fam = "tenzir_ray_test_scratch"
    # a pid that is PROVABLY dead: fork a child, let it exit, reap it
    # (999999 may be live on hosts with raised kernel.pid_max)
    child = os.fork()
    if child == 0:
        os._exit(0)
    os.waitpid(child, 0)
    dead = f"/tmp/{fam}/{child}-deadbeef"
    os.makedirs(dead, exist_ok=True)
    open(os.path.join(dead, "junk"), "w").close()
    alive = f"/tmp/{fam}/{os.getpid()}-aaaaaaaa"
    os.makedirs(alive, exist_ok=True)
    huge = f"/tmp/{fam}/99999999999999-x"  # beyond C-int pid range:
    os.makedirs(huge, exist_ok=True)       # os.kill would OverflowError
    entry._scratch_gc_dead(fam)
    assert not os.path.exists(dead)      # dead pid swept
    assert not os.path.exists(huge)      # impossible pid swept, no crash
    assert os.path.exists(alive)         # own pid kept
    import shutil

    shutil.rmtree(f"/tmp/{fam}", ignore_errors=True)


def test_hash_split_deterministic_and_sql_parity(ray_session):
    import duckdb
    import ray.data

    from tenzir_ray.stages.splits import hash_split

    tbl = pa.table({"doc_id": pa.array(np.arange(5000), pa.int64())})
    out = hash_split(ray.data.from_arrow(tbl), key="doc_id",
                     fractions={"train": 0.75, "val": 0.125,
                                "test": 0.125}).to_pandas()
    # deterministic: a re-run with the same fractions assigns every key
    # identically
    out2 = hash_split(ray.data.from_arrow(tbl), key="doc_id",
                      fractions={"train": 0.75, "val": 0.125,
                                 "test": 0.125}).to_pandas()
    m = out.set_index("doc_id")["split"]
    assert m.sort_index().tolist() == out2.set_index(
        "doc_id")["split"].sort_index().tolist()
    # SQL parity (Knuth hash arithmetic)
    exp = duckdb.sql(
        "SELECT k AS doc_id, CASE WHEN f < 0.75 THEN 'train' "
        "WHEN f < 0.875 THEN 'val' ELSE 'test' END AS split FROM ("
        "SELECT UNNEST(range(5000)) k, "
        "((UNNEST(range(5000)) * 2654435761) % 4294967296) / 4294967296.0 f)"
    ).df()
    assert m.sort_index().tolist() == exp.sort_values(
        "doc_id")["split"].tolist()
    # fractions roughly respected
    counts = out["split"].value_counts(normalize=True)
    assert abs(counts["train"] - 0.75) < 0.03

    # string keys: md5 prefix path, also SQL-reproducible
    st = pa.table({"k": [f"doc-{i}" for i in range(500)]})
    got = hash_split(ray.data.from_arrow(st), key="k",
                     fractions={"a": 0.5, "b": 0.5}).to_pandas()
    exp2 = duckdb.sql(
        "SELECT k, CASE WHEN f < 0.5 THEN 'a' ELSE 'b' END AS split FROM ("
        "SELECT 'doc-' || UNNEST(range(500))::VARCHAR AS k, "
        "CAST(('0x' || substr(md5('doc-' || UNNEST(range(500))::VARCHAR), "
        "1, 8)) AS BIGINT) / 4294967296.0 AS f)"
    ).df()
    assert (got.set_index("k")["split"].sort_index().tolist()
            == exp2.set_index("k")["split"].sort_index().tolist())


def test_decontaminate_patterns_and_dataset_blocklist(ray_session):
    import ray.data

    from tenzir_ray.stages.splits import decontaminate

    docs = ray.data.from_arrow(pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": ["the quick brown fox", "answer: 42 is final",
                 None, "clean document"],
    }))
    out = decontaminate(docs, ["answer: 42", "zebra"]).to_pandas()
    assert sorted(out["doc_id"]) == [1, 3, 4]  # null text is NOT contaminated
    audit = decontaminate(docs, ["answer: 42"], invert=True).to_pandas()
    assert audit["doc_id"].tolist() == [2]
    # blocklist as a single-column Dataset
    bl = ray.data.from_arrow(pa.table({"phrase": ["brown fox"]}))
    out2 = decontaminate(docs, bl).to_pandas()
    assert sorted(out2["doc_id"]) == [2, 3, 4]


def test_repetition_score_and_ngram_counts(ray_session):
    import ray.data

    from tenzir_ray.stages.text import ngram_counts, repetition_score

    docs = ray.data.from_arrow(pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": ["a b c d", "a a a a", "x y x y", None],
    }))
    out = (repetition_score(docs).to_pandas()
           .set_index("doc_id")["rep_ratio"])
    assert out[1] == 0.0
    assert out[2] == 0.75
    assert out[3] == 0.5
    assert out[4] == 0.0

    # bigrams never cross documents; counts sum globally
    bg = ngram_counts(docs, n=2).to_pandas().set_index("ngram")["count"]
    assert bg["a a"] == 3
    assert bg["x y"] == 2
    assert bg["y x"] == 1
    assert "d a" not in bg.index  # doc boundary
    # trigram + min_count tail filter
    tg = ngram_counts(docs, n=3, min_count=2).to_pandas()
    assert tg.set_index("ngram")["count"].to_dict() == {"a a a": 2}


# ---------------------------------------------------------------------------
# ftp connector + smtp email sink (loopback servers, stdlib only)


class _MiniFtpServer:
    """Just enough RFC 959 for ftplib's login + TYPE I + PASV +
    RETR/STOR: a dict-backed loopback FTP server."""

    def __init__(self):
        import socket
        import threading

        self.files: dict[str, bytes] = {}
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(2)
        self.port = self.sock.getsockname()[1]
        self.t = threading.Thread(target=self._serve, daemon=True)
        self.t.start()

    def _serve(self):
        import socket

        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            f = conn.makefile("rwb")

            def send(line):
                f.write(line.encode() + b"\r\n")
                f.flush()

            send("220 mini ftp")
            data_listener = None
            while True:
                raw = f.readline()
                if not raw:
                    break
                cmd, _, arg = raw.decode().strip().partition(" ")
                cmd = cmd.upper()
                if cmd == "USER":
                    send("331 need password")
                elif cmd == "PASS":
                    send("230 logged in")
                elif cmd in ("TYPE", "NOOP"):
                    send("200 ok")
                elif cmd == "PASV":
                    data_listener = socket.socket()
                    data_listener.bind(("127.0.0.1", 0))
                    data_listener.listen(1)
                    p = data_listener.getsockname()[1]
                    send(f"227 entering passive (127,0,0,1,{p >> 8},{p & 255})")
                elif cmd == "RETR":
                    body = self.files.get(arg)
                    if body is None:
                        send("550 no such file")
                        continue
                    send("150 opening data")
                    d, _ = data_listener.accept()
                    d.sendall(body)
                    d.close()
                    send("226 done")
                elif cmd == "STOR":
                    send("150 opening data")
                    d, _ = data_listener.accept()
                    chunks = []
                    while True:
                        b = d.recv(65536)
                        if not b:
                            break
                        chunks.append(b)
                    d.close()
                    self.files[arg] = b"".join(chunks)
                    send("226 done")
                elif cmd == "QUIT":
                    send("221 bye")
                    break
                else:
                    send("502 not implemented")
            conn.close()

    def close(self):
        self.sock.close()


def test_ftp_connector_loopback(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tenzir_ray.sources.remote import ftp_fetch, ftp_store, read_ftp

    srv = _MiniFtpServer()
    try:
        # seed a parquet file on the "server"
        buf = str(tmp_path / "x.parquet")
        pq.write_table(pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]}), buf)
        srv.files["/data/x.parquet"] = open(buf, "rb").read()

        url = f"ftp://u:p@127.0.0.1:{srv.port}/data/x.parquet"
        local = ftp_fetch(url)
        assert open(local, "rb").read() == srv.files["/data/x.parquet"]

        ds = read_ftp(url)
        out = ds.to_pandas().sort_values("a", ignore_index=True)
        assert out["a"].tolist() == [1, 2, 3]

        n = ftp_store(f"ftp://u:p@127.0.0.1:{srv.port}/up/y.bin",
                      b"payload-123")
        assert n == 11 and srv.files["/up/y.bin"] == b"payload-123"
    finally:
        srv.close()


def test_write_email_loopback_smtp(ray_session):
    import asyncore
    import threading
    import warnings

    import ray.data

    from tenzir_ray.sources.remote import write_email

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import smtpd

        inbox = []

        class _Srv(smtpd.SMTPServer):
            def process_message(self, peer, mailfrom, rcpttos, data,
                                **kwargs):
                inbox.append((mailfrom, tuple(rcpttos), data))

        srv = _Srv(("127.0.0.1", 0), None, decode_data=False)
        port = srv.socket.getsockname()[1]
        t = threading.Thread(target=asyncore.loop,
                             kwargs={"timeout": 0.1}, daemon=True)
        t.start()
    try:
        ds = ray.data.from_arrow(pa.table({
            "alert": ["disk-full", "cpu-hot"], "sev": [3, 2]}))
        out = write_email(ds, f"smtp://127.0.0.1:{port}",
                          to="ops@example.com", from_="bot@example.com",
                          subject="alerts", format="ndjson")
        assert out["rows"] == 2
        deadline = 50
        while not inbox and deadline:
            import time

            time.sleep(0.1)
            deadline -= 1
        assert inbox, "no message delivered"
        mailfrom, rcpts, data = inbox[0]
        assert mailfrom == "bot@example.com"
        assert rcpts == ("ops@example.com",)
        assert b"disk-full" in data and b"Subject: alerts" in data
    finally:
        srv.close()


def test_read_nic_live_loopback_capture(ray_session):
    """REAL live capture: bind AF_PACKET on lo, send a UDP datagram to
    127.0.0.1, capture it, and decode it with the standard pcap
    decapsulate stage (schema-compatible by construction)."""
    import socket
    import threading
    import time

    from tenzir_ray.sources.pcap import decapsulate, read_nic

    try:
        probe = socket.socket(socket.AF_PACKET, socket.SOCK_RAW,
                              socket.htons(0x0003))
        probe.close()
    except (PermissionError, OSError):
        pytest.skip("AF_PACKET raw sockets unavailable")

    payload = b"nic-capture-probe-7361"

    def _traffic():
        u = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        for _ in range(20):
            u.sendto(payload, ("127.0.0.1", 19876))
            time.sleep(0.05)
        u.close()

    t = threading.Thread(target=_traffic, daemon=True)
    t.start()
    ds = read_nic("lo", max_packets=40, timeout=5)
    t.join(5)
    df = ds.to_pandas()
    assert len(df) > 0
    mine = df[df["data"].apply(lambda b: payload in b)]
    assert len(mine) > 0, "did not capture our own datagram"
    dec = decapsulate(ds).to_pandas()
    hit = dec[(dec["dst_port"] == 19876) & (dec["ip_proto"] == 17)]
    assert len(hit) > 0
    assert (hit["dst_ip"] == "127.0.0.1").all()


# ---------------------------------------------------------------------------
# Fluentd Forward protocol + msgpack subset


def test_msgpack_subset_roundtrip():
    from tenzir_ray.sources.fluent import EventTime, pack, unpack

    cases = [
        None, True, False, 0, 1, 127, 128, 255, 65535, 1 << 40,
        -1, -32, -33, -129, -(1 << 20), -(1 << 40),
        3.14159, "", "hi", "x" * 300, b"\x00\xff" * 200,
        [1, "two", [3, None]], {"k": 1, "nested": {"a": [True]}},
    ]
    for c in cases:
        assert unpack(pack(c)) == c, c
    t = EventTime(1700000000, 123456789)
    assert unpack(pack(t)) == t


def test_fluent_forward_all_modes(ray_session):
    import threading

    from tenzir_ray.sources.fluent import (
        EventTime,
        read_fluent_forward,
        write_fluent_forward,
    )

    for mode in ("message", "forward", "packed_forward"):
        got: dict = {}
        port_box: list[int] = []
        ev = threading.Event()

        def _ready(p):
            port_box.append(p)
            ev.set()

        def _listen():
            got["ds"] = read_fluent_forward(
                max_events=3, timeout=10, _ready=_ready)

        t = threading.Thread(target=_listen, daemon=True)
        t.start()
        assert ev.wait(10)
        events = [(EventTime(100, 0), {"msg": "a", "n": 1}),
                  (1650000000, {"msg": "b", "n": 2}),
                  (EventTime(100, 500), {"msg": "c", "n": 3})]
        n = write_fluent_forward(events, "127.0.0.1", port_box[0],
                                 tag="app.logs", mode=mode,
                                 require_ack=True)
        t.join(15)
        assert n == 3
        df = got["ds"].to_pandas()
        assert df["tag"].tolist() == ["app.logs"] * 3, mode
        assert [r for r in df["record"]] == [
            '{"msg": "a", "n": 1}', '{"msg": "b", "n": 2}',
            '{"msg": "c", "n": 3}'], mode
        assert abs(df["time"].iloc[1] - 1650000000.0) < 1e-6


# ---------------------------------------------------------------------------
# AMQP 0-9-1 wire client (spec-implemented; broker double speaks the
# server half of the same grammar)


class _MiniAmqpBroker:
    """In-process AMQP 0-9-1 broker double: negotiates a connection,
    declares dict-backed queues, stores published content, answers
    Basic.Get. Enough server grammar to exercise every client path."""

    def __init__(self):
        import socket
        import threading

        self.queues: dict[str, list[bytes]] = {}
        self.auth: list[bytes] = []
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(2)
        self.port = self.sock.getsockname()[1]
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        import struct

        from tenzir_ray.sources.amqp import (
            _Reader,
            _longstr,
            _shortstr,
            method_payload,
            read_frame,
            write_frame,
        )

        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            try:
                assert conn.recv(8) == b"AMQP\x00\x00\x09\x01"
                write_frame(conn, 1, 0, method_payload(
                    10, 10, bytes([0, 9]) + struct.pack(">I", 0)
                    + _longstr(b"PLAIN") + _longstr(b"en_US")))
                r = _Reader(read_frame(conn)[2])
                assert (r.u16(), r.u16()) == (10, 11)
                r.u32()  # empty client-properties table
                assert r.shortstr() == "PLAIN"
                self.auth.append(r.longstr())
                write_frame(conn, 1, 0, method_payload(
                    10, 30, struct.pack(">HIH", 1, 4096, 0)))
                r = _Reader(read_frame(conn)[2])
                assert (r.u16(), r.u16()) == (10, 31)
                r = _Reader(read_frame(conn)[2])
                assert (r.u16(), r.u16()) == (10, 40)
                write_frame(conn, 1, 0, method_payload(10, 41, b"\x00"))
                r = _Reader(read_frame(conn)[2])
                assert (r.u16(), r.u16()) == (20, 10)
                write_frame(conn, 1, 1, method_payload(
                    20, 11, struct.pack(">I", 0)))
                self._session(conn)
            except Exception:
                pass
            finally:
                conn.close()

    def _session(self, conn):
        import struct

        from tenzir_ray.sources.amqp import (
            _Reader,
            _shortstr,
            method_payload,
            read_frame,
            write_frame,
        )

        while True:
            ftype, _ch, payload = read_frame(conn)
            if ftype != 1:
                continue
            r = _Reader(payload)
            c, m = r.u16(), r.u16()
            if (c, m) == (50, 10):  # Queue.Declare
                r.u16()
                q = r.shortstr()
                self.queues.setdefault(q, [])
                write_frame(conn, 1, 1, method_payload(
                    50, 11, _shortstr(q) + struct.pack(">II", 0, 0)))
            elif (c, m) == (60, 40):  # Basic.Publish
                r.u16()
                r.shortstr()          # exchange
                rk = r.shortstr()     # routing key = queue
                _ft, _c2, hp = read_frame(conn)
                hr = _Reader(hp)
                hr.u16(); hr.u16()
                size = hr.u64()
                hr.u16()  # property flags
                body = b""
                while len(body) < size:
                    _ft, _c2, bp = read_frame(conn)
                    body += bp
                self.queues.setdefault(rk, []).append(body)
            elif (c, m) == (60, 70):  # Basic.Get
                r.u16()
                q = r.shortstr()
                pend = self.queues.get(q, [])
                if not pend:
                    write_frame(conn, 1, 1, method_payload(
                        60, 72, _shortstr("")))
                    continue
                body = pend.pop(0)
                getok = (struct.pack(">Q", 1) + b"\x00"
                         + _shortstr("") + _shortstr(q)
                         + struct.pack(">I", len(pend)))
                write_frame(conn, 1, 1, method_payload(60, 71, getok))
                write_frame(conn, 2, 1,
                            struct.pack(">HHQH", 60, 0, len(body), 0))
                cap = 4096 - 8
                for i in range(0, len(body), cap):
                    write_frame(conn, 3, 1, body[i:i + cap])

    def close(self):
        self.sock.close()


def test_amqp_publish_get_roundtrip(ray_session):
    import ray.data

    from tenzir_ray.sources.amqp import AmqpClient, read_amqp, write_amqp

    broker = _MiniAmqpBroker()
    try:
        cli = AmqpClient("127.0.0.1", broker.port, user="u", password="p")
        cli.queue_declare("chat")
        cli.publish("chat", b"hello")
        big = bytes(range(256)) * 40  # 10240 B > negotiated frame-max 4096
        cli.publish("chat", big)
        assert cli.get("chat") == b"hello"
        assert cli.get("chat") == big  # multi-frame body reassembled
        assert cli.get("chat") is None  # Get-Empty
        cli.close()
        assert broker.auth[0] == b"\x00u\x00p"  # PLAIN credentials framing

        # Dataset glue both ways
        src = ray.data.from_arrow(pa.table({"data": [b"m1", b"m2"]}))
        assert write_amqp(src, "127.0.0.1", "bulk", port=broker.port) == 2
        got = read_amqp("127.0.0.1", "bulk", max_messages=10,
                        port=broker.port)
        assert sorted(got.to_pandas()["data"]) == [b"m1", b"m2"]
    finally:
        broker.close()


# ---------------------------------------------------------------------------
# ZMTP 3.0 wire protocol (spec-implemented, stdlib sockets)


def test_zmtp_push_pull_multipart_and_long_frames():
    import threading

    from tenzir_ray.sources.zmtp import ZmqListener, zmq_connect

    listener = ZmqListener("tcp://127.0.0.1:0", "PULL")
    got: list[list[bytes]] = []

    def _serve():
        peer = listener.accept(timeout=10)
        got.append(peer.recv_multipart())
        got.append(peer.recv_multipart())
        peer.close()

    t = threading.Thread(target=_serve, daemon=True)
    t.start()
    push = zmq_connect(f"tcp://127.0.0.1:{listener.port}", "PUSH")
    push.send_multipart([b"hdr", b"x" * 300])  # >255 -> LONG frame
    push.send(b"single")
    t.join(10)
    push.close()
    listener.close()
    assert got[0] == [b"hdr", b"x" * 300]
    assert got[1] == [b"single"]


def test_zmtp_pub_sub_topic_filtering():
    import threading

    from tenzir_ray.sources.zmtp import ZmqListener, zmq_connect

    listener = ZmqListener("tcp://127.0.0.1:0", "PUB")
    delivered: list[bool] = []

    def _serve():
        pub = listener.accept(timeout=10)
        pub.poll_subscriptions(timeout=1.0)
        delivered.append(pub.publish([b"alerts.disk", b"full"]))
        delivered.append(pub.publish([b"metrics.cpu", b"90"]))
        pub.close()

    t = threading.Thread(target=_serve, daemon=True)
    t.start()
    sub = zmq_connect(f"tcp://127.0.0.1:{listener.port}", "SUB")
    sub.subscribe(b"alerts.")
    msg = sub.recv_multipart()
    t.join(10)
    sub.close()
    listener.close()
    assert msg == [b"alerts.disk", b"full"]
    assert delivered == [True, False]  # metrics.* filtered at the PUB


def test_zmtp_socket_type_compat_enforced():
    import threading

    import pytest as _p

    from tenzir_ray.sources.zmtp import ZmqListener, zmq_connect

    listener = ZmqListener("tcp://127.0.0.1:0", "PULL")
    err: list[Exception] = []

    def _serve():
        try:
            listener.accept(timeout=10)
        except Exception as e:
            err.append(e)

    t = threading.Thread(target=_serve, daemon=True)
    t.start()
    with _p.raises(ConnectionError, match="cannot talk"):
        zmq_connect(f"tcp://127.0.0.1:{listener.port}", "SUB")
    t.join(10)
    listener.close()


def test_zmq_dataset_glue(ray_session):
    import threading

    import ray.data

    from tenzir_ray.sources.zmtp import read_zmq_pull, write_zmq_push

    # PULL source side binds; PUSH sink connects and drains a Dataset
    result: dict = {}

    def _pull():
        result["ds"] = read_zmq_pull("tcp://127.0.0.1:15999",
                                     max_messages=3, timeout=15)

    t = threading.Thread(target=_pull, daemon=True)
    t.start()
    import time

    time.sleep(0.3)  # let the listener bind
    src = ray.data.from_arrow(pa.table({
        "data": [b"r1", b"r2", b"r3"]}))
    n = write_zmq_push(src, "tcp://127.0.0.1:15999")
    t.join(15)
    assert n == 3
    out = result["ds"].to_pandas()
    assert sorted(out["data"]) == [b"r1", b"r2", b"r3"]


# ---------------------------------------------------------------------------
# wire-protocol broker adapters (typed, conformance-checked vs FileBroker)


def test_wire_adapters_conform_to_filebroker_interface():
    import inspect

    from tenzir_ray.cdc.broker import FileBroker
    from tenzir_ray.cdc.wire import (
        BrokerProtocol,
        KafkaBroker,
        SqsBroker,
        SqsFifoBroker,
    )

    methods = ("create_topic", "partitions", "end_offsets",
               "produce_many", "produce", "read")
    ref = {m: [p for p in inspect.signature(
        getattr(FileBroker, m)).parameters if p != "self"]
        for m in methods}
    for cls in (KafkaBroker, SqsBroker, SqsFifoBroker):
        for m in methods:
            got = [p for p in inspect.signature(
                getattr(cls, m)).parameters if p != "self"]
            assert got == ref[m], (cls.__name__, m, got, ref[m])
    # FileBroker itself satisfies the protocol structurally
    assert isinstance(FileBroker("/tmp/_proto_probe"), BrokerProtocol)


def test_kafka_broker_fails_fast_without_client_lib():
    from tenzir_ray.cdc.wire import KafkaBroker

    try:
        import confluent_kafka  # noqa: F401

        pytest.skip("confluent_kafka present")
    except ImportError:
        pass
    with pytest.raises(RuntimeError, match="confluent_kafka"):
        KafkaBroker("localhost:9092")


class _FakeSqsClient:
    """Dict-backed double of the boto3 SQS client surface the adapter
    uses — validates the adapter's call shapes without a network."""

    def __init__(self):
        self.queues: dict[str, list[str]] = {}

    def create_queue(self, QueueName):
        self.queues.setdefault(QueueName, [])
        return {"QueueUrl": f"https://sqs.fake/{QueueName}"}

    def get_queue_url(self, QueueName):
        assert QueueName in self.queues, QueueName
        return {"QueueUrl": f"https://sqs.fake/{QueueName}"}

    def list_queues(self, QueueNamePrefix):
        return {"QueueUrls": [f"https://sqs.fake/{n}"
                              for n in sorted(self.queues)
                              if n.startswith(QueueNamePrefix)]}

    def _name(self, url):
        return url.rsplit("/", 1)[-1]

    def get_queue_attributes(self, QueueUrl, AttributeNames):
        n = len(self.queues[self._name(QueueUrl)])
        return {"Attributes": {"ApproximateNumberOfMessages": str(n)}}

    def send_message_batch(self, QueueUrl, Entries):
        assert len(Entries) <= 10  # the real API cap
        q = self.queues[self._name(QueueUrl)]
        q.extend(e["MessageBody"] for e in Entries)
        return {"Successful": [{"Id": e["Id"]} for e in Entries]}

    def receive_message(self, QueueUrl, MaxNumberOfMessages, WaitTimeSeconds):
        q = self.queues[self._name(QueueUrl)]
        take = q[:MaxNumberOfMessages]
        return {"Messages": [
            {"Body": b, "ReceiptHandle": f"{self._name(QueueUrl)}::{i}"}
            for i, b in enumerate(take)]}

    def delete_message(self, QueueUrl, ReceiptHandle):
        self.queues[self._name(QueueUrl)].pop(0)


def test_sqs_broker_against_fake_client():
    from tenzir_ray.cdc.wire import SqsBroker

    b = SqsBroker(client=_FakeSqsClient())
    b.create_topic("chat", partitions=2)
    assert b.partitions("chat") == [0, 1]
    ends = b.produce_many("chat", [b"m0", b"m1", b"m2", b"m3"],
                          keys=[b"k0", b"k0", b"k1", b"k1"])
    assert sum(b.end_offsets("chat").values()) == 4
    assert set(ends) <= {0, 1}
    # keyed messages co-partition
    got = []
    for p in (0, 1):
        recs = b.read("chat", p, 0)
        vals = [v for (_o, _k, v) in recs]
        got.extend(vals)
        # offsets are monotone synthetic counters
        assert [o for (o, _k, _v) in recs] == list(range(len(recs)))
    assert sorted(got) == [b"m0", b"m1", b"m2", b"m3"]
    # destructive consume: queues drained, end offsets stay (counters)
    assert all(len(b.read("chat", p, 0)) == 0 for p in (0, 1))
    assert sum(b.end_offsets("chat").values()) == 4


def test_ivf_split_hot_lists_bounded_maintenance(ray_session, tmp_path):
    """split_hot_lists (VERDICT r3 #9): only hot lists are rewritten —
    cold list files keep their inodes (hardlinked, same stat signature),
    nlist grows, the index stays fully searchable."""
    import os

    import ray.data

    from tenzir_ray.stages.similarity import IvfIndex

    rng = np.random.default_rng(5)
    dim = 16
    # 4 well-separated clusters -> 4 lists; then a skewed append floods
    # ONE cluster so its list becomes hot
    centers = rng.normal(size=(4, dim)) * 10
    base = np.concatenate(
        [centers[i] + rng.normal(scale=0.1, size=(50, dim))
         for i in range(4)])
    tbl = pa.table({
        "vec_id": pa.array(np.arange(len(base)), pa.int64()),
        "embedding": pa.array(list(base.astype(np.float32))),
    })
    root = str(tmp_path / "ivf")
    idx = IvfIndex.build(ray.data.from_arrow(tbl), root, nlist=4,
                         train_sample=200, seed=3)

    hot = centers[0] + rng.normal(scale=0.3, size=(1200, dim))
    idx.append(ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(1000, 1000 + len(hot)), pa.int64()),
        "embedding": pa.array(list(hot.astype(np.float32))),
    })))
    assert idx.skew() > 2.0

    layout_before = idx._scan_lists(root, idx.meta["lists_dir"])
    hot_rows = {j: i["rows"] for j, i in layout_before.items()}
    hot_id = max(hot_rows, key=hot_rows.get)
    cold_stats = {
        (j, os.path.basename(f)):
            (os.stat(f).st_ino, os.stat(f).st_mtime_ns, os.stat(f).st_size)
        for j, info in layout_before.items() if j != hot_id
        for f in info["files"]
    }

    out = idx.split_hot_lists(hot_factor=2.0, train_sample=400, seed=3)
    assert out["split"] is True and hot_id in out["hot_lists"]
    assert out["nlist"] > 4
    assert out["skew_after"] < out["skew_before"]

    # cold files: same inode/mtime/size under the new lists dir
    layout_after = idx._scan_lists(root, idx.meta["lists_dir"])
    after_by_name = {(j, os.path.basename(f)): f
                     for j, info in layout_after.items()
                     for f in info["files"]}
    for key, sig in cold_stats.items():
        nf = after_by_name[key]
        st = os.stat(nf)
        assert (st.st_ino, st.st_mtime_ns, st.st_size) == sig, nf

    # still searchable, exact top-1 on an easy probe, row count kept
    assert idx.meta["num_rows"] == sum(
        i["rows"] for i in layout_after.values()) == len(base) + len(hot)
    q = centers[1:2].astype(np.float32)
    res = idx.search(q, k=1, nprobe=idx.meta["nlist"]).to_pandas()
    true_id = int(np.argmax(
        (q / np.linalg.norm(q)) @ (base / np.linalg.norm(
            base, axis=1, keepdims=True)).T))
    assert int(res["vec_id"].iloc[0]) == true_id

    # a fresh reader sees the swapped version
    idx2 = IvfIndex(root)
    assert idx2.meta["nlist"] == out["nlist"]
    assert len(idx2.centroids) == out["nlist"]


def test_taste_and_unique_over_exchange_high_card(ray_session):
    """taste/unique route over the exchange now; exactness on a key space
    larger than any fixed bucket count."""
    from tenzir_ray.stages import transforms as T

    rng = np.random.default_rng(3)
    n = 30_000
    tbl = pa.table({
        "k": rng.integers(0, 9_000, n),
        "o": np.arange(n, dtype=np.int64),
    })
    out = T.taste(_ds(tbl), 2, by="k", order_by="o").to_pandas()
    exp = (tbl.to_pandas().sort_values("o", kind="mergesort")
           .groupby("k").head(2))
    assert len(out) == len(exp)
    got = out.sort_values(["k", "o"], ignore_index=True)
    want = exp.sort_values(["k", "o"], ignore_index=True)
    assert got["o"].tolist() == want["o"].tolist()

    uq = T.unique(_ds(tbl), by=["k"]).to_pandas()
    assert len(uq) == tbl.to_pandas()["k"].nunique()


def test_msgpack_ext_types_and_corrupt_distinction():
    """fixext1/2/4/16 and ext16/32 decode (opaque (type, body) tuples);
    truncation and corruption raise DISTINCT errors so the forward
    listener can wait for bytes vs fail loudly."""
    import struct

    from tenzir_ray.sources.fluent import (
        EventTime, Unpacker, _Corrupt, _Truncated, unpack,
    )

    assert unpack(b"\xd4\x07Z") == (7, b"Z")                      # fixext1
    assert unpack(b"\xd6\x05ABCD") == (5, b"ABCD")                # fixext4
    assert unpack(b"\xd8\x09" + b"x" * 16) == (9, b"x" * 16)      # fixext16
    assert unpack(b"\xc8\x00\x03\x0213!") == (2, b"13!")          # ext16
    assert unpack(b"\xc9" + struct.pack(">I", 2) + b"\x04ab") == (4, b"ab")
    # ext8 with type 0, 8 bytes is still EventTime
    assert unpack(b"\xd7\x00" + struct.pack(">II", 5, 9)) == EventTime(5, 9)
    import pytest as _pytest
    with _pytest.raises(_Truncated):
        unpack(b"\xd6\x05AB")  # incomplete fixext4
    with _pytest.raises(_Corrupt):
        unpack(b"\xc1")  # 0xc1 is never-used per spec


def test_fluent_ack_peer_close_raises(ray_session):
    """A peer that closes without acking must raise ConnectionError, not
    busy-loop on empty reads."""
    import socket
    import threading

    from tenzir_ray.sources.fluent import EventTime, write_fluent_forward

    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    port = srv.getsockname()[1]

    def _accept_and_close():
        conn, _ = srv.accept()
        conn.recv(65536)
        conn.close()

    t = threading.Thread(target=_accept_and_close, daemon=True)
    t.start()
    with pytest.raises(ConnectionError, match="closed before ack"):
        write_fluent_forward([(EventTime(1, 0), {"a": 1})],
                             "127.0.0.1", port, mode="forward",
                             require_ack=True, timeout=5)
    t.join(5)
    srv.close()


def test_zmq_pull_partial_drain_returns_partial(ray_session):
    """A producer pushing fewer than max_messages then idling must not
    hang the driver past the timeout — the drained prefix is returned."""
    import threading
    import time as _time

    from tenzir_ray.sources.zmtp import read_zmq_pull, zmq_connect

    got: dict = {}

    # pick a free port first (read_zmq_pull has no port-ready callback)
    import socket as _socket

    s = _socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()

    def _listen_fixed():
        got["ds"] = read_zmq_pull(
            f"tcp://127.0.0.1:{port}", max_messages=10, timeout=2.0)

    t = threading.Thread(target=_listen_fixed, daemon=True)
    t.start()
    _time.sleep(0.3)
    push = zmq_connect(f"tcp://127.0.0.1:{port}", "PUSH")
    for i in range(3):
        push.send(f"m{i}".encode())
    t0 = _time.time()
    t.join(15)
    push.close()
    assert not t.is_alive(), "listener hung past its timeout"
    assert _time.time() - t0 < 12
    df = got["ds"].to_pandas()
    assert sorted(bytes(b).decode() for b in df["data"]) == ["m0", "m1", "m2"]


def test_stratified_sample_deterministic_and_capped(ray_session):
    """Hash-rank stratified sampling: exactly n per group (or the whole
    group when smaller), identical output across two runs and across
    different partitionings (encounter order must not matter)."""
    import ray.data

    from tenzir_ray.stages.splits import stratified_sample

    rng = np.random.default_rng(5)
    n_rows = 5_000
    tbl = pa.table({
        "id": np.arange(n_rows, dtype=np.int64),
        "g": rng.choice(["a", "b", "c", "tiny"],
                        p=[0.5, 0.3, 0.199, 0.001], size=n_rows),
    })

    def run(parts):
        ds = ray.data.from_arrow(tbl).repartition(parts)
        return (stratified_sample(ds, by="g", n=7, key="id")
                .to_pandas().sort_values(["g", "id"], ignore_index=True))

    a, b = run(2), run(17)
    assert a.equals(b)  # partitioning-independent
    sizes = a.groupby("g").size().to_dict()
    full = tbl.to_pandas().groupby("g").size().to_dict()
    for g, cnt in sizes.items():
        assert cnt == min(7, full[g]), (g, cnt)


class _FakeSqsFifoClient(_FakeSqsClient):
    """FIFO double: validates FifoQueue creation attributes, requires
    MessageGroupId/MessageDeduplicationId on every entry, and drops
    duplicate dedup ids (AWS's 5-minute window, modeled as forever)."""

    def __init__(self):
        super().__init__()
        self.fifo_queues: set = set()
        self.seen_dedup: dict = {}

    def create_queue(self, QueueName, Attributes=None):
        if QueueName.endswith(".fifo"):
            assert Attributes and Attributes.get("FifoQueue") == "true"
            self.fifo_queues.add(QueueName)
        return super().create_queue(QueueName)

    def send_message_batch(self, QueueUrl, Entries):
        name = self._name(QueueUrl)
        assert name in self.fifo_queues, "FIFO send to non-FIFO queue"
        kept = []
        for e in Entries:
            assert e.get("MessageGroupId"), e
            did = e.get("MessageDeduplicationId")
            assert did, e
            seen = self.seen_dedup.setdefault(name, set())
            if did in seen:
                continue  # deduplicated enqueue
            seen.add(did)
            kept.append(e)
        assert len(Entries) <= 10
        self.queues[name].extend(e["MessageBody"] for e in kept)
        return {"Successful": [{"Id": e["Id"]} for e in Entries]}


def test_sqs_fifo_broker_dedups_retried_produce():
    from tenzir_ray.cdc.wire import SqsFifoBroker

    cli = _FakeSqsFifoClient()
    b = SqsFifoBroker(client=cli)
    b.create_topic("chat", partitions=2)
    assert b.partitions("chat") == [0, 1]
    vals = [b"m0", b"m1", b"m2", b"m3"]
    keys = [b"k0", b"k0", b"k1", b"k1"]
    b.produce_many("chat", vals, keys=keys)
    n1 = sum(len(q) for q in cli.queues.values())
    assert n1 == 4
    # DEFAULT ids are salted per call: a separate call with identical
    # payloads is a NEW set of events and must NOT be deduplicated (a
    # content-only id would silently drop legitimate repeats)
    b.produce_many("chat", vals, keys=keys)
    assert sum(len(q) for q in cli.queues.values()) == 8
    # logical-id hook: same lsn → same id across different calls →
    # cross-call retry dedup (the exactly-once enqueue path)
    b2 = SqsFifoBroker(client=cli,
                       dedup_id_of=lambda i, v: f"lsn-{17 + i}")
    b2.produce_many("chat", [b"x0"], keys=[b"k0"])
    b2.produce_many("chat", [b"x0"], keys=[b"k0"])  # same lsn-17 → dedup
    assert sum(len(q) for q in cli.queues.values()) == 9
    # FIFO order within a partition is arrival order
    p0 = [v for (_o, _k, v) in b.read("chat", 0, 0)]
    p1 = [v for (_o, _k, v) in b.read("chat", 1, 0)]
    assert sorted(p0 + p1) == sorted(vals * 2 + [b"x0"])
    first_two = [v for v in (p0 if b"m0" in p0 else p1)][:2]
    assert first_two == [b"m0", b"m1"]


def test_hash_join_full_and_right_outer(ray_session):
    """Both-side outers vs DuckDB on overlapping key ranges."""
    import duckdb

    from tenzir_ray.stages.join import hash_join

    L = pa.table({"k": [1, 2, 3, 4], "lv": ["a", "b", "c", "d"]})
    R = pa.table({"k": [3, 4, 5, 6], "rv": [30, 40, 50, 60]})
    full = (hash_join(_ds(L), _ds(R), "k", how="full")
            .to_pandas().sort_values("k", ignore_index=True))
    want = duckdb.sql(
        "SELECT coalesce(l.k, r.k) AS k, lv, rv FROM L l "
        "FULL JOIN R r ON l.k = r.k ORDER BY k").df()
    assert full["k"].tolist() == want["k"].tolist()
    assert full["lv"].fillna("-").tolist() == want["lv"].fillna("-").tolist()
    assert full["rv"].fillna(-1).tolist() == want["rv"].fillna(-1).tolist()

    right = (hash_join(_ds(L), _ds(R), "k", how="right")
             .to_pandas().sort_values("k", ignore_index=True))
    assert right["k"].tolist() == [3, 4, 5, 6]
    assert right["lv"].fillna("-").tolist() == ["c", "d", "-", "-"]


def test_window_shift_lag_lead(ray_session):
    import duckdb

    from tenzir_ray.stages.window import window_shift

    rng = np.random.default_rng(3)
    n = 8_000
    T = pa.table({
        "id": np.arange(n, dtype=np.int64),
        "g": rng.integers(0, 50, n),
        "v": rng.normal(size=n),
    })
    lag = (window_shift(_ds(T), by="g", order_by="id", column="v",
                        periods=1, out="pv")
           .to_pandas().sort_values("id", ignore_index=True))
    want = duckdb.sql(
        "SELECT id, g, v, lag(v, 1) OVER (PARTITION BY g ORDER BY id) pv "
        "FROM T ORDER BY id").df()
    assert np.allclose(lag["pv"].fillna(0), want["pv"].fillna(0))
    assert lag["pv"].isna().sum() == 50  # one null per group head

    lead = (window_shift(_ds(T), by="g", order_by="id", column="v",
                         periods=-2)
            .to_pandas().sort_values("id", ignore_index=True))
    wl = duckdb.sql(
        "SELECT id, lead(v, 2) OVER (PARTITION BY g ORDER BY id) lv "
        "FROM T ORDER BY id").df()
    assert "v_lead2" in lead.columns
    assert np.allclose(lead["v_lead2"].fillna(0), wl["lv"].fillna(0))


def test_window_cum_matches_duckdb(ray_session):
    import duckdb

    from tenzir_ray.stages.window import window_cum

    rng = np.random.default_rng(13)
    n = 6_000
    T = pa.table({
        "id": np.arange(n, dtype=np.int64),
        "g": rng.integers(0, 40, n),
        "v": rng.integers(-100, 100, n),
    })
    for fn, sql in (("sum", "sum"), ("min", "min"), ("max", "max"),
                    ("count", "count")):
        got = (window_cum(_ds(T), by="g", order_by="id", column="v", fn=fn)
               .to_pandas().sort_values("id", ignore_index=True))
        want = duckdb.sql(
            f"SELECT id, {sql}(v) OVER (PARTITION BY g ORDER BY id "
            "ROWS UNBOUNDED PRECEDING) w FROM T ORDER BY id").df()
        assert got[f"v_cum{fn}"].astype("int64").tolist() \
            == want["w"].astype("int64").tolist(), fn


def test_pivot_and_melt_roundtrip(ray_session):
    from tenzir_ray.stages.transforms import melt, pivot

    T = pa.table({
        "g": ["a", "a", "b", "b", "b"],
        "k": ["x", "y", "x", "x", "z"],
        "v": pa.array([1, 2, 3, 4, 5], pa.int64()),
    })
    wide = (pivot(_ds(T), by="g", key="k", value="v", agg="sum")
            .to_pandas().sort_values("g", ignore_index=True))
    assert list(wide.columns) == ["g", "x", "y", "z"]
    assert wide.loc[0].fillna(-1).tolist() == ["a", 1, 2, -1]
    assert wide.loc[1].fillna(-1).tolist() == ["b", 7, -1, 5]

    # melt back: absent combinations stay absent after dropping nulls
    long = melt(_ds(pa.Table.from_pandas(wide)), id_vars=["g"],
                value_vars=["x", "y", "z"], var_name="k", value_name="v")
    lp = long.to_pandas().dropna(subset=["v"])
    lp = lp.sort_values(["g", "k"], ignore_index=True)
    assert lp["v"].tolist() == [1.0, 2.0, 3.0 + 4.0, 5.0]


def test_window_rank_methods(ray_session):
    import duckdb

    from tenzir_ray.stages.window import window_rank

    rng = np.random.default_rng(23)
    n = 4_000
    T = pa.table({
        "id": np.arange(n, dtype=np.int64),
        "g": rng.integers(0, 20, n),
        "v": rng.integers(0, 50, n),  # many ties
    })
    for method, sql in (("rank", "rank()"), ("dense", "dense_rank()")):
        got = (window_rank(_ds(T), by="g", order_by="v", method=method,
                           out="r")
               .to_pandas().sort_values("id", ignore_index=True))
        want = duckdb.sql(
            f"SELECT id, {sql} OVER (PARTITION BY g ORDER BY v) r "
            "FROM T ORDER BY id").df()
        assert got["r"].tolist() == want["r"].astype("int64").tolist(), method
    # row_number with a unique order key matches exactly
    got = (window_rank(_ds(T), by="g", order_by="id",
                       method="row_number", out="rn")
           .to_pandas().sort_values("id", ignore_index=True))
    want = duckdb.sql(
        "SELECT id, row_number() OVER (PARTITION BY g ORDER BY id) rn "
        "FROM T ORDER BY id").df()
    assert got["rn"].tolist() == want["rn"].astype("int64").tolist()


def test_window_and_sample_null_group_keys(ray_session):
    """Null partition-key values form their own group (SQL PARTITION BY
    semantics) instead of crashing or silently vanishing."""
    import duckdb

    from tenzir_ray.stages.splits import stratified_sample
    from tenzir_ray.stages.window import window_cum, window_rank

    T = pa.table({
        "id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "g": pa.array(["a", None, "a", None, "b", None], pa.string()),
        "v": pa.array([10, 20, 30, 40, 50, 60], pa.int64()),
    })
    r = (window_rank(_ds(T), by="g", order_by="v", method="rank", out="r")
         .to_pandas().sort_values("id", ignore_index=True))
    want = duckdb.sql(
        "SELECT id, rank() OVER (PARTITION BY g ORDER BY v) r "
        "FROM T ORDER BY id").df()
    assert r["r"].tolist() == want["r"].astype("int64").tolist()

    c = (window_cum(_ds(T), by="g", order_by="id", column="v", fn="count")
         .to_pandas().sort_values("id", ignore_index=True))
    assert c[c["g"].isna()]["v_cumcount"].tolist() == [1, 2, 3]

    s = (stratified_sample(_ds(T), by="g", n=2, key="id")
         .to_pandas())
    assert s["g"].isna().sum() == 2  # null stratum sampled, not dropped


def test_pivot_null_group_row(ray_session):
    from tenzir_ray.stages.transforms import pivot

    T = pa.table({
        "g": pa.array(["a", None, "a", None], pa.string()),
        "k": ["x", "x", "y", "y"],
        "v": pa.array([1, 2, 3, 4], pa.int64()),
    })
    wide = pivot(_ds(T), by="g", key="k", value="v", agg="sum").to_pandas()
    assert len(wide) == 2  # 'a' row and the null-group row
    nullrow = wide[wide["g"].isna()].iloc[0]
    assert nullrow["x"] == 2 and nullrow["y"] == 4


def test_duplicate_spans_string_ids(ray_session):
    import ray.data

    from tenzir_ray.stages import dedup as D

    shared = "the quick brown fox jumps over the lazy dog again" * 2
    docs = pa.table({
        "doc_id": ["uuid-aaa", "uuid-bbb", "uuid-ccc"],
        "text": ["X " + shared, "Y " + shared,
                 "entirely different content with no repeats at all ok"],
    })
    out = (D.duplicate_spans(ray.data.from_arrow(docs), k=40)
           .to_pandas().sort_values("doc_id", ignore_index=True))
    assert out["doc_id"].tolist() == ["uuid-aaa", "uuid-bbb"]
    # the duplicated run includes the identical space before `shared`
    assert (out["dup_chars"] == len(shared) + 1).all()
    clipped = D.clip_duplicate_spans(
        ray.data.from_arrow(docs), k=40).to_pandas()
    m = dict(zip(clipped["doc_id"], clipped["text"]))
    assert m["uuid-aaa"] == "X" and m["uuid-bbb"] == "Y"
    assert m["uuid-ccc"].startswith("entirely")


def test_round_column_ndigits_rejected(ray_session):
    from tenzir_ray.stages import transforms as T

    ds = _ds(pa.table({"x": [1.5], "n": [2]}))
    with pytest.raises(Exception, match="integer literal"):
        T.put(ds, y="round(x, n)").to_pandas()


def test_png_invalid_filter_byte_rejected():
    import struct
    import zlib

    from tenzir_ray.stages.multimodal import _PNG_SIG, decode_png

    def chunk(tag, body):
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", 2, 1, 8, 2, 0, 0, 0)
    scan = b"\x07" + b"\x00" * 6  # filter byte 7: not in the spec
    bad = (_PNG_SIG + chunk(b"IHDR", ihdr)
           + chunk(b"IDAT", zlib.compress(scan)) + chunk(b"IEND", b""))
    with pytest.raises(ValueError, match="filter byte"):
        decode_png(bad)


def test_explain_pipeline_shows_fusion():
    from tenzir_ray.pipelines.tql import explain_pipeline

    t = explain_pipeline(
        "read_parquet /tmp/x.parquet | where a > 5 | select a, b | head 3"
    ).to_pandas()
    parsed = t[t["stage"] == "parsed"]["op"].tolist()
    optimized = t[t["stage"] == "optimized"]["op"].tolist()
    assert parsed == ["read_parquet", "where", "select", "head"]
    # the optimizer fused where+select into the scan
    assert "where" not in optimized and "select" not in optimized
    scan_spec = t[(t["stage"] == "optimized")
                  & (t["op"] == "read_parquet")]["spec"].iloc[0]
    assert "a > 5" in scan_spec and '"columns"' in scan_spec


# ---------------------------------------------------------------------------
# file-level zone-map pruning on the plain read_parquet path


def test_read_parquet_prunes_files_from_footer_stats(ray_session, tmp_path):
    import datetime as dt

    import pyarrow.parquet as pq

    from tenzir_ray.sources import readers

    for i in range(6):
        pq.write_table(pa.table({
            "x": pa.array(range(i * 10, i * 10 + 10), pa.int64()),
            "ts": pa.array([dt.datetime(2025, 1, 1 + i, h) for h in range(10)]),
        }), str(tmp_path / f"f{i}.parquet"))

    readers.last_prune = None
    ds = readers.read_parquet(str(tmp_path), filter_expr="x >= 25 and x < 45")
    assert ds.count() == 20
    assert readers.last_prune == {"listed": 6, "kept": 3, "skipped": 3}

    # ISO timestamp literal vs datetime footer stats
    readers.last_prune = None
    ds = readers.read_parquet(str(tmp_path), filter_expr='ts >= "2025-01-05"')
    assert ds.count() == 20
    assert readers.last_prune["kept"] == 2

    # all files excluded: zero rows but the schema survives
    ds = readers.read_parquet(str(tmp_path), filter_expr="x > 999")
    assert ds.count() == 0
    assert set(ds.schema().names) == {"x", "ts"}

    # opt-out leaves the listing alone (results identical)
    readers.last_prune = None
    ds = readers.read_parquet(str(tmp_path), filter_expr="x >= 25 and x < 45",
                              prune_files=False)
    assert ds.count() == 20 and readers.last_prune is None


def test_read_parquet_prune_bails_on_hive_layout(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tenzir_ray.sources import readers

    (tmp_path / "part=0").mkdir()
    (tmp_path / "part=1").mkdir()
    pq.write_table(pa.table({"x": [1, 2]}), str(tmp_path / "part=0" / "a.parquet"))
    pq.write_table(pa.table({"x": [5, 6]}), str(tmp_path / "part=1" / "a.parquet"))
    readers.last_prune = None
    ds = readers.read_parquet(str(tmp_path), filter_expr="x >= 5")
    assert ds.count() == 2 and readers.last_prune is None


# ---------------------------------------------------------------------------
# baseline JPEG codec (stages/jpeg.py)


def _smooth_rgb(h=45, w=62):
    import numpy as np

    yy, xx = np.mgrid[0:h, 0:w]
    return np.stack([
        128 + 80 * np.sin(xx / 9.0) + 30 * np.cos(yy / 7.0),
        100 + 0.8 * xx + 0.5 * yy,
        200 - 60 * np.sin((xx + yy) / 11.0),
    ], axis=-1).clip(0, 255).astype(np.uint8)


def test_jpeg_roundtrip_444_and_420():
    import numpy as np

    from tenzir_ray.stages.jpeg import decode_jpeg, encode_jpeg

    img = _smooth_rgb()
    for sub, tol in ((False, 4.0), (True, 8.0)):
        out = decode_jpeg(encode_jpeg(img, quality=92, subsample=sub))
        assert out.shape == img.shape
        assert np.abs(out.astype(int) - img.astype(int)).mean() < tol


def test_jpeg_grayscale_and_restart_markers():
    import numpy as np

    from tenzir_ray.stages.jpeg import decode_jpeg, encode_jpeg

    yy, xx = np.mgrid[0:37, 0:53]
    g = (128 + 90 * np.sin(xx / 6.0) * np.cos(yy / 8.0)).clip(0, 255).astype(np.uint8)
    base = decode_jpeg(encode_jpeg(g, quality=90))
    assert base.shape == g.shape and base.ndim == 2
    assert np.abs(base.astype(int) - g.astype(int)).mean() < 4
    # restart intervals must not change the decoded pixels
    for ri in (2, 5):
        with_rst = decode_jpeg(encode_jpeg(g, quality=90, restart_interval=ri))
        assert np.array_equal(with_rst, base)
    img = _smooth_rgb(33, 49)
    a = decode_jpeg(encode_jpeg(img, quality=92, subsample=True))
    b = decode_jpeg(encode_jpeg(img, quality=92, subsample=True, restart_interval=3))
    assert np.array_equal(a, b)


def test_jpeg_rejects_progressive_and_garbage():
    import pytest as _pytest

    from tenzir_ray.stages.jpeg import decode_jpeg, encode_jpeg

    with _pytest.raises(ValueError):
        decode_jpeg(b"not a jpeg")
    data = bytearray(encode_jpeg(_smooth_rgb(16, 16)))
    i = data.find(b"\xff\xc0")
    data[i + 1] = 0xC2  # flip SOF0 -> SOF2 (progressive)
    with _pytest.raises(ValueError, match="baseline"):
        decode_jpeg(bytes(data))


def test_jpeg_constant_color_is_near_exact():
    import numpy as np

    from tenzir_ray.stages.jpeg import decode_jpeg, encode_jpeg

    img = np.full((24, 17, 3), (200, 30, 90), dtype=np.uint8)
    for sub in (False, True):
        out = decode_jpeg(encode_jpeg(img, quality=92, subsample=sub))
        assert np.abs(out.astype(float) - img.astype(float)).mean() < 2.0


def test_decode_images_stage_handles_jpeg(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from tenzir_ray.stages.jpeg import encode_jpeg
    from tenzir_ray.stages.multimodal import decode_images, resize_images

    imgs = [_smooth_rgb(20 + i, 30 - i) for i in range(4)]
    tbl = pa.table({
        "media_id": pa.array(range(4), pa.int64()),
        "payload": pa.array([encode_jpeg(im, subsample=bool(i % 2))
                             for i, im in enumerate(imgs)], pa.binary()),
    })
    out = decode_images(ray.data.from_arrow(tbl)).to_pandas()
    out = out.sort_values("media_id")
    assert out["height"].tolist() == [20, 21, 22, 23]
    assert out["width"].tolist() == [30, 29, 28, 27]
    assert out["channels"].tolist() == [3, 3, 3, 3]
    # resize keeps JPEG in the compressed domain
    rs = resize_images(ray.data.from_arrow(tbl), 12, 12).to_pandas()
    assert all(p[:2] == b"\xff\xd8" for p in rs["payload"])
    dec = decode_images(ray.data.from_arrow(
        pa.table({"media_id": pa.array(range(4), pa.int64()),
                  "payload": pa.array(list(rs.sort_values("media_id")["payload"]),
                                      pa.binary())}))).to_pandas()
    assert dec["height"].tolist() == [12] * 4 and dec["width"].tolist() == [12] * 4


def test_mjpeg_split_and_sample_frames(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from tenzir_ray.stages.jpeg import encode_jpeg
    from tenzir_ray.stages.multimodal import sample_frames, split_mjpeg

    frames = [
        np.full((16, 12, 3), (10 * i, 20, 30), dtype=np.uint8)
        for i in range(5)
    ]
    stream = b"".join(encode_jpeg(f, quality=92) for f in frames)
    assert len(split_mjpeg(stream)) == 5

    tbl = pa.table({
        "media_id": pa.array([7], pa.int64()),
        "payload": pa.array([stream], pa.binary()),
    })
    out = sample_frames(ray.data.from_arrow(tbl), every_n=2,
                        fake=False).to_pandas()
    assert out["frame_idx"].tolist() == [0, 2, 4]
    assert out["height"].tolist() == [16] * 3
    assert out["width"].tolist() == [12] * 3
    # constant-color frames: luma recovers the encoded value closely
    expect = [0.299 * 10 * i + 0.587 * 20 + 0.114 * 30 for i in (0, 2, 4)]
    assert np.abs(out["mean_luma"].to_numpy() - expect).max() < 2.0


def test_sample_frames_non_mjpeg_still_stubbed(ray_session):
    import pyarrow as pa
    import pytest as _pytest
    import ray.data

    from tenzir_ray.stages.multimodal import sample_frames

    tbl = pa.table({
        "media_id": pa.array([1], pa.int64()),
        "payload": pa.array([b"\x00\x00\x01\xba fake mpeg" * 100], pa.binary()),
    })
    # fake path keeps the old explode plumbing
    out = sample_frames(ray.data.from_arrow(tbl), every_n=10, fake=True).to_pandas()
    assert (out["frame_idx"] % 10 == 0).all()
    with _pytest.raises(Exception):
        sample_frames(ray.data.from_arrow(tbl), fake=False).materialize()


# ---------------------------------------------------------------- mp3


def test_mp3_frame_walk_cbr_vbr_id3():
    from tenzir_ray.stages.mp3 import build_frames, mp3_info, parse_frames

    # CBR stereo: exact frame count + sample-accurate duration
    s = build_frames(5, 128, 44100, 2)
    info = mp3_info(s)
    assert info["frames"] == 5 and info["channels"] == 2
    assert not info["vbr"] and info["bitrate_kbps"] == 128.0
    assert abs(info["duration_s"] - 5 * 1152 / 44100) < 1e-12

    # VBR = mixed per-frame bitrates; duration sums real frame samples
    vbr = mp3_info(build_frames(3, 96) + build_frames(2, 192))
    assert vbr["vbr"] and vbr["frames"] == 5
    assert abs(vbr["duration_s"] - 5 * 1152 / 44100) < 1e-12

    # ID3v2 prefix (syncsafe size) is skipped, ID3v1 trailer stops the walk
    tag = b"ID3" + bytes([4, 0, 0]) + bytes([0, 0, 0, 20]) + b"x" * 20
    body = build_frames(2, 128, 44100, 1)
    assert mp3_info(tag + body)["frames"] == 2
    assert mp3_info(body + b"TAG" + b"\x00" * 125)["frames"] == 2

    # resync across junk between frames (broadcast-stream reality)
    s4 = build_frames(1, 128) + b"\x00" * 37 + build_frames(1, 128)
    assert mp3_info(s4)["frames"] == 2

    # garbage and empty decline as None, not an exception
    assert mp3_info(b"not audio at all") is None
    assert mp3_info(b"") is None

    # offsets are real byte positions
    frames = parse_frames(s)
    assert frames[0]["offset"] == 0
    assert frames[1]["offset"] == frames[0]["size"]


def test_mp3_mpeg2_layer3_frame_size():
    from tenzir_ray.stages.mp3 import _parse_header

    # MPEG-2 Layer III, 32 kbps, 22050 Hz, mono: 576 samples/frame and
    # the 72*bitrate/rate size formula (not MPEG-1's 144)
    b1 = 0xE0 | (2 << 3) | (1 << 1)          # version 10 = MPEG-2, layer III
    b2 = (4 << 4) | (0 << 2)                  # bitrate idx 4 = 32k, 22050 Hz
    h = _parse_header(bytes([0xFF, b1, b2, 0xC0]), 0)
    assert h["version"] == "2" and h["layer"] == 3
    assert h["samples"] == 576 and h["channels"] == 1
    assert h["size"] == 72 * 32000 // 22050
    assert h["sample_rate"] == 22050 and h["bitrate"] == 32000

    # free-format (idx 0) and reserved (15) decline
    assert _parse_header(bytes([0xFF, b1, 0x00, 0xC0]), 0) is None
    assert _parse_header(bytes([0xFF, b1, 0xF0, 0xC0]), 0) is None


def test_decode_audio_mp3_stage(ray_session):
    import ray.data

    from tenzir_ray.stages import multimodal as M
    from tenzir_ray.stages.mp3 import build_frames

    wav = M.encode_wav(
        (np.sin(np.arange(1600) / 9.0) * 9000).astype(np.int16), rate=16000)
    mp3 = build_frames(4, 128, 44100, 2)
    tagged = b"ID3" + bytes([3, 0, 0]) + bytes([0, 0, 0, 8]) + b"\x00" * 8 \
        + build_frames(3, 96, 44100, 1)
    tbl = pa.table({"media_id": [0, 1, 2],
                    "payload": pa.array([wav, mp3, tagged], pa.binary())})
    out = M.decode_audio(ray.data.from_arrow(tbl)).to_pandas() \
        .sort_values("media_id").reset_index(drop=True)
    # WAV row: full sample-domain features
    assert out.loc[0, "sample_rate"] == 16000 and out.loc[0, "rms"] > 0
    # MP3 rows: real header metadata, null sample-domain features
    assert out.loc[1, "sample_rate"] == 44100 and out.loc[1, "channels"] == 2
    assert abs(out.loc[1, "duration_s"] - 4 * 1152 / 44100) < 1e-9
    assert pd.isna(out.loc[1, "rms"]) and pd.isna(out.loc[1, "zcr"])
    assert out.loc[2, "channels"] == 1
    assert abs(out.loc[2, "duration_s"] - 3 * 1152 / 44100) < 1e-9

    # non-audio garbage still raises without fake=True
    bad = pa.table({"media_id": [0], "payload": pa.array([b"oggS??"], pa.binary())})
    with pytest.raises(Exception):
        M.decode_audio(ray.data.from_arrow(bad)).materialize()


# ---------------------------------------------------------------- mp4


def test_mp4_mux_demux_roundtrip():
    from tenzir_ray.stages.jpeg import decode_jpeg, encode_jpeg
    from tenzir_ray.stages.mp4 import build_mp4, mp4_info, mp4_video_samples

    frames = [encode_jpeg(np.full((16, 24, 3), (i * 30 + 20, 60, 120),
                                  dtype=np.uint8), quality=92)
              for i in range(5)]
    mp4 = build_mp4(frames, fps=10, width=24, height=16)
    info = mp4_info(mp4)
    assert info["brand"] == "isom" and abs(info["duration_s"] - 0.5) < 1e-9
    tr = info["tracks"][0]
    assert tr["kind"] == "video" and tr["codec"] == "jpeg"
    assert tr["width"] == 24 and tr["height"] == 16 and tr["n_samples"] == 5
    # demuxed samples are byte-identical to the muxed frames and decode
    _, samples = mp4_video_samples(mp4)
    assert samples == frames
    assert decode_jpeg(samples[3]).shape == (16, 24, 3)

    # non-MP4 and truncated input decline as None, not an exception
    assert mp4_info(b"garbage not a video") is None
    assert mp4_video_samples(b"\xff\xd8\xff") is None
    assert mp4_info(mp4[:40]) is None


def test_mp4_frame_sampler_stage(ray_session):
    import ray.data

    from tenzir_ray.stages import multimodal as M
    from tenzir_ray.stages.jpeg import encode_jpeg
    from tenzir_ray.stages.mp4 import build_mp4

    frames = [encode_jpeg(np.full((8, 12, 3), (40 + 60 * i, 70, 110),
                                  dtype=np.uint8), quality=92)
              for i in range(4)]
    mp4 = build_mp4(frames, fps=4, width=12, height=8)
    tbl = pa.table({"media_id": pa.array([7], pa.int64()),
                    "payload": pa.array([mp4], pa.binary())})
    out = M.sample_frames(ray.data.from_arrow(tbl), every_n=2,
                          fake=False).to_pandas().sort_values("frame_idx")
    assert list(out["frame_idx"]) == [0, 2]
    assert (out["height"] == 8).all() and (out["width"] == 12).all()
    expect0 = 0.299 * 40 + 0.587 * 70 + 0.114 * 110
    assert abs(out.iloc[0]["mean_luma"] - expect0) < 3.0

    # an MP4 whose video track is a codec we can't decode raises loudly
    avc = build_mp4(frames, fps=4, width=12, height=8, codec=b"avc1")
    bad = pa.table({"media_id": pa.array([1], pa.int64()),
                    "payload": pa.array([avc], pa.binary())})
    with pytest.raises(Exception, match="avc1"):
        M.sample_frames(ray.data.from_arrow(bad), fake=False).materialize()
    # ... but fake=True keeps the plumbing shape
    fk = M.sample_frames(ray.data.from_arrow(bad), every_n=10,
                         fake=True).to_pandas()
    assert (fk["frame_idx"] % 10 == 0).all()
