"""Round-3 regression tests: ADVICE r2 fixes + new exchange transport."""

import os
from datetime import datetime

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


# ---------------------------------------------------------------- exchange


def _mk_sides(ray):
    import ray.data as rd

    left = rd.from_arrow(pa.table({
        "k": pa.array(list(range(200)) * 2, pa.int32()),
        "lx": pa.array(range(400), pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array(list(range(0, 400, 2)), pa.int64()),
        "ry": pa.array([f"v{i}" for i in range(200)], pa.string()),
    }))
    return left, right


def _join_df(ds):
    df = ds.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_hash_join_object_transport_matches_fs(ray_session):
    from tenzir_ray.stages.join import hash_join

    left, right = _mk_sides(ray_session)
    a = _join_df(hash_join(left, right, on="k", transport="fs"))
    b = _join_df(hash_join(left, right, on="k", transport="object"))
    pd.testing.assert_frame_equal(a, b)
    assert len(a) == 200  # even ks 0..198, each appearing twice on left


def test_asof_join_object_transport_matches_fs(ray_session):
    import ray.data as rd

    from tenzir_ray.stages.join import asof_join

    left = rd.from_arrow(pa.table({
        "g": pa.array([1, 1, 2, 2] * 25, pa.int64()),
        "t": pa.array(list(range(100)), pa.int64()),
        "v": pa.array(np.arange(100.0)),
    }))
    right = rd.from_arrow(pa.table({
        "g": pa.array([1, 2] * 10, pa.int64()),
        "t": pa.array(list(range(0, 100, 5)), pa.int64()),
        "s": pa.array([f"s{i}" for i in range(20)], pa.string()),
    }))
    a = _join_df(asof_join(left, right, by="g", on="t", transport="fs"))
    b = _join_df(asof_join(left, right, by="g", on="t", transport="object"))
    pd.testing.assert_frame_equal(a, b)


def test_exchange_root_env_override(ray_session, tmp_path, monkeypatch):
    from tenzir_ray.stages import exchange
    from tenzir_ray.stages.join import hash_join

    monkeypatch.setenv(exchange.ROOT_ENV, str(tmp_path))
    left, right = _mk_sides(ray_session)
    out = hash_join(left, right, on="k", transport="fs")
    n = out.count()
    assert n == 200
    staged = os.listdir(tmp_path / "tenzir_ray_exchange")
    assert any(d.startswith("join-") for d in staged)


def test_asof_join_widens_mismatched_by_dtypes(ray_session):
    """ADVICE r2: int32-vs-int64 `by` keys must not raise MergeError."""
    import ray.data as rd

    from tenzir_ray.stages.join import asof_join

    left = rd.from_arrow(pa.table({
        "g": pa.array([1, 2] * 10, pa.int32()),
        "t": pa.array(list(range(20)), pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "g": pa.array([1, 2], pa.int64()),
        "t": pa.array([0, 1], pa.int32()),
        "s": pa.array(["a", "b"], pa.string()),
    }))
    df = asof_join(left, right, by="g", on="t").to_pandas()
    assert len(df) == 20
    assert df["s"].notna().all()


def test_key_buckets_equal_columns_spread(ray_session):
    """ADVICE r2: src==dst rows must not all collapse into bucket(0)."""
    from tenzir_ray.stages.exchange import key_buckets

    n = 4096
    vals = pa.array(np.arange(n), pa.int64())
    t = pa.table({"src": vals, "dst": vals})
    b = key_buckets(t, ["src", "dst"], 64)
    assert len(np.unique(b)) > 32  # uniform-ish, definitely not 1 bucket


# ---------------------------------------------------------------- summarize


def test_any_all_all_null_group_partial_path(ray_session):
    import ray.data as rd

    from tenzir_ray.stages.summarize import summarize

    t = pa.table({
        "k": pa.array(["a", "a", "b", "b"]),
        "flag": pa.array([True, None, None, None], pa.bool_()),
    })
    out = summarize(rd.from_arrow(t), by="k", anyf="any(flag)", allf="all(flag)")
    df = out.to_pandas().sort_values("k").reset_index(drop=True)
    # group b is entirely null: any→False, all→True (Arrow-native semantics)
    assert bool(df.loc[df.k == "b", "anyf"].iloc[0]) is False
    assert bool(df.loc[df.k == "b", "allf"].iloc[0]) is True
    assert bool(df.loc[df.k == "a", "anyf"].iloc[0]) is True
    assert bool(df.loc[df.k == "a", "allf"].iloc[0]) is True


# ---------------------------------------------------------------- ip/subnet/duration


def test_iptype_roundtrip_and_subnet_kernel():
    from tenzir_ray.iptype import (bytes16_to_ip_strings, ip_strings_to_bytes16,
                                   subnet_mask)

    ips = pa.array(["10.1.2.3", "192.168.1.7", "2001:db8::1", "junk", None])
    b16 = ip_strings_to_bytes16(ips)
    assert b16.type == pa.binary(16)
    back = bytes16_to_ip_strings(b16)
    assert back.to_pylist() == ["10.1.2.3", "192.168.1.7", "2001:db8::1", None, None]
    assert subnet_mask(ips, "10.0.0.0/8").tolist() == [True, False, False, False, False]
    assert subnet_mask(b16, "10.0.0.0/8").tolist() == [True, False, False, False, False]
    assert subnet_mask(b16, "2001:db8::/32").tolist() == [False, False, True, False, False]


def test_iptype_rejects_leading_zero_octets():
    """Leading-zero octets are invalid per ipaddress / the reference's
    strict ip type — the vectorized fast path must agree (ADVICE r3)."""
    from tenzir_ray.iptype import ip_strings_to_bytes16, subnet_mask

    ips = pa.array(["010.1.2.3", "10.01.2.3", "10.1.2.3", "0.0.0.0"])
    assert subnet_mask(ips, "10.0.0.0/8").tolist() == [
        False, False, True, False]
    b16 = ip_strings_to_bytes16(ips)
    assert b16.to_pylist()[:2] == [None, None]
    assert b16.is_valid().to_pylist() == [False, False, True, True]


def test_expr_subnet_and_duration_literals(ray_session):
    import ray.data as rd

    from tenzir_ray.stages import transforms as T

    t = pa.table({
        "src_ip": pa.array(["10.0.0.1", "10.200.3.4", "11.0.0.1", "192.168.0.9"]),
        "n": pa.array([1, 2, 3, 4], pa.int64()),
    })
    out = T.where(rd.from_arrow(t), "src_ip in 10.0.0.0/8").to_pandas()
    assert sorted(out["n"]) == [1, 2]
    out = T.where(rd.from_arrow(t), "src_ip not in 10.0.0.0/8 and n < 4").to_pandas()
    assert sorted(out["n"]) == [3]
    # null/malformed ips are dropped by BOTH polarities (ADVICE r3:
    # negation must not keep rows whose ip is not a valid address)
    t2 = pa.table({
        "src_ip": pa.array(["10.0.0.1", None, "garbage", "11.1.1.1"]),
        "n": pa.array([1, 2, 3, 4], pa.int64()),
    })
    out = T.where(rd.from_arrow(t2), "src_ip not in 10.0.0.0/8").to_pandas()
    assert sorted(out["n"]) == [4]
    out = T.where(rd.from_arrow(t2), "src_ip in 10.0.0.0/8").to_pandas()
    assert sorted(out["n"]) == [1]
    # bare ip literal == string comparison
    out = T.where(rd.from_arrow(t), "src_ip == 192.168.0.9").to_pandas()
    assert out["n"].tolist() == [4]
    # duration literal in timestamp arithmetic
    ts = pa.table({
        "ts": pa.array([pd.Timestamp("2026-01-15") + pd.Timedelta(hours=h)
                        for h in (0, 12, 40)]),
        "i": pa.array([0, 1, 2], pa.int64()),
    })
    out = T.where(rd.from_arrow(ts), "ts < '2026-01-15' + 36h").to_pandas()
    assert out["i"].tolist() == [0, 1]


def test_compile_filter_split():
    from tenzir_ray.expr import compile_filter

    f = compile_filter("n > 1 and src_ip in 10.0.0.0/8")
    assert f.pushdown is not None and f.residual is not None
    t = pa.table({
        "src_ip": pa.array(["10.0.0.1", "10.1.1.1", "11.0.0.1"]),
        "n": pa.array([1, 2, 3], pa.int64()),
    })
    out = f.apply(t)
    assert out.column("n").to_pylist() == [2]
    # pure-pushdown expression has no residual
    f2 = compile_filter("n > 1")
    assert f2.residual is None


def test_read_parquet_filter_expr_with_subnet(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tenzir_ray.sources.readers import read_parquet

    p = str(tmp_path / "ips.parquet")
    pq.write_table(pa.table({
        "ip": pa.array(["10.0.0.%d" % i if i % 2 else "172.16.0.%d" % i
                        for i in range(100)]),
        "i": pa.array(range(100), pa.int64()),
    }), p)
    out = read_parquet(p, filter_expr="ip in 10.0.0.0/8 and i < 50").to_pandas()
    assert len(out) == 25 and (out["i"] % 2 == 1).all()


def test_cast_ip_dataset_roundtrip(ray_session):
    import ray.data as rd

    from tenzir_ray.iptype import cast_ip, ip_to_string

    t = pa.table({"ip": pa.array(["10.0.0.1", "8.8.8.8", None])})
    typed = cast_ip(rd.from_arrow(t), "ip")
    back = ip_to_string(typed, "ip").to_pandas()
    assert back["ip"].tolist()[:2] == ["10.0.0.1", "8.8.8.8"]


# ---------------------------------------------------------------- cron


def test_cron_dom_dow_or_semantics():
    from tenzir_ray.pipelines.schedule import cron_next

    # '0 0 13 * 5': fires on the 13th of any month OR any Friday
    # 2026-03-05 is a Thursday; next Friday is 2026-03-06, well before the 13th
    nxt = cron_next("0 0 13 * 5", datetime(2026, 3, 5, 12, 0))
    assert nxt == datetime(2026, 3, 6, 0, 0)
    # restricted dom + '*' dow: pure AND on dom (the 13th)
    nxt = cron_next("0 0 13 * *", datetime(2026, 3, 5, 12, 0))
    assert nxt == datetime(2026, 3, 13, 0, 0)
    # '*' dom + restricted dow: fires on the weekday
    nxt = cron_next("0 0 * * 5", datetime(2026, 3, 5, 12, 0))
    assert nxt == datetime(2026, 3, 6, 0, 0)


# ---------------------------------------------------------------- tql + optimizer


def _orders_parquet(tmp_path):
    import pyarrow.parquet as pq

    p = str(tmp_path / "orders.parquet")
    t = pa.table({
        "k": pa.array(range(100), pa.int64()),
        "price": pa.array([float(i * 7 % 50) for i in range(100)]),
        "flag": pa.array(["A" if i % 3 else "B" for i in range(100)]),
    })
    pq.write_table(t, p, row_group_size=10)
    return p


def test_tql_parse_segments():
    from tenzir_ray.pipelines.tql import parse_pipeline, split_segments

    assert split_segments("a 'x|y' | b (1|2) | c") == ["a 'x|y'", "b (1|2)", "c"]
    p = parse_pipeline(
        "read_parquet /tmp/x.parquet | where a > 1 and b == 'p|q' "
        "| select a, b | summarize s=sum(a), n=count(*) by b "
        "| sort s desc | head 5 | slice 1:9:2"
    )
    ops = [s["op"] for s in p.steps]
    assert ops == ["read_parquet", "where", "select", "summarize", "sort",
                   "head", "slice"]
    assert p.steps[0]["paths"] == "/tmp/x.parquet"
    assert p.steps[1]["expr"] == "a > 1 and b == 'p|q'"
    assert p.steps[2]["columns"] == ["a", "b"]
    assert p.steps[3] == {"op": "summarize",
                          "aggs": {"s": "sum(a)", "n": "count(*)"}, "by": "b"}
    assert p.steps[4] == {"op": "sort", "keys": "s", "descending": True}
    assert p.steps[5] == {"op": "head", "n": 5}
    assert p.steps[6] == {"op": "slice", "start": 1, "stop": 9, "stride": 2}


def test_tql_run_end_to_end(ray_session, tmp_path):
    from tenzir_ray.pipelines.tql import run_pipeline

    p = _orders_parquet(tmp_path)
    out = run_pipeline(
        f"read_parquet {p} | where price > 10 and flag == 'A' "
        "| summarize total=sum(price), n=count(*) by flag | sort flag"
    ).to_pandas()
    assert out["flag"].tolist() == ["A"]
    assert out["n"][0] == sum(1 for i in range(100)
                              if i % 3 and (i * 7 % 50) > 10)


def test_optimize_fuses_where_and_select():
    from tenzir_ray.pipelines.pipeline import optimize_steps

    steps = [
        {"op": "read_parquet", "paths": "x"},
        {"op": "where", "expr": "a > 1"},
        {"op": "where", "expr": "b < 2"},
        {"op": "select", "columns": ["a", "b"]},
        {"op": "head", "n": 3},
    ]
    out = optimize_steps(steps)
    assert [s["op"] for s in out] == ["read_parquet", "head"]
    assert out[0]["filter_expr"] == "(a > 1) and (b < 2)"
    assert out[0]["columns"] == ["a", "b"]
    # input list untouched (optimize is pure)
    assert steps[1] == {"op": "where", "expr": "a > 1"}


def test_optimize_residual_blocks_projection_fusion():
    from tenzir_ray.pipelines.pipeline import optimize_steps

    # subnet membership compiles to a residual kernel; a later select must
    # NOT fuse into the read (the residual reads the unprojected column)
    steps = [
        {"op": "read_parquet", "paths": "x"},
        {"op": "where", "expr": "src_ip in 10.0.0.0/8"},
        {"op": "select", "columns": ["dst"]},
    ]
    out = optimize_steps(steps)
    assert out[0].get("filter_expr") == "src_ip in 10.0.0.0/8"
    assert out[0].get("columns") is None
    assert [s["op"] for s in out] == ["read_parquet", "select"]
    # and a residual where must not fuse into an already-projected read
    steps2 = [
        {"op": "read_parquet", "paths": "x", "columns": ["dst"]},
        {"op": "where", "expr": "src_ip in 10.0.0.0/8"},
    ]
    out2 = optimize_steps(steps2)
    assert [s["op"] for s in out2] == ["read_parquet", "where"]


def test_optimize_prunes_row_groups(ray_session, tmp_path):
    from tenzir_ray.pipelines.pipeline import Pipeline

    p = _orders_parquet(tmp_path)  # 10 row groups of 10, k sorted
    spec = [
        {"op": "read_parquet", "paths": p},
        {"op": "where", "expr": "k < 10"},
        {"op": "select", "columns": ["k", "price"]},
    ]
    from tenzir_ray.pipelines.pipeline import optimize_steps

    # the whole pipeline fuses into ONE parquet scan step...
    fused_steps = optimize_steps(spec)
    assert len(fused_steps) == 1 and fused_steps[0]["op"] == "read_parquet"
    fused = Pipeline(spec).run()
    raw = Pipeline(spec).run(optimize=False)
    fdf = fused.to_pandas().sort_values("k").reset_index(drop=True)
    rdf = raw.to_pandas().sort_values("k").reset_index(drop=True)
    assert fdf.equals(rdf) and len(fdf) == 10
    assert list(fdf.columns) == ["k", "price"]
    # ...and that scan emits only the matching row group: with no
    # downstream where step left, count()==10 proves the predicate ran
    # inside the read (k is row-group-sorted, 10 rows per group)
    bare_read = Pipeline([spec[0]]).run()
    assert fused.count() == 10 and bare_read.count() == 100


def test_slice_stride(ray_session):
    import ray.data as rd

    t = pa.table({"k": pa.array(range(50), pa.int64()),
                  "v": pa.array([i * 2 for i in range(50)], pa.int64())})
    ds = rd.from_arrow(t).repartition(7)
    from tenzir_ray.stages import transforms as T

    got = sorted(T.slice_(ds, 5, 40, stride=3, order_by="k").to_pandas()["k"])
    assert got == list(range(5, 40, 3))
    # negative stride: Python semantics over the ordered stream
    got = sorted(T.slice_(ds, 40, 5, stride=-7, order_by="k").to_pandas()["k"])
    assert got == sorted(range(40, 5, -7))
    # open ends
    got = sorted(T.slice_(ds, None, None, stride=10, order_by="k").to_pandas()["k"])
    assert got == list(range(0, 50, 10))
    # stride without order is an error on a distributed input
    import pytest as _pytest

    with _pytest.raises(ValueError):
        T.slice_(ds, 0, 10, stride=2)


# ---------------------------------------------------------------- persistent IVF


def test_ivf_index_persisted(ray_session, tmp_path):
    import ray.data as rd

    from tenzir_ray.stages import similarity as SIM

    rng = np.random.default_rng(3)
    n, d = 2000, 16
    emb = rng.standard_normal((n, d)).astype(np.float32)
    t = pa.table({"vec_id": pa.array(range(n), pa.int64()),
                  "embedding": pa.array(emb.tolist(),
                                        pa.list_(pa.float32()))})
    ds = rd.from_arrow(t).repartition(8)
    root = str(tmp_path / "ivf")
    idx = SIM.IvfIndex.build(ds, root, nlist=16, train_sample=512)
    assert idx.meta["num_rows"] == n and idx.meta["dim"] == d

    q = emb[:3]
    # exhaustive probe == brute force, from the PERSISTED layout
    exact = SIM.brute_force_topk(ds, q, k=10, dtype=np.float64)
    got = idx.search(q, k=10, nprobe=16, dtype=np.float64)
    assert got.column("vec_id").to_pylist() == exact.column("vec_id").to_pylist()

    # probe-proportional read bytes: nprobe=4 of 16 touches a strict
    # subset of the layout's files
    lists4 = idx.probe_lists(q, nprobe=4)
    files4, bytes4 = idx.probe_files(lists4)
    _, total = idx.probe_files(list(range(16)))
    assert 0 < bytes4 < 0.8 * total
    rows4 = sum(SIM.IvfIndex._scan_lists(root)[j]["rows"] for j in lists4)
    assert rows4 < n

    # recall at nprobe<nlist is imperfect but real
    part = idx.search(q, k=10, nprobe=4, dtype=np.float64)
    ex = {(r["query_idx"], r["vec_id"]) for r in exact.to_pylist()}
    pt = {(r["query_idx"], r["vec_id"]) for r in part.to_pylist()}
    recall = len(ex & pt) / len(ex)
    assert recall >= 0.3, recall

    # reopen without retraining
    from tenzir_ray.stages.similarity import ann_index_build

    again = ann_index_build(ds, root)
    assert np.allclose(again.centroids, idx.centroids)
    import pytest as _pytest

    with _pytest.raises(FileExistsError):
        SIM.IvfIndex.build(ds, root)


# ---------------------------------------------------------------- retro-lookup


def test_lookup_retro_over_lake(ray_session, tmp_path):
    from tenzir_ray.cdc.generate import gen_changes
    from tenzir_ray.cdc.lake import LakeTable
    from tenzir_ray.cdc.oracle import naive_apply
    from tenzir_ray.state.context import BloomFilter, LookupTable, lookup_retro

    changes = gen_changes(3000, seed=9)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lake.apply_changes(changes, epoch_id="e1")
    final = naive_apply(changes).to_pandas()

    hot = sorted(final["conv_id"].unique())[:5]
    ctx = LookupTable(
        pa.table({"conv_id": pa.array(hot),
                  "label": pa.array([f"L{i}" for i in range(len(hot))])}),
        key="conv_id",
    )
    got = lookup_retro(lake, ctx, "conv_id").to_pandas()
    want = final[final["conv_id"].isin(hot)]
    assert len(got) == len(want)
    assert set(got["label"]) == {f"L{i}" for i in range(len(hot))}
    lbl = dict(zip(hot, [f"L{i}" for i in range(len(hot))]))
    assert (got["label"] == got["conv_id"].map(lbl)).all()

    # merge-on-read path: a delta epoch (small change vs base) must be
    # visible to the retro scan — and a retro-deleted row must NOT appear
    victim, keep = hot[0], hot[1]
    upd = pa.table({
        "lsn": pa.array([10_000, 10_001], pa.int64()),
        "op": pa.array(["delete", "update"]),
        "conv_id": pa.array([victim, keep]),
        "turn_idx": pa.array(
            [int(final[final.conv_id == victim]["turn_idx"].iloc[0]),
             int(final[final.conv_id == keep]["turn_idx"].iloc[0])],
            pa.int32()),
        "role": pa.array(["x", "x"]),
        "text": pa.array(["gone", "RETRO"]),
        "tool": pa.array(["", ""]),
        "ts": pa.array([pd.Timestamp("2026-01-01")] * 2),
    })
    lake.apply_changes(upd, epoch_id="e2")
    assert lake._has_deltas()
    got2 = lookup_retro(lake, ctx, "conv_id").to_pandas()
    assert len(got2) == len(want) - 1  # one row tombstoned
    assert "RETRO" in set(got2["text"])
    k = (got2.conv_id == victim) & (
        got2.turn_idx == upd.column("turn_idx")[0].as_py())
    assert not k.any()

    # bloom context path
    bf = BloomFilter(capacity=64, fp_rate=1e-4)
    bf.add(hot)
    got3 = lookup_retro(lake, bf, "conv_id").to_pandas()
    assert set(got3["conv_id"]) >= set(got2["conv_id"])

    # oversized context skips pushdown but matches the same rows
    got4 = lookup_retro(lake, ctx, "conv_id", pushdown_limit=2).to_pandas()
    assert len(got4) == len(got2)


# ---------------------------------------------------------------- stdin/yaml/lines


def test_write_lines_yaml_and_stdin(ray_session, tmp_path):
    import glob
    import io

    import ray.data as rd
    import yaml

    from tenzir_ray.sources.readers import read_lines
    from tenzir_ray.sources.writers import read_stdin, write_lines, write_yaml

    t = pa.table({"text": pa.array([f"line {i}" for i in range(10)]),
                  "n": pa.array(range(10), pa.int64())})
    out = str(tmp_path / "lines")
    write_lines(rd.from_arrow(t).repartition(3), out)
    back = sorted(r["text"] for r in read_lines(sorted(glob.glob(out + "/*.txt"))).take_all())
    assert back == sorted(f"line {i}" for i in range(10))

    ydir = str(tmp_path / "yaml")
    write_yaml(rd.from_arrow(t), ydir)
    docs = []
    for p in glob.glob(ydir + "/*.yaml"):
        docs.extend(yaml.safe_load_all(open(p)))
    assert sorted(d["n"] for d in docs) == list(range(10))
    assert all(d["text"] == f"line {d['n']}" for d in docs)

    ds = read_stdin(stream=io.StringIO("a\nb\nc"))
    assert [r["text"] for r in ds.take_all()] == ["a", "b", "c"]
    blob = read_stdin(lines=False, stream=io.StringIO("x\ny"))
    assert blob.take_all() == [{"text": "x\ny"}]
    assert read_stdin(stream=io.StringIO("")).count() == 0


# ---------------------------------------------------------------- named pipelines


def test_named_pipelines(ray_session, tmp_path):
    import ray.data as rd

    from tenzir_ray.pipelines.pipeline import (
        NAMED_PIPELINES, Pipeline, define, load_named_pipelines, show,
    )
    from tenzir_ray.pipelines.tql import run_pipeline

    # from a config YAML (the tenzir.operators analog): TQL string form
    cfg = tmp_path / "ops.yaml"
    cfg.write_text(
        "flag_big: |\n"
        "  where price > 25 | set big='yes'\n"
        "keep_ab:\n"
        "  - {op: where, expr: \"flag == 'A'\"}\n"
    )
    try:
        names = load_named_pipelines(str(cfg))
        assert sorted(names) == ["flag_big", "keep_ab"]
        assert "flag_big" in show("pipelines")

        p = _orders_parquet(tmp_path)
        out = run_pipeline(
            f"read_parquet {p} | apply keep_ab | apply flag_big "
            "| select k, big").to_pandas()
        want = sum(1 for i in range(100) if i % 3 and (i * 7 % 50) > 25)
        assert len(out) == want and (out["big"] == "yes").all()

        # python-side define() with a Pipeline value
        define("head3", Pipeline([{"op": "head", "n": 3}]))
        assert run_pipeline(f"read_parquet {p} | apply head3").count() == 3

        with pytest.raises(ValueError, match="unknown named pipeline"):
            run_pipeline(f"read_parquet {p} | apply nope")
    finally:
        NAMED_PIPELINES.clear()


# ---------------------------------------------------------------- lake object transport


def test_lake_apply_object_transport(ray_session, tmp_path):
    from tenzir_ray.cdc.generate import gen_changes
    from tenzir_ray.cdc.lake import LakeTable
    from tenzir_ray.cdc.oracle import naive_apply

    changes = gen_changes(6000, seed=17)
    import pyarrow.compute as pc

    lsn = changes.column("lsn")
    first = changes.filter(pc.less(lsn, 4000))
    second = changes.filter(pc.greater_equal(lsn, 4000))

    fs = LakeTable(str(tmp_path / "fs"), num_partitions=8)
    ob = LakeTable(str(tmp_path / "ob"), num_partitions=8)
    fs.apply_changes(first, epoch_id="e1")
    r1 = ob.apply_changes(first, epoch_id="e1", transport="object")
    assert r1["partitions_touched"] > 0
    # second epoch is small vs base → exercises the DELTA path over refs
    fs.apply_changes(second, epoch_id="e2")
    r2 = ob.apply_changes(second, epoch_id="e2", transport="object")

    a = fs.final_table().to_pandas()
    b = ob.final_table().to_pandas()
    assert a.equals(b)
    want = naive_apply(changes)
    assert len(b) == want.num_rows
    # idempotent replay on the object path
    assert ob.apply_changes(second, epoch_id="e2",
                            transport="object")["skipped"] is True
    # salted mode runs on the object path too
    salted = LakeTable(str(tmp_path / "obs"), num_partitions=8)
    salted.apply_changes(changes, epoch_id="e1", transport="object",
                         num_salts=4)
    got = salted.final_table()
    assert got.to_pandas().equals(
        naive_apply(changes).select(got.column_names).to_pandas())
    # no staging directory was ever created on the object path
    assert not os.path.exists(str(tmp_path / "ob" / "_staging"))
    assert not os.path.exists(str(tmp_path / "obs" / "_staging"))


def test_read_lake_tql_with_pushdown(ray_session, tmp_path):
    from tenzir_ray.cdc.generate import gen_changes
    from tenzir_ray.cdc.lake import LakeTable
    from tenzir_ray.cdc.oracle import naive_apply
    from tenzir_ray.pipelines import run_pipeline
    from tenzir_ray.pipelines.pipeline import optimize_steps

    root = str(tmp_path / "lake")
    ch = gen_changes(2000, seed=3)
    LakeTable(root, num_partitions=4).apply_changes(ch, epoch_id="e1")
    final = naive_apply(ch).to_pandas()

    # the where fuses into the lake scan
    steps = optimize_steps([
        {"op": "read_lake", "root": root},
        {"op": "where", "expr": "turn_idx < 3"},
    ])
    assert len(steps) == 1 and steps[0]["filter_expr"] == "turn_idx < 3"

    out = run_pipeline(
        f"read_lake {root} | where turn_idx < 3 "
        "| summarize n=count(*) by role | sort role").to_pandas()
    want = (final[final.turn_idx < 3].groupby("role").size()
            .rename("n").reset_index().sort_values("role"))
    assert out["role"].tolist() == want["role"].tolist()
    assert out["n"].astype(int).tolist() == want["n"].astype(int).tolist()

    # write_lake epoch via pipeline, idempotent
    import ray.data as rd

    res = run_pipeline(
        f"write_lake {root} epoch_id=e2",
        ds=rd.from_arrow(ch.slice(0, 100)))
    assert res.get("skipped") or res["epoch_id"] == "e2"


def test_global_summarize_star_count(ray_session):
    """Ray 2.49 regression guard: column-less Count() returns 0 on global
    aggregates — summarize must row-count star specs itself."""
    import ray.data as rd

    from tenzir_ray.stages.summarize import summarize

    t = pa.table({"x": pa.array([1, 2, None, 4], pa.int64())})
    out = summarize(rd.from_arrow(t), n="count(*)", nx="count(x)",
                    s="sum(x)").to_pandas()
    assert int(out["n"][0]) == 4      # star counts rows incl. null x
    assert int(out["nx"][0]) == 3     # column count skips nulls
    assert int(out["s"][0]) == 7


def test_split_segments_pattern_literals():
    """Regression: '|' and unbalanced brackets inside /regex/ pattern
    literals must not split or corrupt segment tracking."""
    from tenzir_ray.pipelines.tql import split_segments

    assert split_segments(
        "read_parquet x.parquet | where msg == /err|warn/ | head 5"
    ) == ["read_parquet x.parquet", "where msg == /err|warn/", "head 5"]
    assert split_segments("where x == /a[(]b/ | head 5") == [
        "where x == /a[(]b/", "head 5"]
    # a '/' used as division must NOT open a pattern
    assert split_segments("put y = a / b | head 1") == [
        "put y = a / b", "head 1"]


def test_lake_read_filter_on_nonprojected_column(ray_session, tmp_path):
    """Regression: merge-on-read with a filter referencing a column
    outside the projection (optimize_steps fuses where+select into
    read_lake independently) must not raise ArrowInvalid."""
    import pyarrow.dataset as pads

    from tenzir_ray.cdc.generate import gen_changes
    from tenzir_ray.cdc.lake import LakeTable
    from tenzir_ray.cdc.oracle import naive_apply

    root = str(tmp_path / "lake")
    ch = gen_changes(1200, seed=11)
    lt = LakeTable(root, num_partitions=4)
    half = ch.num_rows // 2
    lt.apply_changes(ch.slice(0, half), epoch_id="e1")
    lt.apply_changes(ch.slice(half), epoch_id="e2")  # delta files land
    assert lt._has_deltas()

    out = lt.read(columns=["role"],
                  filter=pads.field("turn_idx") < 3).to_pandas()
    final = naive_apply(ch).to_pandas()
    want = final[final.turn_idx < 3]
    assert sorted(out.columns) == ["role"]
    assert sorted(out["role"].tolist()) == sorted(want["role"].tolist())


def test_subnet_mask_ipv6_strings():
    """Regression: IPv6 address STRINGS must match v6 subnets (were
    silently all-False; only the bytes16 path handled v6)."""
    from tenzir_ray.iptype import subnet_mask

    a = pa.array(["2001:db8::1", "2001:db9::1", "10.0.0.5", None,
                  "bogus", "::ffff:10.0.0.9"])
    assert subnet_mask(a, "2001:db8::/32").tolist() == [
        True, False, False, False, False, False]
    assert subnet_mask(a, "10.0.0.0/8").tolist() == [
        False, False, True, False, False, True]


def test_broker_torn_tail_recovery(tmp_path):
    """Regression: a producer crash mid-write leaves partial record
    bytes; the next append must truncate them, not write after them."""
    import json as json_mod

    from tenzir_ray.cdc.broker import FileBroker

    root = str(tmp_path)
    b = FileBroker(root, segment_records=16)
    b.create_topic("t", partitions=1)
    b.produce_many("t", [f"v{i}".encode() for i in range(10)],
                   keys=[b"k"] * 10)
    seg = os.path.join(root, "t", "p00000", "segment-000000000000.log")
    with open(seg, "ab") as f:
        f.write(b"\x07\x00\x00\x00par")  # torn partial record
    # also drop the tail cache to force the framing-walk recovery path
    mp = os.path.join(root, "t", "p00000", "meta.json")
    m = json_mod.load(open(mp))
    m.pop("tail_seg"), m.pop("tail_bytes")
    json_mod.dump(m, open(mp, "w"))
    b2 = FileBroker(root, segment_records=16)
    b2.produce_many("t", [f"w{i}".encode() for i in range(10)],
                    keys=[b"k"] * 10)  # spans a segment roll
    vals = [v.decode() for _, _, v in b2.read("t", 0, 0, max_records=100)]
    assert vals == [f"v{i}" for i in range(10)] + [
        f"w{i}" for i in range(10)]


def test_expr_float_mod_floordiv():
    """Regression: % and // on float operands (the int-only identity
    made float %% always 0 and float // true division)."""
    import pyarrow.dataset as pads

    from tenzir_ray.expr import compile_expr

    t = pa.table({"x": [7.5, 3.0, 8.0], "n": [7, 3, 8]})

    def rows(e):
        return pads.dataset(t).to_table(filter=compile_expr(e)).num_rows

    assert rows("x % 2 == 1.5") == 1
    assert rows("x // 2 == 3") == 1
    assert rows("n % 2 == 1") == 2
    assert rows("n // 2 == 3") == 1


def test_print_ndjson_nulls(ray_session):
    """Regression: null timestamps rendered as the string "NaT" and
    int64-with-null columns floatified (1 -> 1.0)."""
    import datetime
    import json as json_mod

    import ray.data as rd

    from tenzir_ray.stages.transforms import print_ndjson

    t = pa.table({
        "n": pa.array([1, None], pa.int64()),
        "ts": pa.array([datetime.datetime(2026, 1, 1), None],
                       pa.timestamp("us")),
        "ts2": pa.array([datetime.datetime(2026, 1, 1, 1, 2, 3, 500000)] * 2,
                        pa.timestamp("us")),
    })
    out = [json_mod.loads(s) for s in
           print_ndjson(rd.from_arrow(t)).to_pandas()["text"]]
    assert out[0] == {"n": 1, "ts": "2026-01-01 00:00:00",
                      "ts2": "2026-01-01 01:02:03.500000"}
    assert out[1] == {"n": None, "ts": None,
                      "ts2": "2026-01-01 01:02:03.500000"}


def test_slice_negative_stride_order(ray_session):
    """Regression: negative stride must emit rows in descending
    position order (Python b:e:stride semantics), not ascending."""
    import ray.data as rd

    from tenzir_ray.stages.transforms import slice_

    ds = rd.from_arrow(pa.table({"k": list(range(20))}))
    got = slice_(ds, None, None, stride=-2,
                 order_by="k").to_pandas()["k"].tolist()
    assert got == list(range(20))[::-2]
    got2 = slice_(ds, 15, 2, stride=-3,
                  order_by="k").to_pandas()["k"].tolist()
    assert got2 == list(range(20))[15:2:-3]


def test_ivf_append_and_rebalance(ray_session, tmp_path):
    """Append assigns against existing centroids (no rewrite); heavy
    drift trips skew() and rebalance() retrains + rewrites the layout,
    after which exhaustive search still equals brute force."""
    import ray.data as rd

    from tenzir_ray.stages import similarity as SIM

    rng = np.random.default_rng(5)
    n, d = 1000, 8
    base = rng.standard_normal((n, d)).astype(np.float32)
    t = pa.table({"vec_id": pa.array(range(n), pa.int64()),
                  "embedding": pa.array(base.tolist(), pa.list_(pa.float32()))})
    root = str(tmp_path / "ivf")
    idx = SIM.IvfIndex.build(rd.from_arrow(t).repartition(4), root,
                             nlist=8, train_sample=256)

    # append a tight cluster far from the training data → one hot list
    hot = (rng.standard_normal((1500, d)) * 0.01 + 25.0).astype(np.float32)
    t2 = pa.table({"vec_id": pa.array(range(n, n + 1500), pa.int64()),
                   "embedding": pa.array(hot.tolist(), pa.list_(pa.float32()))})
    r = idx.append(rd.from_arrow(t2).repartition(4))
    assert r == {"rows_added": 1500, "num_rows": n + 1500}
    assert idx.meta["num_rows"] == n + 1500
    sk = idx.skew()
    assert sk > 4.0, sk  # the hot cluster collapsed onto few lists

    # below-threshold call is a no-op
    assert idx.rebalance(max_skew=sk + 1)["rebalanced"] is False

    out = idx.rebalance(max_skew=4.0)
    assert out["rebalanced"] is True
    assert out["skew_after"] < out["skew_before"]
    assert idx.meta["num_rows"] == n + 1500

    # correctness is preserved: exhaustive probe == brute force over
    # the full (base + appended) corpus
    full = pa.concat_tables([t, t2])
    q = np.concatenate([base[:2], hot[:1]])
    exact = SIM.brute_force_topk(rd.from_arrow(full), q, k=5, dtype=np.float64)
    got = SIM.IvfIndex(root).search(q, k=5, nprobe=8, dtype=np.float64)
    assert got.column("vec_id").to_pylist() == exact.column("vec_id").to_pylist()


# ---------------------------------------------------------------- range join


def _range_oracle(ldf, rdf, on, by=None, how="inner"):
    """Brute-force pandas oracle: v >= lo AND v < hi (+ optional by)."""
    l = ldf.copy(); l["_o"] = 1
    r = rdf.copy(); r["_o"] = 1
    m = l.merge(r, on="_o", suffixes=("", "_r")).drop(columns="_o")
    keep = (m[on] >= m["lo"]) & (m[on] < m["hi"])
    if by:
        rby = by if by + "_r" not in m.columns else by + "_r"
        keep &= m[by].eq(m[rby])
    inner = m[keep]
    if how == "inner":
        return inner
    matched = set(inner.index.map(lambda i: None))  # noqa placeholder
    return inner


def test_range_join_overlapping_vs_bruteforce(ray_session):
    import ray.data as rd

    from tenzir_ray.stages.join import range_join

    rng = np.random.default_rng(7)
    n = 5000
    left = pd.DataFrame({
        "eid": np.arange(n, dtype=np.int64),
        "v": np.round(rng.uniform(-10, 110, n), 3),
    })
    # overlapping bands incl. an empty gap [95, 100) covered by nothing
    right = pd.DataFrame({
        "band": np.arange(12, dtype=np.int64),
        "lo": np.arange(12) * 8.0,          # 0, 8, ..., 88
        "hi": np.arange(12) * 8.0 + 12.0,   # overlap 4 with the next band
        "tag": [f"b{i}" for i in range(12)],
    })
    got = range_join(
        rd.from_pandas(left), rd.from_pandas(right), on="v"
    ).to_pandas()
    want = _range_oracle(left, right, "v")
    assert len(got) == len(want)
    g = got.sort_values(["eid", "band"]).reset_index(drop=True)
    w = want.sort_values(["eid", "band"]).reset_index(drop=True)
    assert (g["eid"].values == w["eid"].values).all()
    assert (g["band"].values == w["band"].values).all()
    assert (g["tag"].values == w["tag"].values).all()
    # duplicate-endpoint intervals and zero/negative-width ones are dropped
    right2 = pd.concat([right, pd.DataFrame(
        {"band": [99], "lo": [50.0], "hi": [50.0], "tag": ["degenerate"]})])
    got2 = range_join(rd.from_pandas(left), rd.from_pandas(right2),
                      on="v").to_pandas()
    assert len(got2) == len(want)


def test_range_join_left_and_by(ray_session):
    import ray.data as rd

    from tenzir_ray.stages.join import range_join

    left = pd.DataFrame({
        "eid": [0, 1, 2, 3, 4],
        "grp": ["a", "a", "b", "b", "a"],
        "v": [5.0, 15.0, 5.0, 200.0, np.nan],
    })
    right = pd.DataFrame({
        "grp": ["a", "b", "a"],
        "lo": [0.0, 0.0, 10.0],
        "hi": [10.0, 10.0, 20.0],
        "tier": ["a-low", "b-low", "a-mid"],
    })
    got = range_join(rd.from_pandas(left), rd.from_pandas(right),
                     on="v", by="grp", how="left").to_pandas()
    got = got.sort_values("eid").reset_index(drop=True)
    # eid0 -> a-low; eid1 -> a-mid; eid2 -> b-low; eid3/4 unmatched (null)
    assert len(got) == 5
    assert got.loc[0, "tier"] == "a-low"
    assert got.loc[1, "tier"] == "a-mid"
    assert got.loc[2, "tier"] == "b-low"
    assert pd.isna(got.loc[3, "tier"]) and pd.isna(got.loc[4, "tier"])
    # inner drops the unmatched + NaN-value rows
    inner = range_join(rd.from_pandas(left), rd.from_pandas(right),
                       on="v", by="grp").to_pandas()
    assert sorted(inner["eid"].tolist()) == [0, 1, 2]


def test_range_join_timestamps_vs_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from tenzir_ray.stages.join import range_join

    SF = "/root/testdata/sf0.001"
    events = rd.read_parquet(f"{SF}/events.parquet",
                             columns=["event_id", "ts"])
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    bounds = con.sql("SELECT min(ts) AS t0 FROM events").df()
    t0 = pd.Timestamp(bounds["t0"][0])
    # 6-hour maintenance windows every day at t0 + k days
    win = pd.DataFrame({
        "win_id": np.arange(30, dtype=np.int64),
        "lo": [t0 + pd.Timedelta(days=int(k)) for k in range(30)],
        "hi": [t0 + pd.Timedelta(days=int(k), hours=6) for k in range(30)],
    })
    got = range_join(events, rd.from_pandas(win), on="ts").to_pandas()
    con.register("win", win)
    want = con.sql(
        "SELECT e.event_id, w.win_id FROM events e JOIN win w "
        "ON e.ts >= w.lo AND e.ts < w.hi"
    ).df()
    assert len(got) == len(want)
    g = got.sort_values(["event_id", "win_id"]).reset_index(drop=True)
    w = want.sort_values(["event_id", "win_id"]).reset_index(drop=True)
    assert (g["event_id"].values == w["event_id"].values).all()
    assert (g["win_id"].values == w["win_id"].values).all()
    con.close()


def test_range_join_broadcast_size_guard(ray_session):
    import ray.data as rd

    from tenzir_ray.stages.join import range_join

    left = rd.range(10)
    big = pd.DataFrame({"lo": np.arange(100.0), "hi": np.arange(100.0) + 1})
    with pytest.raises(ValueError, match="dimension-sized"):
        range_join(left, rd.from_pandas(big), on="id",
                   max_broadcast_rows=50)


# ------------------------------------------------------------- dds quantile


def test_ddsketch_percentiles_accuracy(ray_session):
    """DDSketch p50/p95/p99: relative error <= alpha (plus rank
    discretization slack) vs exact numpy quantiles, across groups with
    negatives, zeros and nulls, merged over many blocks."""
    import ray.data as rd

    from tenzir_ray.stages import summarize as S

    rng = np.random.default_rng(11)
    n = 60_000
    grp = rng.integers(0, 4, n)
    # lognormal positives, group 3 shifted negative, sprinkle zeros/nulls
    v = np.exp(rng.normal(3.0, 1.2, n))
    v[grp == 3] = -v[grp == 3]
    v[rng.random(n) < 0.01] = 0.0
    vals = v.copy()
    null_mask = rng.random(n) < 0.02
    col = vals.copy()
    col[null_mask] = np.nan
    df = pd.DataFrame({"g": grp, "v": col})
    ds = rd.from_pandas(df).repartition(16)

    got = S.summarize(ds, by="g", p50="p50(v)", p95="p95(v)",
                      p99="p99(v)").to_pandas().set_index("g").sort_index()
    for g in range(4):
        clean = vals[(grp == g) & ~null_mask]
        for name, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            exact = np.quantile(clean, q)
            est = got.loc[g, name]
            tol = 0.02 * abs(exact) + 1e-9  # 2*alpha slack
            assert abs(est - exact) <= tol + abs(exact) * 0.01, (
                g, name, est, exact)


def test_ddsketch_all_null_and_signs(ray_session):
    import ray.data as rd

    from tenzir_ray.stages import summarize as S

    df = pd.DataFrame({
        "g": ["a"] * 3 + ["b"] * 3,
        "v": pd.array([None, None, None, -100.0, 0.0, 100.0],
                      dtype="float64"),
    })
    got = S.summarize(rd.from_pandas(df), by="g",
                      p50="p50(v)").to_pandas().set_index("g")
    assert pd.isna(got.loc["a", "p50"])
    assert abs(got.loc["b", "p50"]) < 1e-9  # median of {-100, 0, 100} = 0


def test_pipeline_range_join_op(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from tenzir_ray.pipelines.pipeline import Pipeline

    SF = "/root/testdata/sf0.001"
    bands = pa.table({
        "band_id": pa.array([0, 1, 2], pa.int64()),
        "lo": pa.array([0.0, 100.0, 200.0]),
        "hi": pa.array([120.0, 220.0, 1000.0]),  # overlapping
    })
    bp = str(tmp_path / "bands.parquet")
    pq.write_table(bands, bp)
    out = Pipeline([
        {"op": "read_parquet", "paths": f"{SF}/events.parquet",
         "columns": ["event_id", "value"]},
        {"op": "range_join", "on": "value",
         "right": [{"op": "read_parquet", "paths": bp}]},
    ]).run().to_pandas()
    assert len(out) > 0
    assert ((out["value"] >= out["lo"]) & (out["value"] < out["hi"])).all()


# ------------------------------------------------- resumable partitioned out


def test_write_parquet_partitioned_resume_and_orphans(ray_session, tmp_path):
    import json

    import pyarrow.parquet as pq
    import ray.data as rd

    from tenzir_ray.sources.writers import (
        read_parquet_partitioned,
        write_parquet_partitioned,
    )

    df = pd.DataFrame({
        "day": ["d1"] * 40 + ["d2"] * 30 + ["d3"] * 30,
        "x": np.arange(100, dtype=np.int64),
    })
    root = str(tmp_path / "out")
    m1 = write_parquet_partitioned(rd.from_pandas(df).repartition(4),
                                   root, by="day")
    assert m1["rows"] == 100 and set(m1["partitions"]) == {"d1", "d2", "d3"}

    # plant an ORPHAN (crashed-attempt analog): must stay invisible
    orphan = os.path.join(root, "day=d1", "part-deadbeef.parquet")
    pq.write_table(pa.table({"day": ["d1"], "x": [999999]}), orphan)

    got = read_parquet_partitioned(root).to_pandas()
    assert len(got) == 100 and 999999 not in set(got["x"])

    # partition pruning reads only the asked-for dirs
    d2 = read_parquet_partitioned(root, values=["d2"]).to_pandas()
    assert len(d2) == 30 and set(d2["day"]) == {"d2"}

    # resume: the committed root short-circuits (manifest returned as-is,
    # no rewrite — file set unchanged)
    before = json.load(open(os.path.join(root, "_manifest.json")))
    m2 = write_parquet_partitioned(rd.from_pandas(df), root, by="day")
    assert m2 == before

    # a crashed FIRST attempt (no manifest) redoes the work: orphans from
    # it are superseded because the fresh manifest lists only new files
    root2 = str(tmp_path / "out2")
    os.makedirs(os.path.join(root2, "day=d1"), exist_ok=True)
    pq.write_table(pa.table({"day": ["d1"], "x": [123456]}),
                   os.path.join(root2, "day=d1", "part-stale.parquet"))
    write_parquet_partitioned(rd.from_pandas(df), root2, by="day")
    got2 = read_parquet_partitioned(root2).to_pandas()
    assert len(got2) == 100 and 123456 not in set(got2["x"])


def test_range_join_partitioned_matches_broadcast(ray_session):
    import ray.data as rd

    from tenzir_ray.stages.join import range_join, range_join_partitioned

    rng = np.random.default_rng(23)
    n = 20000
    left = pd.DataFrame({
        "eid": np.arange(n, dtype=np.int64),
        "v": np.round(rng.uniform(-50, 550, n), 4),
    })
    right = pd.DataFrame({
        "band": np.arange(40, dtype=np.int64),
        "lo": np.arange(40) * 12.0,
        "hi": np.arange(40) * 12.0 + 20.0,     # overlapping
        "tag": [f"t{i}" for i in range(40)],
    })

    def norm(df, cols):
        return df[cols].sort_values(cols).reset_index(drop=True)

    for how in ("inner", "left"):
        a = range_join(rd.from_pandas(left).repartition(8),
                       rd.from_pandas(right), on="v", how=how).to_pandas()
        b = range_join_partitioned(rd.from_pandas(left).repartition(8),
                                   rd.from_pandas(right).repartition(4),
                                   on="v", how=how,
                                   num_buckets=8).to_pandas()
        assert len(a) == len(b), (how, len(a), len(b))
        cols = ["eid", "v", "band", "tag"]
        an, bn = norm(a.fillna(-1), cols), norm(b.fillna(-1), cols)
        for c in cols:
            assert (an[c].values == bn[c].values).all(), (how, c)

    # empty right side
    e = range_join_partitioned(
        rd.from_pandas(left), rd.from_pandas(right.iloc[:0]),
        on="v", how="left", num_buckets=4).to_pandas()
    assert len(e) == n and e["band"].isna().all()
    ei = range_join_partitioned(
        rd.from_pandas(left), rd.from_pandas(right.iloc[:0]),
        on="v", how="inner", num_buckets=4).to_pandas()
    assert len(ei) == 0


def test_heavy_hitters_sketch(ray_session):
    """Misra-Gries: with capacity 256 and ~50k distinct values, the
    planted heavy values (40/30/15/5%) surface in exact order; counters
    never exceed capacity."""
    import ray.data as rd

    from tenzir_ray.stages import summarize as S

    rng = np.random.default_rng(3)
    n = 50_000
    r = rng.random(n)
    vals = np.where(
        r < 0.40, "H0", np.where(
            r < 0.70, "H1", np.where(
                r < 0.85, "H2", np.where(r < 0.90, "H3", None))))
    tail = np.array([f"u{i}" for i in range(n)], dtype=object)
    vals = np.where(vals == None, tail, vals)  # noqa: E711
    df = pd.DataFrame({"g": np.where(np.arange(n) % 2 == 0, "a", "b"),
                       "v": vals.astype(str)})
    out = S.summarize(rd.from_pandas(df).repartition(16), by="g",
                      hh="heavy_hitters(v)").to_pandas().set_index("g")
    for g in ("a", "b"):
        top = list(out.loc[g, "hh"])[:4]
        assert top == ["H0", "H1", "H2", "H3"], (g, top)

    # bounded state: the raw accumulator never exceeds capacity counters
    agg = S._heavy_hitters("v", "hh", capacity=64)
    acc = agg.init(None)
    for lo in range(0, n, 8192):
        acc = agg.accumulate_block(
            acc, pa.table({"v": vals[lo:lo + 8192].astype(str)}))
        assert len(acc["v"]) <= 64
    assert agg.finalize(acc)[:2] == ["H0", "H1"]


def test_replace_only_touches_existing(ray_session):
    import ray.data as rd

    from tenzir_ray.stages.transforms import replace

    ds = rd.from_arrow(pa.table({"a": [1, 2], "b": [10, 20]}))
    out = replace(ds, a="a * 100", missing="a + 1").to_pandas()
    assert list(out.columns) == ["a", "b"]  # `missing` NOT created
    assert out["a"].tolist() == [100, 200]
    assert out["b"].tolist() == [10, 20]


def test_hash_join_semi_anti(ray_session):
    import duckdb
    import ray.data as rd

    from tenzir_ray.stages.join import hash_join

    SF = "/root/testdata/sf0.001"
    orders = rd.read_parquet(f"{SF}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])
    cust = rd.read_parquet(f"{SF}/customer.parquet",
                           columns=["c_custkey", "c_mktsegment"])
    cust_low = cust.filter(expr="c_custkey < 100")

    semi = hash_join(orders, cust_low, on="o_custkey",
                     right_on="c_custkey", how="semi").to_pandas()
    anti = hash_join(orders, cust_low, on="o_custkey",
                     right_on="c_custkey", how="anti").to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW orders AS SELECT * FROM '{SF}/orders.parquet'")
    n_semi = con.sql(
        "SELECT count(*) FROM orders o WHERE EXISTS (SELECT 1 FROM "
        f"'{SF}/customer.parquet' c WHERE c.c_custkey = o.o_custkey "
        "AND c.c_custkey < 100)").fetchone()[0]
    n_total = con.sql("SELECT count(*) FROM orders").fetchone()[0]
    assert len(semi) == n_semi
    assert len(anti) == n_total - n_semi
    assert list(semi.columns) == ["o_orderkey", "o_custkey"]  # left cols only
    assert set(semi["o_orderkey"]).isdisjoint(set(anti["o_orderkey"]))
    con.close()


def test_review_findings_empty_and_null_edges(ray_session, tmp_path):
    """Round-3 review findings: zero-block inputs and null partition
    values must produce empty/valid results, never crashes."""
    import ray.data as rd

    from tenzir_ray.sources.writers import (
        read_parquet_partitioned,
        write_parquet_partitioned,
    )
    from tenzir_ray.stages.chunk import pack_sequences
    from tenzir_ray.stages.join import range_join_partitioned

    empty = rd.from_items([])

    # partitioned sink: empty input commits an EMPTY manifest (resume
    # contract holds) and the reader returns zero rows
    root = str(tmp_path / "empty_out")
    m = write_parquet_partitioned(empty, root, by="k")
    assert m["rows"] == 0 and m["partitions"] == {}
    assert read_parquet_partitioned(root).count() == 0

    # null partition values land in an explicit __null__ directory
    root2 = str(tmp_path / "null_out")
    df = pd.DataFrame({"k": ["a", None, "a"], "x": [1, 2, 3]})
    m2 = write_parquet_partitioned(rd.from_pandas(df), root2, by="k")
    assert set(m2["partitions"]) == {"a", "__null__"}
    got = read_parquet_partitioned(root2, values=["__null__"]).to_pandas()
    assert got["x"].tolist() == [2]

    # pack_sequences on a zero-block dataset: empty result, no crash
    assert pack_sequences(empty, "k", target_tokens=10).count() == 0

    # range_join_partitioned with a zero-block left: empty result with
    # the right-side schema
    right = rd.from_pandas(pd.DataFrame(
        {"lo": [0.0], "hi": [10.0], "tag": ["t"]}))
    out = range_join_partitioned(empty, right, on="v")
    assert out.count() == 0


def test_p100_and_ambiguous_percentiles(ray_session):
    import ray.data as rd

    from tenzir_ray.stages import summarize as S

    ds = rd.from_arrow(pa.table({"g": ["a"] * 5, "v": [1.0, 2, 3, 4, 100.0]}))
    got = S.summarize(ds, by="g", top="p100(v)").to_pandas()
    assert abs(got["top"][0] - 100.0) <= 1.01 + 1e-9  # p100 = max (±1%)
    with pytest.raises(ValueError, match="ambiguous"):
        S.summarize(ds, by="g", x="p123(v)").to_pandas()


def test_chunk_documents_long_doc_memory_shape(ray_session):
    """The long-document path: output size stays ~len * size/stride, not
    len * n_chunks (the quadratic take() trap the review caught)."""
    import ray.data as rd

    from tenzir_ray.stages.chunk import chunk_documents

    big = "y" * 2_000_000  # 2 MB doc → ~4464 chunks at 512/64
    ds = rd.from_arrow(pa.table({"doc_id": [1], "text": [big]}))
    out = chunk_documents(ds, size=512, overlap=64)
    df = out.to_pandas()
    assert len(df) == int(np.ceil((2_000_000 - 64) / 448))
    assert df["text"].str.len().sum() < 2_500_000  # ≈ len·(1+ov/stride)


def test_asof_join_tolerance_and_nearest(ray_session):
    """tolerance= bounds the match distance (duration string for
    timestamp keys, number for numeric keys); direction='nearest'
    passes through to merge_asof."""
    import pandas as pd
    import ray.data

    from tenzir_ray.stages.join import asof_join

    base = pd.Timestamp("2024-01-01")
    left = pd.DataFrame({
        "k": ["a"] * 3,
        "ts": [base, base + pd.Timedelta("45m"), base + pd.Timedelta("2h")],
        "lid": [0, 1, 2]})
    right = pd.DataFrame({
        "k": ["a"] * 2,
        "ts": [base - pd.Timedelta("10m"), base + pd.Timedelta("40m")],
        "rid": [100, 200]})

    out = asof_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                    by="k", on="ts", tolerance="30m").to_pandas() \
        .sort_values("lid", ignore_index=True)
    want = pd.merge_asof(left.sort_values("ts"), right.sort_values("ts"),
                         on="ts", by="k", tolerance=pd.Timedelta("30m"))
    assert out["rid"].fillna(-1).tolist() == \
        want["rid"].fillna(-1).tolist() == [100.0, 200.0, -1]

    # numeric on-key + numeric tolerance
    ln = pd.DataFrame({"k": ["a"] * 2, "x": [10, 50], "lid": [0, 1]})
    rn = pd.DataFrame({"k": ["a"] * 2, "x": [7, 20], "rid": [1, 2]})
    out = asof_join(ray.data.from_pandas(ln), ray.data.from_pandas(rn),
                    by="k", on="x", tolerance=5).to_pandas() \
        .sort_values("lid", ignore_index=True)
    assert out["rid"].fillna(-1).tolist() == [1, -1]

    # nearest: the 2h left row matches the 40m right row without
    # tolerance, forward would find nothing
    out = asof_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                    by="k", on="ts", direction="nearest").to_pandas() \
        .sort_values("lid", ignore_index=True)
    assert out["rid"].tolist() == [100, 200, 200]


def test_asof_join_duration_tolerance_rejects_numeric_key(ray_session):
    import pandas as pd
    import pytest
    import ray.data

    from tenzir_ray.stages.join import asof_join

    l = ray.data.from_pandas(pd.DataFrame(
        {"k": ["a"], "x": [10], "lid": [0]}))
    r = ray.data.from_pandas(pd.DataFrame(
        {"k": ["a"], "x": [7], "rid": [1]}))
    with pytest.raises(TypeError, match="duration tolerance"):
        asof_join(l, r, by="k", on="x", tolerance="30m")
