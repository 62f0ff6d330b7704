"""Time-travel snapshot reads + change-data-feed over the CDC lake
(Delta-Lake versionAsOf / CDF analogs; reference durability discipline
libtenzir/src/active_partition.cpp:103-187 generalized to lineage)."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from tenzir_ray.cdc.generate import gen_changes
from tenzir_ray.cdc.lake import LakeTable
from tenzir_ray.cdc.oracle import naive_apply

PAYLOAD = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def _split(changes: pa.Table, lo: int, hi: int) -> pa.Table:
    lsn = changes.column("lsn")
    return changes.filter(
        pc.and_(pc.greater_equal(lsn, lo), pc.less(lsn, hi))
    )


def _eq(got: pa.Table, want: pa.Table, cols=PAYLOAD):
    assert got.num_rows == want.num_rows, (got.num_rows, want.num_rows)
    g = got.select(cols).to_pandas().reset_index(drop=True)
    w = want.select(cols).to_pandas().reset_index(drop=True)
    for c in cols:
        assert g[c].equals(w[c]), f"column {c} differs"


def _net_changes(epoch_tbl: pa.Table) -> pd.DataFrame:
    """Per-epoch oracle: intra-epoch LWW winner per key, op retained."""
    df = epoch_tbl.to_pandas()
    # NOT groupby().last() — that skips nulls per column and would backfill
    # a delete row's null payload from an earlier event
    df = df.sort_values("lsn").drop_duplicates(["conv_id", "turn_idx"], keep="last")
    return df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def test_time_travel_snapshots(ray_session, tmp_path):
    changes = gen_changes(9_000, seed=11)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    e1, e2, e3 = (_split(changes, 0, 3000), _split(changes, 3000, 6000),
                  _split(changes, 6000, 9000))
    lake.apply_changes(e1, epoch_id="e1")
    lake.apply_changes(e2, epoch_id="e2")
    lake.apply_changes(e3, epoch_id="e3")

    _eq(lake.final_table(as_of="e1"), naive_apply(e1))
    _eq(lake.final_table(as_of="e2"),
        naive_apply(pa.concat_tables([e1, e2])))
    # index + negative-index forms, and the Dataset read() path
    _eq(lake.final_table(as_of=0), naive_apply(e1))
    _eq(lake.final_table(as_of=-1), lake.final_table())
    ds = lake.read(as_of="e1")
    got = pa.Table.from_pandas(
        ds.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    _eq(got, naive_apply(e1))

    with pytest.raises(KeyError):
        lake.final_table(as_of="nope")
    with pytest.raises(IndexError):
        lake.final_table(as_of=7)


def test_time_travel_across_delta_epochs(ray_session, tmp_path):
    changes = gen_changes(20_000, seed=13)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    base, tail = _split(changes, 0, 19_000), _split(changes, 19_000, 20_000)
    lake.apply_changes(base, epoch_id="base")
    r2 = lake.apply_changes(tail, epoch_id="tail", delta_ratio=0.5)
    assert any(
        rec.get("mode") == "delta"
        for rec in lake.manifest.epochs[-1]["partitions"].values()
    ), r2
    # the pre-delta snapshot must not see the tail epoch
    _eq(lake.final_table(as_of="base"), naive_apply(base))
    _eq(lake.final_table(as_of="tail"), naive_apply(changes))


def test_record_size_independent_of_history(ray_session, tmp_path):
    """A lineage record carries what its epoch changed: the sixth delta
    epoch's log record is no larger than the first one's, although each
    partition then holds seven files."""
    changes = gen_changes(20_000, seed=37)
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=4)
    lake.apply_changes(_split(changes, 0, 14_000), epoch_id="base")
    for i in range(6):
        lo = 14_000 + 1000 * i
        lake.apply_changes(_split(changes, lo, lo + 1000),
                           epoch_id=f"d{i}", delta_ratio=0.5)
    for e in lake.manifest.epochs[1:]:
        assert {r["mode"] for r in e["partitions"].values()} == {"delta"}
    assert all(len(i["files"]) == 7
               for i in lake.manifest.partitions.values())
    logd = os.path.join(root, "_log")
    first, last = (os.path.getsize(os.path.join(logd, f"v{v:020d}.json"))
                   for v in (2, 7))
    assert last <= 1.5 * first, (first, last)
    _eq(lake.final_table(), naive_apply(changes))


def test_metrics_rows_are_rows_written(ray_session, tmp_path):
    changes = gen_changes(20_000, seed=13)
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=4)
    base, tail = _split(changes, 0, 19_000), _split(changes, 19_000, 20_000)
    r1 = lake.apply_changes(base, epoch_id="base")
    r2 = lake.apply_changes(tail, epoch_id="tail", delta_ratio=0.5)
    assert {r["mode"] for r in lake.manifest.epochs[-1]["partitions"].values()
            } == {"delta"}
    # full epoch: the live rows it wrote; delta epoch: its delta files'
    # rows — one per key it changed, delete tombstones included
    want = [naive_apply(base).num_rows, len(_net_changes(tail))]
    assert [r1["rows_live"], r2["rows_live"]] == want
    for lk in (lake, LakeTable(root)):
        m = lk.metrics().to_pandas()
        assert m["epoch_id"].tolist() == ["base", "tail"]
        assert m["rows"].tolist() == want


def test_optimize_publishes_lineage_snapshot(ray_session, tmp_path):
    changes = gen_changes(6_000, seed=17)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lake.apply_changes(_split(changes, 0, 3000), epoch_id="a")
    lake.apply_changes(_split(changes, 3000, 6000), epoch_id="b")
    lake.optimize()
    # latest snapshot == live state even after compaction + gc
    _eq(lake.final_table(as_of=-1), lake.final_table())
    got = lake.read(as_of=-1).to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    _eq(pa.Table.from_pandas(got), lake.final_table())


def test_change_feed_roundtrip(ray_session, tmp_path):
    changes = gen_changes(8_000, seed=23)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    e1, e2 = _split(changes, 0, 4000), _split(changes, 4000, 8000)
    lake.apply_changes(e1, epoch_id="e1", change_feed=True)
    lake.apply_changes(e2, epoch_id="e2", change_feed=True)

    feed = lake.changes().to_pandas()
    want = pd.concat([_net_changes(e1), _net_changes(e2)], ignore_index=True)
    assert len(feed) == len(want)
    g = feed.sort_values(["_lsn"]).reset_index(drop=True)
    w = want.sort_values(["lsn"]).reset_index(drop=True)
    assert g["_lsn"].tolist() == w["lsn"].tolist()
    assert g["_op"].tolist() == w["op"].tolist()
    assert g["text"].tolist() == w["text"].tolist()
    # tombstones are present in the feed
    assert (g["_op"] == "delete").any()

    # since_lsn prunes whole epochs + filters rows
    tail = lake.changes(since_lsn=4000).to_pandas()
    assert (tail["_lsn"] >= 4000).all()
    assert len(tail) == len(_net_changes(e2))

    # epoch selection + id tagging
    tagged = lake.changes(epochs=["e1"], with_epoch_id=True).to_pandas()
    assert set(tagged["_epoch_id"]) == {"e1"}
    assert len(tagged) == len(_net_changes(e1))


def test_change_feed_requires_flag_for_full_epochs(ray_session, tmp_path):
    changes = gen_changes(2_000, seed=29)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    lake.apply_changes(changes, epoch_id="e1")  # full rewrite, no feed
    with pytest.raises(ValueError, match="change_feed"):
        lake.changes().to_pandas()


def test_change_feed_delta_fallback_and_retention(ray_session, tmp_path):
    changes = gen_changes(20_000, seed=31)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    base, tail = _split(changes, 0, 19_000), _split(changes, 19_000, 20_000)
    lake.apply_changes(base, epoch_id="base", change_feed=True)
    # delta epoch WITHOUT the flag: the delta file itself serves the feed
    lake.apply_changes(tail, epoch_id="tail", delta_ratio=0.5)
    feed = lake.changes(epochs=["tail"]).to_pandas()
    assert len(feed) == len(_net_changes(tail))

    # lineage truncation deletes owned _cdf files and bounds the feed
    cdf_files = [
        os.path.join(str(tmp_path / "lake"), rec["cdf_file"])
        for rec in lake.manifest.epochs[0]["partitions"].values()
    ]
    assert all(os.path.exists(f) for f in cdf_files)
    dropped = lake.truncate_lineage(keep_epochs=1)
    assert dropped == 1
    assert not any(os.path.exists(f) for f in cdf_files)
    feed2 = lake.changes().to_pandas()
    assert len(feed2) == len(_net_changes(tail))


def test_change_feed_preimages(ray_session, tmp_path):
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    e1 = pa.table({
        "lsn": pa.array([0, 1, 2], pa.int64()),
        "op": ["insert", "insert", "insert"],
        "conv_id": ["a", "a", "b"],
        "turn_idx": pa.array([0, 1, 0], pa.int32()),
        "text": ["a0", "a1", "b0"],
    })
    # epoch 2: update a/0, delete a/1, insert c/0, delete missing key d/9
    e2 = pa.table({
        "lsn": pa.array([3, 4, 5, 6], pa.int64()),
        "op": ["update", "delete", "insert", "delete"],
        "conv_id": ["a", "a", "c", "d"],
        "turn_idx": pa.array([0, 1, 0, 9], pa.int32()),
        "text": ["a0v2", None, "c0", None],
    })
    lake.apply_changes(e1, epoch_id="e1", change_feed="preimages")
    lake.apply_changes(e2, epoch_id="e2", change_feed="preimages")

    feed = lake.changes(with_epoch_id=True).to_pandas()
    f1 = feed[feed["_epoch_id"] == "e1"]
    assert sorted(f1["_change_type"]) == ["insert"] * 3  # empty base

    f2 = feed[feed["_epoch_id"] == "e2"]
    by = {(r["conv_id"], r["turn_idx"], r["_change_type"]): r
          for r in f2.to_dict("records")}
    # update pair: preimage carries the OLD payload+lsn, postimage the new
    assert by[("a", 0, "update_preimage")]["text"] == "a0"
    assert by[("a", 0, "update_preimage")]["_lsn"] == 0
    assert by[("a", 0, "update_postimage")]["text"] == "a0v2"
    assert by[("a", 0, "update_postimage")]["_lsn"] == 3
    # delete carries the removed row's content
    assert by[("a", 1, "delete")]["text"] == "a1"
    assert by[("c", 0, "insert")]["text"] == "c0"
    # deleting a key that never lived emits nothing
    assert ("d", 9, "delete") not in by and len(f2) == 4

    # final state unaffected by the feed mode
    fin = lake.final_table().to_pandas()
    assert sorted(zip(fin["conv_id"], fin["turn_idx"])) == [("a", 0), ("b", 0), ("c", 0)]


def test_tql_lake_time_travel_and_feed(ray_session, tmp_path):
    from tenzir_ray.pipelines.tql import run_pipeline

    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=2)
    ch = gen_changes(2000, seed=3)
    lake.apply_changes(_split(ch, 0, 1000), epoch_id="e1", change_feed=True)
    lake.apply_changes(_split(ch, 1000, 2000), epoch_id="e2", change_feed=True)

    snap = run_pipeline(f'read_lake {root} as_of="e1"').to_pandas()
    live = run_pipeline(f"read_lake {root}").to_pandas()
    assert len(snap) == naive_apply(_split(ch, 0, 1000)).num_rows
    assert len(live) == lake.final_table().num_rows

    feed = run_pipeline(f"read_lake_changes {root} since_lsn=1000").to_pandas()
    assert (feed["_lsn"] >= 1000).all()
    assert len(feed) == len(_net_changes(_split(ch, 1000, 2000)))


def test_preimage_feed_since_lsn_keeps_deletes(ray_session, tmp_path):
    """Resuming a preimage feed with since_lsn must not drop delete rows:
    preimage/delete rows carry the REPLACED row's lsn, so the cut is
    epoch-granular (every row of a qualifying epoch is kept)."""
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    e1 = pa.table({
        "lsn": pa.array([0, 1], pa.int64()),
        "op": ["insert", "insert"],
        "conv_id": ["a", "b"],
        "turn_idx": pa.array([0, 0], pa.int32()),
        "text": ["a0", "b0"],
    })
    e2 = pa.table({
        "lsn": pa.array([20], pa.int64()),
        "op": ["delete"],
        "conv_id": ["a"],
        "turn_idx": pa.array([0], pa.int32()),
        "text": pa.array([None], pa.string()),
    })
    lake.apply_changes(e1, epoch_id="e1", change_feed="preimages")
    lake.apply_changes(e2, epoch_id="e2", change_feed="preimages")
    feed = lake.changes(since_lsn=10).to_pandas()
    # e1 (lsn_max 1) pruned entirely; e2's delete row survives even
    # though its _lsn (the replaced row's, 0) is below the cut
    assert list(feed["_change_type"]) == ["delete"]
    assert feed.iloc[0]["conv_id"] == "a" and feed.iloc[0]["text"] == "a0"


def test_truncate_lineage_keeps_time_travel_complete(ray_session, tmp_path):
    """A partition last touched BEFORE the retention horizon must still
    appear in snapshots of retained epochs (the dropped prefix folds
    into a synthetic base record)."""
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    # pick two conv ids that land in DIFFERENT partitions
    from tenzir_ray.cdc.lake import stable_part_of_uniques

    cands = [f"c{i}" for i in range(20)]
    parts = stable_part_of_uniques(cands, 2)
    ca = next(c for c, p in zip(cands, parts) if p == 0)
    cb = next(c for c, p in zip(cands, parts) if p == 1)

    # e1 writes both partitions; e2/e3 touch only ca's partition
    def _e(lsns, convs, texts):
        return pa.table({
            "lsn": pa.array(lsns, pa.int64()),
            "op": ["insert"] * len(lsns),
            "conv_id": convs,
            "turn_idx": pa.array([0] * len(lsns), pa.int32()),
            "text": texts,
        })
    lake.apply_changes(_e([0, 1], [ca, cb], ["a0", "b0"]), epoch_id="e1")
    lake.apply_changes(_e([2], [ca], ["a1"]), epoch_id="e2")
    lake.apply_changes(_e([3], [ca], ["a2"]), epoch_id="e3")
    assert lake.truncate_lineage(keep_epochs=1) == 2
    # live read unaffected; snapshot of the retained epoch e3 must still
    # contain cb (its partition's files come from the folded base record)
    snap = lake.final_table(as_of="e3").to_pandas()
    assert sorted(snap["conv_id"]) == sorted([ca, cb])
    assert lake.final_table().num_rows == 2


def _append_epoch(lo: int, n: int = 100) -> pa.Table:
    import numpy as np

    return pa.table({
        "lsn": pa.array(np.arange(lo, lo + n), pa.int64()),
        "op": ["insert"] * n,
        "conv_id": [f"c{i % 7}" for i in range(n)],
        "turn_idx": pa.array(np.arange(lo, lo + n, dtype=np.int32)),
        "text": [f"t{lo + i}" for i in range(n)],
    })


def test_zone_map_file_pruning_append_only(ray_session, tmp_path):
    """Append-only epochs read without a merge at any file count, and the
    manifest zone maps (per-file min/max — the reference's catalog
    synopsis pruning) skip whole epoch files for range predicates,
    without opening them. Results stay exact vs an unpruned read."""
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=1)
    for e, lo in enumerate([0, 1000, 2000]):
        lake.apply_changes(_append_epoch(lo), epoch_id=f"e{e}",
                           append_only=True)
    info = lake.manifest.partitions["0"]
    assert len(info["files"]) == 3          # no rewrites, no deltas
    assert not lake._has_deltas()           # no merge needed
    stats = info["file_stats"]
    assert all("turn_idx" in s and "conv_id" in s for s in stats.values())

    out = lake.read(filter_expr="turn_idx >= 2000").to_pandas()
    assert lake._last_read_pruned == 2      # two epoch files skipped
    assert len(out) == 100 and out["turn_idx"].min() == 2000
    # time travel to the same state needs no merge and keeps its pruning
    for as_of in (-1, "e2"):
        tt = lake.read(filter_expr="turn_idx >= 2000", as_of=as_of).to_pandas()
        assert lake._last_read_pruned == 2
        assert sorted(tt["turn_idx"]) == sorted(out["turn_idx"])
    mid = lake.read(filter_expr="turn_idx >= 1000 and turn_idx < 2000"
                    ).to_pandas()
    assert lake._last_read_pruned == 2
    assert sorted(mid["turn_idx"]) == list(range(1000, 1100))
    # unpruned equality
    full = lake.read().to_pandas()
    assert len(full) == 300
    assert len(full[full["turn_idx"] >= 2000]) == len(out)

    # non-insert ops are rejected loudly in append mode
    bad = pa.table({
        "lsn": pa.array([9000], pa.int64()), "op": ["delete"],
        "conv_id": ["c0"], "turn_idx": pa.array([0], pa.int32()),
        "text": pa.array([None], pa.string()),
    })
    with pytest.raises(Exception, match="append_only"):
        lake.apply_changes(bad, epoch_id="bad", append_only=True)

    # a later UPSERT epoch transitions back: rewrite merges the append
    # files and the final state is the LWW result
    upd = pa.table({
        "lsn": pa.array([9001], pa.int64()), "op": ["update"],
        "conv_id": ["c0"], "turn_idx": pa.array([0], pa.int32()),
        "text": ["patched"],
    })
    lake.apply_changes(upd, epoch_id="e-up")
    fin = lake.final_table().to_pandas()
    assert len(fin) == 300
    assert fin[(fin["conv_id"] == "c0") & (fin["turn_idx"] == 0)][
        "text"].iloc[0] == "patched"


def test_zone_map_never_prunes_merge_path(ray_session, tmp_path):
    """A delta-carrying lake must NOT prune files: a delta row has to
    merge before any predicate. filter_expr still filters correctly."""
    changes = gen_changes(20_000, seed=41)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    base, tail = _split(changes, 0, 19_000), _split(changes, 19_000, 20_000)
    lake.apply_changes(base, epoch_id="base")
    lake.apply_changes(tail, epoch_id="tail", delta_ratio=0.5)
    assert lake._has_deltas()
    got = lake.read(filter_expr="turn_idx >= 3").to_pandas()
    assert lake._last_read_pruned == 0
    want = lake.final_table().to_pandas()
    want = want[want["turn_idx"] >= 3]
    assert len(got) == len(want)


def test_zone_map_timestamp_pruning(ray_session, tmp_path):
    """Time-range reads over append-only epochs prune via ISO-normalized
    timestamp zone maps — the canonical transcript scan."""
    import numpy as np

    lake = LakeTable(str(tmp_path / "lake"), num_partitions=1)
    for e, day in enumerate(["2025-01-01", "2025-02-01", "2025-03-01"]):
        n = 50
        base = np.datetime64(f"{day}T00:00:00", "us")
        lake.apply_changes(pa.table({
            "lsn": pa.array(np.arange(e * n, (e + 1) * n), pa.int64()),
            "op": ["insert"] * n,
            "conv_id": [f"c{i % 5}" for i in range(n)],
            "turn_idx": pa.array(np.arange(e * n, (e + 1) * n,
                                           dtype=np.int32)),
            "text": [f"t{e}-{i}" for i in range(n)],
            "ts": pa.array(base + np.arange(n) * np.timedelta64(3600, "s"),
                           pa.timestamp("us")),
        }), epoch_id=f"e{e}", append_only=True)
    stats = lake.manifest.partitions["0"]["file_stats"]
    assert all("ts" in s for s in stats.values())
    out = lake.read(filter_expr='ts >= "2025-03-01"').to_pandas()
    assert lake._last_read_pruned == 2
    assert len(out) == 50
    mid = lake.read(
        filter_expr='ts >= "2025-02-01" and ts < "2025-02-15"').to_pandas()
    assert lake._last_read_pruned == 2
    assert len(mid) == 50


def test_clone_shallow_fork(ray_session, tmp_path):
    """clone(): hardlink fork — reads equal, future writes diverge,
    gc on either side never breaks the other (shared inodes survive
    until the last name dies), and time travel works in the clone."""
    src_root = str(tmp_path / "src")
    ch = gen_changes(4000, seed=9)
    lake = LakeTable(src_root, num_partitions=8)
    lsn = ch.column("lsn")
    lake.apply_changes(ch.filter(pc.less(lsn, 2000)), epoch_id="e1")
    lake.apply_changes(ch.filter(pc.greater_equal(lsn, 2000)), epoch_id="e2")
    want = lake.final_table()

    dst_root = str(tmp_path / "dst")
    clone = lake.clone(dst_root)
    _eq(clone.final_table(), want)
    # a second clone into an existing lake refuses
    with pytest.raises(FileExistsError):
        lake.clone(dst_root)
    # hardlinks, not copies: same inode for a live file
    rel = next(iter(lake.manifest.partitions.values()))["files"][0]
    assert os.stat(os.path.join(src_root, rel)).st_ino == \
        os.stat(os.path.join(dst_root, rel)).st_ino

    # divergence: new epoch on the clone only
    extra = gen_changes(500, seed=10)
    clone.apply_changes(extra, epoch_id="e3-clone")
    assert LakeTable(src_root).manifest.epochs[-1]["epoch_id"] == "e2"
    _eq(LakeTable(src_root).final_table(), want)

    # gc + optimize on the SOURCE must not invalidate the clone's reads
    lake.optimize()
    lake.gc()
    clone2 = LakeTable(dst_root)
    got = clone2.final_table()
    # clone has e3 applied — compare against the naive oracle over all
    both = pa.concat_tables([ch, extra], promote_options="permissive")
    _eq(got, naive_apply(both))
    # time travel inside the clone reaches the pre-divergence snapshot
    snap = clone2.final_table(as_of="e2")
    _eq(snap, want)
