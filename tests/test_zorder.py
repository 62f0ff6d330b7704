"""Z-order clustered compaction: optimize(cluster_by=) must keep the
table content identical while making range reads on ANY clustered column
prune whole chunk files via their zone maps."""

import warnings

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from tenzir_ray.cdc.lake import LakeTable, _rank_quantize, _zorder_argsort


def test_rank_quantize_uniform_and_nulls():
    col = pa.array([5, None, 1, 3, None, 2], pa.int64())
    q = _rank_quantize(col, 4)
    # nulls (NaN) rank last; values rank in order
    assert q[2] < q[5] < q[3] < q[0]
    assert q[1] >= q[0] and q[4] >= q[0]
    s = pa.array(["b", "a", None, "c"])
    # a null string index must not pass through float NaN (its int cast
    # is platform-defined and warns)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        qs = _rank_quantize(s, 4)
    assert qs[1] < qs[0] < qs[3] <= qs[2]


def test_zorder_locality_beats_linear_sort():
    """Chunking a Morton order bounds BOTH dimensions' spread; chunking a
    linear x-sort leaves y's per-chunk spread at full range."""
    rng = np.random.default_rng(7)
    n = 20_000
    tbl = pa.table({"x": rng.integers(0, 1000, n), "y": rng.integers(0, 1000, n)})
    order = _zorder_argsort(tbl, ["x", "y"])
    z = tbl.take(pa.array(order))
    chunks = 16
    bounds = np.linspace(0, n, chunks + 1).astype(int)

    def spread(t, col):
        v = t.column(col).to_numpy()
        return int(v.max()) - int(v.min())

    z_spread_y = np.mean([
        spread(z.slice(int(lo), int(hi - lo)), "y")
        for lo, hi in zip(bounds[:-1], bounds[1:])])
    lin = tbl.take(pc.sort_indices(tbl, sort_keys=[("x", "ascending")]))
    lin_spread_y = np.mean([
        spread(lin.slice(int(lo), int(hi - lo)), "y")
        for lo, hi in zip(bounds[:-1], bounds[1:])])
    assert z_spread_y < 0.6 * lin_spread_y, (z_spread_y, lin_spread_y)


def _mk_changes(n):
    i = np.arange(n, dtype=np.int64)
    return pa.table({
        "lsn": pa.array(i),
        "op": pa.array(["insert"] * n),
        "conv_id": pa.array(["c" + str(v % 40) for v in i]),
        "turn_idx": pa.array(i, pa.int32()),
        "x": pa.array(i % 997),
        "y": pa.array((i * 7919) % 997),
    })


def test_optimize_zorder_prunes_both_dims(ray_session, tmp_path):
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=4)
    ch = _mk_changes(12_000)
    lake.apply_changes(ch, epoch_id="e0")
    before = lake.final_table()
    lake.optimize(cluster_by=["x", "y"], target_files=8)
    after = lake.final_table()
    assert after.equals(before)  # clustering rewrites layout, not content
    n_files = sum(len(i["files"]) for i in lake.manifest.partitions.values())
    assert n_files == 4 * 8
    got_x = lake.read(filter_expr="x >= 900").to_pandas()
    px = lake._last_read_pruned
    got_y = lake.read(filter_expr="y >= 900").to_pandas()
    py = lake._last_read_pruned
    assert px > 0 and py > 0, (px, py)  # pruning on BOTH dimensions
    want = before.to_pandas()
    assert len(got_x) == (want["x"] >= 900).sum()
    assert len(got_y) == (want["y"] >= 900).sum()
    assert sorted(got_x["turn_idx"]) == sorted(
        want.loc[want["x"] >= 900, "turn_idx"])
    # point lookups still work over the chunked layout (blooms per chunk)
    one = lake.lookup("c7")
    assert one.num_rows == (want["conv_id"] == "c7").sum()


def test_zorder_then_delta_then_recompact(ray_session, tmp_path):
    """Chunked partitions keep composing with later delta epochs and a
    plain recompaction returns to one file per partition."""
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=2)
    lake.apply_changes(_mk_changes(4_000), epoch_id="e0")
    lake.optimize(cluster_by=["x", "y"], target_files=4)
    upd = pa.table({
        "lsn": pa.array([100_000, 100_001], pa.int64()),
        "op": pa.array(["update", "delete"]),
        "conv_id": pa.array(["c1", "c2"]),
        "turn_idx": pa.array([1, 2], pa.int32()),
        "x": pa.array([5, None], pa.int64()),
        "y": pa.array([6, None], pa.int64()),
    })
    lake.apply_changes(upd, epoch_id="e1")
    t = lake.final_table()
    assert t.num_rows == 4_000 - 1
    row = t.filter(pc.and_(pc.equal(t.column("conv_id"), "c1"),
                           pc.equal(t.column("turn_idx"), 1)))
    assert row.column("x")[0].as_py() == 5
    lake.optimize()
    assert lake.final_table().equals(t)
    assert all(len(i["files"]) == 1
               for i in lake.manifest.partitions.values())
