"""Merge-on-read reader: ``_load_stored``'s plain unthreaded read returns
what the ``pq.read_table`` path returned (whole, and keyed as a
``conv_id ==`` pushed-down filter), ``read()``'s CPU-sized loader
tasks return the live table under every option, and the preimage change
feed matches a dict model of the lake."""

import os
import random
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from tenzir_ray.cdc.generate import gen_changes
from tenzir_ray.cdc.lake import (
    KEY_COLS, LSN_COL, OP_COL, LakeTable, _load_stored, stable_part_of_uniques,
)
from tenzir_ray.cdc.oracle import naive_apply
from tenzir_ray.cdc.registry import SchemaRegistry


def _load_via_read_table(root: str, rel: str, registry: SchemaRegistry,
                         key: "str | None" = None) -> pa.Table:
    """The reference load: ``pq.read_table`` through the datasets layer,
    ``key`` pushed down as a DNF filter, implicit ``op`` built with
    ``np.repeat``."""
    stored = pq.read_table(
        os.path.join(root, rel),
        filters=None if key is None else [("conv_id", "==", key)])
    lsn_col = stored.column(LSN_COL).cast(pa.int64())
    if OP_COL in stored.column_names:
        op_col = stored.column(OP_COL).cast(pa.string())
    else:
        op_col = pa.array(np.repeat("insert", stored.num_rows), pa.string())
    payload = registry.conform(stored.select(
        [c for c in stored.column_names if c not in (LSN_COL, OP_COL)]))
    return payload.append_column("lsn", lsn_col).append_column("op", op_col)


def _assert_same_load(root: str, rel: str, registry: SchemaRegistry,
                      key: "str | None" = None) -> pa.Table:
    got = _load_stored(root, rel, registry, key)
    want = _load_via_read_table(root, rel, registry, key)
    assert got.schema.equals(want.schema), (got.schema, want.schema)
    assert got.equals(want)
    return got


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in KEY_COLS])


def _table(ds) -> pa.Table:
    return pa.concat_tables(
        ds.iter_batches(batch_format="pyarrow", batch_size=None))


def test_load_stored_matches_read_table(tmp_path):
    root = str(tmp_path)
    v1 = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32()),
                    ("text", pa.string()), ("tokens", pa.int32())])
    reg = SchemaRegistry()
    reg.evolve(v1)
    payload = pa.table({
        "conv_id": ["a", "a", "b", "c"],
        "turn_idx": pa.array([0, 1, 0, 2], pa.int32()),
        "text": ["a0", "a1", None, "c2"],
        "tokens": pa.array([3, None, 5, 7], pa.int32()),
    }, schema=v1)
    base = payload.append_column(LSN_COL, pa.array([0, 1, 2, 3], pa.int64()))
    delta = payload.slice(1, 2).append_column(
        LSN_COL, pa.array([8, 9], pa.int64())).append_column(
        OP_COL, pa.array(["update", "delete"]))
    os.makedirs(os.path.join(root, "part=0"))
    pq.write_table(base, os.path.join(root, "part=0/epoch-e1.parquet"))
    pq.write_table(delta, os.path.join(root, "part=0/delta-e2.parquet"))

    got = _assert_same_load(root, "part=0/epoch-e1.parquet", reg)
    assert got.column("op").to_pylist() == ["insert"] * 4
    assert got.column("op").type == pa.string()
    got = _assert_same_load(root, "part=0/delta-e2.parquet", reg)
    assert got.column("op").to_pylist() == ["update", "delete"]
    keyed = {rel: {k: _assert_same_load(root, rel, reg, k).num_rows
                   for k in ("a", "b", "zz")}
             for rel in ("part=0/epoch-e1.parquet", "part=0/delta-e2.parquet")}
    assert keyed == {"part=0/epoch-e1.parquet": {"a": 2, "b": 1, "zz": 0},
                     "part=0/delta-e2.parquet": {"a": 1, "b": 1, "zz": 0}}

    # both files now predate an evolution: an added column reads as nulls,
    # a widened int is cast
    reg.evolve(pa.schema([("tokens", pa.int64()), ("score", pa.float64())]))
    for rel in ("part=0/epoch-e1.parquet", "part=0/delta-e2.parquet"):
        got = _assert_same_load(root, rel, reg)
        assert got.schema.field("tokens").type == pa.int64()
        assert got.column("score").null_count == got.num_rows
        for k in ("a", "b", "zz"):
            got = _assert_same_load(root, rel, reg, k)
            assert got.schema.field("tokens").type == pa.int64()


def _evolving_lake(root: str) -> tuple[LakeTable, pa.Table]:
    """8 partitions of base + delta files, one epoch after a schema
    evolution (added column, widened int); returns the lake and the
    changes it applied."""
    ch = gen_changes(3600, seed=11)
    lake = LakeTable(root, num_partitions=8)
    lake.apply_changes(ch.slice(0, 3000), epoch_id="e0")
    lake.apply_changes(ch.slice(3000, 300), epoch_id="e1")
    tail = ch.slice(3300, 300)
    tail = tail.set_column(tail.schema.get_field_index("turn_idx"), "turn_idx",
                           tail.column("turn_idx").cast(pa.int64()))
    tail = tail.append_column(
        "score", pa.array(np.arange(tail.num_rows, dtype=np.float64)))
    lake.apply_changes(tail, epoch_id="e2")
    return lake, ch


def test_load_stored_matches_read_table_on_lake_files(ray_session, tmp_path):
    lake, _ = _evolving_lake(str(tmp_path / "lake"))
    rels = {rel for info in lake.manifest.partitions.values()
            for rel in info["files"]}
    kinds = {os.path.basename(r).split("-")[0] for r in rels}
    assert {"epoch", "delta"} <= kinds
    assert lake.registry.schema.field("turn_idx").type == pa.int64()
    for rel in sorted(rels):
        convs = _assert_same_load(lake.root, rel, lake.registry).column("conv_id")
        for k in (convs[0].as_py(), convs[-1].as_py(), "conv-absent"):
            _assert_same_load(lake.root, rel, lake.registry, k)


def test_read_equals_final_table(ray_session, tmp_path):
    lake, ch = _evolving_lake(str(tmp_path / "lake"))
    cpus = int(ray_session.cluster_resources()["CPU"])
    state = lake.manifest.partitions
    assert len(state) > cpus
    assert all(len(info["files"]) > 1 for info in state.values())
    assert lake._has_deltas(state)

    final = lake.final_table()
    assert final.num_rows == naive_apply(ch).num_rows
    assert _sorted(_table(lake.read())).equals(final)

    cols = ["conv_id", "turn_idx", "text"]
    assert _sorted(_table(lake.read(columns=cols))).equals(final.select(cols))

    flt = pc.field("turn_idx") < 3
    want = pads.dataset(final).to_table(filter=flt)
    assert 0 < want.num_rows < final.num_rows
    assert _sorted(_table(lake.read(filter=flt))).equals(want)
    got = _table(lake.read(columns=cols, filter_expr="turn_idx < 3"))
    assert _sorted(got).equals(want.select(cols))

    snap = lake.final_table(as_of="e1")
    assert "score" in snap.column_names and snap.column("score").null_count == snap.num_rows
    assert _sorted(_table(lake.read(as_of="e1"))).equals(snap)

    keep = [1, 5]
    part = stable_part_of_uniques(final.column("conv_id").to_pylist(), 8)
    want = final.filter(pa.array(np.isin(part, keep)))
    assert 0 < want.num_rows < final.num_rows
    assert _sorted(_table(lake.read(parts=keep))).equals(want)


def _loader_tasks(ds) -> int:
    m = re.search(r"Operator \d+ [^:\n]*_PartitionLoader[^:\n]*: (\d+) tasks executed",
                  ds.stats())
    assert m, ds.stats()
    return int(m.group(1))


def test_merge_on_read_runs_at_most_cpus_loader_tasks(ray_session, tmp_path):
    lake, _ = _evolving_lake(str(tmp_path / "lake"))
    cpus = int(ray_session.cluster_resources()["CPU"])
    assert len(lake.manifest.partitions) > cpus
    ds = lake.read().materialize()
    assert ds.count() == lake.final_table().num_rows
    assert _loader_tasks(ds) == cpus
    # two partitions: no more tasks than partitions
    ds = lake.read(parts=[0, 3], filter=pc.field("turn_idx") >= 0).materialize()
    assert _loader_tasks(ds) == 2
    # a compacted lake loads through the same tasks, never a parquet scan
    lake.optimize()
    assert not lake._has_deltas()
    ds = lake.read().materialize()
    assert ds.count() == lake.final_table().num_rows
    assert _loader_tasks(ds) == cpus
    assert "ReadParquet" not in ds.stats()


def _append(lo: int, n: int, score: bool = False) -> pa.Table:
    """A pure-insert epoch of ``n`` fresh keys; with ``score``, the
    epoch adds a float column."""
    tbl = pa.table({
        "lsn": pa.array(np.arange(lo, lo + n), pa.int64()),
        "op": ["insert"] * n,
        "conv_id": [f"c{i % 7}" for i in range(n)],
        "turn_idx": pa.array(np.arange(lo, lo + n, dtype=np.int32)),
        "text": [f"t{lo + i}" for i in range(n)],
    })
    if score:
        tbl = tbl.append_column(
            "score", pa.array(np.arange(n, dtype=np.float64)))
    return tbl


def test_append_only_read_after_schema_evolution(ray_session, tmp_path):
    """An append-only partition's files are read one by one without a
    merge; each is conformed to the registry before the projection and
    the filters, so a column only the later epoch carries reads as nulls
    from the earlier file."""
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=1)
    lake.apply_changes(_append(0, 100), epoch_id="e0", append_only=True)
    lake.apply_changes(_append(1000, 100, score=True), epoch_id="e1",
                       append_only=True)
    assert len(lake.manifest.partitions["0"]["files"]) == 2
    assert not lake._has_deltas()
    final = lake.final_table()
    assert final.num_rows == 200

    cols = ["conv_id", "score"]
    got = _table(lake.read(columns=cols))
    assert got.column_names == cols
    assert got.column("score").null_count == 100
    by = [(c, "ascending") for c in cols]
    assert got.sort_by(by).equals(final.select(cols).sort_by(by))

    flt = pc.field("score") > 10
    want = pads.dataset(final).to_table(filter=flt)
    assert want.num_rows == 89
    assert _sorted(_table(lake.read(filter=flt))).equals(want)
    assert _sorted(_table(lake.read(filter_expr="score > 10"))).equals(want)


def test_zone_map_prunes_compacted_partitions_only(ray_session, tmp_path):
    """Zone-map pruning is decided per partition. A lake of 4 partitions
    gets an update epoch that moves ``x`` of turns 0-99 out of range, as
    delta files; then half the lake is compacted into ``turn_idx``
    clusters. A range read on ``x`` drops chunk files of the compacted
    half. The other half must open its delta files, whose ranges exclude
    the predicate: skipping them would resurrect the superseded rows."""
    n = 2000
    i = np.arange(n)
    base = pa.table({
        "lsn": pa.array(i, pa.int64()), "op": ["insert"] * n,
        "conv_id": [f"c{v % 40}" for v in i],
        "turn_idx": pa.array(i, pa.int32()), "x": pa.array(i, pa.int64()),
    })
    head = base.slice(0, 100)
    upd = pa.table({
        "lsn": pa.array(n + i[:100], pa.int64()), "op": ["update"] * 100,
        "conv_id": head.column("conv_id"), "turn_idx": head.column("turn_idx"),
        "x": pa.array(10_000 + i[:100], pa.int64()),
    })
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lake.apply_changes(base, epoch_id="e0")
    lake.apply_changes(upd, epoch_id="e1")
    lake.optimize(parts=[0, 1], cluster_by=["turn_idx"])
    state = lake.manifest.partitions
    assert not lake._has_deltas({k: state[k] for k in "01"})
    assert all(lake._has_deltas({k: state[k]}) for k in "23")

    final = lake.final_table()
    want = pads.dataset(final).to_table(filter=pc.field("x") < 150)
    assert sorted(want.column("turn_idx").to_pylist()) == list(range(100, 150))
    got = _table(lake.read(filter_expr="x < 150"))
    assert lake._last_read_pruned > 0
    assert _sorted(got).equals(want)


def _feed_model(epochs: list[pa.Table]) -> list[set]:
    """Dict model of the preimage feed: per epoch, the set of
    ``(conv_id, turn_idx, _change_type, text, _lsn)`` rows."""
    live: dict = {}
    out = []
    for ep in epochs:
        net: dict = {}
        for r in ep.to_pylist():
            k = (r["conv_id"], r["turn_idx"])
            if k not in net or r["lsn"] > net[k]["lsn"]:
                net[k] = r
        rows = set()
        for k, r in net.items():
            old = live.get(k)
            if r["op"] == "delete":
                if old is not None:
                    rows.add((*k, "delete", old["text"], old["lsn"]))
                    del live[k]
                continue
            if old is None:
                rows.add((*k, "insert", r["text"], r["lsn"]))
            else:
                rows.add((*k, "update_preimage", old["text"], old["lsn"]))
                rows.add((*k, "update_postimage", r["text"], r["lsn"]))
            live[k] = r
        out.append(rows)
    return out


def test_preimage_feed_matches_dict_model(ray_session, tmp_path):
    rng = random.Random(20)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lsn = 0
    epochs = []
    for e in range(4):
        rows = []
        for _ in range(rng.randint(30, 60)):
            # "z*" conversations are only ever deleted: keys that never lived
            conv = rng.choice(["a", "b", "c", "d", "e", "f", "za", "zb"])
            op = ("delete" if conv.startswith("z") or rng.random() < 0.25
                  else rng.choice(["insert", "update"]))
            rows.append({"lsn": lsn, "op": op, "conv_id": conv,
                         "turn_idx": rng.randint(0, 5),
                         "text": None if op == "delete" else f"{conv}-{lsn}"})
            lsn += 1
        rng.shuffle(rows)
        ep = pa.Table.from_pylist(rows, schema=pa.schema([
            ("lsn", pa.int64()), ("op", pa.string()), ("conv_id", pa.string()),
            ("turn_idx", pa.int32()), ("text", pa.string())]))
        epochs.append(ep)
        lake.apply_changes(ep, epoch_id=f"e{e}", change_feed="preimages")

    want = _feed_model(epochs)
    kinds = set().union(*({r[2] for r in w} for w in want))
    assert kinds == {"insert", "update_preimage", "update_postimage", "delete"}
    for e, exp in enumerate(want):
        got = _table(lake.changes(epochs=[f"e{e}"]))
        assert {(r["conv_id"], r["turn_idx"], r["_change_type"], r["text"], r["_lsn"])
                for r in got.to_pylist()} == exp
        assert got.num_rows == len(exp)

    # within one partition's feed file, keys are sorted and a preimage
    # comes right before its postimage
    for rec in lake.manifest.epochs:
        for info in rec["partitions"].values():
            feed = pq.read_table(os.path.join(lake.root, info["cdf_file"]))
            rows = feed.select([*KEY_COLS, "_change_type"]).to_pylist()
            keys = [(r["conv_id"], r["turn_idx"]) for r in rows]
            assert keys == sorted(keys)
            for i, r in enumerate(rows):
                if r["_change_type"] == "update_postimage":
                    assert rows[i - 1]["_change_type"] == "update_preimage"
                    assert keys[i - 1] == keys[i]
    assert naive_apply(pa.concat_tables(epochs)).num_rows == lake.final_table().num_rows
