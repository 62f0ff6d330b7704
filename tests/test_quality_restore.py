"""Ingest constraint gate / dead-letter quarantine, RESTORE-to-version,
and row-TTL expire over the CDC lake (Delta-Lake CHECK-constraint +
RESTORE + retention-DELETE analogs; reference discipline: exactly-once
epochs, libtenzir/src/active_partition.cpp:103)."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data

from tenzir_ray.cdc.generate import gen_changes
from tenzir_ray.cdc.lake import LakeTable
from tenzir_ray.cdc.oracle import naive_apply
from tenzir_ray.cdc.quality import quarantine_changes, read_quarantine

PAYLOAD = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def _eq(got: pa.Table, want: pa.Table, cols=PAYLOAD):
    assert got.num_rows == want.num_rows, (got.num_rows, want.num_rows)
    g = got.select(cols).to_pandas().reset_index(drop=True)
    w = want.select(cols).to_pandas().reset_index(drop=True)
    for c in cols:
        assert g[c].equals(w[c]), f"column {c} differs"


def _split(changes: pa.Table, lo: int, hi: int) -> pa.Table:
    lsn = changes.column("lsn")
    return changes.filter(
        pc.and_(pc.greater_equal(lsn, lo), pc.less(lsn, hi)))


# ---------------------------------------------------------------- quarantine

def test_quarantine_clean_stream_writes_nothing(ray_session, tmp_path):
    dlq = str(tmp_path / "dlq")
    ch = ray.data.from_arrow(gen_changes(2000, seed=7))
    rules = {"conv_nonempty": "conv_id != ''", "turn_ok": "turn_idx >= 0"}
    passed = quarantine_changes(ch, rules, dlq, "e1")
    assert passed.count() == 2000
    assert read_quarantine(dlq).count() == 0
    assert not os.path.exists(os.path.join(dlq, "e1"))  # no empty dirs


def _bad_batch() -> pa.Table:
    return pa.table({
        "lsn": pa.array([10, 11, 12, 13], pa.int64()),
        "op": pa.array(["insert", "delete", "insert", "update"]),
        "conv_id": pa.array(["", "", "c9", "c10"]),
        "turn_idx": pa.array([1, 2, 3, 4], pa.int32()),
        "text": pa.array(["x", None, None, "y"]),
    })


def test_quarantine_divert_and_op_scope(ray_session, tmp_path):
    dlq = str(tmp_path / "dlq")
    rules = {"conv_nonempty": "conv_id != ''", "text_present": "text != null"}
    passed = quarantine_changes(
        ray.data.from_arrow(_bad_batch()), rules, dlq, "e2")
    got = passed.take_all()
    # delete is op-exempt; the clean update passes; two inserts quarantined
    assert sorted(r["lsn"] for r in got) == [11, 13]
    q = read_quarantine(dlq, "e2").take_all()
    viol = {r["lsn"]: r["_violated"] for r in q}
    assert viol == {10: "conv_nonempty", 12: "text_present"}
    assert all(r["_epoch_id"] == "e2" for r in q)


def test_quarantine_null_fails_closed(ray_session, tmp_path):
    # a NULL rule result quarantines (stricter than ANSI CHECK)
    dlq = str(tmp_path / "dlq")
    tbl = pa.table({
        "lsn": pa.array([1, 2], pa.int64()),
        "op": pa.array(["insert", "insert"]),
        "conv_id": pa.array(["a", None]),
        "turn_idx": pa.array([5, 5], pa.int32()),
    })
    passed = quarantine_changes(
        ray.data.from_arrow(tbl), {"conv_nonempty": "conv_id != ''"},
        dlq, "e3")
    assert [r["lsn"] for r in passed.take_all()] == [1]
    assert read_quarantine(dlq, "e3").count() == 1


def test_quarantine_replay_is_idempotent(ray_session, tmp_path):
    dlq = str(tmp_path / "dlq")
    rules = {"conv_nonempty": "conv_id != ''"}
    for _ in range(2):  # crash-replay of the same epoch chunk
        quarantine_changes(
            ray.data.from_arrow(_bad_batch()), rules, dlq, "e4"
        ).materialize()
    # one violating row (lsn 10; delete is op-exempt, c9/c10 pass) — the
    # replay rewrites the same content-addressed file, not a duplicate
    assert read_quarantine(dlq, "e4").count() == 1
    files = [f for f in os.listdir(os.path.join(dlq, "e4"))
             if f.endswith(".parquet")]
    assert len(files) == 1


def test_quarantine_composes_with_lake_apply(ray_session, tmp_path):
    dlq = str(tmp_path / "dlq")
    clean = gen_changes(3000, seed=9)
    poison = pa.table({
        "lsn": pa.array([90000], pa.int64()),
        "op": pa.array(["insert"]),
        "conv_id": pa.array([""]),
        "turn_idx": pa.array([0], pa.int32()),
    })
    stream = ray.data.from_arrow([clean, poison])
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    passed = quarantine_changes(
        stream, {"conv_nonempty": "conv_id != ''"}, dlq, "e1")
    lake.apply_changes(passed, "e1")
    _eq(lake.final_table(), naive_apply(clean))
    assert read_quarantine(dlq).count() == 1


# ------------------------------------------------------------------- restore

def test_restore_to_version_and_roll_forward(ray_session, tmp_path):
    changes = gen_changes(6000, seed=11)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    e1, e2 = _split(changes, 0, 3000), _split(changes, 3000, 6000)
    lake.apply_changes(e1, epoch_id="e1", change_feed=True)
    lake.apply_changes(e2, epoch_id="e2", change_feed=True)
    feed = lake.changes().to_pandas().sort_values("_lsn", ignore_index=True)
    snap = lake.manifest.state_as_of("e1")

    rec = lake.restore("e1")
    assert rec["skipped"] is False and rec["partitions_touched"] >= 1
    _eq(lake.final_table(), naive_apply(e1))
    # the restore's lineage record is a clean replacement: the snapshot's
    # files and their stats, no feed file or written file of its own
    restored = lake.manifest.epochs[-1]["partitions"]
    assert set(restored) == set(snap)
    for k, r in restored.items():
        assert r["mode"] == "restore"
        assert r["files"] == snap[k]["files"]
        assert set(r["file_stats"]) == set(r["files"])
        assert "cdf_file" not in r and "new_file" not in r
    # restore is itself an epoch: time travel across it still works
    _eq(lake.final_table(as_of="e1"), naive_apply(e1))
    _eq(lake.final_table(as_of="e2"), naive_apply(changes))
    # ...and it applied no changes of its own to the feed
    after = lake.changes().to_pandas().sort_values("_lsn", ignore_index=True)
    pd.testing.assert_frame_equal(after, feed)
    # roll FORWARD again by restoring the later snapshot
    lake.restore("e2", epoch_id="fwd")
    _eq(lake.final_table(), naive_apply(changes))
    # exactly-once: same epoch id skips
    assert lake.restore("e1")["skipped"] is True
    # fresh handle over the same root sees the restored state
    _eq(LakeTable(str(tmp_path / "lake")).final_table(), naive_apply(changes))


def test_restore_blocked_after_gc(ray_session, tmp_path):
    changes = gen_changes(4000, seed=3)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    lake.apply_changes(_split(changes, 0, 2000), epoch_id="e1")
    lake.apply_changes(_split(changes, 2000, 4000), epoch_id="e2")
    lake.optimize()  # rewrites partitions; e1 files become orphans
    lake.gc()
    with pytest.raises(FileNotFoundError, match="no longer restorable"):
        lake.restore("e1")


def test_restore_does_not_rewind_resume_lsn(ray_session, tmp_path):
    changes = gen_changes(2000, seed=5)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    lake.apply_changes(_split(changes, 0, 1000), epoch_id="e1")
    lake.apply_changes(_split(changes, 1000, 2000), epoch_id="e2")
    hwm = lake.resume_lsn()
    lake.restore("e1")
    assert lake.resume_lsn() == hwm  # binlog watermark is not rolled back


# -------------------------------------------------------------------- expire

def test_expire_ttl_delete(ray_session, tmp_path):
    changes = gen_changes(3000, seed=13)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lake.apply_changes(changes, epoch_id="e1")
    want = naive_apply(changes)

    rec = lake.expire("turn_idx >= 6")
    assert rec["skipped"] is False
    kept = want.filter(pc.less(want.column("turn_idx"), 6))
    _eq(lake.final_table(), kept)
    assert lake.read(filter_expr="turn_idx >= 6").count() == 0
    # time travel to before the expiry still sees everything
    _eq(lake.final_table(as_of="e1"), want)
    # exactly-once replay
    assert lake.expire("turn_idx >= 6")["skipped"] is True


def test_expire_no_matches_is_safe(ray_session, tmp_path):
    changes = gen_changes(1000, seed=17)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    lake.apply_changes(changes, epoch_id="e1")
    before = lake.final_table()
    lake.expire("turn_idx >= 10000", epoch_id="noop-ttl")
    _eq(lake.final_table(), before)
